"""Span tracer for the benchmark's traced run.

Wraps public module attributes of the package for the duration of one pass,
records one span per call (name, start, end, parent span, pass id, a few
attributes read off the result) in memory, and restores the original
attributes afterwards.  Spans come from the benchmark's own files only; the
package itself is not instrumented.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# Result observers: pull a few JSON-able facts off a wrapped call's result.
def _observe_pipeline(result) -> dict:
    per_k = result[1].search["per_k"]
    skipped = sum(1 for rec in per_k if rec["status"] == "skipped-by-degree-bound")
    return {
        "ks_examined": len(per_k) - skipped,
        "ks_skipped": skipped,
        "anomalies": len(result[1].search["anomalies"]),
    }


def _observe_solve(result) -> dict:
    return {"status": result.status, "iterations": int(result.iterations)}


def _observe_round_many(result) -> dict:
    empty = sum(1 for o in result.outcomes if not o.left_survivors or not o.right_survivors)
    return {
        "trials": len(result.outcomes),
        "empty": empty,
        "extracted": result.extraction_count,
    }


def _observe_extract(result) -> dict:
    return {"found": result is not None}


# (module attribute, span name, observer).  The pipeline module's names cover
# what approximate_mbb calls and what the benchmark itself calls; the rounding
# module's names cover the per-trial work inside round_many.
PIPELINE_TARGETS = (
    ("approximate_mbb", "pipeline.approximate_mbb", _observe_pipeline),
    ("build_strong_relaxation", "sdp.build_strong_relaxation", None),
    ("solve_feasibility", "sdp.solve_feasibility", _observe_solve),
    ("gram_to_vectors", "sdp.gram_to_vectors", None),
    ("round_many", "rounding.round_many", _observe_round_many),
    ("diagnostics", "rounding.diagnostics", None),
    ("greedy_baseline", "pipeline.greedy_baseline", None),
    ("exact_mbb", "exact.exact_mbb", None),
)
ROUNDING_TARGETS = (
    ("gaussian_threshold", "rounding.gaussian_threshold", None),
    ("greedy_extract", "extraction.greedy_extract", _observe_extract),
    ("best_extractable_r", "extraction.best_extractable_r", None),
    ("induced_counts", "graphs.induced_counts", None),
    ("induced_subgraph", "graphs.induced_subgraph", None),
)
GRAPHS_TARGETS = (("planted_instance", "graphs.planted_instance", None),)


class Tracer:
    """Records spans while installed; ``solved`` keeps (pass id, problem,
    outcome) for each solve_feasibility call so the runner can probe and
    re-check them outside the spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.solved: list[tuple[str, Any, Any]] = []
        self.pass_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Callable]] = []

    def install(self, pipeline_mod, rounding_mod, graphs_mod) -> None:
        for module, targets in (
            (pipeline_mod, PIPELINE_TARGETS),
            (rounding_mod, ROUNDING_TARGETS),
            (graphs_mod, GRAPHS_TARGETS),
        ):
            for attr, name, observe in targets:
                self._wrap(module, attr, name, observe)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, module, attr: str, name: str, observe) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.pass_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.attrs = observe(result)
            if name == "sdp.solve_feasibility":
                self.solved.append((self.pass_id, args[0], result))
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def totals(self, pass_id: str) -> dict[str, dict]:
        """Per span name: call count, total seconds, self seconds (total minus
        the time covered by direct children; calls are sequential, so the
        children never overlap)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        out: dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            if span.pass_id != pass_id:
                continue
            entry = out.setdefault(span.name, {"calls": 0, "seconds": 0.0, "self": 0.0, "spans": []})
            entry["calls"] += 1
            entry["seconds"] += span.seconds
            entry["self"] += span.seconds - child_time[idx]
            entry["spans"].append(span)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for idx, span in enumerate(self.spans):
                row = {
                    "id": idx,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "pass": span.pass_id,
                    **span.attrs,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, setup_totals: dict, probe_s: float, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: {"value", "unit"}}.

    ``totals`` and ``setup_totals`` come from :meth:`Tracer.totals` for the
    traced pass and the traced set-up; ``probe_s`` is the summed time of the
    one-iteration sdp probes run outside the spans.
    """
    empty = {"calls": 0, "seconds": 0.0, "self": 0.0, "spans": []}

    def get(name: str, src: dict = totals) -> dict:
        return src.get(name, empty)

    def attr_sum(name: str, key: str, where=None) -> int:
        return sum(
            s.attrs.get(key, 0) for s in get(name)["spans"] if where is None or where(s.attrs)
        )

    solve = get("sdp.solve_feasibility")
    iterations = attr_sum("sdp.solve_feasibility", "iterations")
    useful = attr_sum("sdp.solve_feasibility", "iterations", lambda a: a["status"] == "feasible")
    statuses = [s.attrs["status"] for s in solve["spans"]]
    rmany = get("rounding.round_many")
    trials = attr_sum("rounding.round_many", "trials")
    extract = get("extraction.greedy_extract")
    call = get("pipeline.approximate_mbb")
    induced = [get("graphs.induced_counts"), get("graphs.induced_subgraph")]
    values = {
        "sdp.build_s": (get("sdp.build_strong_relaxation")["seconds"], "s"),
        "sdp.build_calls": (get("sdp.build_strong_relaxation")["calls"], "count"),
        "sdp.solve_s": (solve["seconds"], "s"),
        "sdp.solves": (solve["calls"], "count"),
        "sdp.solves_feasible": (statuses.count("feasible"), "count"),
        "sdp.solves_infeasible": (statuses.count("infeasible-at-tolerance"), "count"),
        "sdp.solves_limit": (statuses.count("solver-limit"), "count"),
        "sdp.iterations": (iterations, "count"),
        "sdp.useful_iter_ratio": (_ratio(useful, iterations), "ratio"),
        "sdp.setup_probe_s": (probe_s, "s"),
        "sdp.iter_ms": (1000.0 * _ratio(solve["seconds"] - probe_s, iterations - solve["calls"]), "ms"),
        "sdp.factor_s": (get("sdp.gram_to_vectors")["seconds"], "s"),
        "pipeline.call_s": (call["seconds"], "s"),
        "pipeline.self_s": (call["self"], "s"),
        "pipeline.ks_examined": (attr_sum("pipeline.approximate_mbb", "ks_examined"), "count"),
        "pipeline.ks_skipped": (attr_sum("pipeline.approximate_mbb", "ks_skipped"), "count"),
        "pipeline.anomalies": (attr_sum("pipeline.approximate_mbb", "anomalies"), "count"),
        "pipeline.baseline_s": (get("pipeline.greedy_baseline")["seconds"], "s"),
        "rounding.round_many_s": (rmany["seconds"], "s"),
        "rounding.self_s": (rmany["self"], "s"),
        "rounding.trials": (trials, "count"),
        "rounding.trial_ms": (1000.0 * _ratio(rmany["seconds"], trials), "ms"),
        "rounding.threshold_s": (get("rounding.gaussian_threshold")["seconds"], "s"),
        "rounding.diagnostics_s": (get("rounding.diagnostics")["seconds"], "s"),
        "rounding.empty_ratio": (_ratio(attr_sum("rounding.round_many", "empty"), trials), "ratio"),
        "rounding.extraction_ratio": (
            _ratio(attr_sum("rounding.round_many", "extracted"), trials),
            "ratio",
        ),
        "extraction.extract_s": (extract["seconds"], "s"),
        "extraction.calls": (extract["calls"], "count"),
        "extraction.calls_per_trial": (_ratio(extract["calls"], trials), "ratio"),
        "extraction.success_ratio": (
            _ratio(sum(s.attrs["found"] for s in extract["spans"]), extract["calls"]),
            "ratio",
        ),
        "extraction.best_r_s": (get("extraction.best_extractable_r")["seconds"], "s"),
        "graphs.planted_s": (get("graphs.planted_instance", setup_totals)["seconds"], "s"),
        "graphs.induced_s": (sum(t["seconds"] for t in induced), "s"),
        "graphs.induced_calls": (sum(t["calls"] for t in induced), "count"),
        "exact.call_s": (get("exact.exact_mbb")["seconds"], "s"),
        "exact.calls": (get("exact.exact_mbb")["calls"], "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
