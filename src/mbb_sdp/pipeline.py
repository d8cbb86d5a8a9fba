"""End-to-end approximation pipeline and the experiment harness.

The pipeline searches for the largest target size k at which the strong
relaxation is feasible, rounds the solution at that k, runs a combinatorial
greedy baseline, and returns the largest verified biclique found.  The top
of the search range is the core cap, the largest k with a nonempty
common-neighbour core (no balanced biclique is larger; see
``graphs.common_neighbour_cores``).  Because the relaxation's mass rows are
equalities, feasibility is not a priori monotone in k, so the search is a
descending scan one k at a time: its first feasible k is the largest feasible
k in range, and no k below it is solved.

The per-k rule: when k's common-neighbour core is smaller than the graph, k
is solved first on the core, which holds every balanced k-biclique.  A
feasible core Gram is padded with zeros: a removed vertex then reads 0 = 0 on
its norm-link and degree rows, and a kept vertex's rows lose only zero terms.
The padded Gram is accepted only when it passes ``check_feasibility`` on the
whole graph's strong relaxation.  Any other core outcome, or a core that is
the whole graph, solves the whole graph, so every k the whole-graph solve
calls feasible is still called feasible.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .exact import exact_mbb
from .graphs import (
    RNG_ALGORITHM,
    BipartiteGraph,
    Biclique,
    common_neighbour_cores,
    complete_bipartite,
    empty_bipartite,
    induced_subgraph,
    parse_graph,
    planted_instance,
    verify_biclique,
)
from .rounding import RoundingParams, check_seed_and_trials, diagnostics, round_many
from .sdp import (
    FeasibilityOutcome,
    GramMatrix,
    SolverConfig,
    build_strong_relaxation,
    check_feasibility,
    gram_to_vectors,
    solve_feasibility,
)

__all__ = [
    "PipelineConfig",
    "RunReport",
    "approximate_mbb",
    "greedy_baseline",
    "run_experiment",
    "write_text_atomic",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("instance", "n", "planted_k", "found_size", "exact_size", "method", "time")


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` so readers see the old file or the new one,
    never a partial one: write a temp file in the same directory, then
    ``os.replace`` it.  Paths that exist but are not regular files (a pipe,
    /dev/stdout) are written in place."""
    path = Path(path)
    if path.exists() and not path.is_file():
        path.write_text(text, encoding="utf-8")
        return
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class PipelineConfig:
    """Pipeline settings: the top of the k-scan (None: the core cap; the scan
    always runs down to 1), the solver's settings, the rounding's trial count
    and seed (tau, the heavy cut and the trial default follow from n and
    k*), and whether the exact oracle, under its default size guard, joins
    the comparison.  A value of the wrong type (a float or bool count, a
    string seed, a non-bool use_exact) raises ValueError naming its key."""

    k_hi: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    trials: int | None = None
    seed: int = 0
    use_exact: bool = False

    def __post_init__(self) -> None:
        for key in ("k_hi", "trials", "seed"):
            value = getattr(self, key)
            if value is None and key != "seed":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if not isinstance(self.use_exact, bool):
            raise ValueError(f"use_exact must be true or false, got {self.use_exact!r}")
        if self.k_hi is not None and self.k_hi < 1:
            raise ValueError(f"k_hi must be at least 1, got {self.k_hi}")
        check_seed_and_trials(self.seed, self.trials)


# The keys of a spec run's flat ``config`` object, which is also the report's
# ``config`` echo: every settable value.
_SOLVER_KEYS = frozenset(f.name for f in fields(SolverConfig))
_PIPELINE_KEYS = frozenset(f.name for f in fields(PipelineConfig)) - {"solver"}


@dataclass
class RunReport:
    """Everything one pipeline run decided and found.

    ``timings`` is wall-clock seconds per stage, plus ``per_k`` (the seconds
    of each solved k, in k order), and deliberately excluded from
    serialization unless asked for, so reports are byte-stable across runs.
    """

    instance: dict
    config: dict
    search: dict
    rounding: dict | None
    diagnostics: dict | None
    baseline: dict | None
    exact: dict | None
    best: dict
    rng_algorithm: str = RNG_ALGORITHM
    timings: dict = field(default_factory=dict)

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "instance": self.instance,
            "config": self.config,
            "search": self.search,
            "rounding": self.rounding,
            "diagnostics": self.diagnostics,
            "baseline": self.baseline,
            "exact": self.exact,
            "best": self.best,
            "rng_algorithm": self.rng_algorithm,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2, sort_keys=True) + "\n"


def greedy_baseline(graph: BipartiteGraph) -> Biclique:
    """Greedy baseline: repeatedly take the left vertex with the most
    neighbors inside the current common neighborhood, stop when the balanced
    size would decrease, and return the best prefix.

    Deterministic (ties go to the lowest index); returns at least a single
    edge whenever the graph has one.
    """
    adj = graph.dense()
    if graph.num_edges == 0:
        return Biclique.empty()
    hood = np.ones(graph.n_v, dtype=bool)
    unpicked = np.ones(graph.n_u, dtype=bool)
    picked: list[int] = []
    best_size = 0
    best_realization: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    score = 0
    while unpicked.any() and hood.any():
        gains = (adj & hood).sum(axis=1)
        gains[~unpicked] = -1
        u = int(gains.argmax())
        if gains[u] <= 0:
            break
        new_hood = hood & adj[u]
        new_score = min(len(picked) + 1, int(new_hood.sum()))
        if new_score < score:
            break
        picked.append(u)
        unpicked[u] = False
        hood = new_hood
        score = new_score
        size = min(len(picked), int(hood.sum()))
        if size > best_size:
            best_size = size
            right = tuple(int(j) for j in np.flatnonzero(hood)[:size])
            best_realization = (tuple(picked[:size]), right)
    if best_size == 0:
        return Biclique.empty()
    return Biclique.from_graph(graph, best_realization[0], best_realization[1])


def _solve_k(
    graph: BipartiteGraph, k: int, core: tuple[np.ndarray, np.ndarray], solver: SolverConfig
) -> tuple[FeasibilityOutcome, str]:
    """The strong relaxation's outcome at k on the whole graph's index space,
    and where it was solved ("core" or "graph"), by the module's per-k rule."""
    left, right = core
    if left.size < graph.n_u or right.size < graph.n_v:
        sub, _, _ = induced_subgraph(graph, left, right)
        outcome = solve_feasibility(build_strong_relaxation(sub, k), solver)
        if outcome.feasible:
            index = np.concatenate([[0], 1 + left, 1 + graph.n_u + right])
            padded = np.zeros((1 + graph.n_u + graph.n_v,) * 2)
            padded[np.ix_(index, index)] = outcome.gram.entries
            gram = GramMatrix(padded)
            check = check_feasibility(build_strong_relaxation(graph, k), gram, solver.eps_feas)
            if check.passed:
                return replace(outcome, gram=gram, max_violation=check.max_violation), "core"
    return solve_feasibility(build_strong_relaxation(graph, k), solver), "graph"


def _search(
    graph: BipartiteGraph, cores: list[tuple[np.ndarray, np.ndarray]], solver: SolverConfig
) -> tuple[int | None, FeasibilityOutcome | None, list[dict], list[dict]]:
    """Solve k = len(cores), ..., 1, each on ``cores[k - 1]``, and stop at the
    first feasible k.

    Returns k* and its outcome (None and None when no k is feasible), then
    one report row and one seconds row per solved k, in ascending k.
    """
    per_k: list[dict] = []
    seconds: list[dict] = []
    for k in range(len(cores), 0, -1):
        core = cores[k - 1]
        t0 = time.perf_counter()
        outcome, solved_on = _solve_k(graph, k, core, solver)
        seconds.append({"k": k, "seconds": time.perf_counter() - t0})
        per_k.append(
            {
                "k": k,
                "status": outcome.status,
                "max_violation": outcome.max_violation,
                "iterations": outcome.iterations,
                "core": [int(side.size) for side in core],
                "solved_on": solved_on,
            }
        )
        if outcome.feasible:
            return k, outcome, per_k[::-1], seconds[::-1]
    return None, None, per_k[::-1], seconds[::-1]


def approximate_mbb(
    graph: BipartiteGraph, config: PipelineConfig | None = None
) -> tuple[Biclique, RunReport]:
    """Full pipeline: k-search on the strong relaxation, rounding at the best
    k, greedy baseline, optional exact oracle; returns the largest verified
    biclique and a report of everything examined.

    Always returns at least a single edge when the graph has one.
    """
    config = config or PipelineConfig()
    t_start = time.perf_counter()
    n = max(graph.n_u, graph.n_v)
    config_echo = {key: getattr(config.solver, key) for key in sorted(_SOLVER_KEYS)}
    config_echo.update((key, getattr(config, key)) for key in sorted(_PIPELINE_KEYS))
    instance_meta = {
        "n_u": graph.n_u,
        "n_v": graph.n_v,
        "edges": graph.num_edges,
    }
    timings: dict = {}

    t0 = time.perf_counter()
    cores = common_neighbour_cores(graph)
    # A scan's first feasible k is the largest, so it meets no non-monotone
    # anomaly; the key stays in the report, always empty, for bench/tracing.py.
    search_meta: dict = {"per_k": [], "k_star": None, "anomalies": [], "core_cap": len(cores)}
    rounding_dict = None
    diag_dict = None
    candidates: list[tuple[str, Biclique]] = []

    if graph.num_edges > 0:
        # No balanced biclique is larger than the core cap, and the cap is at
        # least 1 because the k = 1 core holds every edge.
        k_star, outcome, per_k, per_k_seconds = _search(graph, cores[: config.k_hi], config.solver)
        search_meta.update(per_k=per_k, k_star=k_star)
        timings["search"] = time.perf_counter() - t0
        timings["per_k"] = per_k_seconds

        if k_star is not None:
            t0 = time.perf_counter()
            solution = gram_to_vectors(outcome.gram, sides=(graph.n_u, graph.n_v))
            params = RoundingParams.for_instance(n, k_star, trials=config.trials, seed=config.seed)
            run = round_many(solution, graph, params)
            rounding_dict = {
                "k": k_star,
                "trials": params.trials,
                "tau": params.tau,
                "tau_clamped": params.tau_clamped,
                "ratio": params.ratio,
                "r_target": params.r_target,
                "event_count": run.event_count,
                "extraction_count": run.extraction_count,
                "best": run.best.as_dict() if run.best else None,
            }
            diag = diagnostics(solution, graph, params, feas_tol=config.solver.eps_feas)
            diag_dict = asdict(diag)
            del diag_dict["n"], diag_dict["ratio"]
            diag_dict["left_heavy_count"] = len(diag_dict.pop("left_heavy"))
            diag_dict["right_heavy_count"] = len(diag_dict.pop("right_heavy"))
            if run.best is not None:
                candidates.append(("sdp-rounding", run.best))
            timings["rounding"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    base = greedy_baseline(graph)
    timings["baseline"] = time.perf_counter() - t0
    if base.size > 0:
        candidates.append(("baseline", base))

    exact_dict = None
    if config.use_exact:
        t0 = time.perf_counter()
        opt = exact_mbb(graph)
        timings["exact"] = time.perf_counter() - t0
        exact_dict = opt.as_dict()
        if opt.size > 0:
            candidates.append(("exact", opt))

    if candidates:
        # Largest wins; ties go to the earliest-listed method.
        top = max(b.size for _, b in candidates)
        best_method, best = next((m, b) for m, b in candidates if b.size == top)
    else:
        best_method, best = "none", Biclique.empty()

    timings["total"] = time.perf_counter() - t_start
    report = RunReport(
        instance=instance_meta,
        config=config_echo,
        search=search_meta,
        rounding=rounding_dict,
        diagnostics=diag_dict,
        baseline=base.as_dict(),
        exact=exact_dict,
        best={"method": best_method, **best.as_dict()},
        timings=timings,
    )
    return best, report


def _build_instance(gen: dict, base_dir: Path) -> tuple[BipartiteGraph, int | None]:
    """Materialize a run's instance; returns (graph, planted k when known)."""
    kind = gen.get("type", "planted")

    def value(key: str, kinds=int, what: str = "a JSON integer", default=None):
        raw = gen[key] if default is None else gen.get(key, default)
        return _json_value(raw, f"generator {key}", kinds, what)

    if kind == "planted":
        p = value("p", (int, float), "a JSON number", 0.0)
        graph, planted = planted_instance(value("n"), value("k"), float(p), value("seed", default=0))
        return graph, planted.biclique.size
    if kind == "empty":
        return empty_bipartite(value("n_u"), value("n_v")), None
    if kind == "complete":
        return complete_bipartite(value("n_u"), value("n_v")), None
    if kind == "file":
        path = Path(value("path", str, "a JSON string"))
        if not path.is_absolute():
            path = base_dir / path
        return parse_graph(path.read_text(encoding="utf-8")), None
    raise ValueError(f"unknown generator type {kind!r}")


def _config_from_dict(raw: dict) -> PipelineConfig:
    """A spec run's flat ``config`` object; a key that sets no knob is an error."""
    unknown = sorted(set(raw) - _SOLVER_KEYS - _PIPELINE_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    solver = SolverConfig(**{k: v for k, v in raw.items() if k in _SOLVER_KEYS})
    return PipelineConfig(solver=solver, **{k: v for k, v in raw.items() if k in _PIPELINE_KEYS})


def _json_value(value, key: str, kinds=dict, what: str = "a JSON object"):
    """``value``, which the spec's ``key`` holds, checked to be ``what``: an
    instance of ``kinds`` and not a bool, which JSON keeps apart from numbers."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{key} must be {what}, got {json.dumps(value)}")
    return value


def _run_entry_error(run_spec, name: str, uses: int) -> str | None:
    """Why a spec's run entry cannot run and write its report file under
    ``name``, or None when it can."""
    if not isinstance(run_spec, dict):
        return f"run entry {json.dumps(run_spec)} is not a JSON object"
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        return f"run name {name!r} is not a plain file name"
    if uses > 1:
        return f"run name {name!r} is shared by {uses} runs"
    return None


def run_experiment(
    spec_path: str | os.PathLike,
    output_dir: str | os.PathLike | None = None,
    include_timings: bool = False,
) -> Path:
    """Run every instance in a JSON experiment spec.

    Writes one report JSON per run plus ``aggregate.csv`` (columns: instance,
    n, planted_k, found_size, exact_size, method, time) into the output
    directory, atomically.  The spec must be a JSON object and its ``runs``
    a JSON array, otherwise nothing runs and ValueError names the key.  A
    failing run becomes an ``error`` row, its JSON holds an ``error`` object
    with the exception type and message, and one line goes to stderr; the
    rest still complete.  A run entry must be a JSON object, and its name a
    plain file name (not empty, ``.`` or ``..``, no path separator) used by
    no other run of the spec; an entry that breaks this becomes an
    ``error`` row and a stderr line but writes no file.  A missing or null
    name is ``run-<index>``.  The spec's ``output_dir`` must be a JSON
    string.  A run's ``generator`` and ``config`` must be JSON objects,
    ``exact`` and the config's ``use_exact`` JSON booleans, the generator's
    ``n``, ``k``, ``seed``, ``n_u`` and ``n_v`` JSON integers, its ``p`` a
    JSON number and its ``path`` a JSON string.  Returns the CSV path.
    """
    spec_path = Path(spec_path)
    spec = _json_value(json.loads(spec_path.read_text(encoding="utf-8")), "spec")
    runs = _json_value(spec.get("runs", []), "runs", list, "a JSON array")
    spec_out = _json_value(spec.get("output_dir", "reports"), "output_dir", str, "a JSON string")
    base_dir = spec_path.parent
    out = Path(output_dir) if output_dir is not None else base_dir / spec_out
    out.mkdir(parents=True, exist_ok=True)

    names = [
        f"run-{idx}" if not isinstance(run_spec, dict) or run_spec.get("name") is None else str(run_spec["name"])
        for idx, run_spec in enumerate(runs)
    ]
    uses = Counter(names)
    rows: list[dict] = []
    for run_spec, name in zip(runs, names):
        row = {col: "" for col in CSV_COLUMNS}
        row["instance"] = name
        t0 = time.perf_counter()
        entry_error = _run_entry_error(run_spec, name, uses[name])
        try:
            if entry_error is not None:
                raise ValueError(entry_error)
            graph, planted_k = _build_instance(_json_value(run_spec.get("generator", {}), "generator"), base_dir)
            config = _config_from_dict(_json_value(run_spec.get("config", {}), "config"))
            exact = run_spec.get("exact", False)
            if not isinstance(exact, bool):
                raise ValueError(f"exact must be true or false, got {json.dumps(exact)}")
            config.use_exact = config.use_exact or exact
            best, report = approximate_mbb(graph, config)
            # Reports must re-verify before they are trusted in the aggregate.
            if not verify_biclique(graph, report.best["left"], report.best["right"]):
                raise ValueError(f"run {name}: best biclique failed re-verification")
            write_text_atomic(out / f"{name}.json", report.to_json(include_timings))
            row["n"] = str(max(graph.n_u, graph.n_v))
            row["planted_k"] = "" if planted_k is None else str(planted_k)
            row["found_size"] = str(best.size)
            row["exact_size"] = str(report.exact["size"]) if report.exact else ""
            row["method"] = report.best["method"]
        except Exception as exc:
            row["method"] = "error"
            error = {"type": type(exc).__name__, "message": str(exc)}
            print(f"mbb: run {name} failed: {error['type']}: {error['message']}", file=sys.stderr)
            if entry_error is None:
                try:
                    write_text_atomic(
                        out / f"{name}.json", json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"
                    )
                except OSError:
                    pass  # the stderr line and the error row still record the failure
        if include_timings:
            row["time"] = f"{time.perf_counter() - t0:.3f}"
        rows.append(row)

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    csv_path = out / "aggregate.csv"
    write_text_atomic(csv_path, buf.getvalue())
    return csv_path
