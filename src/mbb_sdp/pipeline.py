"""End-to-end approximation pipeline and the experiment harness.

The pipeline searches for the largest target size k at which the strong
relaxation is feasible, rounds the solution at that k, runs a combinatorial
greedy baseline, and returns the largest verified biclique found.  The top
of the search range is the core cap, the largest k with a nonempty
common-neighbour core (no balanced biclique is larger; see
``graphs.common_neighbour_cores``).  Because the relaxation's mass rows are
equalities, feasibility is not a priori monotone in k, so the search is a
descending scan one k at a time: its first feasible k is the largest feasible
k in range, and no k below it is solved.  Each k is solved first on its
common-neighbour core, and on the whole graph when the core does not give a
certificate.
"""

from __future__ import annotations

import csv
import io
import json
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
from .rounding import RoundingParams, RoundingRun, check_seed_and_trials, diagnostics, round_many
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
    """Pipeline knobs: search range, solver and rounding settings, and method
    toggles."""

    k_lo: int = 1
    k_hi: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    trials: int | None = None
    seed: int = 0
    tau: float | None = None
    use_baseline: bool = True
    use_exact: bool = False
    exact_size_limit: int | None = None

    def __post_init__(self) -> None:
        if self.k_lo < 1:
            raise ValueError("k_lo must be at least 1")
        if self.k_hi is not None and self.k_hi < self.k_lo:
            raise ValueError("k_hi must be at least k_lo")
        check_seed_and_trials(self.seed, self.trials)


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


def _lowest_edge(graph: BipartiteGraph) -> Biclique:
    i, j = min(graph.edges)
    return Biclique.from_graph(graph, [i], [j])


def _pad_gram(gram: GramMatrix, graph: BipartiteGraph, left: np.ndarray, right: np.ndarray) -> GramMatrix:
    """Embed a Gram matrix over an induced subgraph (anchor, then ``left``,
    then ``right``) into ``graph``'s index space, with zeros for every vertex
    outside the subgraph."""
    index = np.concatenate([[0], 1 + left, 1 + graph.n_u + right])
    padded = np.zeros((1 + graph.n_u + graph.n_v,) * 2)
    padded[np.ix_(index, index)] = gram.entries
    return GramMatrix(padded)


class _KSearch:
    """Feasibility tester that records one entry, and the wall-clock seconds
    of its builds and solves, per solved k.

    Each k is solved first on ``cores[k - 1]``, an induced subgraph that
    holds every balanced k-biclique (the pipeline passes the common-neighbour
    cores).  A feasible core Gram is padded with zeros: a removed vertex
    then reads 0 = 0 on its norm-link and degree rows, and a kept vertex's
    rows lose only zero terms, whatever subgraph was removed.  The padded Gram is accepted only when it passes ``check_feasibility`` on the
    whole graph's strong relaxation.  Any other core outcome, or a core that
    is the whole graph, solves the whole graph, so every k the whole-graph
    solve calls feasible is still called feasible.
    """

    def __init__(
        self, graph: BipartiteGraph, config: PipelineConfig, cores: list[tuple[np.ndarray, np.ndarray]]
    ):
        self.graph = graph
        self.config = config
        self.cores = cores
        self.records: dict[int, dict] = {}
        self.seconds: dict[int, float] = {}
        self.solutions: dict[int, FeasibilityOutcome] = {}

    def _solve_core(self, k: int, left: np.ndarray, right: np.ndarray) -> FeasibilityOutcome | None:
        """The core's outcome with its Gram padded to the whole graph, or None
        unless the core is feasible and the padded Gram passes the check."""
        core, _, _ = induced_subgraph(self.graph, left, right)
        outcome = solve_feasibility(build_strong_relaxation(core, k), self.config.solver)
        if not outcome.feasible:
            return None
        padded = _pad_gram(outcome.gram, self.graph, left, right)
        check = check_feasibility(build_strong_relaxation(self.graph, k), padded, self.config.solver.eps_feas)
        if not check.passed:
            return None
        return replace(outcome, gram=padded, max_violation=check.max_violation)

    def feasible(self, k: int) -> bool:
        t0 = time.perf_counter()
        left, right = self.cores[k - 1]
        outcome = None
        if left.size < self.graph.n_u or right.size < self.graph.n_v:
            outcome = self._solve_core(k, left, right)
        solved_on = "core"
        if outcome is None:
            solved_on = "graph"
            outcome = solve_feasibility(build_strong_relaxation(self.graph, k), self.config.solver)
        self.seconds[k] = time.perf_counter() - t0
        self.records[k] = {
            "k": k,
            "status": outcome.status,
            "max_violation": outcome.max_violation,
            "iterations": outcome.iterations,
            "core": [int(left.size), int(right.size)],
            "solved_on": solved_on,
        }
        if outcome.feasible:
            self.solutions[k] = outcome
        return outcome.feasible

    def per_k(self) -> list[dict]:
        return [self.records[k] for k in sorted(self.records)]


def _scan_descending(search: _KSearch, k_lo: int, k_hi: int) -> int | None:
    """Test k = k_hi, k_hi - 1, ... and return the first feasible k, or None.

    Every k above the returned one tested infeasible, so it is the largest
    feasible k in [k_lo, k_hi] even when feasibility is not monotone, and no
    k below it is solved: the scan costs exactly the solves in [k*, k_hi].
    """
    for k in range(k_hi, k_lo - 1, -1):
        if search.feasible(k):
            return k
    return None


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
    config_echo = {
        "k_lo": config.k_lo,
        "k_hi": config.k_hi,
        "eps_feas": config.solver.eps_feas,
        "max_iterations": config.solver.max_iterations,
        "trials": config.trials,
        "seed": config.seed,
        "tau": config.tau,
        "use_baseline": config.use_baseline,
        "use_exact": config.use_exact,
    }
    instance_meta = {
        "n_u": graph.n_u,
        "n_v": graph.n_v,
        "edges": graph.num_edges,
    }
    timings: dict = {}

    t0 = time.perf_counter()
    cores = common_neighbour_cores(graph)
    # A scan's first feasible k is the largest, so it meets no non-monotone
    # anomaly; the key stays in the report's schema, always empty.
    search_meta: dict = {"per_k": [], "k_star": None, "anomalies": [], "core_cap": len(cores)}
    rounding_dict = None
    diag_dict = None
    candidates: list[tuple[str, Biclique]] = []

    k_star = None
    run: RoundingRun | None = None
    if graph.num_edges > 0:
        k_hi = len(cores)  # no balanced biclique is larger than the core cap
        if config.k_hi is not None:
            k_hi = min(k_hi, config.k_hi)
        searcher = _KSearch(graph, config, cores)
        if config.k_lo <= k_hi:
            k_star = _scan_descending(searcher, config.k_lo, k_hi)
        search_meta.update(per_k=searcher.per_k(), k_star=k_star)
        timings["search"] = time.perf_counter() - t0
        timings["per_k"] = [{"k": k, "seconds": searcher.seconds[k]} for k in sorted(searcher.seconds)]

        if k_star is not None:
            t0 = time.perf_counter()
            outcome = searcher.solutions[k_star]
            solution = gram_to_vectors(outcome.gram, sides=(graph.n_u, graph.n_v))
            params = RoundingParams.for_instance(
                n, k_star, trials=config.trials, seed=config.seed, tau=config.tau
            )
            run = round_many(solution, graph, params)
            rounding_dict = {
                "k": k_star,
                "trials": params.trials,
                "tau": params.tau,
                "tau_clamped": params.tau_clamped,
                "ratio": params.ratio,
                "r_target": run.outcomes[0].r_target if run.outcomes else None,
                "event_count": run.event_count,
                "extraction_count": run.extraction_count,
                "best": run.best.as_dict() if run.best else None,
            }
            diag = diagnostics(
                solution, graph, params.ratio, tau=config.tau, feas_tol=config.solver.eps_feas
            )
            diag_dict = asdict(diag)
            del diag_dict["n"], diag_dict["ratio"]
            diag_dict["left_heavy_count"] = len(diag_dict.pop("left_heavy"))
            diag_dict["right_heavy_count"] = len(diag_dict.pop("right_heavy"))
            if run.best is not None:
                candidates.append(("sdp-rounding", run.best))
            timings["rounding"] = time.perf_counter() - t0

    baseline_dict = None
    if config.use_baseline:
        t0 = time.perf_counter()
        base = greedy_baseline(graph)
        timings["baseline"] = time.perf_counter() - t0
        baseline_dict = base.as_dict()
        if base.size > 0:
            candidates.append(("baseline", base))

    exact_dict = None
    if config.use_exact:
        t0 = time.perf_counter()
        opt = exact_mbb(graph, size_limit=config.exact_size_limit)
        timings["exact"] = time.perf_counter() - t0
        exact_dict = opt.as_dict()
        if opt.size > 0:
            candidates.append(("exact", opt))

    if not candidates and graph.num_edges > 0:
        candidates.append(("edge", _lowest_edge(graph)))

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
        baseline=baseline_dict,
        exact=exact_dict,
        best={"method": best_method, **best.as_dict()},
        timings=timings,
    )
    return best, report


def _build_instance(gen: dict, base_dir: Path) -> tuple[BipartiteGraph, int | None]:
    """Materialize a run's instance; returns (graph, planted k when known)."""
    kind = gen.get("type", "planted")
    if kind == "planted":
        graph, planted = planted_instance(
            int(gen["n"]), int(gen["k"]), float(gen.get("p", 0.0)), int(gen.get("seed", 0))
        )
        return graph, planted.biclique.size
    if kind == "empty":
        return empty_bipartite(int(gen["n_u"]), int(gen["n_v"])), None
    if kind == "complete":
        return complete_bipartite(int(gen["n_u"]), int(gen["n_v"])), None
    if kind == "file":
        path = Path(gen["path"])
        if not path.is_absolute():
            path = base_dir / path
        return parse_graph(path.read_text(encoding="utf-8")), None
    raise ValueError(f"unknown generator type {kind!r}")


_SOLVER_KEYS = frozenset(f.name for f in fields(SolverConfig)) - {"warm_start"}
_PIPELINE_KEYS = frozenset(f.name for f in fields(PipelineConfig)) - {"solver"}


def _config_from_dict(raw: dict) -> PipelineConfig:
    """A spec run's flat ``config`` object; a key that sets no knob is an error."""
    unknown = sorted(set(raw) - _SOLVER_KEYS - _PIPELINE_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    solver = SolverConfig(**{k: v for k, v in raw.items() if k in _SOLVER_KEYS})
    return PipelineConfig(solver=solver, **{k: v for k, v in raw.items() if k in _PIPELINE_KEYS})


def _run_name_error(name: str, uses: int) -> str | None:
    """Why ``name`` cannot name a run's report file, or None when it can."""
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
    directory, atomically.  A failing run becomes an ``error`` row, its JSON
    holds an ``error`` object with the exception type and message, and one
    line goes to stderr; the rest still complete.  A run's name must be a
    plain file name (not empty, ``.`` or ``..``, no path separator) used by
    no other run of the spec; a run that breaks this becomes an ``error``
    row and a stderr line but writes no file.  Returns the CSV path.
    """
    spec_path = Path(spec_path)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    base_dir = spec_path.parent
    out = Path(output_dir) if output_dir is not None else base_dir / spec.get("output_dir", "reports")
    out.mkdir(parents=True, exist_ok=True)

    runs = spec.get("runs", [])
    names = [str(run_spec.get("name", f"run-{idx}")) for idx, run_spec in enumerate(runs)]
    uses = Counter(names)
    rows: list[dict] = []
    for run_spec, name in zip(runs, names):
        row = {col: "" for col in CSV_COLUMNS}
        row["instance"] = name
        t0 = time.perf_counter()
        name_error = _run_name_error(name, uses[name])
        try:
            if name_error is not None:
                raise ValueError(name_error)
            graph, planted_k = _build_instance(run_spec.get("generator", {}), base_dir)
            config = _config_from_dict(dict(run_spec.get("config", {})))
            if run_spec.get("exact"):
                config.use_exact = True
            best, report = approximate_mbb(graph, config)
            # Reports must re-verify before they are trusted in the aggregate.
            payload = report.to_dict(include_timings)
            loaded = payload["best"]
            if not verify_biclique(graph, loaded["left"], loaded["right"]):
                raise ValueError(f"run {name}: best biclique failed re-verification")
            write_text_atomic(
                out / f"{name}.json", json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            row["n"] = str(max(graph.n_u, graph.n_v))
            row["planted_k"] = "" if planted_k is None else str(planted_k)
            row["found_size"] = str(best.size)
            row["exact_size"] = str(report.exact["size"]) if report.exact else ""
            row["method"] = payload["best"]["method"]
        except Exception as exc:
            row["method"] = "error"
            error = {"type": type(exc).__name__, "message": str(exc)}
            print(f"mbb: run {name} failed: {error['type']}: {error['message']}", file=sys.stderr)
            if name_error is None:
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
