"""The benchmark's three workloads: instances, one timed pass, output checks.

Every call into the package goes through the module attribute the pipeline
itself uses (``pipeline.solve_feasibility``, ``pipeline.round_many``, ...), so
the traced run's wrappers see the benchmark's own calls as well.

Instances are ``planted_instance(n, k, p, 0)`` with both vertex sides
relabelled by permutations drawn from the workload seed (seed 0 keeps the
generator's labels).  The program sees only the relabelled graphs.  Relabelling
keeps the amount of solver work per instance the same across seeds, so the
seed varies the inputs without turning the timing into a draw of easy or hard
graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from mbb_sdp import graphs, pipeline, sdp
from mbb_sdp.graphs import BipartiteGraph, Biclique, verify_biclique
from mbb_sdp.pipeline import PipelineConfig
from mbb_sdp.rounding import RoundingParams
from mbb_sdp.sdp import INFEASIBLE, SolverConfig, VectorSolution

SPARSE_CASES = ((32, 8, 0.1), (40, 10, 0.1))
DENSE_CASES = ((16, 4, 0.3), (20, 4, 0.4), (20, 5, 0.3), (24, 6, 0.3))
REROUND_CASES = ((32, 8, 0.1), (20, 4, 0.4))
REROUND_SEEDS = (0, 1, 2, 3)
SOLVER = SolverConfig()


class SetupError(RuntimeError):
    """The workload could not be prepared, so nothing was measured."""


@dataclass
class Instance:
    name: str
    graph: BipartiteGraph
    planted: Biclique


@dataclass
class PassResult:
    """One pass: wall time, calls attempted, failures, and the quality counts
    as (numerator, denominator)."""

    seconds: float
    cpu_s: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    ratios: dict[str, tuple[int, int]] = field(default_factory=dict)
    wrong_verdicts: int | None = None


def make_instance(n: int, k: int, p: float, seed: int) -> Instance:
    graph, planted = graphs.planted_instance(n, k, p, 0)
    left, right = planted.biclique.left, planted.biclique.right
    if seed:
        rng = np.random.default_rng(seed)
        perm_u, perm_v = rng.permutation(graph.n_u), rng.permutation(graph.n_v)
        graph = BipartiteGraph(graph.n_u, graph.n_v, graph.dense()[np.ix_(perm_u, perm_v)])
        left = np.argsort(perm_u)[list(left)]
        right = np.argsort(perm_v)[list(right)]
    return Instance(f"planted-{n}-{k}-{p:g}", graph, Biclique.from_graph(graph, left, right))


def _check_biclique(inst: Instance, found: Biclique, what: str, failures: list[str]) -> None:
    if not verify_biclique(inst.graph, found.left, found.right):
        failures.append(f"{inst.name}: {what} biclique of size {found.size} failed verification")


class _VerdictChecker:
    """Counts `infeasible-at-tolerance` verdicts contradicted by an indicator
    certificate: a k x k sub-block of a known biclique that passes
    check_feasibility at the solver's tolerance.  Results are cached per
    (instance, k) because they depend only on the graph."""

    def __init__(self) -> None:
        self._cache: dict[tuple[str, int], bool] = {}

    def wrong(self, inst: Instance, report, known: Biclique) -> int:
        count = 0
        for rec in report.search["per_k"]:
            k = rec["k"]
            if rec["status"] != INFEASIBLE or k > known.size:
                continue
            key = (inst.name, k)
            if key not in self._cache:
                g = inst.graph
                cert = sdp.indicator_gram(g.n_u, g.n_v, known.left[:k], known.right[:k])
                problem = sdp.build_strong_relaxation(g, k)
                self._cache[key] = sdp.check_feasibility(problem, cert, SOLVER.eps_feas).passed
            count += self._cache[key]
        return count


class SearchWorkload:
    """approximate_mbb(PipelineConfig()) on each instance, plus exact_mbb when
    ``with_exact``.  ``size_ratio`` names the quality ratio reported as the
    end-to-end ``size_ratio``."""

    def __init__(self, cases, with_exact: bool):
        self.cases = cases
        self.with_exact = with_exact
        self.size_ratio = "exact_ratio" if with_exact else "found_ratio"
        self.verdicts = _VerdictChecker()

    def setup(self, seed: int) -> list[Instance]:
        return [make_instance(n, k, p, seed) for n, k, p in self.cases]

    def run_pass(self, instances: list[Instance]) -> PassResult:
        runs = []
        failures: list[str] = []
        attempted = 0
        t0, c0 = time.perf_counter(), time.process_time()
        for inst in instances:
            found = report = exact = None
            attempted += 1
            try:
                found, report = pipeline.approximate_mbb(inst.graph, PipelineConfig())
            except Exception as exc:  # a failed call is counted, the pass goes on
                failures.append(f"{inst.name}: approximate_mbb raised {exc!r}")
            if self.with_exact:
                attempted += 1
                try:
                    exact = pipeline.exact_mbb(inst.graph)
                except Exception as exc:
                    failures.append(f"{inst.name}: exact_mbb raised {exc!r}")
            runs.append((inst, found, report, exact))
        result = PassResult(time.perf_counter() - t0, time.process_time() - c0, attempted, failures)
        self._check(runs, result)
        return result

    def _check(self, runs, result: PassResult) -> None:
        found_sum = planted_sum = exact_sum = pipe_sum = wrong = 0
        for inst, found, report, exact in runs:
            known = inst.planted
            if exact is not None:
                _check_biclique(inst, exact, "exact", result.failures)
                known = max(known, exact, key=lambda b: b.size)
            if found is None:
                continue
            _check_biclique(inst, found, "pipeline", result.failures)
            found_sum += found.size
            planted_sum += inst.planted.size
            if exact is not None:
                if found.size > exact.size:
                    result.failures.append(
                        f"{inst.name}: pipeline size {found.size} above exact size {exact.size}"
                    )
                pipe_sum += found.size
                exact_sum += exact.size
            wrong += self.verdicts.wrong(inst, report, max(known, found, key=lambda b: b.size))
        result.ratios["found_ratio"] = (found_sum, planted_sum)
        if self.with_exact:
            result.ratios["exact_ratio"] = (pipe_sum, exact_sum)
        result.wrong_verdicts = wrong


@dataclass
class Prepared:
    inst: Instance
    solution: VectorSolution
    params: list[RoundingParams]


class RoundingWorkload:
    """Solve the strong relaxation once per instance at its planted k, factor
    it, then time round_many under each rounding seed: the CLI ``round`` flow."""

    size_ratio = "round_best_ratio"

    def __init__(self, cases, rounding_seeds):
        self.cases = cases
        self.rounding_seeds = rounding_seeds

    def setup(self, seed: int) -> list[Prepared]:
        prepared = []
        for n, k, p in self.cases:
            inst = make_instance(n, k, p, seed)
            problem = pipeline.build_strong_relaxation(inst.graph, k)
            outcome = pipeline.solve_feasibility(problem, SOLVER)
            if not outcome.feasible:
                raise SetupError(f"{inst.name}: relaxation at planted k={k} came back {outcome.status}")
            solution = pipeline.gram_to_vectors(outcome.gram, sides=(inst.graph.n_u, inst.graph.n_v))
            n_host = max(inst.graph.n_u, inst.graph.n_v)
            params = [RoundingParams.for_instance(n_host, k, seed=s) for s in self.rounding_seeds]
            prepared.append(Prepared(inst, solution, params))
        return prepared

    def run_pass(self, prepared: list[Prepared]) -> PassResult:
        runs = []
        failures: list[str] = []
        t0, c0 = time.perf_counter(), time.process_time()
        for item in prepared:
            for params in item.params:
                try:
                    runs.append((item.inst, pipeline.round_many(item.solution, item.inst.graph, params)))
                except Exception as exc:
                    failures.append(f"{item.inst.name}: round_many seed {params.seed} raised {exc!r}")
        attempted = sum(len(item.params) for item in prepared)
        result = PassResult(time.perf_counter() - t0, time.process_time() - c0, attempted, failures)
        best_sum = k_sum = 0
        for inst, run in runs:
            k_sum += inst.planted.size
            if run.best is not None:
                _check_biclique(inst, run.best, "rounding", result.failures)
                best_sum += run.best.size
        result.ratios["round_best_ratio"] = (best_sum, k_sum)
        return result


WORKLOADS = {
    "search-sparse": lambda: SearchWorkload(SPARSE_CASES, with_exact=False),
    "search-dense": lambda: SearchWorkload(DENSE_CASES, with_exact=True),
    "reround": lambda: RoundingWorkload(REROUND_CASES, REROUND_SEEDS),
}
