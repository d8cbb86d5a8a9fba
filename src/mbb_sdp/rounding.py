"""Gaussian threshold rounding of a relaxation solution.

Heavy vertices (mass at least 1/(8t) for oversampling ratio t = n/k) keep
almost all of the relaxation's mass.  Shifting each heavy vector against the
anchor by alpha = 1 - 1/sqrt(2) halves products relative to mass pairs, which
makes non-edge pairs strictly anticorrelated while edge pairs with large
products stay positively correlated.  Thresholding one shared Gaussian
projection then keeps correlated pairs together often enough that the
survivor subgraph is dense, and greedy extraction reads a biclique off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np

from .extraction import extract_bits, extractable_r
from .gaussian import seeded_normals, std_normal_pdf
from .graphs import BipartiteGraph, Biclique, bit_mask
from .sdp import VectorSolution

# The per-trial path no longer calls these (nor gaussian_threshold), but they
# stay importable from this module: bench/tracing.py wraps them here by name.
from .extraction import best_extractable_r, greedy_extract  # noqa: F401
from .graphs import induced_counts, induced_subgraph  # noqa: F401

__all__ = [
    "ALPHA_DEFAULT",
    "TAU_FLOOR",
    "GUARANTEE_D",
    "RoundingParams",
    "TrialOutcome",
    "RoundingRun",
    "Diagnostics",
    "default_tau",
    "default_trials",
    "heavy_sets",
    "shift_vectors",
    "gaussian_threshold",
    "analysis_size_target",
    "round_once",
    "round_many",
    "diagnostics",
    "check_seed_and_trials",
]

ALPHA_DEFAULT = 1.0 - 1.0 / math.sqrt(2.0)
TAU_FLOOR = 0.5
# Analysis constant in the headline guarantee n^(1/(D t)); reported, never asserted.
GUARANTEE_D = 1000.0
_DEGENERATE_NORM = 1e-12
# Trial t draws from default_rng((seed, t)); gaussian.seeded_normals replays
# that seeding while t is one 32-bit entropy word.
_MAX_TRIALS = 2**32
# Trials drawn and multiplied together in round_many.  Per trial, blocks of
# 128 and 256 cost about the same and 32 half again as much; a larger block
# only raises peak memory.
_BLOCK = 256


def default_tau(n: int) -> tuple[float, bool]:
    """Threshold sqrt(0.1 ln n), clamped up to 0.5 for tiny n; returns (tau, clamped)."""
    raw = math.sqrt(0.1 * math.log(n))
    if raw < TAU_FLOOR:
        return TAU_FLOOR, True
    return raw, False


def _resolve_tau(n: int, tau: float | None) -> tuple[float, bool]:
    """(tau, clamped) for a run on n: the default when tau is None, else the
    given tau, which is never clamped."""
    if tau is None:
        return default_tau(n)
    return float(tau), False


def default_trials(n: int) -> int:
    return min(n**3, 10_000)


def check_seed_and_trials(seed: int, trials: int | None) -> None:
    """Reject a negative seed and a trial count outside [1, 2**32];
    trials=None stands for the default count."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if trials is not None and not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, 2**32], got {trials}")


@dataclass(frozen=True)
class RoundingParams:
    """Knobs for one rounding run.

    ratio is n/k (instance size over target biclique size); heavy_threshold
    defaults to 1/(8 ratio); per-trial generators are derived from (seed,
    trial index), so outcomes are reproducible and order-independent.
    """

    ratio: float
    tau: float
    trials: int
    heavy_threshold: float
    seed: int = 0
    tau_clamped: bool = False

    def __post_init__(self) -> None:
        if self.ratio <= 0:
            raise ValueError("ratio must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        check_seed_and_trials(self.seed, self.trials)

    @classmethod
    def for_instance(
        cls,
        n: int,
        k: float,
        trials: int | None = None,
        seed: int = 0,
        tau: float | None = None,
    ) -> "RoundingParams":
        if k <= 0 or k > n:
            raise ValueError(f"target size k={k} must lie in (0, n={n}]")
        ratio = n / k
        tau, clamped = _resolve_tau(n, tau)
        return cls(
            ratio=ratio,
            tau=tau,
            trials=default_trials(n) if trials is None else int(trials),
            heavy_threshold=1.0 / (8.0 * ratio),
            seed=int(seed),
            tau_clamped=clamped,
        )


@dataclass(frozen=True)
class TrialOutcome:
    """One trial: who survived the threshold, the survivor subgraph's density
    score, whether the analysis event held, and what extraction found."""

    left_survivors: tuple[int, ...]
    right_survivors: tuple[int, ...]
    edges: int
    non_edges: int
    r_target: int
    potential: int
    event_held: bool
    biclique: Biclique | None
    dropped_members: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class RoundingRun:
    """All trial outcomes of one rounding run plus the best verified biclique.

    ``distinct_sets`` counts the distinct survivor masks among the trials,
    which is how many times scoring and extraction ran.
    """

    best: Biclique | None
    outcomes: tuple[TrialOutcome, ...]
    params: RoundingParams
    distinct_sets: int

    @property
    def event_count(self) -> int:
        return sum(1 for o in self.outcomes if o.event_held)

    @property
    def extraction_count(self) -> int:
        return sum(1 for o in self.outcomes if o.biclique is not None)


def heavy_sets(
    solution: VectorSolution, ratio: float, threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vertices with mass at least 1/(8 ratio), boundary inclusive, per side."""
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if solution.sides is None:
        raise ValueError("solution carries no (n_u, n_v) split; use with_sides first")
    thr = 1.0 / (8.0 * ratio) if threshold is None else float(threshold)
    masses = solution.masses()
    n_u = solution.sides[0]
    left = np.flatnonzero(masses[:n_u] >= thr)
    right = np.flatnonzero(masses[n_u:] >= thr)
    return left, right


def _shifted_members(
    solution: VectorSolution, left_members: np.ndarray, right_members: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Member vectors u (left, then right), their masses c, the shifted
    vectors u - ALPHA_DEFAULT c e and the squared norms of those."""
    n_u = solution.sides[0]
    rows = np.concatenate([left_members, n_u + right_members]).astype(int)
    vectors = solution.vectors[rows]
    masses = vectors @ solution.anchor
    shifted = vectors - ALPHA_DEFAULT * np.outer(masses, solution.anchor)
    return vectors, masses, shifted, np.einsum("ij,ij->i", shifted, shifted)


def _unit_shifted(
    vectors: np.ndarray,
    masses: np.ndarray,
    shifted: np.ndarray,
    norms_sq: np.ndarray,
    identity_tol: float,
) -> np.ndarray:
    """Check the shift identities of _shifted_members' output, then normalize."""
    if norms_sq.size and norms_sq.min() < _DEGENERATE_NORM**2:
        worst = int(norms_sq.argmin())
        raise ValueError(f"member {worst} has a degenerate shifted norm {math.sqrt(max(norms_sq[worst], 0.0))}")
    products = shifted @ shifted.T
    expected = vectors @ vectors.T - 0.5 * np.outer(masses, masses)
    err = float(np.abs(products - expected).max()) if products.size else 0.0
    if err > identity_tol:
        raise ArithmeticError(f"shift product identity off by {err} (tolerance {identity_tol})")
    norm_err = (
        float(np.abs(norms_sq - masses * (1.0 - 0.5 * masses)).max()) if norms_sq.size else 0.0
    )
    if norm_err > identity_tol:
        raise ArithmeticError(
            f"shift norm identity off by {norm_err} (tolerance {identity_tol}); "
            "the input's norm-link constraints may be violated beyond the tolerance"
        )
    return shifted / np.sqrt(norms_sq)[:, None]


def shift_vectors(
    solution: VectorSolution,
    left_members,
    right_members,
    identity_tol: float = 1e-9,
) -> np.ndarray:
    """Shift members against the anchor and normalize: u' = u - ALPHA_DEFAULT c e.

    Verifies the exact shift algebra <u'_i, u'_j> = <u_i, u_j> - c_i c_j / 2
    on all member pairs and the norm identity |u'_i|^2 = c_i (1 - c_i / 2),
    which additionally needs the norm-link constraint, at ``identity_tol``.
    Raises on a member whose shifted norm is degenerate (below 1e-12).
    """
    if solution.sides is None:
        raise ValueError("solution carries no (n_u, n_v) split; use with_sides first")
    left_members = np.asarray(list(left_members), dtype=int)
    right_members = np.asarray(list(right_members), dtype=int)
    return _unit_shifted(*_shifted_members(solution, left_members, right_members), identity_tol)


def gaussian_threshold(
    unit_vectors: np.ndarray, tau: float, rng: np.random.Generator
) -> np.ndarray:
    """One shared Gaussian draw; keep members whose projection reaches tau."""
    if unit_vectors.ndim != 2:
        raise ValueError("expected a (members, dim) matrix of unit vectors")
    return _cut(unit_vectors, rng.standard_normal(unit_vectors.shape[1]), tau)


def _cut(unit_vectors: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """Members whose projection on g reaches tau, one matrix-vector product."""
    return (unit_vectors @ g) >= tau


def analysis_size_target(ratio: float, tau: float) -> float:
    """Biclique order the tail-bound analysis supports:
    exp(tau^2 / (16 ratio)) / (64 sqrt(pi) tau ratio^2)."""
    if ratio <= 0 or tau <= 0:
        raise ValueError("ratio and tau must be positive")
    return math.exp(tau * tau / (16.0 * ratio)) / (64.0 * math.sqrt(math.pi) * tau * ratio * ratio)


@dataclass(frozen=True)
class _Prepared:
    left_members: np.ndarray
    right_members: np.ndarray
    unit_vectors: np.ndarray
    dropped: tuple[tuple[str, int], ...]
    r_target: int


def _prepare(solution: VectorSolution, params: RoundingParams) -> _Prepared:
    left, right = heavy_sets(solution, params.ratio, params.heavy_threshold)
    vectors, masses, shifted, norms_sq = _shifted_members(solution, left, right)
    keep = norms_sq >= _DEGENERATE_NORM**2
    n_left = left.size
    dropped = tuple(
        ("U", int(left[i])) if i < n_left else ("V", int(right[i - n_left]))
        for i in np.flatnonzero(~keep)
    )
    left = left[keep[:n_left]]
    right = right[keep[n_left:]]
    if left.size or right.size:
        slack = float(np.abs(np.einsum("ij,ij->i", vectors, vectors) - masses).max())
        tol = max(1e-9, 4.0 * slack + 1e-12)
        unit = _unit_shifted(vectors[keep], masses[keep], shifted[keep], norms_sq[keep], tol)
    else:
        unit = np.zeros((0, solution.dim))
    r_target = max(1, math.floor(analysis_size_target(params.ratio, params.tau)))
    return _Prepared(left, right, unit, dropped, r_target)


def _survivor_masks(prepared: _Prepared, params: RoundingParams):
    """Each trial's survivor mask over the members, left then right, in
    trial order, _BLOCK trials at a time; with no members every mask is
    empty."""
    unit = prepared.unit_vectors
    if not unit.shape[0]:
        yield from repeat(np.zeros(0, dtype=bool), params.trials)
        return
    for start in range(0, params.trials, _BLOCK):
        yield from _block_masks(unit, params.tau, params.seed, start, min(start + _BLOCK, params.trials))


def _block_masks(unit: np.ndarray, tau: float, seed: int, start: int, stop: int) -> np.ndarray:
    """Survivor masks of trials start..stop-1: trial t cuts
    default_rng((seed, t)).standard_normal(dim) at tau, exactly as
    gaussian_threshold does.

    The block's draws are multiplied by one matrix product.  That product
    and gaussian_threshold's matrix-vector product each lie within about
    dim eps |g| / 2 of the exact inner product of g with a unit vector,
    whatever their summation order, so a trial with an entry within
    4 dim eps |g| of tau is recut by _cut on a fresh copy of its row, and no
    other entry can fall on the other side of tau.  Only the masks outlive
    the call, so the draws are freed before any trial is scored.
    """
    dim = unit.shape[1]
    draws = seeded_normals(seed, start, stop, dim)
    products = draws @ unit.T
    masks = products >= tau
    margin = 4.0 * dim * np.finfo(float).eps * np.sqrt(np.einsum("ij,ij->i", draws, draws))
    for i in np.flatnonzero((np.abs(products - tau) <= margin[:, None]).any(axis=1)):
        masks[i] = _cut(unit, draws[i].copy(), tau)
    return masks


class _Evaluator:
    """Scores and extracts survivor masks of one prepared solution on its
    host graph.

    Each survivor set is cleaned and picked in host indices on the host's
    bitsets, which the graph builds once and caches.  Every biclique is
    certified against the host graph once per distinct (left, right);
    repeats reuse the certified object.
    """

    def __init__(self, prepared: _Prepared, graph: BipartiteGraph):
        self.prepared = prepared
        self.graph = graph
        self.rows, self.cols = graph.bitsets()
        self.left_members = prepared.left_members.tolist()
        self.right_members = prepared.right_members.tolist()
        self.certified: dict[tuple[tuple[int, ...], tuple[int, ...]], Biclique] = {}

    def _certify(self, left: list[int], right: list[int]) -> Biclique:
        key = (tuple(left), tuple(right))
        biclique = self.certified.get(key)
        if biclique is None:
            biclique = self.certified[key] = Biclique.from_graph(self.graph, left, right)
        return biclique

    def __call__(self, mask: np.ndarray) -> TrialOutcome:
        """The outcome of one survivor mask; it depends on the mask alone."""
        prepared = self.prepared
        flags = mask.tolist()
        n_left = len(self.left_members)
        left = list(compress(self.left_members, flags[:n_left]))
        right = list(compress(self.right_members, flags[n_left:]))
        edges = non_edges = 0
        biclique: Biclique | None = None
        if left and right:
            rows = self.rows
            live_r = bit_mask(right)
            for i in left:
                edges += (rows[i] & live_r).bit_count()
            non_edges = len(left) * len(right) - edges
            n_local = max(len(left), len(right))
            r_hi = min(len(left), len(right), max(prepared.r_target, extractable_r(edges, non_edges, n_local)))
            for r in range(r_hi, 0, -1):
                picked = extract_bits(rows, self.cols, left, right, r, n_local, edges)
                if picked is not None:
                    biclique = self._certify(*picked)
                    break
        potential = edges - 2 * prepared.r_target * non_edges
        n_host = max(self.graph.n_u, self.graph.n_v)
        return TrialOutcome(
            left_survivors=tuple(left),
            right_survivors=tuple(right),
            edges=edges,
            non_edges=non_edges,
            r_target=prepared.r_target,
            potential=potential,
            event_held=potential >= 2 * n_host * prepared.r_target,
            biclique=biclique,
            dropped_members=prepared.dropped,
        )


def round_once(
    solution: VectorSolution,
    graph: BipartiteGraph,
    params: RoundingParams,
    rng: np.random.Generator | None = None,
) -> TrialOutcome:
    """One rounding trial.  With the default generator this equals trial 0 of
    round_many under the same seed."""
    _check_match(solution, graph)
    prepared = _prepare(solution, params)
    if rng is None:
        rng = np.random.default_rng((params.seed, 0))
    if prepared.unit_vectors.shape[0]:
        mask = gaussian_threshold(prepared.unit_vectors, params.tau, rng)
    else:
        mask = np.zeros(0, dtype=bool)
    return _Evaluator(prepared, graph)(mask)


def round_many(
    solution: VectorSolution, graph: BipartiteGraph, params: RoundingParams
) -> RoundingRun:
    """Run params.trials independent trials and keep the largest verified biclique.

    Trial t thresholds the Gaussian default_rng((seed, t)).standard_normal(dim),
    so any execution order, or a parallel split, produces the same outcome
    set; ties on size keep the earliest trial.  The draws are computed a
    block of trials at a time (gaussian.seeded_normals, checked against
    numpy's own seeding) and multiplied together, with every mask equal to
    round_once's under that trial's generator (see _survivor_masks).  An
    outcome depends only on the trial's survivor mask, so scoring and
    extraction run once per distinct mask and repeats reuse that outcome.
    """
    _check_match(solution, graph)
    prepared = _prepare(solution, params)
    evaluate = _Evaluator(prepared, graph)
    memo: dict[bytes, TrialOutcome] = {}
    outcomes = []
    best: Biclique | None = None
    for mask in _survivor_masks(prepared, params):
        key = mask.tobytes()
        outcome = memo.get(key)
        if outcome is None:
            outcome = memo[key] = evaluate(mask)
        outcomes.append(outcome)
        if outcome.biclique is not None and (best is None or outcome.biclique.size > best.size):
            best = outcome.biclique
    return RoundingRun(best=best, outcomes=tuple(outcomes), params=params, distinct_sets=len(memo))


def _check_match(solution: VectorSolution, graph: BipartiteGraph) -> None:
    if solution.sides is None:
        raise ValueError("solution carries no (n_u, n_v) split; use with_sides first")
    if solution.sides != (graph.n_u, graph.n_v):
        raise ValueError(f"solution split {solution.sides} does not match graph ({graph.n_u}, {graph.n_v})")


@dataclass(frozen=True)
class Diagnostics:
    """Solution-level quantities the analysis tracks, with pass/fail flags.

    ``guarantee_value`` is the headline bound n^(1 / (D ratio)) with D = 1000;
    at desk scale it is vacuous (below 2), so it is metadata only.
    """

    n: int
    k: float
    ratio: float
    tau: float
    tau_clamped: bool
    left_heavy: tuple[int, ...]
    right_heavy: tuple[int, ...]
    pair_mass: float
    pair_mass_floor: float
    pair_mass_ok: bool
    positive_pairs: int
    positive_pairs_floor: float
    positive_pairs_ok: bool
    positive_pairs_within_edges: bool
    analysis_r: float
    expected_edges_floor: float
    expected_non_edges_ceiling: float
    guarantee_value: float


def diagnostics(
    solution: VectorSolution,
    graph: BipartiteGraph,
    ratio: float,
    tau: float | None = None,
    feas_tol: float = 1e-6,
) -> Diagnostics:
    """Measure the analysis quantities on a solved instance.

    pair_mass sums products over heavy x heavy pairs and must reach (3/4) k^2
    up to solver tolerance; positive_pairs counts heavy pairs whose product
    exceeds half the mass product, every one of which must be an edge, and
    there must be at least k^2 / 4 of them.  Flags are computed with slack
    n^2 x feas_tol.  tau and tau_clamped follow RoundingParams.for_instance:
    tau=None takes default_tau(n), and an explicit tau is never clamped, so
    passing the tau that built the params reports the params' flag.
    """
    _check_match(solution, graph)
    n = max(graph.n_u, graph.n_v)
    tau, clamped = _resolve_tau(n, tau)
    k = n / ratio
    left, right = heavy_sets(solution, ratio)
    lv = solution.left_vectors()[left]
    rv = solution.right_vectors()[right]
    masses = solution.masses()
    lm = masses[: solution.sides[0]][left]
    rm = masses[solution.sides[0] :][right]
    products = lv @ rv.T if left.size and right.size else np.zeros((left.size, right.size))
    pair_mass = float(products.sum())
    positive = products > 0.5 * np.outer(lm, rm)
    positive_count = int(positive.sum())
    adj = graph.dense()[np.ix_(left, right)] if left.size and right.size else np.zeros_like(positive)
    within_edges = bool(np.all(~positive | adj))
    slack = n * n * feas_tol
    density = std_normal_pdf(tau)
    expected_edges_floor = positive_count * density * density / (4.0 * tau * tau)
    expected_non_edges_ceiling = (
        n * n * (math.sqrt(math.pi) / tau) * density * density * math.exp(-tau * tau / (16.0 * ratio))
    )
    return Diagnostics(
        n=n,
        k=k,
        ratio=float(ratio),
        tau=float(tau),
        tau_clamped=bool(clamped),
        left_heavy=tuple(int(i) for i in left),
        right_heavy=tuple(int(j) for j in right),
        pair_mass=pair_mass,
        pair_mass_floor=0.75 * k * k,
        pair_mass_ok=bool(pair_mass >= 0.75 * k * k - slack),
        positive_pairs=positive_count,
        positive_pairs_floor=0.25 * k * k,
        positive_pairs_ok=bool(positive_count >= 0.25 * k * k - slack),
        positive_pairs_within_edges=within_edges,
        analysis_r=analysis_size_target(ratio, tau),
        expected_edges_floor=float(expected_edges_floor),
        expected_non_edges_ceiling=float(expected_non_edges_ceiling),
        guarantee_value=float(n ** (1.0 / (GUARANTEE_D * ratio))),
    )
