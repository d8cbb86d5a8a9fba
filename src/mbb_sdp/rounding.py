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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .extraction import extract_rows, extractable_r
from .gaussian import seeded_normals, std_normal_pdf
from .graphs import BipartiteGraph, Biclique
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
_SHIFT_TOL = 1e-9
# Trial t draws from default_rng((seed, t)); gaussian.seeded_normals replays
# that seeding while t is one 32-bit entropy word.
_MAX_TRIALS = 2**32
# Trials drawn and multiplied together in round_many.  Per trial, blocks of
# 128 and 256 cost about the same and 32 half again as much; a larger block
# only raises peak memory.
_BLOCK = 256
# Survivor sets scored together; it bounds the float64 scoring arrays held
# at once, whatever the number of distinct sets.
_CHUNK = 8 * _BLOCK


def default_tau(n: int) -> tuple[float, bool]:
    """Threshold sqrt(0.1 ln n), clamped up to 0.5 for tiny n; returns (tau, clamped)."""
    raw = math.sqrt(0.1 * math.log(n))
    if raw < TAU_FLOOR:
        return TAU_FLOOR, True
    return raw, False


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
    """Knobs for one rounding run, and the only place they are decided.

    ratio is n/k (instance size over target biclique size), and the heavy
    cut 1/(8 ratio) follows from it; tau_clamped says whether for_instance
    raised the default tau to TAU_FLOOR; per-trial generators are derived
    from (seed, trial index), so outcomes are reproducible and
    order-independent.
    """

    ratio: float
    tau: float
    trials: int
    seed: int = 0
    tau_clamped: bool = False

    def __post_init__(self) -> None:
        for name in ("ratio", "tau"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        check_seed_and_trials(self.seed, self.trials)

    @property
    def heavy_threshold(self) -> float:
        """Mass a vertex needs to be heavy: 1/(8 ratio)."""
        return 1.0 / (8.0 * self.ratio)

    @property
    def r_target(self) -> int:
        """Biclique order the trials aim at: analysis_size_target, floored, at least 1."""
        return max(1, math.floor(analysis_size_target(self.ratio, self.tau)))

    @classmethod
    def for_instance(
        cls,
        n: int,
        k: float,
        trials: int | None = None,
        seed: int = 0,
        tau: float | None = None,
    ) -> "RoundingParams":
        """Params for a host of max side n and target size k: tau=None takes
        default_tau(n); an explicit tau is never clamped."""
        if k <= 0 or k > n:
            raise ValueError(f"target size k={k} must lie in (0, n={n}]")
        ratio = n / k
        tau, clamped = default_tau(n) if tau is None else (float(tau), False)
        return cls(
            ratio=ratio,
            tau=tau,
            trials=default_trials(n) if trials is None else int(trials),
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


def heavy_sets(solution: VectorSolution, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Vertices with mass at least 1/(8 ratio), boundary inclusive, per side."""
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    thr = 1.0 / (8.0 * ratio)
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
    tol: float,
) -> np.ndarray:
    """Check the shift identities of _shifted_members' output, then normalize."""
    if norms_sq.size and norms_sq.min() < _DEGENERATE_NORM**2:
        worst = int(norms_sq.argmin())
        raise ValueError(f"member {worst} has a degenerate shifted norm {math.sqrt(max(norms_sq[worst], 0.0))}")
    products = shifted @ shifted.T
    expected = vectors @ vectors.T - 0.5 * np.outer(masses, masses)
    err = float(np.abs(products - expected).max()) if products.size else 0.0
    if err > tol:
        raise ArithmeticError(f"shift product identity off by {err} (tolerance {tol})")
    norm_err = (
        float(np.abs(norms_sq - masses * (1.0 - 0.5 * masses)).max()) if norms_sq.size else 0.0
    )
    if norm_err > tol:
        raise ArithmeticError(
            f"shift norm identity off by {norm_err} (tolerance {tol}); "
            "the input's norm-link constraints may be violated beyond the tolerance"
        )
    return shifted / np.sqrt(norms_sq)[:, None]


def shift_vectors(solution: VectorSolution, left_members, right_members) -> np.ndarray:
    """Shift members against the anchor and normalize: u' = u - ALPHA_DEFAULT c e.

    Verifies the exact shift algebra <u'_i, u'_j> = <u_i, u_j> - c_i c_j / 2
    on all member pairs and the norm identity |u'_i|^2 = c_i (1 - c_i / 2),
    which additionally needs the norm-link constraint, at tolerance 1e-9.
    Raises on a member whose shifted norm is degenerate (below 1e-12).
    """
    left_members = np.asarray(list(left_members), dtype=int)
    right_members = np.asarray(list(right_members), dtype=int)
    return _unit_shifted(*_shifted_members(solution, left_members, right_members), _SHIFT_TOL)


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


def _prepare(solution: VectorSolution, params: RoundingParams) -> _Prepared:
    left, right = heavy_sets(solution, params.ratio)
    vectors, masses, shifted, norms_sq = _shifted_members(solution, left, right)
    if left.size or right.size:
        slack = float(np.abs(np.einsum("ij,ij->i", vectors, vectors) - masses).max())
        tol = max(_SHIFT_TOL, 4.0 * slack + 1e-12)
        unit = _unit_shifted(vectors, masses, shifted, norms_sq, tol)
    else:
        unit = np.zeros((0, solution.dim))
    return _Prepared(left, right, unit)


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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a nonempty-width boolean array: its packed bytes,
    as a sortable void scalar."""
    packed = np.packbits(rows, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _distinct_masks(prepared: _Prepared, params: RoundingParams) -> tuple[np.ndarray, np.ndarray]:
    """The run's distinct survivor masks over the members (left, then
    right), in order of first appearance, and each trial's row among them.

    Masks come from _block_masks a block at a time and are kept packed, one
    key of ceil(members / 8) bytes per trial; one np.unique over the run's
    keys finds the distinct sets.  With no members every mask is the one
    empty mask.
    """
    unit = prepared.unit_vectors
    members = unit.shape[0]
    if not members:
        return np.zeros((1, 0), dtype=bool), np.zeros(params.trials, dtype=np.intp)
    keys = np.concatenate(
        [
            _row_keys(_block_masks(unit, params.tau, params.seed, b, min(b + _BLOCK, params.trials)))
            for b in range(0, params.trials, _BLOCK)
        ]
    )
    # np.unique sorts stably, so each key's first index is its first trial
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    packed = keys[first[order]].view(np.uint8).reshape(order.size, -1)
    return np.unpackbits(packed, axis=1, count=members).view(bool), np.argsort(order)[inverse]


@dataclass(frozen=True)
class _ScoredSets:
    """Distinct survivor masks of one prepared solution, scored as arrays.

    Row s of ``masks`` is a survivor set over the members (left, then
    right); ``biclique[s]`` indexes ``bicliques``, or is -1 when extraction
    found nothing.
    """

    prepared: _Prepared
    r_target: int
    masks: np.ndarray
    edges: np.ndarray
    non_edges: np.ndarray
    potential: np.ndarray
    event_held: np.ndarray
    biclique: np.ndarray
    bicliques: tuple[Biclique, ...]

    def outcomes(self) -> list[TrialOutcome]:
        """One TrialOutcome per row, in row order."""
        prepared = self.prepared
        n_left = prepared.left_members.size
        left_members = prepared.left_members.tolist()
        right_members = prepared.right_members.tolist()
        return [
            TrialOutcome(
                left_survivors=tuple(compress(left_members, flags[:n_left])),
                right_survivors=tuple(compress(right_members, flags[n_left:])),
                edges=edges,
                non_edges=non_edges,
                r_target=self.r_target,
                potential=potential,
                event_held=held,
                biclique=None if b < 0 else self.bicliques[b],
            )
            for flags, edges, non_edges, potential, held, b in zip(
                self.masks.tolist(),
                self.edges.tolist(),
                self.non_edges.tolist(),
                self.potential.tolist(),
                self.event_held.tolist(),
                self.biclique.tolist(),
            )
        ]


def _score(prepared: _Prepared, graph: BipartiteGraph, r_target: int, masks: np.ndarray) -> _ScoredSets:
    """Score and extract the survivor sets ``masks``, _CHUNK sets at a time.

    Per batch, edge counts come from one float64 product with the members'
    adjacency, and the sets with both sides nonempty are extracted by one
    extract_rows call in member indices (ascending, as the host's), each
    from r_hi = min(sides, max(r_target, extractable_r)) down to the first r
    that picks.  Each distinct biclique is certified against the host graph
    once.
    """
    left_members, right_members = prepared.left_members, prepared.right_members
    n_left = left_members.size
    adj = graph.dense()[np.ix_(left_members, right_members)].astype(np.float64)
    n_l, n_r = masks[:, :n_left].sum(axis=1), masks[:, n_left:].sum(axis=1)
    edges = np.zeros(len(masks), dtype=np.int64)
    picks = np.zeros_like(masks)
    found = np.zeros(len(masks), dtype=np.int64)
    for start in range(0, len(masks), _CHUNK):
        part = slice(start, start + _CHUNK)
        left, right = masks[part, :n_left], masks[part, n_left:]
        edges[part] = np.einsum("ij,ij->i", left @ adj, right)
        n_local = np.maximum(n_l[part], n_r[part])
        r_best = extractable_r(edges[part], n_l[part] * n_r[part] - edges[part], np.maximum(n_local, 1))
        r_hi = np.minimum(np.minimum(n_l[part], n_r[part]), np.maximum(r_target, r_best))
        rows = np.flatnonzero(r_hi)
        picked_left, picked_right, found[start + rows] = extract_rows(
            adj, left[rows], right[rows], r_hi[rows], n_local[rows], retry=True
        )
        picks[start + rows] = np.concatenate([picked_left, picked_right], axis=1)
    non_edges = n_l * n_r - edges
    potential = edges - 2 * r_target * non_edges
    n_host = max(graph.n_u, graph.n_v)

    hit = np.flatnonzero(found)
    biclique = np.full(len(masks), -1, dtype=np.intp)
    bicliques: tuple[Biclique, ...] = ()
    if hit.size:
        _, first, biclique[hit] = np.unique(_row_keys(picks[hit]), return_index=True, return_inverse=True)
        bicliques = tuple(
            Biclique.from_graph(graph, left_members[picks[s, :n_left]], right_members[picks[s, n_left:]])
            for s in hit[first].tolist()
        )
    return _ScoredSets(
        prepared=prepared,
        r_target=r_target,
        masks=masks,
        edges=edges,
        non_edges=non_edges,
        potential=potential,
        event_held=potential >= 2 * n_host * r_target,
        biclique=biclique,
        bicliques=bicliques,
    )


@dataclass(frozen=True)
class RoundingRun:
    """One rounding run: the best verified biclique, the counts reports read,
    and every trial's outcome on demand.

    ``distinct_sets`` counts the distinct survivor masks among the trials,
    which is how many sets were scored and extracted.  ``outcomes`` holds
    one TrialOutcome per trial, in trial order; it is built on first read
    from the scored sets and each trial's set.
    """

    best: Biclique | None
    params: RoundingParams
    distinct_sets: int
    event_count: int
    extraction_count: int
    _sets: _ScoredSets = field(repr=False, compare=False)
    _trial_set: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def outcomes(self) -> tuple[TrialOutcome, ...]:
        per_set = self._sets.outcomes()
        return tuple(per_set[s] for s in self._trial_set.tolist())


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
    return _score(prepared, graph, params.r_target, mask[None, :]).outcomes()[0]


def round_many(
    solution: VectorSolution, graph: BipartiteGraph, params: RoundingParams
) -> RoundingRun:
    """Run params.trials independent trials and keep the largest verified biclique.

    Trial t thresholds the Gaussian default_rng((seed, t)).standard_normal(dim),
    so any execution order, or a parallel split, produces the same outcome
    set; ties on size keep the earliest trial.  The draws are computed a
    block of trials at a time (gaussian.seeded_normals, checked against
    numpy's own seeding) and multiplied together, with every mask equal to
    round_once's under that trial's generator (see _block_masks).  An
    outcome depends only on the trial's survivor mask, so the distinct
    masks are scored and extracted once, together, and the counts come from
    those per-set arrays and each trial's set.
    """
    _check_match(solution, graph)
    prepared = _prepare(solution, params)
    masks, trial_set = _distinct_masks(prepared, params)
    sets = _score(prepared, graph, params.r_target, masks)
    trials_per_set = np.bincount(trial_set, minlength=len(masks))
    found = sets.biclique >= 0
    best = None
    if found.any():
        sizes = np.array([b.size for b in sets.bicliques])[sets.biclique]
        # set ids follow first appearance, so argmax keeps the earliest trial
        best = sets.bicliques[sets.biclique[np.where(found, sizes, 0).argmax()]]
    return RoundingRun(
        best=best,
        params=params,
        distinct_sets=len(masks),
        event_count=int(trials_per_set[sets.event_held].sum()),
        extraction_count=int(trials_per_set[found].sum()),
        _sets=sets,
        _trial_set=trial_set,
    )


def _check_match(solution: VectorSolution, graph: BipartiteGraph) -> None:
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
    params: RoundingParams,
    feas_tol: float = 1e-6,
) -> Diagnostics:
    """Measure the analysis quantities on a solved instance.

    pair_mass sums products over heavy x heavy pairs and must reach (3/4) k^2
    up to solver tolerance; positive_pairs counts heavy pairs whose product
    exceeds half the mass product, every one of which must be an edge, and
    there must be at least k^2 / 4 of them.  Flags are computed with slack
    n^2 x feas_tol.  ratio, tau, tau_clamped and the heavy threshold are
    the params', so the report's rounding and diagnostics agree.
    """
    _check_match(solution, graph)
    n = max(graph.n_u, graph.n_v)
    ratio, tau = params.ratio, params.tau
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
        tau_clamped=params.tau_clamped,
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
