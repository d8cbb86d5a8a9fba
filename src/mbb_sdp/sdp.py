"""Feasibility SDP relaxations over a Gram matrix, and a projection-based solver.

Matrix index convention: index 0 is the anchor vector e, indices 1..n_u are
the left vertices, indices n_u+1..n_u+n_v the right vertices.  The weak
relaxation constrains the anchor norm, per-vertex norm links, per-side mass
sums, zero inner products on non-edges, and nonnegative inner products across
the sides.  The strong relaxation adds fractional degree rows tying each
vertex's cross-side mass to k times its own mass, which is what rules out the
classic half-half integrality gap certificate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .graphs import BipartiteGraph, Biclique

__all__ = [
    "ConstraintBlock",
    "SdpProblem",
    "GramMatrix",
    "VectorSolution",
    "ViolationReport",
    "SolverConfig",
    "FeasibilityOutcome",
    "build_strong_relaxation",
    "build_weak_relaxation",
    "weak_gap_solution",
    "indicator_gram",
    "check_feasibility",
    "solve_feasibility",
    "gram_to_vectors",
    "export_problem",
    "gram_to_text",
    "gram_from_text",
]

EPS_FEAS_DEFAULT = 1e-6
EPS_PSD_DEFAULT = 1e-8
EPS_FACTOR_DEFAULT = 1e-7
PLATEAU_RTOL = 1e-3
PLATEAU_WINDOW = 1000
# Eigenvalues of C C^T below this fraction of the largest are dropped from
# its pseudo-inverse; the strong relaxation's degree rows leave one at ~0.
_PINV_CUTOFF = 1e-10

FEASIBLE = "feasible"
INFEASIBLE = "infeasible-at-tolerance"
SOLVER_LIMIT = "solver-limit"


@dataclass(frozen=True, eq=False)
class ConstraintBlock:
    """One constraint family on a symmetric matrix, one row per constraint.

    Row i reads sum_t coeff[i, t] * M[rows[i, t], cols[i, t]] (relation)
    rhs[i]; each term counts the symmetric entry once, and pairs with
    row > col are swapped on construction.  ``relation`` is "=" or ">=" for
    the whole block, and ``names`` holds one name per row.  The arrays are
    read-only.
    """

    rows: np.ndarray
    cols: np.ndarray
    coeff: np.ndarray
    rhs: np.ndarray
    relation: str
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.relation not in ("=", ">="):
            raise ValueError(f"relation must be '=' or '>=', got {self.relation!r}")
        rows = np.array(self.rows, dtype=int, ndmin=2)
        cols = np.array(self.cols, dtype=int, ndmin=2)
        coeff = np.array(self.coeff, dtype=float, ndmin=2)
        rhs = np.array(self.rhs, dtype=float, ndmin=1)
        names = tuple(str(name) for name in self.names)
        if not rows.shape == cols.shape == coeff.shape or rows.ndim != 2:
            raise ValueError("rows, cols and coeff must share one (constraints, terms) shape")
        if not rhs.shape == (len(names),) == rows.shape[:1]:
            raise ValueError("rhs and names need one entry per constraint row")
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        for name, arr in (("rows", rows), ("cols", cols), ("coeff", coeff), ("rhs", rhs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class SdpProblem:
    """A feasibility problem: symmetric dim x dim PSD matrix meeting every block's rows."""

    dim: int
    blocks: tuple[ConstraintBlock, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        for block in self.blocks:
            outside = (block.rows < 0).any(axis=1) | (block.cols >= self.dim).any(axis=1)
            if outside.any():
                name = block.names[int(outside.argmax())]
                raise ValueError(f"constraint {name!r} indexes outside dim {self.dim}")


class GramMatrix:
    """A symmetric matrix wrapper with read-only storage; every entry must be finite."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        m = np.array(entries, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        self.entries = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def __repr__(self) -> str:
        return f"GramMatrix(dim={self.dim})"


@dataclass(frozen=True)
class VectorSolution:
    """Vector factorization of a Gram matrix.

    ``anchor`` is the unit vector e (first canonical axis after rotation);
    ``vectors`` holds one row per vertex in the global index order, and
    ``sides`` is their (n_u, n_v) split.
    """

    dim: int
    anchor: np.ndarray
    vectors: np.ndarray
    sides: tuple[int, int]

    def __post_init__(self) -> None:
        n_u, n_v = self.sides
        if n_u + n_v != len(self.vectors):
            raise ValueError(f"split ({n_u}, {n_v}) does not match {len(self.vectors)} vertex vectors")
        object.__setattr__(self, "sides", (int(n_u), int(n_v)))

    def masses(self) -> np.ndarray:
        """Per-vertex inner products with the anchor (the selection masses c_i)."""
        return self.vectors @ self.anchor

    def left_vectors(self) -> np.ndarray:
        return self.vectors[: self.sides[0]]

    def right_vectors(self) -> np.ndarray:
        return self.vectors[self.sides[0] :]

    def reconstructed_gram(self) -> np.ndarray:
        rows = np.vstack([self.anchor, self.vectors])
        return rows @ rows.T


@dataclass(frozen=True)
class ViolationReport:
    """Per-constraint residuals plus the spectral floor of a candidate matrix."""

    residuals: np.ndarray
    violations: np.ndarray
    max_violation: float
    min_eigenvalue: float
    eps: float
    worst_constraint: str

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.eps and self.min_eigenvalue >= -self.eps


@dataclass
class SolverConfig:
    """Settings for solve_feasibility.

    eps_feas: a point is accepted feasible when every constraint violation is
    at most this. Infeasibility is declared when the best violation sits
    above 10 * eps_feas without a PLATEAU_RTOL relative improvement over
    PLATEAU_WINDOW sweeps.
    eps_feas must be a positive finite number and max_iterations an integer
    (not a bool) of at least 1: any other value can only give wrong
    verdicts, so it raises.
    """

    eps_feas: float = EPS_FEAS_DEFAULT
    max_iterations: int = 20000

    def __post_init__(self) -> None:
        if isinstance(self.eps_feas, bool) or not isinstance(self.eps_feas, numbers.Real):
            raise ValueError(f"eps_feas must be a number, got {self.eps_feas!r}")
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if not 0 < self.eps_feas < math.inf:
            raise ValueError(f"eps_feas must be positive and finite, got {self.eps_feas}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Result of a feasibility solve: status, certificate when feasible, effort spent."""

    status: str
    gram: GramMatrix | None
    max_violation: float
    iterations: int

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def _u_index(i: int) -> int:
    return 1 + i


def _v_index(j: int, n_u: int) -> int:
    return 1 + n_u + j


def _relaxation_blocks(graph: BipartiteGraph, k: float, strong: bool) -> tuple[ConstraintBlock, ...]:
    """The relaxation's constraint families, each built at once from the adjacency.

    Weak: anchor norm, norm links (left, then right), the two mass rows,
    non-edge zeros and cross nonnegativity.  Strong adds the fractional
    degree rows of each side.  Row order and each row's term order are those
    of the exported text.
    """
    if k <= 0:
        raise ValueError(f"target size k must be positive, got {k}")
    k = float(k)
    n_u, n_v = graph.n_u, graph.n_v
    left = _u_index(np.arange(n_u))
    right = _v_index(np.arange(n_v), n_u)
    verts = np.concatenate([left, right])
    cross_u, cross_v = np.meshgrid(left, right, indexing="ij")

    def cross_entries(mask: np.ndarray, relation: str, prefix: str) -> ConstraintBlock:
        count = int(mask.sum())
        names = [f"{prefix}-{i}-{j}" for i, j in zip(*(idx.tolist() for idx in np.nonzero(mask)))]
        rows, cols = cross_u[mask][:, None], cross_v[mask][:, None]
        return ConstraintBlock(rows, cols, np.ones((count, 1)), np.zeros(count), relation, names)

    blocks = [
        ConstraintBlock([[0]], [[0]], [[1.0]], [1.0], "=", ("anchor-norm",)),
        ConstraintBlock(
            np.stack([verts, np.zeros_like(verts)], axis=1),
            np.stack([verts, verts], axis=1),
            np.tile([1.0, -1.0], (verts.size, 1)),
            np.zeros(verts.size),
            "=",
            [f"norm-link-u{i}" for i in range(n_u)] + [f"norm-link-v{j}" for j in range(n_v)],
        ),
        ConstraintBlock(np.zeros((1, n_u)), left[None], np.ones((1, n_u)), [k], "=", ("mass-left",)),
        ConstraintBlock(np.zeros((1, n_v)), right[None], np.ones((1, n_v)), [k], "=", ("mass-right",)),
        cross_entries(~graph.dense().astype(bool), "=", "non-edge"),
        cross_entries(np.ones((n_u, n_v), dtype=bool), ">=", "nonneg"),
    ]
    if strong:
        # Row i: sum_j M[u_i, v_j] - k M[0, u_i] = 0, and the same per right vertex.
        for own, cross, side in ((left, cross_v, "u"), (right, cross_u.T, "v")):
            own = own[:, None]
            rows = np.hstack([np.broadcast_to(own, cross.shape), np.zeros_like(own)])
            coeff = np.hstack([np.ones(cross.shape), np.full(own.shape, -k)])
            names = [f"frac-degree-{side}{i}" for i in range(own.size)]
            blocks.append(ConstraintBlock(rows, np.hstack([cross, own]), coeff, np.zeros(own.size), "=", names))
    return tuple(blocks)


def build_weak_relaxation(graph: BipartiteGraph, k: float) -> SdpProblem:
    """Relaxation without degree rows; admits the half-half gap certificate."""
    blocks = _relaxation_blocks(graph, k, strong=False)
    return SdpProblem(1 + graph.n_u + graph.n_v, blocks, label=f"weak(k={k:g})")


def build_strong_relaxation(graph: BipartiteGraph, k: float) -> SdpProblem:
    """Weak relaxation plus fractional degree rows on both sides."""
    blocks = _relaxation_blocks(graph, k, strong=True)
    return SdpProblem(1 + graph.n_u + graph.n_v, blocks, label=f"strong(k={k:g})")


def weak_gap_solution(n: int) -> GramMatrix:
    """Certificate that the weak relaxation is feasible at k = n/2 on any graph.

    Take unit vectors e and f with f orthogonal to e, put (e+f)/2 on every
    left vertex and (e-f)/2 on every right vertex: all cross inner products
    vanish, every mass is 1/2, each side sums to n/2.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    dim = 1 + 2 * n
    m = np.zeros((dim, dim))
    m[0, 0] = 1.0
    m[0, 1:] = 0.5
    m[1:, 0] = 0.5
    m[1 : n + 1, 1 : n + 1] = 0.5
    m[n + 1 :, n + 1 :] = 0.5
    return GramMatrix(m)


def indicator_gram(n_u: int, n_v: int, left: Iterable[int], right: Iterable[int]) -> GramMatrix:
    """Integral certificate: members get the anchor vector, everyone else zero.

    When (left, right) is a biclique of size k in the host graph, this matrix
    satisfies the strong relaxation at that k with zero violation in exact
    arithmetic (all entries are 0 or 1 and every row sum is an integer).
    """
    dim = 1 + n_u + n_v
    members = [_u_index(int(i)) for i in left] + [_v_index(int(j), n_u) for j in right]
    for g in members:
        if not 1 <= g < dim:
            raise ValueError("member index out of range")
    m = np.zeros((dim, dim))
    sel = np.array([0] + members, dtype=int)
    m[np.ix_(sel, sel)] = 1.0
    return GramMatrix(m)


class _Evaluator:
    """Signed residual and violation of every row of a problem, in block order.

    The problem's one row table: the blocks' terms are flattened once into
    indices over vec(M), the row-major vector of length dim*dim, with each
    row's term count in ``widths``.  A row's left-hand side sums its terms
    in term order.  An equality row is violated by |residual|, a ``>=`` row
    by its shortfall.
    """

    def __init__(self, problem: SdpProblem):
        def joined(parts, dtype) -> np.ndarray:
            return np.concatenate([np.empty(0, dtype=dtype), *parts])

        blocks = problem.blocks
        self.flat = joined([(b.rows * problem.dim + b.cols).ravel() for b in blocks], int)
        self.coeff = joined([b.coeff.ravel() for b in blocks], float)
        self.rhs = joined([b.rhs for b in blocks], float)
        self.equality = joined([np.full(len(b), b.relation == "=") for b in blocks], bool)
        self.widths = joined([np.full(len(b), b.coeff.shape[1]) for b in blocks], int)
        self.row_of_term = np.repeat(np.arange(self.widths.size), self.widths)

    def __call__(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        terms = self.coeff * m.ravel()[self.flat]
        residuals = np.bincount(self.row_of_term, weights=terms, minlength=self.rhs.size) - self.rhs
        return residuals, np.where(self.equality, np.abs(residuals), np.maximum(0.0, -residuals))


def _row_name(problem: SdpProblem, index: int) -> str:
    """The name of row ``index`` in block order, the evaluator's row order."""
    for block in problem.blocks:
        if index < len(block):
            return block.names[index]
        index -= len(block)
    raise IndexError(f"row {index} is outside the problem")


def check_feasibility(
    problem: SdpProblem, gram: GramMatrix, eps: float = EPS_FEAS_DEFAULT
) -> ViolationReport:
    """Evaluate every constraint and the spectral floor of a candidate matrix."""
    m = gram.entries
    if m.shape[0] != problem.dim:
        raise ValueError(f"matrix dim {m.shape[0]} does not match problem dim {problem.dim}")
    residuals, violations = _Evaluator(problem)(m)
    max_violation = 0.0
    worst = ""
    if violations.size:
        index = int(violations.argmax())
        max_violation = float(violations[index])
        worst = _row_name(problem, index)
    min_eig = float(np.linalg.eigvalsh(m)[0])
    return ViolationReport(
        residuals=residuals,
        violations=violations,
        max_violation=max_violation,
        min_eigenvalue=min_eig,
        eps=float(eps),
        worst_constraint=worst,
    )


# ---------------------------------------------------------------------------
# Solver


class _Coupling(NamedTuple):
    """A sparse matrix as index arrays: its terms once, sorted by (row, col),
    with duplicate (row, col) terms summed once."""

    num_rows: int
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    def gram(self) -> np.ndarray:
        """C C^T as a dense matrix, in O(nnz): sorted by (col, row), the terms
        sharing a column sit next to each other, so pairs d apart in that
        order are found with one comparison per offset d."""
        m = self.num_rows
        order = np.lexsort((self.rows, self.cols))
        rows, cols, data = self.rows[order], self.cols[order], self.data[order]
        g = np.bincount(rows * (m + 1), weights=data**2, minlength=m * m)
        upper = np.zeros(m * m)
        for d in range(1, cols.size):
            same = cols[:-d] == cols[d:]
            if not same.any():
                break
            a, b = rows[:-d][same], rows[d:][same]
            weights = data[:-d][same] * data[d:][same]
            upper += np.bincount(a * m + b, weights=weights, minlength=m * m)
        upper = upper.reshape(m, m)
        return g.reshape(m, m) + upper + upper.T


def _coupling_matrix(table: _Evaluator, selected: np.ndarray, dim: int, keep: np.ndarray) -> _Coupling:
    """The ``selected`` rows of the row table, in order, over the ``keep``
    columns of vec(M), as index arrays; off-diagonal terms split 0.5/0.5
    between (r, c) and (c, r)."""
    picked = selected[table.row_of_term]
    ids = (np.cumsum(selected) - 1)[table.row_of_term[picked]]
    flat, coeff = table.flat[picked], table.coeff[picked]
    r, c = np.divmod(flat, dim)
    both = np.stack([flat, c * dim + r], axis=1)
    use = np.stack([np.ones(flat.size, dtype=bool), r != c], axis=1) & keep[both]
    half = np.where(r == c, coeff, 0.5 * coeff)
    keys = np.broadcast_to(ids[:, None], both.shape)[use] * (dim * dim) + both[use]
    # duplicates are summed in term order; unique keys come out (row, col)-sorted
    keys, slot = np.unique(keys, return_inverse=True)
    data = np.bincount(slot, weights=np.stack([half, half], axis=1)[use], minlength=keys.size)
    rows, cols = np.divmod(keys, dim * dim)
    return _Coupling(int(selected.sum()), rows, cols, data)


class _ProjectionOps:
    """The solver's three projections -- the equality affine set, the
    allowed-entry orthant and the PSD cone -- read off the evaluator's rows.

    Each row has one role, a boolean array over the evaluator's rows.  A pin
    (``is_pin``) is an equality row with one nonzero term and rhs 0: the pins
    become a mask over vec(M) covering both (r, c) and (c, r).  A bound
    (``is_bound``) is a ``>=`` row with one positive term.  The other
    equality rows -- anchor norm, norm links, mass and degree rows, 4n+3 of
    them on the strong relaxation -- are the coupling rows C
    (``is_coupling``), in row order, with the masked columns dropped (see
    _Coupling).  The equality projection zeroes the masked entries, then
    applies x - C^T G^+ (C x - d) on the free ones.  G = C C^T is built once
    per solve, and G^+ from one eigendecomposition that drops the
    eigenvalues below _PINV_CUTOFF of the largest (the strong relaxation's
    degree rows are rank-deficient by construction).  Each call solves for
    the multipliers with G^+ and one refinement step against G.  C x and
    C^T lambda are bincounts over C's terms in (row, col) order, which sum
    each row and each column in increasing index order.

    This is the exact Frobenius projection onto the whole equality set for
    symmetric input, and every iterate of the solver is symmetric: a zero
    row (M[r,c] + M[c,r]) / 2 = 0 is met by zeroing both entries, which
    moves x along directions orthogonal to the free entries C acts on, and a
    coupling term on a masked entry reads 0 on the set anyway.  On an
    inconsistent system the masked entries are always met and the coupling
    residual settles at a least-squares gap, which the plateau rule then
    reports as infeasible-at-tolerance.
    """

    def __init__(self, problem: SdpProblem):
        dim = self.dim = problem.dim
        table = self.evaluate = _Evaluator(problem)
        eq, term_row = table.equality, table.row_of_term
        single = table.widths == 1
        lead = np.zeros(eq.size)
        lead[single] = table.coeff[single[term_row]]
        self.is_pin = eq & single & (table.rhs == 0.0) & (lead != 0.0)
        self.is_coupling = eq & ~self.is_pin
        self.is_bound = ~eq & single & (lead > 0)
        supported = eq | self.is_bound
        if not supported.all():
            name = _row_name(problem, int(supported.argmin()))
            raise ValueError(
                f"the solver only supports single-entry lower bounds, constraint {name!r} is not one"
            )
        r, c = np.divmod(table.flat[self.is_pin[term_row]], dim)
        self.zero_mask = np.zeros(dim * dim, dtype=bool)
        self.zero_mask[np.concatenate([r * dim + c, c * dim + r])] = True
        self.coupling = _coupling_matrix(table, self.is_coupling, dim, keep=~self.zero_mask)
        self.coupling_rhs = table.rhs[self.is_coupling]
        self.ineq_rows, self.ineq_cols = np.divmod(table.flat[self.is_bound[term_row]], dim)
        self.ineq_lo = table.rhs[self.is_bound] / lead[self.is_bound]
        self.have_eq = bool(eq.any())
        self.have_ineq = self.ineq_rows.size > 0
        self._pinv = None
        if self.coupling.num_rows:
            gram = self.coupling.gram()
            w, v = np.linalg.eigh(gram)
            keep = w > _PINV_CUTOFF * w[-1]
            self._gram = gram
            self._pinv = (v[:, keep] / w[keep]) @ v[:, keep].T

    def proj_eq(self, x: np.ndarray) -> np.ndarray:
        vec = np.where(self.zero_mask, 0.0, x.ravel())
        if self._pinv is not None:
            c = self.coupling
            res = np.bincount(c.rows, weights=c.data * vec[c.cols], minlength=c.num_rows) - self.coupling_rhs
            lam = self._pinv @ res
            lam += self._pinv @ (res - self._gram @ lam)
            vec -= np.bincount(c.cols, weights=c.data * lam[c.rows], minlength=vec.size)
        return vec.reshape(self.dim, self.dim)

    def proj_ineq(self, x: np.ndarray) -> np.ndarray:
        y = x.copy()
        vals = np.maximum(y[self.ineq_rows, self.ineq_cols], self.ineq_lo)
        y[self.ineq_rows, self.ineq_cols] = vals
        y[self.ineq_cols, self.ineq_rows] = vals
        return y

    @staticmethod
    def proj_psd(x: np.ndarray) -> np.ndarray:
        s = 0.5 * (x + x.T)
        w, v = np.linalg.eigh(s)
        if w[0] >= 0.0:
            return s
        w = np.clip(w, 0.0, None)
        out = (v * w) @ v.T
        return 0.5 * (out + out.T)

    def violation(self, x: np.ndarray) -> float:
        """Worst row violation as check_feasibility scores it; assumes x is PSD."""
        violations = self.evaluate(x)[1]
        return float(violations.max()) if violations.size else 0.0


def solve_feasibility(problem: SdpProblem, config: SolverConfig | None = None) -> FeasibilityOutcome:
    """Find a PSD matrix satisfying the problem, or report why not, by
    Douglas-Rachford splitting on the product space.

    Each constraint family keeps its own copy of the matrix; the consensus
    set forces the copies equal (projection is averaging) and one sweep
    reflects the average through every family's projection.  Converges far
    faster than cyclic projections when the feasible set is thin.
    Statuses: ``feasible`` with a Gram certificate whose worst violation is
    at most config.eps_feas; ``infeasible-at-tolerance`` when the violation
    plateaus above 10x that tolerance, as the averaged iterate does at a
    positive gap on inconsistent systems; ``solver-limit`` when the
    iteration budget runs out, with the best violation the plateau rule
    tracked, or when numerics fail, with an infinite violation.
    """
    config = config or SolverConfig()
    iterations = 0
    check_every = 5
    try:
        ops = _ProjectionOps(problem)
        projections = []
        if ops.have_eq:
            projections.append(ops.proj_eq)
        if ops.have_ineq:
            projections.append(ops.proj_ineq)
        projections.append(ops.proj_psd)

        copies = [np.zeros((ops.dim, ops.dim)) for _ in projections]
        weight = 1.0 / len(copies)

        best = math.inf
        stalled = 0
        for iterations in range(1, config.max_iterations + 1):
            average = copies[0].copy()
            for copy in copies[1:]:
                average += copy
            average *= weight
            for idx, proj in enumerate(projections):
                reflected = 2.0 * average - copies[idx]
                copies[idx] += proj(reflected) - average
            if iterations % check_every == 0 or iterations == config.max_iterations:
                candidate = ops.proj_psd(average)
                viol = ops.violation(candidate)
                if viol <= config.eps_feas:
                    return FeasibilityOutcome(FEASIBLE, GramMatrix(candidate), viol, iterations)
                if viol < best * (1.0 - PLATEAU_RTOL):
                    best = viol
                    stalled = 0
                else:
                    stalled += check_every
                if stalled >= PLATEAU_WINDOW and best > 10.0 * config.eps_feas:
                    return FeasibilityOutcome(INFEASIBLE, None, viol, iterations)
        return FeasibilityOutcome(SOLVER_LIMIT, None, best, iterations)
    except (np.linalg.LinAlgError, RuntimeError, MemoryError):
        return FeasibilityOutcome(SOLVER_LIMIT, None, math.inf, iterations)


def gram_to_vectors(gram: GramMatrix, sides: tuple[int, int]) -> VectorSolution:
    """Factor a Gram matrix into vectors whose pairwise products reproduce it;
    ``sides`` is the (n_u, n_v) split of its vertex rows.

    Eigenvalues below -EPS_PSD_DEFAULT raise; small negative ones are clamped
    to zero, and a reconstruction error above EPS_FACTOR_DEFAULT raises.
    The frame is reflected so the anchor lies on the first canonical axis,
    then the anchor row is normalized to unit length (the matrix should carry
    M[0,0] = 1 up to solver tolerance for the factorization to stay faithful).
    """
    m = gram.entries
    dim = gram.dim
    w, v = np.linalg.eigh(m)
    if not w[0] >= -EPS_PSD_DEFAULT:
        raise ValueError(f"matrix is not PSD at tolerance {EPS_PSD_DEFAULT}: min eigenvalue {w[0]}")
    w = np.clip(w, 0.0, None)
    rows = v * np.sqrt(w)
    anchor_raw = rows[0]
    norm0 = float(np.linalg.norm(anchor_raw))
    if norm0 < 1e-12:
        raise ValueError("anchor row has zero norm; matrix cannot anchor a solution")
    unit = anchor_raw / norm0
    # Householder reflection taking the anchor direction to the first axis.
    target = np.zeros(dim)
    target[0] = 1.0
    diff = unit - target
    nd = float(np.linalg.norm(diff))
    if nd > 1e-14:
        hh = diff / nd
        rows = rows - 2.0 * np.outer(rows @ hh, hh)
    clamped = (v * w) @ v.T
    err = float(np.abs(rows @ rows.T - clamped).max())
    if not err <= EPS_FACTOR_DEFAULT:
        raise ArithmeticError(f"factorization error {err} exceeds {EPS_FACTOR_DEFAULT}")
    return VectorSolution(dim=dim, anchor=target, vectors=rows[1:], sides=sides)


def export_problem(problem: SdpProblem) -> str:
    """Sparse text form for debugging against external solvers.

    One constraint per line: relation, right-hand side, then row:col:coeff
    triples.  A leading comment records the label and dimension.
    """
    lines = [f"c sdp-feasibility dim={problem.dim} label={problem.label}"]
    for block in problem.blocks:
        flat = zip(*(a.ravel().tolist() for a in (block.rows, block.cols, block.coeff)))
        triples = [f"{r}:{c}:{x:.17g}" for r, c, x in flat]
        width = block.rows.shape[1]
        for i, rhs in enumerate(block.rhs.tolist()):
            terms = " ".join(triples[i * width : (i + 1) * width])
            lines.append(f"{block.relation} {rhs:.17g} {terms}")
    return "\n".join(lines) + "\n"


def gram_to_text(gram: GramMatrix) -> str:
    """Dense row-major text with a dimension header."""
    lines = [f"gram {gram.dim}"]
    for row in gram.entries:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def gram_from_text(text: str) -> GramMatrix:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("c")]
    if not lines:
        raise ValueError("empty gram text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "gram":
        raise ValueError(f"malformed gram header {lines[0]!r}")
    dim = int(head[1])
    if len(lines) != 1 + dim:
        raise ValueError(f"expected {dim} rows, found {len(lines) - 1}")
    m = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if m.shape != (dim, dim):
        raise ValueError(f"rows do not form a {dim} x {dim} matrix")
    return GramMatrix(m)
