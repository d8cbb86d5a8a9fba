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
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve

from .graphs import BipartiteGraph, Biclique

__all__ = [
    "LinearConstraint",
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
    "register_backend",
    "solver_backends",
    "gram_to_vectors",
    "export_problem",
    "gram_to_text",
    "gram_from_text",
]

EPS_FEAS_DEFAULT = 1e-6
EPS_PSD_DEFAULT = 1e-8
EPS_FACTOR_DEFAULT = 1e-7

FEASIBLE = "feasible"
INFEASIBLE = "infeasible-at-tolerance"
SOLVER_LIMIT = "solver-limit"


@dataclass(frozen=True)
class LinearConstraint:
    """One linear constraint on a symmetric matrix.

    ``terms`` are (row, col, coeff) triples with row <= col; each contributes
    coeff * M[row, col] to the left-hand side, counting the symmetric entry
    once.  ``relation`` is "=" or ">=".
    """

    terms: tuple[tuple[int, int, float], ...]
    relation: str
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.relation not in ("=", ">="):
            raise ValueError(f"relation must be '=' or '>=', got {self.relation!r}")
        canon = tuple(
            (int(c), int(r), float(x)) if r > c else (int(r), int(c), float(x))
            for r, c, x in self.terms
        )
        object.__setattr__(self, "terms", canon)

    def evaluate(self, m: np.ndarray) -> float:
        return float(sum(coeff * m[r, c] for r, c, coeff in self.terms)) - self.rhs


@dataclass(frozen=True)
class SdpProblem:
    """A feasibility problem: symmetric dim x dim PSD matrix meeting all constraints."""

    dim: int
    constraints: tuple[LinearConstraint, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        for con in self.constraints:
            for r, c, _ in con.terms:
                if not (0 <= r <= c < self.dim):
                    raise ValueError(f"constraint {con.name!r} indexes outside dim {self.dim}")


class GramMatrix:
    """A symmetric matrix wrapper with read-only storage."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        m = np.array(entries, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
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
    ``vectors`` holds one row per vertex in the global index order.  ``sides``
    carries the (n_u, n_v) split when known, which the rounding stage needs.
    """

    dim: int
    anchor: np.ndarray
    vectors: np.ndarray
    sides: tuple[int, int] | None = None

    def masses(self) -> np.ndarray:
        """Per-vertex inner products with the anchor (the selection masses c_i)."""
        return self.vectors @ self.anchor

    def left_vectors(self) -> np.ndarray:
        if self.sides is None:
            raise ValueError("solution carries no (n_u, n_v) split")
        return self.vectors[: self.sides[0]]

    def right_vectors(self) -> np.ndarray:
        if self.sides is None:
            raise ValueError("solution carries no (n_u, n_v) split")
        return self.vectors[self.sides[0] :]

    def with_sides(self, n_u: int, n_v: int) -> "VectorSolution":
        if 1 + n_u + n_v != 1 + len(self.vectors):
            raise ValueError(
                f"split ({n_u}, {n_v}) does not match {len(self.vectors)} vertex vectors"
            )
        return replace(self, sides=(int(n_u), int(n_v)))

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
    """Knobs for solve_feasibility.

    eps_feas: a point is accepted feasible when every constraint violation is
    at most this. eps_psd: eigenvalues above -eps_psd count as nonnegative
    when factorizing. Infeasibility is declared when the best violation sits
    above 10 * eps_feas without relative progress over plateau_window sweeps.
    """

    eps_feas: float = EPS_FEAS_DEFAULT
    eps_psd: float = EPS_PSD_DEFAULT
    max_iterations: int = 20000
    plateau_window: int = 1000
    plateau_rtol: float = 1e-3
    backend: str = "product-dr"
    warm_start: np.ndarray | None = None


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


def _base_constraints(graph: BipartiteGraph, k: float) -> list[LinearConstraint]:
    n_u, n_v = graph.n_u, graph.n_v
    cons: list[LinearConstraint] = []
    cons.append(LinearConstraint(((0, 0, 1.0),), "=", 1.0, "anchor-norm"))
    for i in range(n_u):
        g = _u_index(i)
        cons.append(LinearConstraint(((g, g, 1.0), (0, g, -1.0)), "=", 0.0, f"norm-link-u{i}"))
    for j in range(n_v):
        g = _v_index(j, n_u)
        cons.append(LinearConstraint(((g, g, 1.0), (0, g, -1.0)), "=", 0.0, f"norm-link-v{j}"))
    cons.append(
        LinearConstraint(
            tuple((0, _u_index(i), 1.0) for i in range(n_u)), "=", float(k), "mass-left"
        )
    )
    cons.append(
        LinearConstraint(
            tuple((0, _v_index(j, n_u), 1.0) for j in range(n_v)), "=", float(k), "mass-right"
        )
    )
    adj = graph.dense()
    for i in range(n_u):
        gi = _u_index(i)
        for j in range(n_v):
            if not adj[i, j]:
                cons.append(
                    LinearConstraint(
                        ((gi, _v_index(j, n_u), 1.0),), "=", 0.0, f"non-edge-{i}-{j}"
                    )
                )
    for i in range(n_u):
        gi = _u_index(i)
        for j in range(n_v):
            cons.append(
                LinearConstraint(((gi, _v_index(j, n_u), 1.0),), ">=", 0.0, f"nonneg-{i}-{j}")
            )
    return cons


def build_weak_relaxation(graph: BipartiteGraph, k: float) -> SdpProblem:
    """Relaxation without degree rows; admits the half-half gap certificate."""
    if k <= 0:
        raise ValueError(f"target size k must be positive, got {k}")
    dim = 1 + graph.n_u + graph.n_v
    return SdpProblem(dim, tuple(_base_constraints(graph, k)), label=f"weak(k={k:g})")


def build_strong_relaxation(graph: BipartiteGraph, k: float) -> SdpProblem:
    """Weak relaxation plus fractional degree rows on both sides."""
    if k <= 0:
        raise ValueError(f"target size k must be positive, got {k}")
    n_u, n_v = graph.n_u, graph.n_v
    cons = _base_constraints(graph, k)
    for i in range(n_u):
        gi = _u_index(i)
        terms = tuple((gi, _v_index(j, n_u), 1.0) for j in range(n_v)) + ((0, gi, -float(k)),)
        cons.append(LinearConstraint(terms, "=", 0.0, f"frac-degree-u{i}"))
    for j in range(n_v):
        gj = _v_index(j, n_u)
        terms = tuple((_u_index(i), gj, 1.0) for i in range(n_u)) + ((0, gj, -float(k)),)
        cons.append(LinearConstraint(terms, "=", 0.0, f"frac-degree-v{j}"))
    dim = 1 + n_u + n_v
    return SdpProblem(dim, tuple(cons), label=f"strong(k={k:g})")


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


def check_feasibility(
    problem: SdpProblem, gram: GramMatrix, eps: float = EPS_FEAS_DEFAULT
) -> ViolationReport:
    """Evaluate every constraint and the spectral floor of a candidate matrix."""
    m = gram.entries
    if m.shape[0] != problem.dim:
        raise ValueError(f"matrix dim {m.shape[0]} does not match problem dim {problem.dim}")
    residuals = np.empty(len(problem.constraints))
    violations = np.empty(len(problem.constraints))
    for idx, con in enumerate(problem.constraints):
        res = con.evaluate(m)
        residuals[idx] = res
        violations[idx] = abs(res) if con.relation == "=" else max(0.0, -res)
    max_violation = float(violations.max()) if len(violations) else 0.0
    worst = ""
    if len(violations):
        worst = problem.constraints[int(violations.argmax())].name
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
# Solver backends


_BACKENDS: dict[str, Callable[[SdpProblem, SolverConfig], FeasibilityOutcome]] = {}


def register_backend(name: str, solver: Callable[[SdpProblem, SolverConfig], FeasibilityOutcome]) -> None:
    """Adapter slot: plug in an external conic solver under a config-selectable name."""
    _BACKENDS[str(name)] = solver


def solver_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def solve_feasibility(problem: SdpProblem, config: SolverConfig | None = None) -> FeasibilityOutcome:
    """Find a PSD matrix satisfying the problem, or report why not.

    Statuses: ``feasible`` with a Gram certificate whose worst violation is at
    most config.eps_feas; ``infeasible-at-tolerance`` when the violation
    plateaus above 10x that tolerance; ``solver-limit`` when the iteration
    budget runs out or numerics fail.
    """
    config = config or SolverConfig()
    try:
        backend = _BACKENDS[config.backend]
    except KeyError:
        raise ValueError(
            f"unknown solver backend {config.backend!r}; registered: {solver_backends()}"
        ) from None
    return backend(problem, config)


@dataclass
class _Compiled:
    """Array form of a problem over the row-major vector vec(M) of length dim*dim.

    ``eq_matrix`` holds every equality row, for residual checks.  The
    equality projection uses the split instead: ``zero_mask`` marks the
    entries (both triangles) pinned to 0 by single-term rows with rhs 0, and
    ``coupling`` holds the remaining rows with the masked columns dropped.
    """

    eq_matrix: sp.csr_matrix
    eq_rhs: np.ndarray
    zero_mask: np.ndarray
    coupling: sp.csr_matrix
    coupling_rhs: np.ndarray
    ineq_rows: np.ndarray
    ineq_cols: np.ndarray
    ineq_lo: np.ndarray


def _row_entries(con: LinearConstraint, dim: int) -> Iterable[tuple[int, float]]:
    """(column of vec(M), coefficient) pairs; off-diagonal terms split 0.5/0.5."""
    for r, c, coeff in con.terms:
        if r == c:
            yield r * dim + c, coeff
        else:
            yield r * dim + c, 0.5 * coeff
            yield c * dim + r, 0.5 * coeff


def _sparse_rows(
    cons: list[LinearConstraint], dim: int, keep: np.ndarray | None = None
) -> sp.csr_matrix:
    """One row per constraint over vec(M), optionally only the ``keep`` columns."""
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for row_id, con in enumerate(cons):
        for col, coeff in _row_entries(con, dim):
            if keep is None or keep[col]:
                rows.append(row_id)
                cols.append(col)
                data.append(coeff)
    return sp.csr_matrix((data, (rows, cols)), shape=(len(cons), dim * dim))


def _compile(problem: SdpProblem) -> _Compiled:
    dim = problem.dim
    eq: list[LinearConstraint] = []
    coupling: list[LinearConstraint] = []
    zero_mask = np.zeros(dim * dim, dtype=bool)
    ineq_r: list[int] = []
    ineq_c: list[int] = []
    ineq_lo: list[float] = []
    for con in problem.constraints:
        if con.relation == "=":
            eq.append(con)
            if len(con.terms) == 1 and con.rhs == 0.0 and con.terms[0][2] != 0.0:
                r, c, _ = con.terms[0]
                zero_mask[[r * dim + c, c * dim + r]] = True
            else:
                coupling.append(con)
        else:
            if len(con.terms) != 1 or con.terms[0][2] <= 0:
                raise ValueError(
                    f"reference backend only supports single-entry lower bounds, "
                    f"constraint {con.name!r} is not one"
                )
            r, c, coeff = con.terms[0]
            ineq_r.append(r)
            ineq_c.append(c)
            ineq_lo.append(con.rhs / coeff)
    return _Compiled(
        eq_matrix=_sparse_rows(eq, dim),
        eq_rhs=np.asarray([con.rhs for con in eq], dtype=float),
        zero_mask=zero_mask,
        coupling=_sparse_rows(coupling, dim, keep=~zero_mask),
        coupling_rhs=np.asarray([con.rhs for con in coupling], dtype=float),
        ineq_rows=np.asarray(ineq_r, dtype=int),
        ineq_cols=np.asarray(ineq_c, dtype=int),
        ineq_lo=np.asarray(ineq_lo),
    )


class _ProjectionOps:
    """The three projections both backends share: the equality affine set,
    the allowed-entry orthant, and the PSD cone.

    The equality set splits in two.  Single-term rows with rhs 0 pin an
    entry to zero; they become a mask over vec(M) covering both (r, c) and
    (c, r).  The rest -- anchor norm, norm links, mass and degree rows, 4n+3
    of them on the strong relaxation -- are the coupling rows C, with the
    masked columns dropped.  The projection zeroes the masked entries, then
    applies x - C^T (C C^T)^-1 (C x - d) on the free ones, with C C^T factored
    once, densely, under a tiny ridge (the strong relaxation's degree rows
    are rank-deficient by construction) plus one iterative-refinement step.

    This is the exact Frobenius projection onto the whole equality set for
    symmetric input, and every iterate of both backends is symmetric: a zero
    row (M[r,c] + M[c,r]) / 2 = 0 is met by zeroing both entries, which
    moves x along directions orthogonal to the free entries C acts on, and a
    coupling term on a masked entry reads 0 on the set anyway.  On an
    inconsistent system the masked entries are always met and the coupling
    residual settles at a least-squares gap, which the plateau rule then
    reports as infeasible-at-tolerance.
    """

    def __init__(self, problem: SdpProblem):
        self.dim = problem.dim
        self.comp = _compile(problem)
        self.have_eq = self.comp.eq_matrix.shape[0] > 0
        self.have_ineq = self.comp.ineq_rows.size > 0
        self._lu = None
        coupling = self.comp.coupling
        if coupling.shape[0]:
            gram = (coupling @ coupling.T).toarray()
            diag_mean = gram.diagonal().mean()
            ridge = 1e-12 * (diag_mean if diag_mean > 0 else 1.0)
            self._gram = gram
            self._lu = lu_factor(gram + ridge * np.eye(gram.shape[0]), check_finite=False)
            self._coupling_t = coupling.T.tocsr()

    def proj_eq(self, x: np.ndarray) -> np.ndarray:
        vec = np.where(self.comp.zero_mask, 0.0, x.ravel())
        if self._lu is not None:
            res = self.comp.coupling @ vec - self.comp.coupling_rhs
            lam = lu_solve(self._lu, res, check_finite=False)
            lam += lu_solve(self._lu, res - self._gram @ lam, check_finite=False)
            vec -= self._coupling_t @ lam
        return vec.reshape(self.dim, self.dim)

    def proj_ineq(self, x: np.ndarray) -> np.ndarray:
        y = x.copy()
        vals = np.maximum(y[self.comp.ineq_rows, self.comp.ineq_cols], self.comp.ineq_lo)
        y[self.comp.ineq_rows, self.comp.ineq_cols] = vals
        y[self.comp.ineq_cols, self.comp.ineq_rows] = vals
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
        """Worst equality residual or inequality gap; assumes x is PSD."""
        worst = 0.0
        if self.have_eq:
            worst = float(np.abs(self.comp.eq_matrix @ x.ravel() - self.comp.eq_rhs).max())
        if self.have_ineq:
            gap = self.comp.ineq_lo - x[self.comp.ineq_rows, self.comp.ineq_cols]
            worst = max(worst, float(max(0.0, gap.max())))
        return worst

    def start_point(self, config: SolverConfig) -> np.ndarray:
        if config.warm_start is not None:
            x = np.array(config.warm_start, dtype=float)
            if x.shape != (self.dim, self.dim):
                raise ValueError(f"warm start shape {x.shape} does not match dim {self.dim}")
            return 0.5 * (x + x.T)
        return np.zeros((self.dim, self.dim))


def _solve_dykstra(problem: SdpProblem, config: SolverConfig) -> FeasibilityOutcome:
    """Reference backend: cyclic projections with Dykstra correction terms.

    Robust but slow on thin feasible sets; the product-space backend below is
    the default.  Kept as the baseline other backends are validated against.
    """
    iterations = 0
    try:
        ops = _ProjectionOps(problem)
        x = ops.start_point(config)

        projections = []
        if ops.have_eq:
            projections.append(ops.proj_eq)
        if ops.have_ineq:
            projections.append(ops.proj_ineq)
        projections.append(ops.proj_psd)
        corrections = [np.zeros((ops.dim, ops.dim)) for _ in projections]

        best = math.inf
        stalled = 0
        for iterations in range(1, config.max_iterations + 1):
            for idx, proj in enumerate(projections):
                shifted = x + corrections[idx]
                y = proj(shifted)
                corrections[idx] = shifted - y
                x = y
            viol = ops.violation(x)
            if viol <= config.eps_feas:
                return FeasibilityOutcome(FEASIBLE, GramMatrix(x), viol, iterations)
            if viol < best * (1.0 - config.plateau_rtol):
                best = viol
                stalled = 0
            else:
                stalled += 1
            if stalled >= config.plateau_window and best > 10.0 * config.eps_feas:
                return FeasibilityOutcome(INFEASIBLE, None, viol, iterations)
        return FeasibilityOutcome(SOLVER_LIMIT, None, ops.violation(x), iterations)
    except (np.linalg.LinAlgError, RuntimeError, MemoryError):
        # Numerical failure is an outcome, not a crash.
        return FeasibilityOutcome(SOLVER_LIMIT, None, math.inf, iterations)


def _solve_product_dr(problem: SdpProblem, config: SolverConfig) -> FeasibilityOutcome:
    """Default backend: Douglas-Rachford splitting on the product space.

    Each constraint family keeps its own copy of the matrix; the consensus
    set forces the copies equal (projection is averaging) and one sweep
    reflects the average through every family's projection.  Converges far
    faster than cyclic sweeps when the feasible set is thin.  On inconsistent
    systems the averaged iterate stalls at a positive gap, which the plateau
    rule reports as infeasible-at-tolerance.
    """
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

        start = ops.start_point(config)
        copies = [start.copy() for _ in projections]
        weight = 1.0 / len(copies)

        best = math.inf
        best_candidate = start
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
                if viol < best * (1.0 - config.plateau_rtol):
                    best = viol
                    best_candidate = candidate
                    stalled = 0
                else:
                    stalled += check_every
                if stalled >= config.plateau_window and best > 10.0 * config.eps_feas:
                    return FeasibilityOutcome(INFEASIBLE, None, viol, iterations)
        return FeasibilityOutcome(SOLVER_LIMIT, None, ops.violation(best_candidate), iterations)
    except (np.linalg.LinAlgError, RuntimeError, MemoryError):
        return FeasibilityOutcome(SOLVER_LIMIT, None, math.inf, iterations)


register_backend("dykstra", _solve_dykstra)
register_backend("product-dr", _solve_product_dr)


def gram_to_vectors(
    gram: GramMatrix,
    eps_psd: float = EPS_PSD_DEFAULT,
    sides: tuple[int, int] | None = None,
    eps_factor: float = EPS_FACTOR_DEFAULT,
) -> VectorSolution:
    """Factor a Gram matrix into vectors whose pairwise products reproduce it.

    Eigenvalues below -eps_psd raise; small negative ones are clamped to zero.
    The frame is reflected so the anchor lies on the first canonical axis,
    then the anchor row is normalized to unit length (the matrix should carry
    M[0,0] = 1 up to solver tolerance for the factorization to stay faithful).
    """
    m = gram.entries
    dim = gram.dim
    w, v = np.linalg.eigh(m)
    if w[0] < -eps_psd:
        raise ValueError(f"matrix is not PSD at tolerance {eps_psd}: min eigenvalue {w[0]}")
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
    if err > eps_factor:
        raise ArithmeticError(f"factorization error {err} exceeds {eps_factor}")
    anchor = target
    solution = VectorSolution(dim=dim, anchor=anchor, vectors=rows[1:], sides=None)
    if sides is not None:
        solution = solution.with_sides(*sides)
    return solution


def export_problem(problem: SdpProblem) -> str:
    """Sparse text form for debugging against external solvers.

    One constraint per line: relation, right-hand side, then row:col:coeff
    triples.  A leading comment records the label and dimension.
    """
    lines = [f"c sdp-feasibility dim={problem.dim} label={problem.label}"]
    for con in problem.constraints:
        triples = " ".join(f"{r}:{c}:{coeff:.17g}" for r, c, coeff in con.terms)
        lines.append(f"{con.relation} {con.rhs:.17g} {triples}")
    return "\n".join(lines) + "\n"


def gram_to_text(gram: GramMatrix) -> str:
    """Dense row-major text with a dimension header."""
    lines = [f"gram {gram.dim}"]
    for row in gram.entries:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def gram_from_text(text: str) -> GramMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("c")]
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
