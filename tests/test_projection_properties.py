"""Property tests: the constraint evaluator matches a term-by-term sum, and
each shared projection lands in its set and is idempotent."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mbb_sdp import (
    BipartiteGraph,
    ConstraintBlock,
    GramMatrix,
    SdpProblem,
    build_strong_relaxation,
    build_weak_relaxation,
    check_feasibility,
)
from mbb_sdp.sdp import _ProjectionOps

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _term_by_term(blocks, m):
    """Reference residuals and violations: one Python sum per row."""
    residuals, violations = [], []
    for rows, cols, coeff, rhs, relation in blocks:
        for r_row, c_row, x_row, b in zip(rows, cols, coeff, rhs):
            res = sum(x * m[r, c] for r, c, x in zip(r_row, c_row, x_row)) - b
            residuals.append(res)
            violations.append(abs(res) if relation == "=" else max(0.0, -res))
    return np.array(residuals), np.array(violations)


@st.composite
def block_cases(draw):
    """Random blocks over a small matrix: any index pair (r > c included),
    non-unit coefficients, '=' and '>=' rows; and a symmetric point."""
    dim = draw(st.integers(1, 5))
    index = st.integers(0, dim - 1)
    value = st.floats(-3.0, 3.0)
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        shape = (draw(st.integers(0, 4)), draw(st.integers(1, 3)))
        blocks.append(
            (
                draw(arrays(np.int64, shape, elements=index)),
                draw(arrays(np.int64, shape, elements=index)),
                draw(arrays(np.float64, shape, elements=value)),
                draw(arrays(np.float64, shape[:1], elements=value)),
                draw(st.sampled_from(("=", ">="))),
            )
        )
    raw = draw(arrays(np.float64, (dim, dim), elements=st.floats(-4.0, 4.0)))
    return dim, blocks, raw + raw.T


@SETTINGS
@given(block_cases())
def test_check_feasibility_matches_term_by_term_sums(case):
    dim, raw_blocks, m = case
    blocks = tuple(
        ConstraintBlock(rows, cols, coeff, rhs, relation, [f"b{i}-{j}" for j in range(len(rhs))])
        for i, (rows, cols, coeff, rhs, relation) in enumerate(raw_blocks)
    )
    report = check_feasibility(SdpProblem(dim, blocks), GramMatrix(m))
    residuals, violations = _term_by_term(raw_blocks, m)
    assert report.residuals.shape == residuals.shape
    assert np.abs(report.residuals - residuals).max(initial=0.0) <= 1e-12
    assert np.abs(report.violations - violations).max(initial=0.0) <= 1e-12
    assert abs(report.max_violation - violations.max(initial=0.0)) <= 1e-12
    names = [name for block in blocks for name in block.names]
    if names:
        assert violations[names.index(report.worst_constraint)] >= violations.max() - 1e-12


@st.composite
def projection_cases(draw):
    """A weak or strong relaxation of a random graph with a planted k x k
    block (so its equality rows are consistent), and a symmetric point."""
    n_u = draw(st.integers(1, 4))
    n_v = draw(st.integers(1, 4))
    adj = draw(arrays(np.bool_, (n_u, n_v)))
    k = draw(st.integers(1, min(n_u, n_v)))
    adj[:k, :k] = True
    build = draw(st.sampled_from((build_weak_relaxation, build_strong_relaxation)))
    problem = build(BipartiteGraph(n_u, n_v, adj), k)
    dim = problem.dim
    raw = draw(arrays(np.float64, (dim, dim), elements=st.floats(-4.0, 4.0)))
    return problem, _ProjectionOps(problem), raw + raw.T


@SETTINGS
@given(projection_cases())
def test_proj_eq_lands_in_equality_set_and_is_idempotent(case):
    problem, ops, x = case
    y = ops.proj_eq(x)
    equalities = [
        (b.rows, b.cols, b.coeff, b.rhs, b.relation) for b in problem.blocks if b.relation == "="
    ]
    assert np.abs(_term_by_term(equalities, y)[0]).max() <= 1e-9
    assert np.array_equal(y, y.T)
    assert np.abs(ops.proj_eq(y) - y).max() <= 1e-10


@SETTINGS
@given(projection_cases())
def test_proj_ineq_lands_in_orthant_and_is_idempotent(case):
    _, ops, x = case
    y = ops.proj_ineq(x)
    rows, cols = ops.ineq_rows, ops.ineq_cols
    assert (y[rows, cols] >= ops.ineq_lo).all()
    assert np.array_equal(y, y.T)
    assert np.array_equal(ops.proj_ineq(y), y)


@SETTINGS
@given(projection_cases())
def test_proj_psd_lands_in_cone_and_is_idempotent(case):
    _, ops, x = case
    y = ops.proj_psd(x)
    assert np.linalg.eigvalsh(y)[0] >= -1e-9
    assert np.array_equal(y, y.T)
    assert np.abs(ops.proj_psd(y) - y).max() <= 1e-9
