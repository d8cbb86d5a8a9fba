"""Property tests: each shared projection lands in its set and is idempotent."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mbb_sdp import BipartiteGraph, build_strong_relaxation, build_weak_relaxation
from mbb_sdp.sdp import _ProjectionOps

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


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
    return _ProjectionOps(problem), raw + raw.T


@SETTINGS
@given(projection_cases())
def test_proj_eq_lands_in_equality_set_and_is_idempotent(case):
    ops, x = case
    y = ops.proj_eq(x)
    assert np.abs(ops.comp.eq_matrix @ y.ravel() - ops.comp.eq_rhs).max() <= 1e-9
    assert np.array_equal(y, y.T)
    assert np.abs(ops.proj_eq(y) - y).max() <= 1e-10


@SETTINGS
@given(projection_cases())
def test_proj_ineq_lands_in_orthant_and_is_idempotent(case):
    ops, x = case
    y = ops.proj_ineq(x)
    rows, cols = ops.comp.ineq_rows, ops.comp.ineq_cols
    assert (y[rows, cols] >= ops.comp.ineq_lo).all()
    assert np.array_equal(y, y.T)
    assert np.array_equal(ops.proj_ineq(y), y)


@SETTINGS
@given(projection_cases())
def test_proj_psd_lands_in_cone_and_is_idempotent(case):
    ops, x = case
    y = ops.proj_psd(x)
    assert np.linalg.eigvalsh(y)[0] >= -1e-9
    assert np.array_equal(y, y.T)
    assert np.abs(ops.proj_psd(y) - y).max() <= 1e-9
