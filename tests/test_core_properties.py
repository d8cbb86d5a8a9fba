"""Property tests: the (k,k)-core peel matches a one-vertex-at-a-time
reference, holds the exact optimum, and its cap sits between the optimum and
the degree bound."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mbb_sdp import BipartiteGraph, exact_mbb, kk_cores

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def adjacencies(draw, max_side=8):
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    adj = draw(arrays(np.bool_, shape))
    # hypothesis shrinks toward False; the flip reaches dense graphs as often
    return ~adj if draw(st.booleans()) else adj


def reference_core(adj, k):
    """Delete one vertex with fewer than k neighbours on the other side at a
    time, U before V and lowest index first, until none is left."""
    left, right = set(range(adj.shape[0])), set(range(adj.shape[1]))
    while True:
        weak_u = [i for i in sorted(left) if sum(adj[i, j] for j in right) < k]
        if weak_u:
            left.remove(weak_u[0])
            continue
        weak_v = [j for j in sorted(right) if sum(adj[i, j] for i in left) < k]
        if not weak_v:
            return sorted(left), sorted(right)
        right.remove(weak_v[0])


def degree_bound(adj):
    """The largest k with k <= sum over each side of min(1, (deg/k)^2): the
    relaxation's mass and degree rows allow no larger k."""
    left, right = adj.sum(axis=1).astype(float), adj.sum(axis=0).astype(float)
    cap = 0
    for k in range(1, min(adj.shape) + 1):
        if k <= min(np.minimum(1.0, (left / k) ** 2).sum(), np.minimum(1.0, (right / k) ** 2).sum()):
            cap = k
    return cap


@SETTINGS
@given(adj=adjacencies())
def test_kk_cores_match_one_vertex_reference_peel(adj):
    cores = kk_cores(BipartiteGraph(*adj.shape, adj))
    for k in range(1, min(adj.shape) + 2):
        expected = reference_core(adj, k)
        if k <= len(cores):
            assert (cores[k - 1][0].tolist(), cores[k - 1][1].tolist()) == expected
            assert min(len(expected[0]), len(expected[1])) >= k
        else:
            assert expected == ([], [])


@SETTINGS
@given(adj=adjacencies())
def test_core_cap_between_optimum_and_degree_bound(adj):
    graph = BipartiteGraph(*adj.shape, adj)
    cores = kk_cores(graph)
    opt = exact_mbb(graph)
    assert opt.size <= len(cores) <= degree_bound(adj)
    if opt.size:
        left, right = cores[opt.size - 1]
        assert set(opt.left) <= set(left.tolist()) and set(opt.right) <= set(right.tolist())
