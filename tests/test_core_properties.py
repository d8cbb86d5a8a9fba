"""Property tests: the common-neighbour peel matches a one-vertex-at-a-time
reference in any deletion order, its cores are nested and hold the exact
optimum, and its cap sits between the optimum and the plain (k,k)-core cap."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import reference_peel
from mbb_sdp import BipartiteGraph, common_neighbour_cores, exact_mbb

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# Every vertex has two neighbours and no two share both: the plain (2,2)-core
# is the whole cycle, the common-neighbour core at k = 2 is empty, and a peel
# that counts a vertex as its own partner keeps the cycle.
SIX_CYCLE = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
# One isolated vertex on each side: a peel of one side only keeps the other's.
ISOLATED_PAIR = np.array([[1, 0], [0, 0]], dtype=bool)


@st.composite
def adjacencies(draw, max_side=8):
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    adj = draw(arrays(np.bool_, shape))
    # hypothesis shrinks toward False; the flip reaches dense graphs as often
    return ~adj if draw(st.booleans()) else adj


def reference_cap(adj, partners):
    """The largest k whose one-vertex-at-a-time core is nonempty."""
    cap = 0
    while cap < min(adj.shape) and reference_peel(adj, cap + 1, partners)[0]:
        cap += 1
    return cap


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
@given(adj=adjacencies(), order_seed=st.integers(0, 2**32 - 1))
@example(adj=SIX_CYCLE, order_seed=0)
@example(adj=ISOLATED_PAIR, order_seed=0)
def test_common_neighbour_cores_match_one_vertex_reference_peel(adj, order_seed):
    # the reference deletes failing vertices in a drawn order, one at a time
    rng = np.random.default_rng(order_seed)
    cores = common_neighbour_cores(BipartiteGraph(*adj.shape, adj))
    for k in range(1, min(adj.shape) + 2):
        expected = reference_peel(adj, k, pick=lambda weak: weak[rng.integers(len(weak))])
        if k <= len(cores):
            assert (cores[k - 1][0].tolist(), cores[k - 1][1].tolist()) == expected
            assert min(len(expected[0]), len(expected[1])) >= k
        else:
            assert expected == ([], [])


@SETTINGS
@given(adj=adjacencies())
def test_common_neighbour_cores_are_nested(adj):
    cores = common_neighbour_cores(BipartiteGraph(*adj.shape, adj))
    for outer, inner in zip(cores, cores[1:]):
        assert set(inner[0].tolist()) <= set(outer[0].tolist())
        assert set(inner[1].tolist()) <= set(outer[1].tolist())


@SETTINGS
@given(adj=adjacencies())
@example(adj=SIX_CYCLE)
def test_core_cap_between_optimum_and_degree_bound(adj):
    graph = BipartiteGraph(*adj.shape, adj)
    cores = common_neighbour_cores(graph)
    opt = exact_mbb(graph)
    assert opt.size <= len(cores) <= reference_cap(adj, partners=False) <= degree_bound(adj)
    if opt.size:
        left, right = cores[opt.size - 1]
        assert set(opt.left) <= set(left.tolist()) and set(opt.right) <= set(right.tolist())
