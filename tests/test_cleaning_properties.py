"""Property tests: the array cleaning core and density_clean follow the
from-scratch replay oracle, and the cleaning potential never drops."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from test_extraction import replay_clean

from mbb_sdp import BipartiteGraph, density_clean, greedy_extract, verify_biclique
from mbb_sdp.extraction import clean_array, extract_array

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def adjacencies(draw, max_side=8):
    shape = (draw(st.integers(0, max_side)), draw(st.integers(0, max_side)))
    adj = draw(arrays(np.bool_, shape))
    # hypothesis shrinks toward False; the flip reaches dense graphs as often
    return ~adj if draw(st.booleans()) else adj


@SETTINGS
@given(adj=adjacencies(), r=st.integers(1, 4))
def test_clean_array_and_density_clean_match_replay(adj, r):
    graph = BipartiteGraph(*adj.shape, adj)
    deleted, potentials, left, right = replay_clean(graph, r)

    core_left, core_right, core_deleted, core_potentials, initial = clean_array(adj, r)
    assert (tuple(core_deleted), tuple(core_potentials)) == (deleted, potentials)
    assert (tuple(core_left), tuple(core_right)) == (left, right)

    cleaned, trace = density_clean(graph, r)
    assert (trace.deleted, trace.potentials) == (deleted, potentials)
    assert (trace.surviving_left(), trace.surviving_right()) == (left, right)
    assert np.array_equal(cleaned.dense(), adj[np.ix_(left, right)].reshape(len(left), len(right)))

    # the potential path never drops, and ends at the cleaned graph's W
    edges = int(adj.sum())
    assert initial == trace.initial_potential == edges - 2 * r * (adj.size - edges)
    path = (initial,) + potentials
    assert all(b >= a for a, b in zip(path, path[1:]))
    assert path[-1] == cleaned.num_edges - 2 * r * cleaned.num_non_edges


@SETTINGS
@given(adj=adjacencies(), r=st.integers(1, 4))
def test_extract_array_matches_greedy_extract(adj, r):
    if 0 in adj.shape:
        return
    graph = BipartiteGraph(*adj.shape, adj)
    n = max(adj.shape)
    edges = int(adj.sum())
    picked = extract_array(adj, r, n, edges)
    found = greedy_extract(graph, r, n)
    if picked is None:
        assert found is None
    else:
        assert (found.left, found.right) == (tuple(picked[0]), tuple(picked[1]))
        assert found.size == r and verify_biclique(graph, found.left, found.right)
    if edges - 2 * r * (adj.size - edges) >= 2 * n * r:
        assert found is not None
