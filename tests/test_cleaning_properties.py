"""Property tests: the cleaning kernel on a graph's bitsets and
density_clean follow the from-scratch replay oracle, the cleaning potential
never drops, and extraction in host indices matches extraction on the
sliced subgraph."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from test_extraction import replay_clean

from mbb_sdp import (
    BipartiteGraph,
    ExtractionPreconditionError,
    density_clean,
    greedy_extract,
    induced_subgraph,
    verify_biclique,
)
from mbb_sdp.extraction import clean_bits, extract_bits

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def adjacencies(draw, max_side=8):
    shape = (draw(st.integers(0, max_side)), draw(st.integers(0, max_side)))
    adj = draw(arrays(np.bool_, shape))
    # hypothesis shrinks toward False; the flip reaches dense graphs as often
    return ~adj if draw(st.booleans()) else adj


@SETTINGS
@given(adj=adjacencies(), r=st.integers(1, 4))
def test_clean_bits_and_density_clean_match_replay(adj, r):
    graph = BipartiteGraph(*adj.shape, adj)
    deleted, potentials, left, right = replay_clean(graph, r)

    edges = int(adj.sum())
    initial = edges - 2 * r * (adj.size - edges)
    core_left, core_right, core_deleted, gains = clean_bits(
        *graph.bitsets(), range(graph.n_u), range(graph.n_v), r
    )
    assert tuple(core_deleted) == deleted
    assert tuple(np.cumsum([initial] + gains)[1:].tolist()) == potentials
    assert (tuple(core_left), tuple(core_right)) == (left, right)

    cleaned, trace = density_clean(graph, r)
    assert (trace.deleted, trace.potentials) == (deleted, potentials)
    assert (trace.surviving_left(), trace.surviving_right()) == (left, right)
    assert np.array_equal(cleaned.dense(), adj[np.ix_(left, right)].reshape(len(left), len(right)))

    # the potential path never drops, and ends at the cleaned graph's W
    assert trace.initial_potential == initial
    path = (initial,) + potentials
    assert all(b >= a for a, b in zip(path, path[1:]))
    assert path[-1] == cleaned.num_edges - 2 * r * cleaned.num_non_edges


@SETTINGS
@given(adj=adjacencies(), r=st.integers(1, 4))
def test_extract_bits_matches_greedy_extract(adj, r):
    if 0 in adj.shape:
        return
    graph = BipartiteGraph(*adj.shape, adj)
    n = max(adj.shape)
    edges = int(adj.sum())
    picked = extract_bits(*graph.bitsets(), range(graph.n_u), range(graph.n_v), r, n, edges)
    found = greedy_extract(graph, r, n)
    if picked is None:
        assert found is None
    else:
        assert (found.left, found.right) == (tuple(picked[0]), tuple(picked[1]))
        assert found.size == r and verify_biclique(graph, found.left, found.right)
    if edges - 2 * r * (adj.size - edges) >= 2 * n * r:
        assert found is not None


@st.composite
def host_subsets(draw):
    """An adjacency with ascending row and column subsets of it."""
    adj = draw(adjacencies())
    left = sorted(draw(st.sets(st.integers(0, adj.shape[0] - 1)))) if adj.shape[0] else []
    right = sorted(draw(st.sets(st.integers(0, adj.shape[1] - 1)))) if adj.shape[1] else []
    return adj, left, right


def _extract_or_raise(extract):
    try:
        return extract()
    except ExtractionPreconditionError:
        return "precondition"


@SETTINGS
@given(case=host_subsets(), r=st.integers(1, 4), n=st.integers(0, 10))
# n below the sides voids the guarantee, so the guaranteed branch can raise
@example(case=(np.ones((1, 1), dtype=bool), [0], [0]), r=1, n=0)
def test_host_index_extraction_matches_sliced(case, r, n):
    adj, left, right = case
    graph = BipartiteGraph(*adj.shape, adj)
    sub, _, _ = induced_subgraph(graph, left, right)
    edges = sub.num_edges
    host = _extract_or_raise(lambda: extract_bits(*graph.bitsets(), left, right, r, n, edges))
    sliced = _extract_or_raise(
        lambda: extract_bits(*sub.bitsets(), range(sub.n_u), range(sub.n_v), r, n, edges)
    )
    if isinstance(sliced, tuple):
        sliced = ([left[a] for a in sliced[0]], [right[b] for b in sliced[1]])
    assert host == sliced
