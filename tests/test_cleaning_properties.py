"""Property tests: the array cleaning kernel and density_clean follow the
from-scratch replay oracle, the cleaning potential never drops, extraction
on a subset of a host matches extraction on the sliced subgraph, and many
rows stacked into one kernel call each answer as that row alone."""

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
from mbb_sdp.extraction import _clean_rows, extract_rows

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def adjacencies(draw, max_side=8):
    shape = (draw(st.integers(0, max_side)), draw(st.integers(0, max_side)))
    adj = draw(arrays(np.bool_, shape))
    # hypothesis shrinks toward False; the flip reaches dense graphs as often
    return ~adj if draw(st.booleans()) else adj


@SETTINGS
@given(adj=adjacencies(), r=st.integers(1, 4))
def test_clean_rows_and_density_clean_match_replay(adj, r):
    graph = BipartiteGraph(*adj.shape, adj)
    deleted, potentials, left, right = replay_clean(graph, r)

    edges = int(adj.sum())
    initial = edges - 2 * r * (adj.size - edges)
    live_l, live_r = np.ones((1, graph.n_u), dtype=bool), np.ones((1, graph.n_v), dtype=bool)
    log = []
    _clean_rows(adj.astype(float), live_l, live_r, np.array([r]), log)
    assert tuple((side, i) for side, i, _ in log) == deleted
    assert tuple(np.cumsum([initial] + [gain for _, _, gain in log])[1:].tolist()) == potentials
    assert (tuple(np.flatnonzero(live_l[0])), tuple(np.flatnonzero(live_r[0]))) == (left, right)

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
def test_extract_rows_matches_greedy_extract(adj, r):
    if 0 in adj.shape:
        return
    graph = BipartiteGraph(*adj.shape, adj)
    n = max(adj.shape)
    edges = int(adj.sum())
    rows, cols, found_r = extract_rows(adj, *_whole_rows(adj), r, n)
    found = greedy_extract(graph, r, n)
    if not found_r[0]:
        assert found is None
    else:
        assert found_r[0] == r
        assert (found.left, found.right) == (tuple(np.flatnonzero(rows[0])), tuple(np.flatnonzero(cols[0])))
        assert found.size == r and verify_biclique(graph, found.left, found.right)
    if edges - 2 * r * (adj.size - edges) >= 2 * n * r:
        assert found is not None


def _whole_rows(adj):
    return np.ones((1, adj.shape[0]), dtype=bool), np.ones((1, adj.shape[1]), dtype=bool)


def _subset_rows(adj, left, right):
    live_l = np.zeros((1, adj.shape[0]), dtype=bool)
    live_r = np.zeros((1, adj.shape[1]), dtype=bool)
    live_l[0, left] = True
    live_r[0, right] = True
    return live_l, live_r


def _picked(rows, cols, found):
    """One row's kernel answer as index lists, or None."""
    if not found[0]:
        return None
    return np.flatnonzero(rows[0]).tolist(), np.flatnonzero(cols[0]).tolist()


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
    host = _extract_or_raise(lambda: _picked(*extract_rows(adj, *_subset_rows(adj, left, right), r, n)))
    sliced = _extract_or_raise(lambda: _picked(*extract_rows(sub.dense(), *_whole_rows(sub.dense()), r, n)))
    if isinstance(sliced, tuple):
        sliced = ([left[a] for a in sliced[0]], [right[b] for b in sliced[1]])
    assert host == sliced


def _reference_extract(graph, left, right, r, n, retry):
    """One row alone: replay_clean on the row's subgraph, then the greedy
    pick (the r lowest rows, the r lowest columns adjacent to all of them),
    from r down to 1 with retry; "precondition" where a guaranteed pick
    fails, in host indices otherwise."""
    sub, ids_l, ids_r = induced_subgraph(graph, left, right)
    dense = sub.dense()
    for target in range(r, 0, -1) if retry else (r,):
        _, _, kept_l, kept_r = replay_clean(sub, target)
        rows = list(kept_l[:target])
        common = [j for j in kept_r if all(dense[i, j] for i in rows)]
        picked = len(rows) == target and len(common) >= target
        guaranteed = sub.num_edges - 2 * target * sub.num_non_edges >= 2 * n * target
        if guaranteed and (len(kept_l) < target or len(kept_r) < 2 * target or not picked):
            return "precondition"
        if picked:
            return [ids_l[i] for i in rows], [ids_r[j] for j in common[:target]]
    return None


@st.composite
def stacked_rows(draw):
    """An adjacency and one to six subset rows of it, each with its own size
    target r and host bound n."""
    adj = draw(adjacencies())
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        left = sorted(draw(st.sets(st.integers(0, adj.shape[0] - 1)))) if adj.shape[0] else []
        right = sorted(draw(st.sets(st.integers(0, adj.shape[1] - 1)))) if adj.shape[1] else []
        rows.append((left, right, draw(st.integers(1, 4)), draw(st.integers(0, 10))))
    return adj, rows


# K_{4,4} without its diagonal: at r = 3 cleaning deletes everything, so the
# whole-graph row retries down to r = 1 while the 2 x 2 complete row is
# picked at once, and the empty row is done before either
@example(
    case=(~np.eye(4, dtype=bool), [([0, 1, 2, 3], [0, 1, 2, 3], 3, 4), ([0, 1], [2, 3], 2, 2), ([], [1], 1, 4)]),
    retry=True,
)
@SETTINGS
@given(case=stacked_rows(), retry=st.booleans())
def test_stacked_rows_answer_as_each_row_alone(case, retry):
    adj, rows = case
    graph = BipartiteGraph(*adj.shape, adj)
    live_l = np.zeros((len(rows), adj.shape[0]), dtype=bool)
    live_r = np.zeros((len(rows), adj.shape[1]), dtype=bool)
    for s, (left, right, _, _) in enumerate(rows):
        live_l[s, left] = True
        live_r[s, right] = True
    r = np.array([target for _, _, target, _ in rows])
    n = np.array([bound for _, _, _, bound in rows])

    # survivors: each row cleaned at its own r, as the replay on its subgraph
    cleaned_l, cleaned_r = live_l.copy(), live_r.copy()
    _clean_rows(adj.astype(float), cleaned_l, cleaned_r, r)
    for s, (left, right, target, _) in enumerate(rows):
        sub, ids_l, ids_r = induced_subgraph(graph, left, right)
        _, _, kept_l, kept_r = replay_clean(sub, target)
        assert np.flatnonzero(cleaned_l[s]).tolist() == [ids_l[i] for i in kept_l]
        assert np.flatnonzero(cleaned_r[s]).tolist() == [ids_r[j] for j in kept_r]

    # picks and raise/None: each row alone, then all rows in one call
    alone = [_reference_extract(graph, left, right, target, bound, retry) for left, right, target, bound in rows]
    for s, expected in enumerate(alone):
        single = _extract_or_raise(lambda: extract_rows(adj, live_l[s : s + 1], live_r[s : s + 1], r[s], n[s], retry))
        assert (single if single == "precondition" else _picked(*single)) == expected
    stacked = _extract_or_raise(lambda: extract_rows(adj, live_l, live_r, r, n, retry))
    if "precondition" in alone:
        assert stacked == "precondition"
        return
    picked_l, picked_r, found = stacked
    for s, expected in enumerate(alone):
        assert _picked(picked_l[s : s + 1], picked_r[s : s + 1], found[s : s + 1]) == expected
        assert found[s] == (0 if expected is None else len(expected[0]))
