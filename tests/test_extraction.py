import numpy as np
import pytest

from mbb_sdp import (
    CleaningTrace,
    ExtractionPreconditionError,
    best_extractable_r,
    complete_bipartite,
    construct_biclique,
    density_clean,
    empty_bipartite,
    greedy_extract,
    new_bipartite,
    verify_biclique,
)


def replay_clean(graph, r):
    """Reference cleaner: rescan everything from scratch after each deletion.

    Deletes the lowest-global-index vertex whose live degree is at most 2r
    times its live non-degree (U indices come before V indices), and logs the
    potential W = F - 2rQ of the live subgraph after every step.
    """
    dense = graph.dense()
    left = list(range(graph.n_u))
    right = list(range(graph.n_v))
    deleted = []
    potentials = []
    while True:
        target = None
        for i in left:
            deg = sum(1 for j in right if dense[i, j])
            if deg <= 2 * r * (len(right) - deg):
                target = ("U", i)
                break
        if target is None:
            for j in right:
                deg = sum(1 for i in left if dense[i, j])
                if deg <= 2 * r * (len(left) - deg):
                    target = ("V", j)
                    break
        if target is None:
            break
        if target[0] == "U":
            left.remove(target[1])
        else:
            right.remove(target[1])
        deleted.append(target)
        edges = sum(1 for i in left for j in right if dense[i, j])
        potentials.append(edges - 2 * r * (len(left) * len(right) - edges))
    return tuple(deleted), tuple(potentials), tuple(left), tuple(right)


def random_graph(rng, max_side=8):
    n_u = int(rng.integers(1, max_side + 1))
    n_v = int(rng.integers(1, max_side + 1))
    mask = rng.random((n_u, n_v)) < rng.random()
    return new_bipartite(n_u, n_v, [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))])


def test_density_clean_matches_replay_oracle():
    rng = np.random.default_rng(41)
    for trial in range(50):
        g = random_graph(rng)
        r = int(rng.integers(1, 4))
        cleaned, trace = density_clean(g, r)
        deleted, potentials, left, right = replay_clean(g, r)
        assert trace.deleted == deleted
        assert trace.potentials == potentials
        assert trace.surviving_left() == left
        assert trace.surviving_right() == right
        assert (cleaned.n_u, cleaned.n_v) == (len(left), len(right))
        # the survivor subgraph carries the original adjacency, relabeled
        dense = g.dense()
        sub = cleaned.dense()
        for a, i in enumerate(left):
            for b, j in enumerate(right):
                assert sub[a, b] == dense[i, j]


def test_clean_trace_bookkeeping():
    rng = np.random.default_rng(42)
    for trial in range(40):
        g = random_graph(rng)
        r = int(rng.integers(1, 4))
        cleaned, trace = density_clean(g, r)
        assert len(trace.potentials) == len(trace.deleted)
        assert trace.initial_potential == g.num_edges - 2 * r * g.num_non_edges
        # every deletion step has non-negative gain, so W never decreases
        path = (trace.initial_potential,) + trace.potentials
        assert all(b >= a for a, b in zip(path, path[1:]))
        # the last potential is exactly the W of the cleaned graph
        final = path[-1]
        assert final == cleaned.num_edges - 2 * r * cleaned.num_non_edges


def test_clean_survivors_strictly_violate_deletion_test():
    rng = np.random.default_rng(43)
    for trial in range(30):
        g = random_graph(rng)
        r = int(rng.integers(1, 4))
        cleaned, _ = density_clean(g, r)
        left_deg = cleaned.dense().sum(axis=1)
        right_deg = cleaned.dense().sum(axis=0)
        assert all(d > 2 * r * (cleaned.n_v - d) for d in left_deg)
        assert all(d > 2 * r * (cleaned.n_u - d) for d in right_deg)


def test_clean_fixed_small_trace():
    # 2x2 graph missing only the (1, 1) edge, target r = 1: U1 qualifies
    # (degree 1 <= 2x1 non-degree), everything else then survives.
    g = new_bipartite(2, 2, [(0, 0), (0, 1), (1, 0)])
    cleaned, trace = density_clean(g, 1)
    assert trace.deleted == (("U", 1),)
    assert trace.initial_potential == 1
    assert trace.potentials == (2,)
    assert (cleaned.n_u, cleaned.n_v) == (1, 2)
    assert cleaned.num_edges == 2


def test_clean_complete_graph_untouched():
    cleaned, trace = density_clean(complete_bipartite(5, 4), 3)
    assert trace.deleted == ()
    assert trace.potentials == ()
    assert (cleaned.n_u, cleaned.n_v) == (5, 4)


def test_clean_empty_graph_deletes_everything():
    cleaned, trace = density_clean(empty_bipartite(3, 2), 1)
    assert (cleaned.n_u, cleaned.n_v) == (0, 0)
    assert len(trace.deleted) == 5
    assert trace.surviving_left() == ()
    assert trace.surviving_right() == ()


def test_clean_rejects_bad_target():
    with pytest.raises(ValueError):
        density_clean(complete_bipartite(2, 2), 0)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        density_clean(complete_bipartite(2, 2), 2**31 + 1)
    # the largest target still cleans exactly: a full row is never deleted
    assert density_clean(complete_bipartite(2, 2), 2**31)[1].deleted == ()


def test_greedy_extract_takes_a_host_bound_of_any_size():
    g = complete_bipartite(3, 3)
    assert greedy_extract(g, 1, 3) is not None
    assert greedy_extract(g, 1, 10**40).size == 1


def test_construct_biclique_on_complete_graph():
    bic = construct_biclique(complete_bipartite(2, 4), 2)
    assert bic.size == 2
    assert bic.left == (0, 1)
    assert bic.right == (0, 1)


def test_construct_biclique_size_preconditions():
    with pytest.raises(ExtractionPreconditionError):
        construct_biclique(complete_bipartite(1, 4), 2)  # left side below r
    with pytest.raises(ExtractionPreconditionError):
        construct_biclique(complete_bipartite(2, 3), 2)  # right side below 2r
    with pytest.raises(ValueError):
        construct_biclique(complete_bipartite(2, 4), 0)


def test_construct_biclique_survivor_deficit():
    # both sides are large enough, but the first two rows share no neighbor,
    # which a graph actually cleaned at r = 2 could never exhibit
    g = new_bipartite(2, 4, [(0, 0), (0, 1), (1, 2), (1, 3)])
    with pytest.raises(ExtractionPreconditionError):
        construct_biclique(g, 2)


def test_precondition_error_is_a_value_error():
    assert issubclass(ExtractionPreconditionError, ValueError)


def test_best_extractable_r_fixed_values():
    assert best_extractable_r(complete_bipartite(8, 8), 8) == 4
    assert best_extractable_r(complete_bipartite(4, 4), 4) == 2
    assert best_extractable_r(empty_bipartite(4, 4), 4) == 0
    # the potential threshold is conservative: K_{1,1} itself is below it
    assert best_extractable_r(complete_bipartite(1, 1), 1) == 0
    missing_matching = new_bipartite(
        8, 8, [(i, j) for i in range(8) for j in range(8) if i != j]
    )
    assert best_extractable_r(missing_matching, 8) == 1
    with pytest.raises(ValueError):
        best_extractable_r(complete_bipartite(2, 2), 0)


def test_best_extractable_r_matches_threshold_scan():
    rng = np.random.default_rng(44)
    for trial in range(40):
        g = random_graph(rng)
        n = max(g.n_u, g.n_v)
        f, q = g.num_edges, g.num_non_edges
        best = 0
        for r in range(1, f // (2 * n) + 2):
            if f - 2 * r * q >= 2 * n * r:
                best = r
        assert best_extractable_r(g, n) == best


def test_greedy_extract_guaranteed_regime():
    # any (graph, r) pair above the potential threshold must yield a biclique
    rng = np.random.default_rng(45)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(4, 11))
        mask = rng.random((n, n)) < 0.92
        g = new_bipartite(n, n, [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))])
        r_max = best_extractable_r(g, n)
        for r in range(1, r_max + 1):
            bic = greedy_extract(g, r, n)
            assert bic is not None
            assert bic.size == r
            assert verify_biclique(g, bic.left, bic.right)
            checked += 1
    assert checked >= 30


def test_greedy_extract_complete_graph_all_targets():
    g = complete_bipartite(8, 8)
    for r in range(1, best_extractable_r(g, 8) + 1):
        bic = greedy_extract(g, r, 8)
        assert bic.size == r
        assert bic.left == tuple(range(r))
        assert bic.right == tuple(range(r))


def test_greedy_extract_relabels_to_input_indices():
    # U0 is isolated and gets cleaned away; the answer must still use the
    # original labels, not the compacted survivor ones
    g = new_bipartite(7, 6, [(i + 1, j) for i in range(6) for j in range(6)])
    bic = greedy_extract(g, 1, 7)
    assert bic is not None
    assert bic.left == (1,)
    assert bic.right == (0,)
    assert verify_biclique(g, bic.left, bic.right)


def test_greedy_extract_best_effort_can_fail():
    # a perfect matching is too sparse: cleaning at r = 1 deletes everything
    matching = new_bipartite(4, 4, [(i, i) for i in range(4)])
    assert best_extractable_r(matching, 4) == 0
    assert greedy_extract(matching, 1, 4) is None


def test_greedy_extract_best_effort_can_succeed_below_threshold():
    # K_{3,3} minus two matching edges: W = 7 - 2x2 = 3 misses the 2nr = 6
    # guarantee at r = 1, but one full row survives cleaning and is found
    g = new_bipartite(3, 3, [(i, j) for i in range(3) for j in range(3) if (i, j) not in ((0, 0), (1, 1))])
    assert best_extractable_r(g, 3) == 0
    bic = greedy_extract(g, 1, 3)
    assert bic is not None
    assert bic.size == 1
    assert bic.left == (2,)
    assert verify_biclique(g, bic.left, bic.right)


def test_greedy_extract_input_validation():
    g = complete_bipartite(3, 3)
    with pytest.raises(ValueError):
        greedy_extract(g, 0, 3)
    with pytest.raises(ValueError):
        greedy_extract(g, 1, 2)  # host bound below the actual sides


def test_trace_is_frozen():
    _, trace = density_clean(complete_bipartite(2, 2), 1)
    assert isinstance(trace, CleaningTrace)
    with pytest.raises(AttributeError):
        trace.r = 5
