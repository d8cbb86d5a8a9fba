from itertools import combinations

import numpy as np
import pytest

from mbb_sdp import (
    complete_bipartite,
    contains_biclique,
    empty_bipartite,
    exact_mbb,
    new_bipartite,
    planted_instance,
    verify_biclique,
)
import mbb_sdp.exact as exact_module
from mbb_sdp.exact import DEFAULT_SIZE_GUARD


def brute_force_size(graph):
    """Enumerate every left subset and count its common neighborhood."""
    dense = graph.dense()
    best = 0
    for size in range(1, graph.n_u + 1):
        for subset in combinations(range(graph.n_u), size):
            hood = int(dense[list(subset)].all(axis=0).sum())
            best = max(best, min(size, hood))
    return best


def random_graph(rng, max_side=7):
    n_u = int(rng.integers(1, max_side + 1))
    n_v = int(rng.integers(1, max_side + 1))
    mask = rng.random((n_u, n_v)) < rng.random()
    return new_bipartite(n_u, n_v, [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))])


def test_small_fixed_cases():
    assert exact_mbb(complete_bipartite(3, 3)).size == 3
    assert exact_mbb(empty_bipartite(4, 4)).size == 0
    matching = new_bipartite(4, 4, [(i, i) for i in range(4)])
    assert exact_mbb(matching).size == 1
    # K_{3,3} minus a perfect matching is a 6-cycle: no K_{2,2} survives
    g = new_bipartite(3, 3, [(i, j) for i in range(3) for j in range(3) if i != j])
    assert exact_mbb(g).size == 1
    # adding one matching edge back creates a K_{2,2}
    g2 = new_bipartite(3, 3, [(i, j) for i in range(3) for j in range(3) if i != j] + [(0, 0)])
    assert exact_mbb(g2).size == 2


def brute_force_tie_break(graph, size):
    """The first size-``size`` left subset, in lexicographic order, with at
    least ``size`` common neighbours, and its ``size`` lowest ones."""
    dense = graph.dense()
    for subset in combinations(range(graph.n_u), size):
        hood = np.flatnonzero(dense[list(subset)].all(axis=0))
        if hood.size >= size:
            return subset, tuple(int(j) for j in hood[:size])
    raise AssertionError(f"no left subset of size {size} has {size} common neighbours")


def test_matches_brute_force_on_random_graphs():
    """The size search and the realization are separate searches; brute
    force checks the size, and the tie-break of the biclique realizing it."""
    rng = np.random.default_rng(23)
    for _ in range(120):
        g = random_graph(rng)
        found = exact_mbb(g)
        opt = brute_force_size(g)
        assert found.size == opt
        assert verify_biclique(g, found.left, found.right)
        if opt:
            assert (found.left, found.right) == brute_force_tie_break(g, opt)


def test_planted_block_is_found_without_background():
    for n, k in [(8, 3), (10, 5), (12, 4)]:
        g, sol = planted_instance(n, k, 0.0, seed=n * 7 + k)
        best = exact_mbb(g)
        assert best.size == k
        assert best.left == sol.biclique.left
        assert best.right == sol.biclique.right


def test_tie_break_is_lexicographic_on_left():
    # two disjoint K_{2,2}s; the lexicographically smaller left set wins
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)]
    g = new_bipartite(4, 4, edges)
    best = exact_mbb(g)
    assert best.size == 2
    assert best.left == (0, 1)
    assert best.right == (2, 3)


def test_result_is_certified():
    rng = np.random.default_rng(99)
    for _ in range(40):
        g = random_graph(rng, max_side=6)
        best = exact_mbb(g)
        assert verify_biclique(g, best.left, best.right)


def test_contains_biclique_consistent_with_exact():
    rng = np.random.default_rng(41)
    for _ in range(40):
        g = random_graph(rng, max_side=6)
        opt = exact_mbb(g).size
        for r in range(0, min(g.n_u, g.n_v) + 2):
            assert contains_biclique(g, r) == (r <= opt)


def test_searches_enumerate_the_smaller_side(monkeypatch):
    """The size scan and the decision search walk the smaller side's
    bitsets; only the realization walks the left side, for its tie-break."""
    seen = []
    real = exact_module._first_witness

    def spy(masks, width, target):
        seen.append((masks, width, target))
        return real(masks, width, target)

    monkeypatch.setattr(exact_module, "_first_witness", spy)
    tall = new_bipartite(5, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 0), (4, 2)])
    wide = new_bipartite(3, 5, [(j, i) for i, j in tall.edges])
    for graph, smaller in ((tall, tall.bitsets()[1]), (wide, wide.bitsets()[0])):
        rows = graph.bitsets()[0]
        seen.clear()
        assert exact_mbb(graph).size == 2
        # targets 1 .. OPT + 1 on the smaller side, then OPT on the left rows
        assert seen == [(smaller, 5, 1), (smaller, 5, 2), (smaller, 5, 3), (rows, graph.n_v, 2)]
        seen.clear()
        assert contains_biclique(graph, 2) and not contains_biclique(graph, 3)
        assert seen == [(smaller, 5, 2), (smaller, 5, 3)]


def test_size_guard_blocks_large_instances():
    big = complete_bipartite(DEFAULT_SIZE_GUARD + 1, DEFAULT_SIZE_GUARD + 1)
    with pytest.raises(ValueError):
        exact_mbb(big)
    # explicit limit overrides; complete graphs prune immediately
    assert exact_mbb(big, size_limit=DEFAULT_SIZE_GUARD + 1).size == DEFAULT_SIZE_GUARD + 1
    # a thin side bypasses the guard no matter how wide the other side is
    thin = complete_bipartite(2, 40)
    assert exact_mbb(thin).size == 2
