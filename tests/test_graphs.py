import numpy as np
import pytest

from mbb_sdp import (
    Biclique,
    GraphFormatError,
    complete_bipartite,
    empty_bipartite,
    induced_counts,
    induced_subgraph,
    new_bipartite,
    parse_graph,
    planted_instance,
    serialize_graph,
    verify_biclique,
)


def random_graph(rng, max_side=10):
    n_u = int(rng.integers(1, max_side + 1))
    n_v = int(rng.integers(1, max_side + 1))
    mask = rng.random((n_u, n_v)) < rng.random()
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
    return new_bipartite(n_u, n_v, edges)


def test_constructor_rejects_zero_sides():
    with pytest.raises(ValueError):
        new_bipartite(0, 3, [])
    with pytest.raises(ValueError):
        new_bipartite(3, 0, [])


def test_constructor_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        new_bipartite(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        new_bipartite(2, 2, [(0, -1)])


def test_duplicate_edges_collapse():
    g = new_bipartite(2, 2, [(0, 1), (0, 1), (1, 0)])
    assert g.num_edges == 2
    dense = g.dense()
    assert dense[0, 1] and dense[1, 0]
    assert not dense[0, 0]


def test_complete_and_empty_counts():
    g = complete_bipartite(3, 4)
    assert g.num_edges == 12
    assert g.num_non_edges == 0
    e = empty_bipartite(3, 4)
    assert e.num_edges == 0
    assert e.num_non_edges == 12


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_graph(rng)
        text = serialize_graph(g)
        back = parse_graph(text)
        assert back == g
        assert serialize_graph(back) == text


def test_parse_accepts_comments_and_reports_positions():
    text = "c a comment\np mbb 2 2 1\nc another\ne 0 1\n"
    g = parse_graph(text)
    assert (g.n_u, g.n_v, g.num_edges) == (2, 2, 1)


def test_parse_rejects_malformed_input():
    bad_inputs = [
        "",  # no header
        "e 0 1\np mbb 2 2 1\n",  # edge before header
        "p mbb 2 2 1\np mbb 2 2 1\ne 0 1\ne 0 0\n",  # duplicate header
        "p mbb 2 2 2\ne 0 1\n",  # count mismatch
        "p mbb 2 2 1\ne 0 5\n",  # index out of range
        "p mbb two 2 0\n",  # bad token
        "p mbb 2 2 1\nz 0 1\n",  # unknown record
        "p other 2 2 0\n",  # wrong format tag
    ]
    for text in bad_inputs:
        with pytest.raises(GraphFormatError):
            parse_graph(text)
    with pytest.raises(GraphFormatError, match=r"^line 3: duplicate edge \(0, 0\)$"):
        parse_graph("p mbb 2 2 2\ne 0 0\ne 0 0\n")


def test_planted_instance_contains_block_and_reproduces():
    g1, sol1 = planted_instance(16, 5, 0.3, seed=42)
    g2, sol2 = planted_instance(16, 5, 0.3, seed=42)
    assert g1 == g2
    assert sol1.biclique == sol2.biclique
    assert sol1.biclique.size == 5
    assert verify_biclique(g1, sol1.biclique.left, sol1.biclique.right)
    g3, _ = planted_instance(16, 5, 0.3, seed=43)
    assert g3 != g1


def test_planted_instance_background_density():
    g, sol = planted_instance(40, 5, 0.0, seed=3)
    # p=0 leaves only the planted block
    assert g.num_edges == 25
    g_dense, _ = planted_instance(40, 5, 1.0, seed=3)
    assert g_dense.num_edges == 1600


def test_planted_instance_rejects_bad_k():
    with pytest.raises(ValueError):
        planted_instance(4, 5, 0.1, seed=0)
    with pytest.raises(ValueError):
        planted_instance(4, 0, 0.1, seed=0)


def test_verify_biclique_semantics():
    g = new_bipartite(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    assert verify_biclique(g, [0, 1], [0, 1])
    assert not verify_biclique(g, [0, 2], [0, 1])  # (2,0) missing
    assert not verify_biclique(g, [0, 1], [0, 1, 1])  # unbalanced after dedup
    assert not verify_biclique(g, [0, 3], [0, 1])  # out of range
    assert verify_biclique(g, [], [])


def test_biclique_from_graph_certifies():
    g = complete_bipartite(3, 3)
    b = Biclique.from_graph(g, [2, 0], [1, 2])
    assert b.left == (0, 2) and b.right == (1, 2)
    assert b.size == 2
    sparse = new_bipartite(2, 2, [(0, 0)])
    with pytest.raises(ValueError):
        Biclique.from_graph(sparse, [0, 1], [0, 1])


def test_induced_counts_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_graph(rng, max_side=8)
        left = [int(i) for i in np.flatnonzero(rng.random(g.n_u) < 0.5)]
        right = [int(j) for j in np.flatnonzero(rng.random(g.n_v) < 0.5)]
        edges, non_edges = induced_counts(g, left, right)
        brute = sum(1 for i in left for j in right if g.dense()[i, j])
        assert edges == brute
        assert non_edges == len(left) * len(right) - brute


def test_induced_subgraph_relabels():
    g = new_bipartite(3, 4, [(0, 0), (0, 3), (2, 1), (2, 3)])
    sub, left_ids, right_ids = induced_subgraph(g, [0, 2], [1, 3])
    assert left_ids == (0, 2) and right_ids == (1, 3)
    assert sub.n_u == 2 and sub.n_v == 2
    # (0,3) -> (0,1); (2,1) -> (1,0); (2,3) -> (1,1)
    dense = sub.dense()
    assert dense[0, 1] and dense[1, 0] and dense[1, 1]
    assert not dense[0, 0]
