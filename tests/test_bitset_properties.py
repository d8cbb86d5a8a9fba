"""Property tests: a graph's cached row and column bitsets agree with its
dense adjacency bit for bit, and lowest_bits matches index lists."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mbb_sdp import BipartiteGraph
from mbb_sdp.graphs import lowest_bits

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def adjacencies(draw):
    """One side of 0-5 vertices and one of 0-130, either way round, so
    bitsets wider than 64 bits appear on both the rows and the columns."""
    shape = (draw(st.integers(0, 5)), draw(st.integers(0, 130)))
    if draw(st.booleans()):
        shape = shape[::-1]
    return draw(arrays(np.bool_, shape))


def reference_bits(flags) -> int:
    return sum(1 << int(j) for j in np.flatnonzero(flags))


@SETTINGS
@given(adj=adjacencies())
@example(adj=np.ones((70, 0), dtype=bool))
@example(adj=np.ones((0, 70), dtype=bool))
@example(adj=np.ones((3, 130), dtype=bool))
def test_bitsets_agree_with_dense(adj):
    graph = BipartiteGraph(*adj.shape, adj)
    rows, cols = graph.bitsets()
    assert isinstance(rows, tuple) and isinstance(cols, tuple)
    assert graph.bitsets() is graph.bitsets()
    assert rows == tuple(reference_bits(flags) for flags in graph.dense())
    assert cols == tuple(reference_bits(flags) for flags in graph.dense().T)
    for bits, flags in zip(rows + cols, list(graph.dense()) + list(graph.dense().T)):
        members = np.flatnonzero(flags).tolist()
        for count in (len(members) // 2, len(members)):
            assert lowest_bits(bits, count) == members[:count]


def test_lowest_bits_takes_the_lowest():
    assert lowest_bits(0b1011_0100, 2) == [2, 4]
    assert lowest_bits(1 << 200 | 1 << 70 | 1, 3) == [0, 70, 200]
    assert lowest_bits(0b110, 0) == []
