"""Property test: the pipeline never returns a biclique larger than the exact
optimum, and what it returns is a biclique of the input graph."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mbb_sdp import BipartiteGraph, PipelineConfig, approximate_mbb, exact_mbb, verify_biclique


@st.composite
def graphs(draw, max_side=7):
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    adj = draw(arrays(np.bool_, shape))
    # hypothesis shrinks toward False; the flip reaches dense graphs as often
    return BipartiteGraph(*shape, ~adj if draw(st.booleans()) else adj)


# each example runs the whole default pipeline (about 50 ms at these sizes)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=graphs())
def test_pipeline_never_beats_exact(g):
    found, _ = approximate_mbb(g, PipelineConfig())
    assert verify_biclique(g, found.left, found.right)
    assert found.size <= exact_mbb(g).size
