"""Greedy biclique extraction from dense subgraphs.

The cleaning potential of a graph at size target r is W = F - 2 r Q, where F
counts edges and Q non-edges.  Deleting a vertex whose edge degree is at most
2r times its non-edge degree never decreases W, and once no such vertex
remains a balanced biclique of order r can be read off greedily whenever the
survivors are large enough.  When W >= 2 n r for a host-side bound n, they
always are.

Cleaning and picking run in one kernel on the graph's Python-int bitsets
(``BipartiteGraph.bitsets``): each row and column of the adjacency is one
int, a live degree is one AND and a bit_count, and the pick ANDs the chosen
rows.  The kernel takes any ascending subset of rows and columns and answers
in the bitsets' own indices, so rounding cleans a survivor set in host
indices without slicing, and the graph entry points below pass the whole
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .graphs import BipartiteGraph, Biclique, bit_mask, induced_subgraph, lowest_bits

__all__ = [
    "CleaningTrace",
    "ExtractionPreconditionError",
    "density_clean",
    "construct_biclique",
    "greedy_extract",
    "best_extractable_r",
    "clean_bits",
    "extract_bits",
    "extractable_r",
]


class ExtractionPreconditionError(ValueError):
    """The cleaned graph is too small for the requested construction."""


@dataclass(frozen=True)
class CleaningTrace:
    """Deletion log of one cleaning run.

    ``deleted`` holds ("U", i) or ("V", j) pairs in deletion order, indices in
    the input graph.  ``potentials`` is W after each deletion; the invariant
    is that it never drops below ``initial_potential``.
    """

    n_u: int
    n_v: int
    r: int
    initial_potential: int
    deleted: tuple[tuple[str, int], ...]
    potentials: tuple[int, ...]

    def surviving_left(self) -> tuple[int, ...]:
        gone = {i for side, i in self.deleted if side == "U"}
        return tuple(i for i in range(self.n_u) if i not in gone)

    def surviving_right(self) -> tuple[int, ...]:
        gone = {j for side, j in self.deleted if side == "V"}
        return tuple(j for j in range(self.n_v) if j not in gone)


def clean_bits(
    rows: Sequence[int], cols: Sequence[int], left, right, r: int
) -> tuple[list[int], list[int], list[tuple[str, int]], list[int]]:
    """The cleaning loop, on a graph's row and column bitsets restricted to
    the live rows ``left`` and columns ``right`` (ascending); no validation.

    Returns (left survivors, right survivors, deletions, the potential's gain
    at each deletion), in the bitsets' own indices.  The deletion order is
    density_clean's: the lowest bad U vertex, else the lowest bad V vertex.
    Deleting a U vertex changes no other U vertex's test (its degree and the
    live V count stay put), so every U vertex bad at one scan is deleted in
    index order before V is scanned.
    """
    left = list(left)
    right = list(right)
    live_l = bit_mask(left)
    live_r = bit_mask(right)
    two_r = 2 * r
    weight = 1 + two_r
    deleted: list[tuple[str, int]] = []
    gains: list[int] = []
    while True:
        # deg <= 2r (live - deg), written as deg (1 + 2r) <= 2r live; the
        # slack 2r (live - deg) - deg is what the deletion adds to W
        bound = two_r * len(right)
        kept = []
        for i in left:
            slack = bound - (rows[i] & live_r).bit_count() * weight
            if slack >= 0:
                live_l ^= 1 << i
                deleted.append(("U", i))
                gains.append(slack)
            else:
                kept.append(i)
        left = kept
        bound = two_r * len(left)
        for j in right:
            slack = bound - (cols[j] & live_l).bit_count() * weight
            if slack >= 0:
                break
        else:
            break
        live_r ^= 1 << j
        right.remove(j)
        deleted.append(("V", j))
        gains.append(slack)
    return left, right, deleted, gains


def _greedy_pick(
    rows: Sequence[int], left: list[int], right: list[int], r: int
) -> tuple[list[int], list[int]] | None:
    """Take the r lowest-index live rows, AND their bitsets over the live
    columns, and keep the r lowest-index common columns.  None when fewer
    than r survive."""
    common = bit_mask(right)
    for i in left[:r]:
        common &= rows[i]
    if common.bit_count() < r:
        return None
    return left[:r], lowest_bits(common, r)


def _construct(
    rows: Sequence[int], left: list[int], right: list[int], r: int
) -> tuple[list[int], list[int]]:
    """construct_biclique's size check and pick on the live rows and columns
    of a cleaned graph; raises ExtractionPreconditionError."""
    if len(left) < r or len(right) < 2 * r:
        raise ExtractionPreconditionError(
            f"cleaned graph ({len(left)}, {len(right)}) is below the required ({r}, {2 * r})"
        )
    picked = _greedy_pick(rows, left, right, r)
    if picked is None:
        raise ExtractionPreconditionError(
            "survivor deficit: the graph was not cleaned for this size target"
        )
    return picked


def extract_bits(
    rows: Sequence[int], cols: Sequence[int], left, right, r: int, n: int, edges: int
) -> tuple[list[int], list[int]] | None:
    """Extraction kernel on the subgraph of live rows ``left`` and columns
    ``right`` (ascending), which has ``edges`` edges; no validation.

    Cleans at size target r, then picks; returns the biclique's rows and
    columns in the bitsets' own indices, uncertified, or None.  When
    F - 2 r Q >= 2 n r the pick is guaranteed, and a failure raises
    ExtractionPreconditionError.
    """
    guaranteed = edges - 2 * r * (len(left) * len(right) - edges) >= 2 * n * r
    left, right, _, _ = clean_bits(rows, cols, left, right, r)
    if guaranteed:
        # The potential argument forces both survivor sides to at least 2r here.
        return _construct(rows, left, right, r)
    if len(left) < r or len(right) < r:
        return None
    return _greedy_pick(rows, left, right, r)


def _check_r(r) -> int:
    r = int(r)
    if r < 1:
        raise ValueError(f"size target r must be at least 1, got {r}")
    return r


def density_clean(graph: BipartiteGraph, r: int) -> tuple[BipartiteGraph, CleaningTrace]:
    """Repeatedly delete vertices with edge degree <= 2r x non-edge degree.

    Ties go to the lowest global index (U indices first, then V offset by
    n_u), so runs are deterministic.  Every survivor strictly violates the
    deletion test.  Returns the survivor subgraph relabeled to contiguous
    indices plus the full trace.
    """
    r = _check_r(r)
    rows, cols = graph.bitsets()
    left, right, deleted, gains = clean_bits(rows, cols, range(graph.n_u), range(graph.n_v), r)
    initial = graph.num_edges - 2 * r * graph.num_non_edges
    trace = CleaningTrace(
        n_u=graph.n_u,
        n_v=graph.n_v,
        r=r,
        initial_potential=initial,
        deleted=tuple(deleted),
        potentials=tuple(accumulate(gains, initial=initial))[1:],
    )
    cleaned, _, _ = induced_subgraph(graph, left, right)
    return cleaned, trace


def construct_biclique(cleaned: BipartiteGraph, r: int) -> Biclique:
    """Read a balanced biclique of order r off a density-cleaned graph.

    Requires at least r left vertices and 2r right vertices; after cleaning,
    each selected left vertex misses fewer than a 1/(2r) fraction of the right
    side, so at least half of it survives.  Raises
    ExtractionPreconditionError when the sizes make that argument impossible.
    """
    r = _check_r(r)
    rows, _ = cleaned.bitsets()
    left, right = _construct(rows, list(range(cleaned.n_u)), list(range(cleaned.n_v)), r)
    return Biclique.from_graph(cleaned, left, right)


def greedy_extract(graph: BipartiteGraph, r: int, n: int) -> Biclique | None:
    """Clean at size target r, then construct; certain to succeed when
    F - 2 r Q >= 2 n r with n bounding both sides of the input graph.

    Outside that regime this is best effort and may return None.
    """
    r = _check_r(r)
    n = int(n)
    if n < max(graph.n_u, graph.n_v):
        raise ValueError(f"host bound n={n} is below the graph's sides ({graph.n_u}, {graph.n_v})")
    rows, cols = graph.bitsets()
    picked = extract_bits(rows, cols, range(graph.n_u), range(graph.n_v), r, n, graph.num_edges)
    if picked is None:
        return None
    return Biclique.from_graph(graph, picked[0], picked[1])


def extractable_r(edges: int, non_edges: int, n: int) -> int:
    """best_extractable_r on counts already in hand: floor(F / (2Q + 2n))."""
    return edges // (2 * non_edges + 2 * n)


def best_extractable_r(graph: BipartiteGraph, n: int) -> int:
    """Largest r with F - 2 r Q >= 2 n r, i.e. floor(F / (2Q + 2n)); 0 when none."""
    n = int(n)
    if n < 1:
        raise ValueError("host bound n must be positive")
    return extractable_r(graph.num_edges, graph.num_non_edges, n)
