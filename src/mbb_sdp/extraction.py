"""Greedy biclique extraction from dense subgraphs.

The cleaning potential of a graph at size target r is W = F - 2 r Q, where F
counts edges and Q non-edges.  Deleting a vertex whose edge degree is at most
2r times its non-edge degree never decreases W, and once no such vertex
remains a balanced biclique of order r can be read off greedily whenever the
survivors are large enough.  When W >= 2 n r for a host-side bound n, they
always are.

Cleaning and picking run in one array kernel, :func:`extract_rows`, on many
live subgraphs of one 0/1 adjacency at once: row s of two boolean arrays
marks the live rows and columns of subgraph s, and every live degree of a
pass is one float64 matrix product (exact on integer counts).  Rounding
hands it every distinct survivor set of a run in one call; the graph entry
points below hand it one row covering the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .graphs import BipartiteGraph, Biclique, induced_subgraph

__all__ = [
    "CleaningTrace",
    "ExtractionPreconditionError",
    "density_clean",
    "construct_biclique",
    "greedy_extract",
    "best_extractable_r",
    "extract_rows",
    "extractable_r",
]


_MAX_R = 2**31


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


def _clean_rows(
    adj: np.ndarray, left: np.ndarray, right: np.ndarray, r: np.ndarray, log: list | None = None
) -> None:
    """The cleaning loop, in place on the live rows ``left`` (S, n_u) and
    columns ``right`` (S, n_v) of S subgraphs of the float 0/1 matrix ``adj``,
    row s at size target r[s].

    The deletion order is density_clean's: the lowest bad U vertex, else the
    lowest bad V vertex.  Deleting a U vertex changes no other U vertex's
    test (its degree and the live V count stay put), so each pass deletes
    every bad U vertex at once, then the lowest bad V vertex; a row is done
    when no V vertex is bad.  With ``log`` (one row only), each deletion
    appends (side, index, the potential's gain).
    """
    two_r = 2 * r[:, None]
    weight = 1 + two_r
    rows = np.arange(left.shape[0])
    while rows.size:
        live_l, live_r = left[rows], right[rows]
        # deg <= 2r (live - deg), written as deg (1 + 2r) <= 2r live; the
        # slack 2r (live - deg) - deg is what the deletion adds to W
        slack = two_r[rows] * live_r.sum(axis=1, keepdims=True) - (live_r @ adj.T) * weight[rows]
        bad = live_l & (slack >= 0)
        live_l &= ~bad
        if log is not None:
            log.extend(("U", int(i), int(slack[0, i])) for i in np.flatnonzero(bad[0]))
        slack = two_r[rows] * live_l.sum(axis=1, keepdims=True) - (live_l @ adj) * weight[rows]
        bad = live_r & (slack >= 0)
        lowest = bad & (np.cumsum(bad, axis=1) == 1)
        live_r &= ~lowest
        if log is not None:
            log.extend(("V", int(j), int(slack[0, j])) for j in np.flatnonzero(lowest[0]))
        left[rows] = live_l
        right[rows] = live_r
        rows = rows[bad.any(axis=1)]


def _pick_rows(
    adj: np.ndarray, left: np.ndarray, right: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy pick on each row: take the r lowest-index live rows, keep
    the live columns adjacent to all of them, and take the r lowest-index of
    those.  Returns both picks and whether r common columns were there."""
    r = r[:, None]
    rows = left & (np.cumsum(left, axis=1) <= r)
    common = right & ((rows @ adj) == r)
    cols = common & (np.cumsum(common, axis=1) <= r)
    return rows, cols, common.sum(axis=1) >= r[:, 0]


def _raise_unconstructed(n_left: np.ndarray, n_right: np.ndarray, r: np.ndarray, picked: np.ndarray) -> None:
    """construct_biclique's checks on rows that must succeed: raise
    ExtractionPreconditionError at the first row with fewer than r left or
    2r right vertices, or without a pick."""
    small = (n_left < r) | (n_right < 2 * r)
    failed = np.flatnonzero(small | ~picked)
    if not failed.size:
        return
    s = failed[0]
    if small[s]:
        raise ExtractionPreconditionError(
            f"cleaned graph ({n_left[s]}, {n_right[s]}) is below the required ({r[s]}, {2 * r[s]})"
        )
    raise ExtractionPreconditionError("survivor deficit: the graph was not cleaned for this size target")


def extract_rows(
    adj: np.ndarray, left: np.ndarray, right: np.ndarray, r, n, retry: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extraction kernel on the S subgraphs of ``adj`` (n_u, n_v) whose live
    rows and columns are the rows of the boolean arrays ``left`` (S, n_u) and
    ``right`` (S, n_v); no validation.

    Row s is cleaned at size target r[s], then picked; with ``retry`` a row
    whose pick fails is cleaned again from its live sets at r[s] - 1, down
    to 1.  Returns the picked rows and columns as boolean arrays of the
    inputs' shapes, uncertified, and the order found per row (0 for none).
    When F - 2 r Q >= 2 n[s] r on the row's live subgraph the pick is
    guaranteed, and a failure raises ExtractionPreconditionError.
    """
    adj = np.asarray(adj, dtype=np.float64)
    count = left.shape[0]
    r = np.broadcast_to(np.asarray(r, dtype=np.int64), (count,)).copy()
    # float: a host bound of any size is compared exactly where it matters,
    # since the guarantee fails once 2 n r passes the edge count
    n = np.broadcast_to(np.asarray(n, dtype=np.float64), (count,))
    edges = np.einsum("ij,ij->i", left @ adj, right).astype(np.int64)
    non_edges = left.sum(axis=1) * right.sum(axis=1) - edges
    picked_left = np.zeros_like(left)
    picked_right = np.zeros_like(right)
    found = np.zeros(count, dtype=np.int64)
    todo = np.flatnonzero(r >= 1)
    while todo.size:
        target = r[todo]
        live_l, live_r = left[todo], right[todo]
        _clean_rows(adj, live_l, live_r, target)
        rows, cols, picked = _pick_rows(adj, live_l, live_r, target)
        # where W >= 2 n r the potential argument leaves both survivor sides
        # at least 2r and the pick certain, so a failure there is an error
        sure = edges[todo] - 2 * target * non_edges[todo] >= 2 * n[todo] * target
        _raise_unconstructed(live_l[sure].sum(axis=1), live_r[sure].sum(axis=1), target[sure], picked[sure])
        done = todo[picked]
        picked_left[done] = rows[picked]
        picked_right[done] = cols[picked]
        found[done] = target[picked]
        if not retry:
            break
        todo = todo[~picked]
        r[todo] -= 1
        todo = todo[r[todo] >= 1]
    return picked_left, picked_right, found


def _check_r(r) -> int:
    """A size target in [1, 2**31], where the kernel's float64 slacks
    (2r + 1) x side count stay exact integers for any graph that fits in
    memory."""
    r = int(r)
    if not 1 <= r <= _MAX_R:
        raise ValueError(f"size target r must lie in [1, 2**31], got {r}")
    return r


def _whole(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graph's float adjacency and one live row covering each side."""
    return (
        graph.dense().astype(np.float64),
        np.ones((1, graph.n_u), dtype=bool),
        np.ones((1, graph.n_v), dtype=bool),
    )


def density_clean(graph: BipartiteGraph, r: int) -> tuple[BipartiteGraph, CleaningTrace]:
    """Repeatedly delete vertices with edge degree <= 2r x non-edge degree.

    Ties go to the lowest global index (U indices first, then V offset by
    n_u), so runs are deterministic.  Every survivor strictly violates the
    deletion test.  Returns the survivor subgraph relabeled to contiguous
    indices plus the full trace.
    """
    r = _check_r(r)
    adj, left, right = _whole(graph)
    log: list[tuple[str, int, int]] = []
    _clean_rows(adj, left, right, np.array([r]), log)
    initial = graph.num_edges - 2 * r * graph.num_non_edges
    trace = CleaningTrace(
        n_u=graph.n_u,
        n_v=graph.n_v,
        r=r,
        initial_potential=initial,
        deleted=tuple((side, i) for side, i, _ in log),
        potentials=tuple(accumulate((gain for _, _, gain in log), initial=initial))[1:],
    )
    cleaned, _, _ = induced_subgraph(graph, np.flatnonzero(left[0]), np.flatnonzero(right[0]))
    return cleaned, trace


def construct_biclique(cleaned: BipartiteGraph, r: int) -> Biclique:
    """Read a balanced biclique of order r off a density-cleaned graph.

    Requires at least r left vertices and 2r right vertices; after cleaning,
    each selected left vertex misses fewer than a 1/(2r) fraction of the right
    side, so at least half of it survives.  Raises
    ExtractionPreconditionError when the sizes make that argument impossible.
    """
    r = _check_r(r)
    adj, left, right = _whole(cleaned)
    target = np.array([r])
    rows, cols, picked = _pick_rows(adj, left, right, target)
    _raise_unconstructed(np.array([cleaned.n_u]), np.array([cleaned.n_v]), target, picked)
    return Biclique.from_graph(cleaned, np.flatnonzero(rows[0]), np.flatnonzero(cols[0]))


def greedy_extract(graph: BipartiteGraph, r: int, n: int) -> Biclique | None:
    """Clean at size target r, then construct; certain to succeed when
    F - 2 r Q >= 2 n r with n bounding both sides of the input graph.

    Outside that regime this is best effort and may return None.
    """
    r = _check_r(r)
    n = int(n)
    if n < max(graph.n_u, graph.n_v):
        raise ValueError(f"host bound n={n} is below the graph's sides ({graph.n_u}, {graph.n_v})")
    rows, cols, found = extract_rows(*_whole(graph), r, n)
    if not found[0]:
        return None
    return Biclique.from_graph(graph, np.flatnonzero(rows[0]), np.flatnonzero(cols[0]))


def extractable_r(edges: int, non_edges: int, n: int) -> int:
    """best_extractable_r on counts already in hand (ints or arrays):
    floor(F / (2Q + 2n))."""
    return edges // (2 * non_edges + 2 * n)


def best_extractable_r(graph: BipartiteGraph, n: int) -> int:
    """Largest r with F - 2 r Q >= 2 n r, i.e. floor(F / (2Q + 2n)); 0 when none."""
    n = int(n)
    if n < 1:
        raise ValueError("host bound n must be positive")
    return extractable_r(graph.num_edges, graph.num_non_edges, n)
