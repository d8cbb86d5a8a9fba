"""Greedy biclique extraction from dense subgraphs.

The cleaning potential of a graph at size target r is W = F - 2 r Q, where F
counts edges and Q non-edges.  Deleting a vertex whose edge degree is at most
2r times its non-edge degree never decreases W, and once no such vertex
remains a balanced biclique of order r can be read off greedily whenever the
survivors are large enough.  When W >= 2 n r for a host-side bound n, they
always are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteGraph, Biclique

__all__ = [
    "CleaningTrace",
    "ExtractionPreconditionError",
    "density_clean",
    "construct_biclique",
    "greedy_extract",
    "best_extractable_r",
    "clean_array",
    "extract_array",
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


def clean_array(
    adj: np.ndarray, r: int
) -> tuple[list[int], list[int], list[tuple[str, int]], list[int], int]:
    """Cleaning core on a boolean adjacency array; no validation.

    Returns (left survivors, right survivors, deletions, potentials after
    each deletion, initial potential), indices being rows and columns of
    ``adj``.  The deletion order is density_clean's: the lowest bad U vertex,
    else the lowest bad V vertex.  Deleting a U vertex changes no other U
    vertex's test (its degree and the live V count stay put), so every U
    vertex bad at one scan is deleted in index order before V is scanned.
    """
    n_u, n_v = adj.shape
    rows = adj.tolist()
    deg_u = adj.sum(axis=1).tolist()
    deg_v = adj.sum(axis=0).tolist()
    left = list(range(n_u))
    right = list(range(n_v))
    two_r = 2 * r
    edges = sum(deg_u)
    potential = edges - two_r * (n_u * n_v - edges)
    initial = potential
    deleted: list[tuple[str, int]] = []
    potentials: list[int] = []
    while True:
        # deg <= 2r (live - deg), written as deg (1 + 2r) <= 2r live
        live_v = len(right)
        bad = [i for i in left if deg_u[i] * (1 + two_r) <= two_r * live_v]
        if bad:
            for i in bad:
                potential += two_r * (live_v - deg_u[i]) - deg_u[i]
                row = rows[i]
                for j in right:
                    if row[j]:
                        deg_v[j] -= 1
                deleted.append(("U", i))
                potentials.append(potential)
            gone = set(bad)
            left = [i for i in left if i not in gone]
        live_u = len(left)
        j = next((j for j in right if deg_v[j] * (1 + two_r) <= two_r * live_u), None)
        if j is None:
            break
        potential += two_r * (live_u - deg_v[j]) - deg_v[j]
        for i in left:
            if rows[i][j]:
                deg_u[i] -= 1
        right.remove(j)
        deleted.append(("V", j))
        potentials.append(potential)
    return left, right, deleted, potentials, initial


def _greedy_pick(
    rows: list[list[bool]], left: list[int], right: list[int], r: int
) -> tuple[list[int], list[int]] | None:
    """Take the r lowest-index live rows, drop their non-neighbors among the
    live columns, and keep the r lowest-index survivors.  None when fewer
    than r survive."""
    chosen = [rows[i] for i in left[:r]]
    common = [j for j in right if all(row[j] for row in chosen)]
    if len(common) < r:
        return None
    return left[:r], common[:r]


def _construct(
    rows: list[list[bool]], left: list[int], right: list[int], r: int
) -> tuple[list[int], list[int]]:
    """construct_biclique's size check and pick on the live rows and columns
    of a cleaned adjacency; raises ExtractionPreconditionError."""
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


def extract_array(
    adj: np.ndarray, r: int, n: int, edges: int
) -> tuple[list[int], list[int]] | None:
    """Extraction core on a boolean adjacency array with ``edges`` edges; no
    validation.

    Cleans at size target r, then picks; returns the biclique's rows and
    columns of ``adj``, uncertified, or None.  When F - 2 r Q >= 2 n r the
    pick is guaranteed, and a failure raises ExtractionPreconditionError.
    """
    n_u, n_v = adj.shape
    guaranteed = edges - 2 * r * (n_u * n_v - edges) >= 2 * n * r
    left, right, _, _, _ = clean_array(adj, r)
    rows = adj.tolist()
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
    adj = graph.dense()
    left, right, deleted, potentials, initial = clean_array(adj, r)
    sub = adj[np.ix_(left, right)] if left and right else np.zeros((len(left), len(right)), dtype=bool)
    trace = CleaningTrace(
        n_u=graph.n_u,
        n_v=graph.n_v,
        r=r,
        initial_potential=initial,
        deleted=tuple(deleted),
        potentials=tuple(potentials),
    )
    return BipartiteGraph(len(left), len(right), sub), trace


def construct_biclique(cleaned: BipartiteGraph, r: int) -> Biclique:
    """Read a balanced biclique of order r off a density-cleaned graph.

    Requires at least r left vertices and 2r right vertices; after cleaning,
    each selected left vertex misses fewer than a 1/(2r) fraction of the right
    side, so at least half of it survives.  Raises
    ExtractionPreconditionError when the sizes make that argument impossible.
    """
    r = _check_r(r)
    rows = cleaned.dense().tolist()
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
    picked = extract_array(graph.dense(), r, n, graph.num_edges)
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
