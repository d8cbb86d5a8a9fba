"""Exact maximum balanced biclique by witness search, for small instances.

One depth-first search answers both questions: the first ``target`` bitsets,
in index order, that share at least ``target`` set bits.  Such a witness
exists iff a balanced ``target``-biclique does, so scanning targets upward on
the smaller side finds the optimum, and one more search on the left rows
realizes it with the documented tie-break.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import BipartiteGraph, Biclique, lowest_bits

__all__ = ["exact_mbb", "contains_biclique", "DEFAULT_SIZE_GUARD"]

DEFAULT_SIZE_GUARD = 24


def _check_guard(graph: BipartiteGraph, size_limit: int | None) -> None:
    guard = DEFAULT_SIZE_GUARD if size_limit is None else int(size_limit)
    small = min(graph.n_u, graph.n_v)
    if small > guard:
        raise ValueError(
            f"smaller side has {small} vertices, above the exponential-cost guard "
            f"{guard}; pass size_limit to override"
        )


def _smaller_side(graph: BipartiteGraph) -> tuple[Sequence[int], int]:
    """The smaller side's bitsets and their width, where enumeration is cheapest."""
    rows, cols = graph.bitsets()
    return (cols, graph.n_u) if graph.n_v < graph.n_u else (rows, graph.n_v)


def _first_witness(masks: Sequence[int], width: int, target: int) -> tuple[list[int], int] | None:
    """First size-``target`` set of the bitsets ``masks`` (each over
    ``width`` bits), in lexicographic order of indices, that shares at least
    ``target`` set bits, with those common bits; None when there is none."""
    a = len(masks)
    found: list[int] = []
    found_hood = 0

    def visit(start: int, chosen: list[int], hood: int) -> bool:
        nonlocal found, found_hood
        if len(chosen) == target:
            found = list(chosen)
            found_hood = hood
            return True
        for v in range(start, a):
            if a - v < target - len(chosen):
                break
            child = hood & masks[v]
            if child.bit_count() < target:
                continue
            chosen.append(v)
            if visit(v + 1, chosen, child):
                return True
            chosen.pop()
        return False

    if not visit(0, [], (1 << width) - 1):
        return None
    return found, found_hood


def exact_mbb(graph: BipartiteGraph, size_limit: int | None = None) -> Biclique:
    """Maximum balanced biclique, exactly.

    Exponential-time search guarded to min-side <= 24 unless ``size_limit``
    overrides.  The size is the last target 1, 2, ... at which the smaller
    side has a witness (witnesses exist for every target up to the optimum
    and none above it).  Ties among maximum bicliques are broken by the
    lexicographically smallest sorted left set, then the lowest-index right
    realization, so results are deterministic.
    """
    _check_guard(graph, size_limit)
    masks, width = _smaller_side(graph)
    size = 0
    while _first_witness(masks, width, size + 1) is not None:
        size += 1
    if size == 0:
        return Biclique.empty()
    # Realize it with the tie-break defined on the original left side.
    found = _first_witness(graph.bitsets()[0], graph.n_v, size)
    if found is None:
        raise RuntimeError("no realization found at the optimal size; search is inconsistent")
    left, hood = found
    return Biclique.from_graph(graph, left, lowest_bits(hood, size))


def contains_biclique(graph: BipartiteGraph, r: int, size_limit: int | None = None) -> bool:
    """Decision version: does the graph contain a balanced biclique of size >= r?

    Searches the smaller side for r vertices with at least r common
    neighbours, which exist iff a balanced r-biclique does, and stops at the
    first witness instead of completing the optimization.
    """
    r = int(r)
    if r <= 0:
        return True
    _check_guard(graph, size_limit)
    if r > min(graph.n_u, graph.n_v):
        return False
    return _first_witness(*_smaller_side(graph), r) is not None
