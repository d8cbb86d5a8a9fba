"""Exact maximum balanced biclique by branch and bound, for small instances."""

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


def _best_size(masks: Sequence[int], width: int) -> int:
    """Largest s such that some s of the bitsets ``masks``, each over
    ``width`` bits, share at least s set bits.

    Depth-first search over mask subsets in decreasing-degree order.  At a
    node with chosen set S and common bits N, no descendant can beat
    min(|S| + remaining candidates, |N|).
    """
    a = len(masks)
    if a == 0 or width == 0:
        return 0
    order = sorted(range(a), key=lambda i: (-masks[i].bit_count(), i))
    full = (1 << width) - 1
    best = 0

    def visit(start: int, s_size: int, hood: int) -> None:
        nonlocal best
        here = min(s_size, hood.bit_count())
        if here > best:
            best = here
        for pos in range(start, a):
            if min(s_size + (a - pos), hood.bit_count()) <= best:
                break
            child = hood & masks[order[pos]]
            size = child.bit_count()
            if size == 0:
                continue
            if min(s_size + 1 + (a - pos - 1), size) <= best:
                continue
            visit(pos + 1, s_size + 1, child)

    visit(0, 0, full)
    return best


def _lex_smallest_left(masks: Sequence[int], width: int, target: int) -> tuple[list[int], int] | None:
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
    overrides.  Ties among maximum bicliques are broken by the
    lexicographically smallest sorted left set, then the lowest-index right
    realization, so results are deterministic.
    """
    _check_guard(graph, size_limit)
    if graph.num_edges == 0:
        return Biclique.empty()
    size = _best_size(*_smaller_side(graph))
    if size == 0:
        return Biclique.empty()
    # Realize it with the tie-break defined on the original left side.
    found = _lex_smallest_left(graph.bitsets()[0], graph.n_v, size)
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
    return _lex_smallest_left(*_smaller_side(graph), r) is not None
