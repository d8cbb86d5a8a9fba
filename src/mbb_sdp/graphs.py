"""Bipartite graphs: construction, planted instances, text format, biclique checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RNG_ALGORITHM",
    "GraphFormatError",
    "BipartiteGraph",
    "Biclique",
    "PlantedSolution",
    "new_bipartite",
    "empty_bipartite",
    "complete_bipartite",
    "planted_instance",
    "verify_biclique",
    "induced_counts",
    "induced_subgraph",
    "common_neighbour_cores",
    "lowest_bits",
    "parse_graph",
    "serialize_graph",
]

# Identifier recorded in reports so a reader knows how to reproduce instances.
RNG_ALGORITHM = "numpy-pcg64"


class GraphFormatError(ValueError):
    """Malformed graph text: bad or duplicate header, bad edge line, index overflow."""


class BipartiteGraph:
    """Immutable bipartite graph on vertex sets U = {0..n_u-1} and V = {0..n_v-1}.

    Adjacency lives in a dense read-only boolean matrix, the right trade-off at
    the few-hundred-vertex scale this package targets; :meth:`bitsets` is the
    same adjacency as Python-int rows and columns, built on first use.  Zero-vertex sides are
    representable because subgraph cleaning can empty a side; the validated
    public constructor :func:`new_bipartite` rejects them.
    """

    __slots__ = ("n_u", "n_v", "_adj", "_edge_cache", "_bitset_cache")

    def __init__(self, n_u: int, n_v: int, adj: np.ndarray):
        n_u = int(n_u)
        n_v = int(n_v)
        if n_u < 0 or n_v < 0:
            raise ValueError("side sizes must be nonnegative")
        a = np.array(adj, dtype=bool, copy=True)
        if a.shape != (n_u, n_v):
            raise ValueError(f"adjacency shape {a.shape} does not match sides ({n_u}, {n_v})")
        a.setflags(write=False)
        self.n_u = n_u
        self.n_v = n_v
        self._adj = a
        self._edge_cache: frozenset[tuple[int, int]] | None = None
        self._bitset_cache: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def dense(self) -> np.ndarray:
        """Read-only boolean adjacency matrix, shape (n_u, n_v)."""
        return self._adj

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edge_cache is None:
            pairs = np.argwhere(self._adj)
            self._edge_cache = frozenset((int(i), int(j)) for i, j in pairs)
        return self._edge_cache

    def bitsets(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Row and column bitsets, built once per graph: bit j of ``rows[i]``
        and bit i of ``cols[j]`` are set iff (i, j) is an edge."""
        if self._bitset_cache is None:
            self._bitset_cache = (_packed_rows(self._adj), _packed_rows(self._adj.T))
        return self._bitset_cache

    @property
    def num_edges(self) -> int:
        return int(self._adj.sum())

    @property
    def num_non_edges(self) -> int:
        return self.n_u * self.n_v - self.num_edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.n_u == other.n_u
            and self.n_v == other.n_v
            and bool(np.array_equal(self._adj, other._adj))
        )

    def __hash__(self) -> int:
        return hash((self.n_u, self.n_v, self._adj.tobytes()))

    def __repr__(self) -> str:
        return f"BipartiteGraph(n_u={self.n_u}, n_v={self.n_v}, m={self.num_edges})"


def _packed_rows(adj: np.ndarray) -> tuple[int, ...]:
    packed = np.packbits(adj, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def lowest_bits(mask: int, count: int) -> list[int]:
    """Indices of the ``count`` lowest set bits of ``mask``, ascending; the
    mask must have at least that many."""
    out = []
    for _ in range(count):
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Biclique:
    """A balanced complete bipartite subgraph, stored as sorted vertex tuples.

    Construct through :meth:`from_graph` so membership is certified against a
    host graph.  The empty biclique (size 0) is valid.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.left) != len(self.right):
            raise ValueError("biclique sides must have equal size")
        for side in (self.left, self.right):
            if any(b <= a for a, b in zip(side, side[1:])):
                raise ValueError("biclique sides must be strictly increasing tuples")

    @property
    def size(self) -> int:
        return len(self.left)

    @classmethod
    def empty(cls) -> "Biclique":
        return cls((), ())

    @classmethod
    def from_graph(cls, graph: BipartiteGraph, left: Iterable[int], right: Iterable[int]) -> "Biclique":
        """Build a biclique and certify every cross pair is an edge of ``graph``."""
        lt = tuple(sorted(int(i) for i in set(left)))
        rt = tuple(sorted(int(j) for j in set(right)))
        if not verify_biclique(graph, lt, rt):
            raise ValueError(f"vertex sets {lt} x {rt} do not form a balanced biclique")
        return cls(lt, rt)

    def as_dict(self) -> dict:
        return {"size": self.size, "left": list(self.left), "right": list(self.right)}


@dataclass(frozen=True)
class PlantedSolution:
    """Ground truth for a generated instance: the planted biclique and how the rest was drawn."""

    biclique: Biclique
    background_p: float
    seed: int


def new_bipartite(n_u: int, n_v: int, edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
    """Validated graph constructor: checks ranges and deduplicates edges.

    Raises ValueError on out-of-range indices or a zero-size side.
    """
    n_u = int(n_u)
    n_v = int(n_v)
    if n_u <= 0 or n_v <= 0:
        raise ValueError(f"both sides must be nonempty, got ({n_u}, {n_v})")
    adj = np.zeros((n_u, n_v), dtype=bool)
    for i, j in edges:
        i = int(i)
        j = int(j)
        if not (0 <= i < n_u and 0 <= j < n_v):
            raise ValueError(f"edge ({i}, {j}) out of range for sides ({n_u}, {n_v})")
        adj[i, j] = True
    return BipartiteGraph(n_u, n_v, adj)


def empty_bipartite(n_u: int, n_v: int) -> BipartiteGraph:
    return new_bipartite(n_u, n_v, [])


def complete_bipartite(n_u: int, n_v: int) -> BipartiteGraph:
    if n_u <= 0 or n_v <= 0:
        raise ValueError(f"both sides must be nonempty, got ({n_u}, {n_v})")
    return BipartiteGraph(n_u, n_v, np.ones((n_u, n_v), dtype=bool))


def planted_instance(
    n: int, k: int, p: float, seed: int
) -> tuple[BipartiteGraph, PlantedSolution]:
    """Random n x n bipartite graph with a planted complete k x k block.

    Draw order is fixed so instances are reproducible per seed: the left
    member set, then the right member set (uniform k-subsets without
    replacement), then one Bernoulli(p) draw per vertex pair with the planted
    block overwritten to edges.
    """
    n = int(n)
    k = int(k)
    if n <= 0:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        raise ValueError(f"planted size k={k} must lie in [1, {n}]")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability p={p} must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    left = np.sort(rng.choice(n, size=k, replace=False))
    right = np.sort(rng.choice(n, size=k, replace=False))
    adj = rng.random((n, n)) < p
    adj[np.ix_(left, right)] = True
    graph = BipartiteGraph(n, n, adj)
    planted = Biclique.from_graph(graph, left.tolist(), right.tolist())
    return graph, PlantedSolution(biclique=planted, background_p=float(p), seed=int(seed))


def verify_biclique(graph: BipartiteGraph, left: Iterable[int], right: Iterable[int]) -> bool:
    """True iff both sides are duplicate-free, balanced, and every cross pair
    is an edge.

    Out-of-range vertices make the answer False rather than raising; callers
    use this on untrusted report data.
    """
    left = [int(i) for i in left]
    right = [int(j) for j in right]
    lt = sorted(set(left))
    rt = sorted(set(right))
    if len(lt) != len(left) or len(rt) != len(right):
        return False
    if len(lt) != len(rt):
        return False
    if not lt:
        return True
    if lt[0] < 0 or lt[-1] >= graph.n_u or rt[0] < 0 or rt[-1] >= graph.n_v:
        return False
    return bool(graph.dense()[np.ix_(lt, rt)].all())


def _unique_indices(subset: Iterable[int], bound: int, side: str) -> np.ndarray:
    arr = np.unique(np.asarray(list(subset), dtype=int))
    if arr.size and (arr[0] < 0 or arr[-1] >= bound):
        raise IndexError(f"{side}-subset contains a vertex outside [0, {bound})")
    return arr


def induced_counts(
    graph: BipartiteGraph, left_subset: Iterable[int], right_subset: Iterable[int]
) -> tuple[int, int]:
    """Exact (edge, non-edge) counts of the subgraph induced by the two subsets."""
    s = _unique_indices(left_subset, graph.n_u, "U")
    t = _unique_indices(right_subset, graph.n_v, "V")
    if s.size == 0 or t.size == 0:
        return 0, 0
    edges = int(graph.dense()[np.ix_(s, t)].sum())
    return edges, int(s.size) * int(t.size) - edges


def induced_subgraph(
    graph: BipartiteGraph, left_subset: Iterable[int], right_subset: Iterable[int]
) -> tuple[BipartiteGraph, tuple[int, ...], tuple[int, ...]]:
    """Relabel the induced subgraph to contiguous indices.

    Returns (subgraph, left_ids, right_ids) where left_ids[i] is the original
    U-index of the subgraph's U-vertex i, and likewise on the right.
    """
    s = _unique_indices(left_subset, graph.n_u, "U")
    t = _unique_indices(right_subset, graph.n_v, "V")
    sub = graph.dense()[np.ix_(s, t)] if s.size and t.size else np.zeros((s.size, t.size), dtype=bool)
    ids_left = tuple(int(i) for i in s)
    ids_right = tuple(int(j) for j in t)
    return BipartiteGraph(s.size, t.size, sub), ids_left, ids_right


def _partnered(adj: np.ndarray, k: int) -> np.ndarray:
    """Which rows of the 0/1 float matrix ``adj`` have at least k nonzeros
    and at least k - 1 other rows sharing at least k columns with them."""
    common = adj @ adj.T  # float BLAS: exact integer counts, unlike int matmul
    np.fill_diagonal(common, 0.0)  # a row is not its own partner
    return (adj.sum(axis=1) >= k) & ((common >= k).sum(axis=1) >= k - 1)


def common_neighbour_cores(graph: BipartiteGraph) -> list[tuple[np.ndarray, np.ndarray]]:
    """The graph's nonempty common-neighbour cores for k = 1, 2, ...: entry
    k - 1 holds the sorted U- and V-indices of the k-th core.

    The k-th core is what is left after repeatedly deleting every vertex u
    that has fewer than k neighbours on the other side, or fewer than k - 1
    other vertices on its own side sharing at least k common neighbours with
    it, both counted inside the current sets.  In a balanced k-biclique every
    vertex passes both tests, so every k-biclique lies inside the core, and a
    nonempty core has at least k vertices on each side.  A deletion never
    helps another vertex pass, so the core does not depend on the order of
    deletions; the peel deletes each side's failures at once and alternates
    sides until nothing changes.  The tests only get harder as k grows, so
    each core is peeled from the one before and the list stops at the first
    empty core: its length is the core cap, the largest k at which a
    k-biclique can exist.
    """
    adj = graph.dense().astype(np.float64)
    left = np.arange(graph.n_u)
    right = np.arange(graph.n_v)
    cores = []
    for k in range(1, min(graph.n_u, graph.n_v) + 1):
        while True:
            kept_left = left[_partnered(adj[np.ix_(left, right)], k)]
            kept_right = right[_partnered(adj[np.ix_(kept_left, right)].T, k)]
            if kept_left.size == left.size and kept_right.size == right.size:
                break
            left, right = kept_left, kept_right
        if left.size == 0:
            break
        cores.append((left, right))
    return cores


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the package's graph text format.

    Lines: optional ``c`` comments, one ``p mbb <n_u> <n_v> <m>`` header, then
    exactly m ``e <i> <j>`` lines with 0-based endpoints, each edge once.
    Raises GraphFormatError on a malformed or duplicate header, a bad or
    duplicate edge line, an out-of-range endpoint, or an edge count that
    disagrees with the header.
    """
    header: tuple[int, int, int] | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise GraphFormatError(f"line {lineno}: duplicate header")
            if len(tokens) != 5 or tokens[1] != "mbb":
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(tokens[2]), int(tokens[3]), int(tokens[4]))
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}") from exc
        elif tokens[0] == "e":
            if header is None:
                raise GraphFormatError(f"line {lineno}: edge before header")
            if len(tokens) != 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line {line!r}")
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: malformed edge line {line!r}") from exc
            n_u, n_v, _ = header
            if not (0 <= i < n_u and 0 <= j < n_v):
                raise GraphFormatError(f"line {lineno}: edge ({i}, {j}) overflows sides ({n_u}, {n_v})")
            if (i, j) in edges:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({i}, {j})")
            edges.add((i, j))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {tokens[0]!r}")
    if header is None:
        raise GraphFormatError("missing 'p mbb' header")
    n_u, n_v, m = header
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges but {len(edges)} edge lines found")
    try:
        return new_bipartite(n_u, n_v, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def serialize_graph(graph: BipartiteGraph) -> str:
    """Canonical text form: header then lexicographically sorted edge lines."""
    lines = [f"p mbb {graph.n_u} {graph.n_v} {graph.num_edges}"]
    lines.extend(f"e {i} {j}" for i, j in sorted(graph.edges))
    return "\n".join(lines) + "\n"
