"""Immutable bitset-backed simple graphs and the set combinatorics built on them.

Vertices are dense integer labels 0..n-1.  Every vertex-set argument and
return value is a plain ``int`` bitmask over those labels, so callers can
combine results with ordinary bitwise operators (``mask & other``,
``mask.bit_count()``, ...).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

# Hard cap on vertex count.  Keeps every vertex set inside one machine word
# on typical builds; graph6 short form stops at 62 anyway.
MAX_VERTICES = 64

VertexSet = int


def mask_of(vertices: Iterable[int]) -> VertexSet:
    """Build a bitmask from an iterable of vertex labels."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_of(mask: VertexSet) -> list[int]:
    """List the vertex labels set in ``mask``, ascending."""
    return list(iter_bits(mask))


def iter_bits(mask: VertexSet) -> Iterator[int]:
    """Yield the vertex labels set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Labeled simple undirected graph.

    ``rows[v]`` is the neighbor bitmask of vertex ``v``; ``m`` caches the
    edge count.  Instances are immutable and safe to share across threads.
    Constructors in this package produce valid graphs; ``validate()``
    re-checks the representation invariants explicitly.
    """

    n: int
    rows: tuple[int, ...]
    m: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on ``n`` vertices from (u, v) pairs.

        Duplicate pairs collapse; order of endpoints does not matter.
        Raises ValueError on out-of-range labels, self-loops, or n outside
        0..MAX_VERTICES.
        """
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        m = sum(r.bit_count() for r in rows) // 2
        return cls(n, tuple(rows), m)

    def validate(self) -> None:
        """Check representation invariants; raises AssertionError on breakage."""
        assert 0 <= self.n <= MAX_VERTICES
        assert len(self.rows) == self.n
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            assert row & ~full == 0, f"row {v} has bits outside the vertex range"
            assert not row >> v & 1, f"self-loop at {v}"
            for u in iter_bits(row):
                assert self.rows[u] >> v & 1, f"asymmetric edge ({v}, {u})"
        assert self.m * 2 == sum(r.bit_count() for r in self.rows)

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (i, j) with i < j, lexicographic."""
        for i in range(self.n):
            for j in iter_bits(self.rows[i] >> (i + 1) << (i + 1)):
                yield (i, j)


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of an induced subgraph, as disjoint bitmasks.

    Blocks are ordered ascending by (size, mask) so certificates are
    deterministic.
    """

    blocks: tuple[VertexSet, ...]

    @property
    def omega(self) -> int:
        return len(self.blocks)

    def sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    def union(self) -> VertexSet:
        mask = 0
        for b in self.blocks:
            mask |= b
        return mask


def component_masks(rows: tuple[int, ...], remaining: VertexSet) -> list[VertexSet]:
    """Connected components of the subgraph induced on ``remaining``."""
    comps = []
    todo = remaining
    while todo:
        comp = todo & -todo
        frontier = comp
        while frontier:
            grown = 0
            f = frontier
            while f:
                low = f & -f
                grown |= rows[low.bit_length() - 1]
                f ^= low
            frontier = grown & todo & ~comp
            comp |= frontier
        comps.append(comp)
        todo &= ~comp
    return comps


def degree_profile(g: Graph) -> tuple[int, int, list[int]]:
    """Return (max degree, min degree, per-vertex degrees). Requires n >= 1."""
    if g.n < 1:
        raise ValueError("degree profile needs at least one vertex")
    degrees = [r.bit_count() for r in g.rows]
    return max(degrees), min(degrees), degrees


def volume(g: Graph, x: VertexSet) -> int:
    """Sum of degrees over the vertices in ``x``."""
    _check_set(g, x)
    return sum(g.rows[v].bit_count() for v in iter_bits(x))


def edge_boundary(g: Graph, x: VertexSet, y: VertexSet) -> int:
    """Edges between ``x`` and ``y``, counting edges inside the overlap twice.

    Equivalently the number of ordered adjacent pairs (u, v) with u in x and
    v in y; hence edge_boundary(g, x, x) is twice the edge count inside x.
    """
    _check_set(g, x)
    _check_set(g, y)
    return sum((g.rows[v] & y).bit_count() for v in iter_bits(x))


def components(g: Graph, removed: VertexSet) -> ComponentPartition:
    """Partition the vertices outside ``removed`` into connected components.

    Raises ValueError when the removal leaves no vertices behind.
    """
    _check_set(g, removed)
    remaining = g.full_mask & ~removed
    if remaining == 0:
        raise ValueError("removal leaves an empty remainder")
    blocks = component_masks(g.rows, remaining)
    blocks.sort(key=lambda b: (b.bit_count(), b))
    return ComponentPartition(tuple(blocks))


def is_connected(g: Graph) -> bool:
    """True iff the graph has one connected component. Requires n >= 1."""
    if g.n < 1:
        raise ValueError("connectivity needs at least one vertex")
    return len(component_masks(g.rows, g.full_mask)) == 1


def is_complete(g: Graph) -> bool:
    if g.n < 1:
        raise ValueError("completeness needs at least one vertex")
    return g.m == g.n * (g.n - 1) // 2


def join(g: Graph, h: Graph) -> Graph:
    """Join of two graphs: disjoint union plus every cross edge.

    Vertices of ``g`` keep their labels; vertices of ``h`` shift up by g.n.
    """
    ng, nh = g.n, h.n
    if ng + nh > MAX_VERTICES:
        raise ValueError("join exceeds the vertex budget")
    h_side = ((1 << nh) - 1) << ng
    g_side = (1 << ng) - 1
    rows = [r | h_side for r in g.rows]
    rows += [(r << ng) | g_side for r in h.rows]
    return Graph(ng + nh, tuple(rows), g.m + h.m + ng * nh)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; vertices of ``h`` shift up by g.n."""
    ng = g.n
    if ng + h.n > MAX_VERTICES:
        raise ValueError("union exceeds the vertex budget")
    rows = list(g.rows) + [r << ng for r in h.rows]
    return Graph(ng + h.n, tuple(rows), g.m + h.m)


def induced_subgraph(g: Graph, x: VertexSet) -> Graph:
    """Subgraph induced on ``x``, relabeled 0..k-1 in ascending label order."""
    _check_set(g, x)
    keep = vertices_of(x)
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for u in iter_bits(g.rows[v] & x):
            row |= 1 << pos[u]
        rows.append(row)
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(len(keep), tuple(rows), m)


def _check_set(g: Graph, mask: VertexSet) -> None:
    if mask < 0 or mask & ~g.full_mask:
        raise ValueError("vertex set has bits outside 0..n-1")


# ---------------------------------------------------------------------------
# Named constructions used across tests and the extremal machinery.

def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return Graph.from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def petersen_graph() -> Graph:
    """Petersen graph via the Kneser construction on 2-subsets of {0..4}.

    Vertices are labeled by the lexicographic rank of their 2-subset;
    disjoint subsets are adjacent.
    """
    pairs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i, p in enumerate(pairs)
        for j, q in enumerate(pairs)
        if i < j and not set(p) & set(q)
    ]
    return Graph.from_edges(10, edges)
