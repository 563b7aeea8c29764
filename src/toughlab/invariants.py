"""Exact, certificate-producing combinatorial invariants.

Toughness is computed as an exact rational (integer cut size over integer
component count, compared by cross multiplication, never through floats).
Its cut walk grows the components of G - S a frontier at a time, taking the
union of the frontier's neighbour rows from two per-graph lookup tables of
at most 1,024 entries each (the "four Russians" trick).
Independence goes through a bitset branch and bound, vertex connectivity
through vertex-split max flow run on the graph's rows, the flow held as one
predecessor list ``pred``: a candidate pair is skipped when its common
neighbors already match the best cut, and otherwise its flow starts from
the paths through them and stops at the best cut, all without changing the
reported separator (the one closest to the pair's first vertex, which every
maximum flow gives).  ``independence_bracket`` brackets the independence
number by two greedy bounds with no search.  Certificates carry the
witnessing sets so tests and reports can re-check optimality independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    Graph,
    VertexSet,
    is_complete,
    is_connected,
    iter_bits,
    vertices_of,
)


@dataclass(frozen=True)
class ToughnessCertificate:
    """Optimal cut certificate: tau = tau_num / tau_den with witness cut.

    ``tau_num`` and ``tau_den`` hold the raw |S| and component count of the
    witness (not reduced); ``infinite`` marks complete graphs, for which the
    remaining fields are None.
    """

    tau_num: int | None
    tau_den: int | None
    cut: VertexSet | None
    omega: int | None
    infinite: bool

    @property
    def value(self) -> Fraction | None:
        """Exact toughness as a reduced fraction, None when infinite."""
        if self.infinite:
            return None
        return Fraction(self.tau_num, self.tau_den)

    def as_float(self) -> float:
        return float("inf") if self.infinite else self.tau_num / self.tau_den


@dataclass(frozen=True)
class IndependenceCertificate:
    alpha: int
    witness: VertexSet


@dataclass(frozen=True)
class ConnectivityCertificate:
    kappa: int
    separator: VertexSet | None  # None exactly for complete graphs


# Vertices with labels below this reach their neighbour rows through the two
# subset-union tables of toughness, half of them in each table, so a graph
# never builds more than 2 * 2**10 table entries.  Higher labels fall back
# to a per-vertex loop.
UNION_TABLE_VERTICES = 20


def _subset_unions(rows: tuple[int, ...]) -> list[int]:
    """``table[x]`` is the union of ``rows[v]`` over the bits v of x.

    Doubles the table once per row: the upper half is the lower half with
    that row added, one list comprehension per row.
    """
    table = [0]
    for row in rows:
        table += [t | row for t in table]
    return table


def _union_tables(rows: tuple[int, ...]) -> tuple[list[int], list[int], int, int]:
    """``(lo, hi, split, top)``: the subset-union tables of toughness.

    With top = min(n, UNION_TABLE_VERTICES) and split = ceil(top / 2), the
    union of ``rows[v]`` over the bits v of a mask is ``lo[mask & (len(lo)
    - 1)] | hi[mask >> split & (len(hi) - 1)]`` plus ``rows[v]`` for each
    bit v >= top.
    """
    top = min(len(rows), UNION_TABLE_VERTICES)
    split = (top + 1) // 2
    return _subset_unions(rows[:split]), _subset_unions(rows[split:top]), split, top


def toughness(g: Graph, *, alpha: int | None = None) -> ToughnessCertificate:
    """Exact toughness with an optimal cut witness.

    Walks the cuts S by increasing size s, and within a size in increasing
    bitmask order (Gosper's hack).  For each S it grows the components of
    G - S one at a time from the lowest vertex not yet reached, and a
    component stops growing as soon as no vertex is left, so a set S that
    is not a cut costs one search and omega(G - S) is counted by the same
    growth.  Each growth step takes the union of the frontier's neighbour
    rows from two tables built once per graph, the unions of every subset
    of each half of the first min(n, 20) vertices (at most 2 * 1,024
    entries); frontier vertices from label 20 up are looked up one at a
    time.  Every component of G - S gives one vertex to an independent set,
    so omega(G - S) <= min(alpha, n - s), and the walk stops at the first
    size s where s / min(alpha, n - s) cannot beat the incumbent.  Only a
    strictly smaller ratio replaces the incumbent, so among optimal cuts the
    certificate reports the one of minimum size, and among those the
    numerically smallest bitmask.  ``alpha`` is the independence number of
    ``g``, computed when not given.  Raises ValueError on disconnected
    input.
    """
    if not is_connected(g):
        raise ValueError("toughness requires a connected graph")
    if is_complete(g):
        return ToughnessCertificate(None, None, None, None, True)
    return _cut_walk(g, independence_number(g).alpha if alpha is None else alpha)


def _cut_walk(g: Graph, alpha: int) -> ToughnessCertificate:
    """``toughness`` of ``g``, connected and not complete, with independence
    number ``alpha``: the walk alone, for a caller that has decided both."""
    n = g.n
    rows = g.rows
    full = g.full_mask
    lo, hi, split, top = _union_tables(rows)
    lo_mask, hi_mask = len(lo) - 1, len(hi) - 1
    far_rows = rows[top:]
    # 1/0 stands for an infinite ratio until the first cut is found; a
    # non-complete graph has one of size n - 2
    best_num, best_den, best_cut = 1, 0, -1
    for size in range(1, n - 1):
        # ratio at this size is at least size/min(alpha, n-size); nothing left to win
        if size * best_den >= best_num * min(alpha, n - size):
            break
        cut = (1 << size) - 1
        while not cut >> n:
            todo = full & ~cut
            omega = 0
            while todo:
                # grow the component of the lowest vertex left; what it does
                # not reach is left for the next one
                frontier = todo & -todo
                todo ^= frontier
                while frontier and todo:
                    grown = lo[frontier & lo_mask] | hi[frontier >> split & hi_mask]
                    far = frontier >> top
                    while far:
                        low = far & -far
                        grown |= far_rows[low.bit_length() - 1]
                        far ^= low
                    frontier = grown & todo
                    todo ^= frontier
                omega += 1
            if omega > 1 and size * best_den < best_num * omega:
                best_num, best_den, best_cut = size, omega, cut
            # Gosper's hack: the next larger mask with the same bit count
            low = cut & -cut
            step = cut + low
            cut = (((step ^ cut) >> 2) // low) | step
    return ToughnessCertificate(best_num, best_den, best_cut, best_den, False)


def independence_bracket(rows: tuple[int, ...]) -> tuple[int, int]:
    """(lo, hi) with lo <= alpha <= hi, from one greedy pass and no search.

    Visits the vertices by ascending degree, ties by label.  A vertex with
    no neighbour among those taken so far joins an independent set, whose
    size is lo.  Each vertex also joins the first clique of a cover that
    lies inside its neighbourhood, or starts a new one; the cover
    partitions the vertices into hi cliques, and an independent set meets
    each clique at most once.
    """
    degrees = [row.bit_count() for row in rows]
    taken = lo = 0  # the independent set and its neighbours
    cliques: list[int] = []
    for v in sorted(range(len(rows)), key=degrees.__getitem__):
        row = rows[v]
        if not taken >> v & 1:
            lo += 1
            taken |= row | 1 << v
        for k, clique in enumerate(cliques):
            if clique & row == clique:
                cliques[k] = clique | 1 << v
                break
        else:
            cliques.append(1 << v)
    return lo, len(cliques)


def independence_number(g: Graph) -> IndependenceCertificate:
    """Maximum independent set via branch and bound on bitmasks.

    Branches on the highest-degree vertex of the remaining candidate set;
    prunes with a greedy clique-cover upper bound.
    """
    n = g.n
    if n < 1:
        raise ValueError("independence needs at least one vertex")
    rows = g.rows
    closed = [rows[v] | (1 << v) for v in range(n)]

    def cover_bound(mask: int) -> int:
        # greedy clique cover of the candidate set; its size bounds alpha
        count = 0
        rem = mask
        while rem:
            v = (rem & -rem).bit_length() - 1
            clique = 1 << v
            cand = rows[v] & rem
            while cand:
                u = (cand & -cand).bit_length() - 1
                clique |= 1 << u
                cand &= rows[u]
            rem &= ~clique
            count += 1
        return count

    best = 0
    best_set = 0

    def branch(mask: int, chosen: int, size: int) -> None:
        nonlocal best, best_set
        if not mask:
            if size > best:
                best, best_set = size, chosen
            return
        if size + cover_bound(mask) <= best:
            return
        pick = -1
        pick_deg = -1
        rem = mask
        while rem:
            v = (rem & -rem).bit_length() - 1
            d = (rows[v] & mask).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
            rem &= rem - 1
        branch(mask & ~closed[pick], chosen | (1 << pick), size + 1)
        branch(mask & ~(1 << pick), chosen, size)

    branch(g.full_mask, 0, 0)
    return IndependenceCertificate(best, best_set)


def vertex_connectivity(g: Graph) -> ConnectivityCertificate:
    """Vertex connectivity via vertex-split max flow (Menger).

    Fixes a minimum-degree vertex v and takes the minimum cut over v against
    each of its non-neighbors, plus every nonadjacent pair of neighbors of
    v, in that order; only a strictly smaller cut replaces the incumbent,
    which starts as deg(v) with the neighborhood of v.  Each pair's flow
    runs on the rows of ``g``, held as the list ``pred``.  The c common
    neighbors of a pair are c disjoint paths between them, so a pair with c
    >= the incumbent cannot win and is skipped; any other pair starts its
    flow from those c paths and stops as soon as the flow reaches the
    incumbent.  A pair that does win reports the minimum separator closest
    to its first vertex, which every maximum flow gives, so neither the
    skip, the seeded paths nor the stop changes the certificate.  Complete
    graphs return n - 1 with no separator.  Raises ValueError on
    disconnected input.
    """
    if not is_connected(g):
        raise ValueError("vertex connectivity requires a connected graph")
    n = g.n
    if is_complete(g):
        return ConnectivityCertificate(n - 1, None)
    rows = g.rows
    degrees = [r.bit_count() for r in rows]
    v0 = min(range(n), key=lambda v: (degrees[v], v))
    best = degrees[v0]
    best_sep = rows[v0]  # the open neighborhood separates v0 from a non-neighbor
    candidates = []
    non_nbrs = g.full_mask & ~(rows[v0] | 1 << v0)
    for u in iter_bits(non_nbrs):
        candidates.append((v0, u))
    nbrs = vertices_of(rows[v0])
    for a, b in itertools.combinations(nbrs, 2):
        if not g.has_edge(a, b):
            candidates.append((a, b))
    for s, t in candidates:
        cut = _min_vertex_cut(rows, s, t, best)
        if cut is not None:
            best, best_sep = cut
    return ConnectivityCertificate(best, best_sep)


def _min_vertex_cut(
    rows: tuple[int, ...], s: int, t: int, limit: int
) -> tuple[int, VertexSet] | None:
    """Minimum s-t vertex cut for nonadjacent s, t when it is below ``limit``.

    The c common neighbors of s and t are c disjoint s-t paths, so with c
    >= ``limit`` it returns None at once.  Otherwise the flow is a set of
    internally disjoint s-t paths, held as ``pred[v]``: the vertex before v
    on the path through v, or -1 when no path uses v.  It starts with the
    paths s-c-t and grows by shortest augmenting paths, returning None as
    soon as it reaches ``limit``.  The residual search runs on ``rows``:
    each vertex v has an in and an out node joined by an arc of capacity 1,
    and each edge uv an unbounded arc from out(u) to in(v), so out(u)
    reaches in(v) for every neighbor v, and in(u) too when u is on a path;
    in(v) reaches out(v) when v is on no path and out(pred[v]) when it is.
    When no augmenting path is left, the vertices whose in node the last
    search reached and whose out node it did not form the minimum separator
    closest to s: the nodes reachable in the residual network are the same
    for every maximum flow.
    """
    common = rows[s] & rows[t]
    flow = common.bit_count()
    if flow >= limit:
        return None
    n = len(rows)
    pred = [-1] * n
    for c in iter_bits(common):
        pred[c] = s
    while flow < limit:
        # via_in[v]: the vertex whose out node reached in(v); via_out[u]:
        # the vertex whose in node reached out(u)
        via_in = [-1] * n
        via_out = [-1] * n
        seen_in = seen_out = frontier = 1 << s
        while frontier and not seen_in >> t & 1:
            layer, frontier = frontier, 0
            for u in iter_bits(layer):
                fresh = rows[u] & ~seen_in
                if pred[u] != -1 and not seen_in >> u & 1:
                    fresh |= 1 << u
                seen_in |= fresh
                for v in iter_bits(fresh):
                    via_in[v] = u
                    w = v if pred[v] == -1 else pred[v]
                    if not seen_out >> w & 1:
                        via_out[w] = v
                        seen_out |= 1 << w
                        frontier |= 1 << w
                if seen_in >> t & 1:
                    break
        if not seen_in >> t & 1:
            # the failed search reached every node the residual network reaches
            return flow, seen_in & ~seen_out & ~(1 << s | 1 << t)
        # walk back from in(t); each in node on the way takes its new
        # predecessor, and one reached from its own out node leaves its path
        u = via_in[t]
        while u != s:
            v = via_out[u]
            u = via_in[v]
            pred[v] = -1 if u == v else u
        flow += 1
    return None
