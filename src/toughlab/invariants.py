"""Exact, certificate-producing combinatorial invariants.

Toughness is computed as an exact rational (integer cut size over integer
component count, compared by cross multiplication, never through floats).
Independence goes through a bitset branch and bound, vertex connectivity
through vertex-split max flow.  Certificates carry the witnessing sets so
tests and reports can re-check optimality independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    ComponentPartition,
    Graph,
    VertexSet,
    component_masks,
    is_complete,
    is_connected,
    iter_bits,
    mask_of,
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


def toughness(g: Graph) -> ToughnessCertificate:
    """Exact toughness with an optimal cut witness.

    Enumerates cut candidates by increasing size s, stopping once
    s / (n - s) can no longer beat the incumbent (component counts are
    bounded by n - s).  Among optimal cuts the certificate reports the one
    of minimum size, and among those the numerically smallest bitmask.
    Raises ValueError on disconnected input.
    """
    if not is_connected(g):
        raise ValueError("toughness requires a connected graph")
    if is_complete(g):
        return ToughnessCertificate(None, None, None, None, True)
    n = g.n
    full = g.full_mask
    best_num = best_den = 0
    best_cut = -1
    for size in range(1, n - 1):
        # ratio at this size is at least size/(n-size); nothing left to win
        if best_cut >= 0 and size * best_den >= best_num * (n - size):
            break
        for combo in itertools.combinations(range(n), size):
            cut = mask_of(combo)
            comps = component_masks(g.rows, full & ~cut)
            omega = len(comps)
            if omega < 2:
                continue
            if (
                best_cut < 0
                or size * best_den < best_num * omega
                or (size * best_den == best_num * omega
                    and size == best_num and cut < best_cut)
            ):
                best_num, best_den, best_cut = size, omega, cut
    return ToughnessCertificate(best_num, best_den, best_cut, best_den, False)


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
    v.  Complete graphs return n - 1 with no separator.  Raises ValueError
    on disconnected input.
    """
    if not is_connected(g):
        raise ValueError("vertex connectivity requires a connected graph")
    n = g.n
    if is_complete(g):
        return ConnectivityCertificate(n - 1, None)
    degrees = [r.bit_count() for r in g.rows]
    v0 = min(range(n), key=lambda v: (degrees[v], v))
    best = degrees[v0]
    best_sep = g.rows[v0]  # the open neighborhood separates v0 from a non-neighbor
    candidates = []
    non_nbrs = g.full_mask & ~(g.rows[v0] | 1 << v0)
    for u in iter_bits(non_nbrs):
        candidates.append((v0, u))
    nbrs = vertices_of(g.rows[v0])
    for a, b in itertools.combinations(nbrs, 2):
        if not g.has_edge(a, b):
            candidates.append((a, b))
    for s, t in candidates:
        value, sep = _min_vertex_cut(g, s, t)
        if value < best:
            best, best_sep = value, sep
    return ConnectivityCertificate(best, best_sep)


def _min_vertex_cut(g: Graph, s: int, t: int) -> tuple[int, VertexSet]:
    """Minimum s-t vertex cut for nonadjacent s, t via unit vertex capacities.

    Each vertex v splits into nodes 2v (in) and 2v+1 (out) with capacity 1,
    terminals get effectively unbounded capacity, and each edge contributes
    unbounded arcs out->in both ways, so minimum cuts land on vertex arcs.
    """
    n = g.n
    size = 2 * n
    inf = n + 1
    cap = [[0] * size for _ in range(size)]
    adj: list[list[int]] = [[] for _ in range(size)]

    def arc(a: int, b: int, c: int) -> None:
        if cap[a][b] == 0 and cap[b][a] == 0:
            adj[a].append(b)
            adj[b].append(a)
        cap[a][b] += c

    for v in range(n):
        arc(2 * v, 2 * v + 1, inf if v in (s, t) else 1)
    for i, j in g.edges():
        arc(2 * i + 1, 2 * j, inf)
        arc(2 * j + 1, 2 * i, inf)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        parent = [-1] * size
        parent[source] = source
        queue = [source]
        while queue and parent[sink] == -1:
            nxt = []
            for a in queue:
                for b in adj[a]:
                    if parent[b] == -1 and cap[a][b] > 0:
                        parent[b] = a
                        nxt.append(b)
            queue = nxt
        if parent[sink] == -1:
            break
        # bottleneck is always 1: every augmenting path crosses a unit vertex arc
        b = sink
        while b != source:
            a = parent[b]
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        flow += 1
    reach = [False] * size
    reach[source] = True
    queue = [source]
    while queue:
        a = queue.pop()
        for b in adj[a]:
            if not reach[b] and cap[a][b] > 0:
                reach[b] = True
                queue.append(b)
    sep = 0
    for v in range(n):
        if reach[2 * v] and not reach[2 * v + 1]:
            sep |= 1 << v
    return flow, sep


def subset_with_sum(sizes: list[int], target: int) -> set[int]:
    """Indices of a sub-multiset of ``sizes`` summing exactly to ``target``.

    Requires positive entries with total at most 2 * len(sizes) - 1 (the
    regime in which every target 0 <= target <= total is attainable) and
    refuses anything outside it, since existence is otherwise not
    guaranteed.
    """
    p = len(sizes)
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive integers")
    if target == 0:
        return set()  # trivially attainable for any sizes
    total = sum(sizes)
    if total >= 2 * p:
        raise ValueError(f"total {total} exceeds 2p - 1 = {2 * p - 1}; existence not guaranteed")
    if not 0 <= target <= total:
        raise ValueError(f"target {target} outside 0..{total}")
    # parent[s] = index used to first reach sum s
    parent: dict[int, int | None] = {0: None}
    sums = [0]
    for idx, val in enumerate(sizes):
        new = []
        for s in sums:
            t = s + val
            if t not in parent:
                parent[t] = idx
                new.append(t)
        sums += new
    if target not in parent:
        raise RuntimeError("unreachable: guaranteed subset sum not found")
    out: set[int] = set()
    s = target
    while s:
        idx = parent[s]
        assert idx is not None
        out.add(idx)
        s -= sizes[idx]
    return out


def balanced_component_split(
    partition: ComponentPartition, omega: int
) -> tuple[VertexSet, VertexSet]:
    """Split component blocks into two sides R, T with no crossing edges and
    both sides of size at least omega.

    Follows the constructive argument: if the largest block already has
    omega vertices it becomes one side on its own; otherwise a subset-sum
    selection over the smaller blocks (truncated to total 2*omega - 3 when
    necessary) tops the largest block up to exactly omega.

    Requires blocks in ascending size order, total size >= 2*omega + 1, and
    the smaller blocks summing to at least omega.
    """
    blocks = partition.blocks
    if omega != len(blocks):
        raise ValueError(f"partition has {len(blocks)} blocks, expected {omega}")
    if omega < 2:
        raise ValueError("split needs at least two blocks")
    sizes = [b.bit_count() for b in blocks]
    if any(a > b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("block sizes must be ascending")
    total = sum(sizes)
    if total < 2 * omega + 1:
        raise ValueError(f"total size {total} below 2*omega + 1 = {2 * omega + 1}")
    small_total = total - sizes[-1]
    if small_total < omega:
        raise ValueError(
            f"smaller blocks sum to {small_total} < omega = {omega}; split not guaranteed")

    if sizes[-1] >= omega:
        chosen = set(range(omega - 1))
    else:
        ell = omega - sizes[-1]
        small = sizes[:-1]
        if small_total <= 2 * omega - 3:
            chosen = subset_with_sum(small, ell)
        else:
            # truncate the smaller blocks to total 2*omega - 3, keeping each
            # nonempty, then select against the truncated sizes
            trunc = [1] * (omega - 1)
            slack = (2 * omega - 3) - (omega - 1)
            for i in range(omega - 1):
                take = min(small[i] - 1, slack)
                trunc[i] += take
                slack -= take
                if not slack:
                    break
            chosen = subset_with_sum(trunc, ell)
        chosen.add(omega - 1)

    r = 0
    t = 0
    for i, b in enumerate(blocks):
        if i in chosen:
            r |= b
        else:
            t |= b
    return r, t
