"""Independent oracles for the exact invariants and the eigensolver.

The invariant oracles are deliberately implemented on dict-of-sets
adjacency with plain BFS, sharing no code with the package's bitmask
machinery, so oracle agreement is a real cross-check and not a tautology.
``volume`` and ``edge_boundary`` give the mixing definitions' set
quantities straight from the adjacency rows.  ``jacobi_eigenvalues`` is a
cyclic Jacobi diagonalizer, an eigenvalue algorithm that shares nothing
with the package's Householder and QL solver; tests hold both it and
numpy's ``eigvalsh`` against that solver.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def to_adj(graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(graph.n)}
    for i, j in graph.edges():
        adj[i].add(j)
        adj[j].add(i)
    return adj


def component_sets(adj: dict[int, set[int]], removed: set[int]) -> list[set[int]]:
    left = [v for v in adj if v not in removed]
    seen: set[int] = set()
    out = []
    for s in left:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in removed and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(comp)
    return out


def brute_toughness(graph) -> Fraction | None:
    """Minimum |S| / omega(G - S) over every subset, None for complete graphs."""
    adj = to_adj(graph)
    n = graph.n
    best = None
    for size in range(1, n - 1):
        for combo in itertools.combinations(range(n), size):
            comps = component_sets(adj, set(combo))
            if len(comps) >= 2:
                value = Fraction(size, len(comps))
                if best is None or value < best:
                    best = value
    return best


def brute_toughness_certificate(graph) -> tuple[Fraction, int, int] | None:
    """(tau, |S|, bitmask of S) for the optimal cut of minimum size, and
    among those the numerically smallest mask; None for complete graphs."""
    adj = to_adj(graph)
    n = graph.n
    best = None
    for mask in range(1, 1 << n):
        cut = {v for v in range(n) if mask >> v & 1}
        comps = component_sets(adj, cut)
        if len(comps) >= 2:
            key = (Fraction(len(cut), len(comps)), len(cut), mask)
            if best is None or key < best:
                best = key
    return best


def brute_alpha(graph) -> int:
    adj = to_adj(graph)
    n = graph.n
    best = 0
    for mask in range(1 << n):
        chosen = [v for v in range(n) if mask >> v & 1]
        if all(u not in adj[v] for v, u in itertools.combinations(chosen, 2)):
            best = max(best, len(chosen))
    return best


def brute_kappa(graph) -> int:
    """Minimum size of a disconnecting subset; n - 1 for complete graphs."""
    adj = to_adj(graph)
    n = graph.n
    if all(len(adj[v]) == n - 1 for v in range(n)):
        return n - 1
    for size in range(0, n - 1):
        for combo in itertools.combinations(range(n), size):
            if len(component_sets(adj, set(combo))) >= 2:
                return size
    raise AssertionError("unreachable for non-complete graphs")


def brute_kappa_certificate(graph) -> tuple[int, int | None]:
    """(kappa, separator bitmask) as ``vertex_connectivity`` reports them.

    v0 is the lowest-labelled vertex of minimum degree and the incumbent
    starts as (deg v0, N(v0)).  The candidate pairs are v0 with each
    non-neighbour, then each nonadjacent pair of neighbours of v0, both in
    increasing label order.  A pair replaces the incumbent only when its
    ``brute_closest_separator`` is strictly smaller.  Complete graphs give
    (n - 1, None).
    """
    adj = to_adj(graph)
    n = graph.n
    if all(len(adj[v]) == n - 1 for v in range(n)):
        return n - 1, None
    v0 = min(range(n), key=lambda v: (len(adj[v]), v))
    nbrs = sorted(adj[v0])
    pairs = [(v0, u) for u in range(n) if u != v0 and u not in adj[v0]]
    pairs += [(a, b) for a, b in itertools.combinations(nbrs, 2) if b not in adj[a]]
    best, best_sep = len(nbrs), set(nbrs)
    for s, t in pairs:
        found = brute_closest_separator(adj, s, t, best)
        if found is not None:
            best, best_sep = found
    return best, sum(1 << v for v in best_sep)


def brute_closest_separator(adj, s: int, t: int, below: int) -> tuple[int, set] | None:
    """(size, separator) of the smallest s-t separator, by trying every
    subset, when it has fewer than ``below`` vertices, else None.  Among the
    smallest it takes the one whose component of s is contained in that of
    every other (minimum s-t separators form a lattice, so exactly one is).
    """
    others = [v for v in range(len(adj)) if v not in (s, t)]
    for size in range(below):
        sides = []
        for combo in itertools.combinations(others, size):
            side = next(c for c in component_sets(adj, set(combo)) if s in c)
            if t not in side:
                sides.append((side, set(combo)))
        if sides:
            side, sep = min(sides, key=lambda item: len(item[0]))
            assert all(side <= other for other, _ in sides)
            return size, sep
    return None


def connected_labeled_count(n: int) -> int:
    """Count of connected labeled graphs via the classical recurrence."""
    counts: dict[int, int] = {}
    for k in range(1, n + 1):
        total = 2 ** (k * (k - 1) // 2)
        lower = sum(
            math.comb(k - 1, j - 1) * counts[j] * 2 ** ((k - j) * (k - j - 1) // 2)
            for j in range(1, k)
        )
        counts[k] = total - lower
    return counts[n]


def has_nontrivial_bipartite_component(graph) -> bool:
    """Two-color every component with an edge; True if one succeeds."""
    adj = to_adj(graph)
    for comp in component_sets(adj, set()):
        if all(not adj[v] for v in comp):
            continue
        color = {}
        start = min(comp)
        color[start] = 0
        stack = [start]
        ok = True
        while stack and ok:
            v = stack.pop()
            for u in adj[v]:
                if u not in color:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    ok = False
                    break
        if ok:
            return True
    return False


def volume(graph, x: int) -> int:
    """Sum of degrees over the vertices in the bitmask ``x``."""
    return sum(graph.rows[v].bit_count() for v in range(graph.n) if x >> v & 1)


def edge_boundary(graph, x: int, y: int) -> int:
    """Edges between ``x`` and ``y``, counting edges inside the overlap twice.

    Equivalently the number of ordered adjacent pairs (u, v) with u in x and
    v in y; hence edge_boundary(g, x, x) is twice the edge count inside x.
    """
    return sum((graph.rows[v] & y).bit_count() for v in range(graph.n) if x >> v & 1)


JACOBI_MAX_SWEEPS = 100


def _norm(values: list[float]) -> float:
    """Euclidean norm of ``values``, scaled by the largest |value| so that
    no square overflows."""
    scale = max(map(abs, values), default=0.0)
    if scale == 0.0:
        return 0.0
    return scale * math.sqrt(math.fsum((x / scale) ** 2 for x in values))


def jacobi_eigenvalues(matrix) -> list[float]:
    """Eigenvalues of a symmetric matrix, sorted descending, by cyclic
    Jacobi rotations.

    Converged when the off-diagonal Frobenius norm is at most 1e-12 times
    the initial Frobenius norm, a target relative to the matrix's scale; the
    zero matrix, whose target would be 0, returns its zero diagonal at
    once.  Before each sweep a scan looks for one entry above that target:
    the off-norm is at least sqrt(2) times any entry, so such an entry
    proves the sweep is needed, and entries whose squares underflow to zero
    are still rotated away.  Both norms divide by the largest |entry|
    before squaring, so entries above about 1e154 do not overflow them to
    inf.
    """
    a = [[float(x) for x in row] for row in matrix]
    n = len(a)
    fro = _norm([x for row in a for x in row])
    if fro == 0.0:
        return [0.0] * n
    target = 1e-12 * fro
    plan = [(p, q, [i for i in range(n) if i != p and i != q])
            for p in range(n - 1) for q in range(p + 1, n)]

    def converged() -> bool:
        if any(abs(a[p][q]) > target for p, q, _ in plan):
            return False
        return math.sqrt(2.0) * _norm([a[p][q] for p, q, _ in plan]) <= target

    for _ in range(JACOBI_MAX_SWEEPS):
        if converged():
            return sorted((a[i][i] for i in range(n)), reverse=True)
        for p, q, others in plan:
            ap, aq = a[p], a[q]
            apq = ap[q]
            if apq == 0.0:
                continue
            app, aqq = ap[p], aq[q]
            diff = aqq - app
            if abs(apq) < 1e-36 * abs(diff):
                t = apq / diff
            else:
                theta = diff / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            ap[p] = app - t * apq
            aq[q] = aqq + t * apq
            ap[q] = aq[p] = 0.0
            for i in others:
                ai = a[i]
                aip, aiq = ai[p], ai[q]
                ai[p] = ap[i] = aip - s * (aiq + tau * aip)
                ai[q] = aq[i] = aiq + s * (aip - tau * aiq)
    if converged():
        return sorted((a[i][i] for i in range(n)), reverse=True)
    raise AssertionError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")
