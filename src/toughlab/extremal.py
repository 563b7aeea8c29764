"""The extremal join family and its detection.

The graphs attaining both Laplacian toughness bounds are exactly the joins
of an arbitrary base graph H on delta vertices with n - delta isolated
vertices, subject to an eigenvalue floor on H: the second-smallest
Laplacian eigenvalue of H must be at least 2*delta - n.  This module builds
members of the family and detects the decomposition in arbitrary graphs.
The verdict that compares the detected structure with numeric equality
lives with the other per-graph facts in ``sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    MAX_VERTICES,
    Graph,
    VertexSet,
    degree_profile,
    empty_graph,
    induced_subgraph,
    iter_bits,
    join,
)
from .spectra import inertia


@dataclass(frozen=True)
class ExtremalWitness:
    """Decomposition of G as base_h joined with an independent side.

    ``independent_part`` is the bitmask of the isolated-side vertices (each
    adjacent to everything outside the part), ``base_h`` the induced base
    graph relabeled to 0..delta-1, and ``eigen_condition_ok`` records,
    exactly, whether the second-smallest Laplacian eigenvalue of the base
    clears 2*delta - n (vacuously true for delta = 1).
    """

    base_h: Graph
    independent_part: VertexSet
    delta: int
    eigen_condition_ok: bool


def build_extremal(h: Graph, n: int) -> Graph:
    """Join ``h`` with n - |h| isolated vertices; ``h`` keeps labels 0..delta-1.

    Requires 1 <= |h| <= n - 2 and n <= MAX_VERTICES.  The eigenvalue
    floor on ``h`` is the caller's business.
    """
    delta = h.n
    if n > MAX_VERTICES:
        raise ValueError(f"join order n = {n} exceeds the vertex budget of {MAX_VERTICES}")
    if not 1 <= delta <= n - 2:
        raise ValueError(f"base order {delta} outside 1..n-2 for n = {n}")
    return join(h, empty_graph(n - delta))


def _eigen_condition(base: Graph, delta: int, n: int) -> bool:
    """The floor mu_{delta-1}(base) >= c = 2*delta - n, decided exactly.

    L(base) + J - cI is n - delta > 0 on the all-ones vector and L(base) - cI
    on its complement, so the floor holds exactly when that integer matrix
    has no negative eigenvalue (``spectra.inertia``).  A floor c <= 0 holds
    at once, which covers delta = 1.
    """
    c = 2 * delta - n
    if c <= 0:
        return True
    # off the diagonal, J - A(base) is 1 exactly on the non-adjacent pairs
    return not inertia([[row.bit_count() + 1 - c if i == j else 1 - (row >> j & 1)
                         for j in range(delta)] for i, row in enumerate(base.rows)])[0]


def detect_join_form(g: Graph, *, degrees: list[int] | None = None) -> ExtremalWitness | None:
    """Find a decomposition of ``g`` as a base graph joined with isolated
    vertices, or None.  Requires n >= 1 (ValueError otherwise).
    ``degrees``, the per-vertex degrees, spares a caller that holds them
    a second count.

    Scans vertices of minimum degree delta in ascending label order; a
    candidate v proposes the complement of its neighborhood as the
    independent part.  The candidate is accepted when 1 <= delta <= n - 2
    and every member of the part has v's neighborhood exactly; the part is
    then independent, because v's neighborhood excludes it.  An accepted
    witness implies a connected, non-complete graph: every part vertex is
    adjacent to the whole nonempty base, and the part is independent with
    at least two vertices.  The scan is complete for the family: in any
    such join every isolated-side vertex proposes the isolated side itself.
    Each of the n - delta vertices of that side has degree delta, so a
    graph with fewer vertices of minimum degree is no such join.
    """
    n = g.n
    if degrees is None:
        _, _, degrees = degree_profile(g)
    delta = min(degrees)
    if not 1 <= delta <= n - 2 or degrees.count(delta) < n - delta:
        return None
    for v in range(n):
        if degrees[v] != delta:
            continue
        part = g.full_mask & ~g.rows[v]
        if all(g.rows[u] == g.rows[v] for u in iter_bits(part)):
            base = induced_subgraph(g, g.rows[v])
            return ExtremalWitness(base, part, delta, _eigen_condition(base, delta, n))
    return None

