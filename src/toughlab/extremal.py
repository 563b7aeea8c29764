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
    Graph,
    VertexSet,
    degree_profile,
    empty_graph,
    induced_subgraph,
    iter_bits,
    join,
)
from .spectra import laplacian_spectrum

EIGEN_SLACK = 1e-7


@dataclass(frozen=True)
class ExtremalWitness:
    """Decomposition of G as base_h joined with an independent side.

    ``independent_part`` is the bitmask of the isolated-side vertices (each
    adjacent to everything outside the part), ``base_h`` the induced base
    graph relabeled to 0..delta-1, and ``eigen_condition_ok`` records
    whether the second-smallest Laplacian eigenvalue of the base clears
    2*delta - n (vacuously true for delta = 1).
    """

    base_h: Graph
    independent_part: VertexSet
    delta: int
    eigen_condition_ok: bool


def build_extremal(h: Graph, n: int) -> Graph:
    """Join ``h`` with n - |h| isolated vertices; ``h`` keeps labels 0..delta-1.

    Requires 1 <= |h| <= n - 2.  The eigenvalue floor on ``h`` is the
    caller's business.
    """
    delta = h.n
    if not 1 <= delta <= n - 2:
        raise ValueError(f"base order {delta} outside 1..n-2 for n = {n}")
    return join(h, empty_graph(n - delta))


def _eigen_condition(base: Graph, delta: int, n: int) -> bool:
    """The floor: mu_{delta-1}(base) >= 2*delta - n, vacuous for delta = 1."""
    if delta == 1:
        return True
    mu = laplacian_spectrum(base)
    return mu[-2] >= 2 * delta - n - EIGEN_SLACK


def detect_join_form(g: Graph) -> ExtremalWitness | None:
    """Find a decomposition of ``g`` as a base graph joined with isolated
    vertices, or None.  Requires n >= 1 (ValueError otherwise).

    Scans vertices of minimum degree delta in ascending label order; a
    candidate v proposes the complement of its neighborhood as the
    independent part.  The candidate is accepted when 1 <= delta <= n - 2
    and every member of the part has v's neighborhood exactly; the part is
    then independent, because v's neighborhood excludes it.  An accepted
    witness implies a connected, non-complete graph: every part vertex is
    adjacent to the whole nonempty base, and the part is independent with
    at least two vertices.  The scan is complete for the family: in any
    such join every isolated-side vertex proposes the isolated side itself.
    """
    n = g.n
    _, delta, degrees = degree_profile(g)
    if not 1 <= delta <= n - 2:
        return None
    for v in range(n):
        if degrees[v] != delta:
            continue
        part = g.full_mask & ~g.rows[v]
        if all(g.rows[u] == g.rows[v] for u in iter_bits(part)):
            base = induced_subgraph(g, g.rows[v])
            return ExtremalWitness(base, part, delta, _eigen_condition(base, delta, n))
    return None

