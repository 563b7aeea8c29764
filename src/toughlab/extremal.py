"""The extremal join family and its detection.

The graphs attaining both Laplacian toughness bounds are exactly the joins
of an arbitrary base graph H on delta vertices with n - delta isolated
vertices, subject to an eigenvalue floor on H: the second-smallest
Laplacian eigenvalue of H must be at least 2*delta - n.  This module builds
members of the family, detects the decomposition in arbitrary graphs, and
checks the companion structure forced when the algebraic connectivity
equals the vertex connectivity.  The verdict that compares the detected
structure with numeric equality lives with the other per-graph facts in
``sweep``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bounds import EPS_EQ
from .graphs import (
    Graph,
    VertexSet,
    components,
    degree_profile,
    empty_graph,
    induced_subgraph,
    is_complete,
    is_connected,
    iter_bits,
    join,
    mask_of,
)
from .invariants import vertex_connectivity
from .spectra import SpectralSummary, laplacian_spectrum, spectral_summary

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
    vertices, or None.

    Scans vertices in ascending label order; a candidate v proposes the
    complement of its neighborhood as the independent part.  The candidate
    is accepted when that part is independent, all its members share v's
    neighborhood exactly, v has minimum degree, and the implied base order
    sits in 1..n-2.  The scan is complete for the family: in any such join
    every isolated-side vertex proposes the isolated side itself.
    """
    if not is_connected(g) or is_complete(g):
        return None
    n = g.n
    _, dmin, degrees = degree_profile(g)
    for v in range(n):
        if degrees[v] != dmin:
            continue
        part = g.full_mask & ~g.rows[v]
        if part.bit_count() != n - dmin:
            continue
        delta = dmin
        if not 1 <= delta <= n - 2:
            continue
        ok = True
        for u in iter_bits(part):
            if g.rows[u] != g.rows[v]:
                ok = False
                break
        if not ok:
            continue
        # independence follows from uniform neighborhoods (no member is a
        # neighbor of v), but check explicitly anyway
        if any(g.rows[u] & part for u in iter_bits(part)):
            continue
        base = induced_subgraph(g, g.rows[v])
        return ExtremalWitness(base, part, delta, _eigen_condition(base, delta, n))
    return None


def fiedler_structure_check(g: Graph, summary: SpectralSummary | None = None) -> bool:
    """Verify the structure forced when algebraic connectivity equals vertex
    connectivity.

    Requires that equality as a precondition (ValueError otherwise).  Then
    for every minimum cut set S, every vertex of S must be adjacent to all
    vertices outside S, and the induced G[S] must clear the eigenvalue floor
    2*kappa - n (vacuous for kappa = 1).  Exhaustive over all size-kappa
    subsets; meant for desk-scale graphs.
    """
    if not is_connected(g) or is_complete(g):
        raise ValueError("check requires a connected non-complete graph")
    if summary is None:
        summary = spectral_summary(g)
    kappa = vertex_connectivity(g).kappa
    if abs(summary.algebraic_connectivity - kappa) > EPS_EQ:
        raise ValueError(
            f"algebraic connectivity {summary.algebraic_connectivity} != kappa {kappa}")
    n = g.n
    for combo in itertools.combinations(range(n), kappa):
        s = mask_of(combo)
        if components(g, s).omega < 2:
            continue
        outside = g.full_mask & ~s
        for v in combo:
            if g.rows[v] & outside != outside:
                return False
        if not _eigen_condition(induced_subgraph(g, s), kappa, n):
            return False
    return True
