"""Evaluators for every toughness / independence inequality.

All evaluators are pure formulas over numbers.  ``sweep.GraphFacts``
decides which degree or eigenvalue of a graph feeds each, and the checks
and the reports compare the values against the exact invariants.  EPS_EQ
is the default equality detection window: the equality flags of the
``bounds`` report, ``GraphFacts.verdict`` and the default of ``verify
--eq-tol``.  It is 1e-7: the Householder and QL eigensolver leaves each
eigenvalue within about 1e-15 times the matrix norm of the exact one, far
inside the window, while the nearest non-equality case on the small
corpora sits 0.0238 away.

``regular_toughness_bounds`` and ``algebraic_connectivity_cap`` serve only
the ``bounds`` report, which keeps their columns.  No check reads them:
on a regular graph Brouwer's d/lambda - 1 is ``spectral_toughness_term``,
and the cap is the gap bound of ``laplacian_toughness_terms``
rearranged, equality case included.

The mixing evaluator takes integers (an edge count, two volumes, 2m) and
the normalized deviation rather than a graph and vertex sets.  Its centre
and right side, which do not depend on the edge count, come from
``mixing_terms``, the one place of the formula.  ``mixing_scale`` gives
the per-volume factor a(nu) of a floor under the right side, which lets
the mixing check screen a pair of volumes, and their complement mirrors,
without a square root.

Five checks screen their spectra with no solve (``sweep``).  From a
locally maximal cut with ``cut`` edges (``spectra.local_max_cut``), xi >=
(2 cut - m) / m, as the top normalized eigenvalue is at least the Rayleigh
quotient 4 cut / 2m of D^{1/2} (1_S - 1_{V-S}); mu_1 >= F = max(dmax + 1,
4 cut / n), by Grone and Merris and the Rayleigh quotient of 1_S -
1_{V-S} on L; and on a connected graph that is not complete, mu_{n-1} <=
C = min(dmin, |S|) for the toughness certificate's cut S, as mu_{n-1} <=
kappa (Fiedler).  T(xi) = dmin (xi + 1) / (dmax xi) - 2 falls as xi grows
and M(xi) = 2m xi / (dmin (xi + 1)) grows; the product and gap bounds
fall as mu_1 rises and rise with mu_{n-1}; B = n (mu_1 - dmin) / mu_1
rises with mu_1.  Each bound at its floor or ceiling is a ratio of
integers, and tol and eps_eq are exact binary fractions, so each screen
compares exactly, and where it skips a solve the exact bound cannot reach
a record.

Division guards: the toughness terms divide by dmax and xi, and the degree
and Laplacian independence bounds by dmax + dmin and mu_1.  Each is read
only on a graph with an edge, where dmax >= 1, mu_1 >= 2 and the
eigenvalue trace gives xi >= 1/(n - 1), so none needs a guard.  Nor do
the regular bounds: degree d >= 1 gives mu_1 >= d + 1, so lambda >= 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import Graph, VertexSet, iter_bits

EPS_EQ = 1e-7
# puts xi a(nu_x) a(nu_y) (see mixing_scale) under every rounding of the rhs
MIXING_SCREEN_FACTOR = 1.0 - 2.0 ** -46
# times 2m, lowers that floor under every complement mirror's rhs
MIXING_MIRROR_MARGIN = 2.0 ** -49


def degree_toughness_terms(n: int, dmax: int, dmin: int) -> tuple[float, float]:
    """The two degree lower-bound terms on toughness: 1/dmax and
    (dmax + dmin)/(dmax * n).  Needs dmax >= 1."""
    return 1.0 / dmax, (dmax + dmin) / (dmax * n)


def spectral_toughness_term(dmax: int, dmin: int, xi: float) -> float:
    """The spectral lower bound dmin*(xi + 1)/(dmax*xi) - 2 on toughness,
    T(xi), which falls as xi grows.  Needs dmax >= 1 and xi > 0."""
    return dmin * (xi + 1.0) / (dmax * xi) - 2.0


def laplacian_toughness_terms(
    n: int, dmin: int, mu1: float, mu_second: float
) -> tuple[float, float]:
    """(product, gap) Laplacian lower bounds on toughness from n, dmin,
    mu_1 and mu_{n-1}: mu_1 mu_{n-1} / (n (mu_1 - dmin)) and
    mu_{n-1} / (mu_1 - mu_{n-1}).  A degenerate denominator (a complete
    graph, of infinite toughness) gives +inf."""
    d1 = n * (mu1 - dmin)
    d2 = mu1 - mu_second
    product = mu1 * mu_second / d1 if d1 > 1e-12 else math.inf
    gap = mu_second / d2 if d2 > 1e-12 else math.inf
    return product, gap


def regular_toughness_bounds(d: int, lam: float) -> tuple[float, float, float]:
    """(d/lambda - 1, d/lambda - 2, Alon's cubic-saving bound) for a
    d-regular graph with d >= 1 and adjacency deviation lambda.

    The first value is the Brouwer-conjecture bound, the second Brouwer's
    unconditional strict bound, the third (d^2/(d*lambda + lambda^2) - 1)/3.
    """
    return (d / lam - 1.0, d / lam - 2.0, (d * d / (d * lam + lam * lam) - 1.0) / 3.0)


def algebraic_connectivity_cap(mu1: float, tau: Fraction) -> float:
    """Upper bound tau/(tau + 1) * mu_1 on the algebraic connectivity, from
    the Laplacian radius mu_1 and the toughness tau."""
    t = float(tau)
    return t / (t + 1.0) * mu1


def mixing_terms(nu_x: int, nu_y: int, two_m: int, xi: float) -> tuple[float, float]:
    """(centre, rhs) of the mixing inequality for sets X, Y of
    volumes nu_x, nu_y in a graph of 2m = two_m and normalized deviation
    xi: the volume-expected edge count nu_x nu_y / 2m and xi times the
    variance-style envelope.  Neither depends on e(X, Y)."""
    if two_m < 1:
        raise ValueError("mixing needs at least one edge")
    nu_v = float(two_m)
    return (nu_x * nu_y / nu_v,
            xi * math.sqrt(nu_x * nu_y * (1.0 - nu_x / nu_v) * (1.0 - nu_y / nu_v)))


def mixing_scale(nu: int, two_m: int) -> float:
    """a(nu) = sqrt(nu (1 - nu / 2m)), so that xi a(nu_x) a(nu_y) is the
    rhs of mixing_terms up to rounding, in either orientation.

    a(nu) reads the rounded 1 - nu / 2m that mixing_terms reads, so only
    the roundings of the products and square roots separate them: at most
    8 unit roundoffs (2^-50) relative.  So xi * a(nu_x) *
    MIXING_SCREEN_FACTOR * a(nu_y), evaluated left to right, is at most
    the rhs of both orientations, with a 16-fold margin.

    As a(2m - nu) = a(nu), the same floor stands in exact arithmetic for
    the complements V - X and V - Y, whose blocks hold nu_y - e around the
    centre nu_y - nu_x nu_y / 2m, but their floats differ.  A mirror's
    rounded deviation exceeds the screened one by at most the roundings of
    two centres (each at most 2m) and two subtractions, under 3 u 2m with
    u = 2^-53.  Its rounded 1 - (2m - nu) / 2m is within u of nu / 2m but
    not within u nu / 2m, which for xi <= 1 and 2m <= 90 lowers its rhs by
    under 2.5 u 2m.  Adding tol rounds each side by at most u 2m wherever
    the comparison is not decided by size alone.  MIXING_MIRROR_MARGIN *
    2m = 16 u 2m covers the sum, under 8 u 2m.
    """
    return math.sqrt(nu * (1.0 - nu / float(two_m)))


def mixing_gap(
    e: int, nu_x: int, nu_y: int, two_m: int, xi: float
) -> tuple[float, float]:
    """Mixing inequality sides for sets X, Y with e = e(X, Y)
    (edge_boundary) and volumes nu_x, nu_y, as in mixing_terms: (deviation
    |e - centre| of e from its volume-expected value, rhs)."""
    centre, rhs = mixing_terms(nu_x, nu_y, two_m, xi)
    return abs(e - centre), rhs


def degree_independence_bound(n: int, dmax: int, dmin: int) -> float:
    """The degree-ratio bound n*dmax/(dmax + dmin) on the independence
    number.  Needs dmax >= 1."""
    return n * dmax / (dmax + dmin)


def mixing_independence_bound(m: int, dmin: int, xi: float) -> float:
    """The volume bound 2m*xi/(dmin*(xi + 1)) on the independence number,
    M(xi), which grows with xi; +inf when isolated vertices force
    dmin = 0.  Needs xi > -1."""
    return 2.0 * m * xi / (dmin * (xi + 1.0)) if dmin > 0 else math.inf


def laplacian_independence_bound(n: int, dmin: int, mu1: float) -> float:
    """The Laplacian bound n*(mu_1 - dmin)/mu_1 on the independence
    number.  Needs mu_1 > 0."""
    return n * (mu1 - dmin) / mu1


def semiregular_equality_check(g: Graph, ind: VertexSet, dmin: int, mu1: float) -> bool:
    """Check the equality structure of the Laplacian independence bound on
    ``g``, of minimum degree dmin and Laplacian radius mu_1.

    For an independent set attaining the bound, the bipartite subgraph of
    edges between the set and its complement must be biregular: every
    inside vertex of degree dmin, every outside vertex of degree
    mu_1 - dmin.  mu_1 - dmin must sit within 1e-6 of an integer.
    """
    for v in iter_bits(ind):
        if g.rows[v] & ind:
            raise ValueError("witness set is not independent")
    other_deg = mu1 - dmin
    rounded = round(other_deg)
    if abs(other_deg - rounded) > 1e-6:
        return False
    outside = g.full_mask & ~ind
    for v in iter_bits(ind):
        if (g.rows[v] & outside).bit_count() != dmin:
            return False
    for v in iter_bits(outside):
        if (g.rows[v] & ind).bit_count() != rounded:
            return False
    return True


def cut_partition_ratios(mu1: float, mu_second: float) -> tuple[float, float]:
    """Bounds tying a cut set S, and a grouping X | Y of the components it
    leaves with |X| <= |Y|, to the Laplacian radius mu_1 and the algebraic
    connectivity mu_{n-1}.

    Returns (cap on |X| over n, floor on |S| over |X|):
    |X| <= (mu_1 - mu_{n-1})/(2 mu_1) * n and
    |S| >= 2 mu_{n-1}/(mu_1 - mu_{n-1}) * |X|.
    """
    return (mu1 - mu_second) / (2.0 * mu1), 2.0 * mu_second / (mu1 - mu_second)

