"""Evaluators for every toughness / independence inequality, and the
per-graph report record.

All evaluators are pure formulas returning plain bound values; callers (the
sweep engine, the acceptance suite) compare them against the exact
invariants.  EPS_EQ is the default equality detection window (per-graph
report, equality verdict): 1e-7, wide enough for the eigensolver's residual
and tight enough to separate genuine equality cases on the small corpora.

Division guards: the normalized deviation xi cannot vanish for a graph with
an edge (the eigenvalue trace forbids it), but the spectral term guards the
division anyway and reports +inf, which downstream sweeps surface as an
anomaly instead of crashing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    Graph,
    VertexSet,
    components,
    degree_profile,
    edge_boundary,
    iter_bits,
    volume,
)
from .invariants import ToughnessCertificate
from .spectra import SpectralSummary

EPS_EQ = 1e-7


def toughness_lower_terms(
    g: Graph, summary: SpectralSummary
) -> tuple[float, float, float]:
    """The three lower-bound terms from max/min degree and the normalized
    deviation: 1/dmax, (dmax + dmin)/(dmax * n), and
    dmin*(xi + 1)/(dmax*xi) - 2."""
    dmax, dmin, _ = degree_profile(g)
    xi = summary.xi
    spectral = dmin * (xi + 1.0) / (dmax * xi) - 2.0 if xi > 0.0 else math.inf
    return (1.0 / dmax, (dmax + dmin) / (dmax * g.n), spectral)


def laplacian_toughness_bounds(
    g: Graph, summary: SpectralSummary
) -> tuple[float, float]:
    """The two Laplacian lower bounds on toughness.

    Product form: mu_1 * mu_{n-1} / (n * (mu_1 - dmin)).  Gap form:
    mu_{n-1} / (mu_1 - mu_{n-1}).  Degenerate denominators (complete
    graphs) yield +inf; such graphs have infinite toughness and are skipped
    by slack checks.
    """
    mu1 = summary.laplacian_radius
    mu_second = summary.algebraic_connectivity
    _, dmin, _ = degree_profile(g)
    d1 = g.n * (mu1 - dmin)
    d2 = mu1 - mu_second
    product = mu1 * mu_second / d1 if d1 > 1e-12 else math.inf
    gap = mu_second / d2 if d2 > 1e-12 else math.inf
    return product, gap


def regular_toughness_bounds(
    g: Graph, summary: SpectralSummary
) -> tuple[float, float, float] | None:
    """(d/lambda - 1, d/lambda - 2, Alon's cubic-saving bound) for regular
    graphs of degree >= 1, None otherwise.

    The first value is the Brouwer-conjecture bound, the second Brouwer's
    unconditional strict bound, the third (d^2/(d*lambda + lambda^2) - 1)/3.
    """
    dmax, dmin, _ = degree_profile(g)
    if dmax != dmin or dmax < 1 or summary.lambda_reg is None:
        return None
    d = dmax
    lam = summary.lambda_reg
    if lam <= 1e-12:
        return None  # only the edgeless regular graphs get here
    return (d / lam - 1.0, d / lam - 2.0, (d * d / (d * lam + lam * lam) - 1.0) / 3.0)


def algebraic_connectivity_cap(summary: SpectralSummary, tau: Fraction) -> float:
    """Upper bound tau/(tau + 1) * mu_1 on the algebraic connectivity."""
    t = float(tau)
    return t / (t + 1.0) * summary.laplacian_radius


def mixing_gap(
    g: Graph, x: VertexSet, y: VertexSet, summary: SpectralSummary
) -> tuple[float, float]:
    """Two-set mixing inequality sides: (deviation of e(X,Y) from its
    volume-expected value, xi times the variance-style envelope)."""
    if g.m < 1:
        raise ValueError("mixing needs at least one edge")
    nu_v = 2.0 * g.m
    nu_x = volume(g, x)
    nu_y = volume(g, y)
    lhs = abs(edge_boundary(g, x, y) - nu_x * nu_y / nu_v)
    rhs = summary.xi * math.sqrt(
        nu_x * nu_y * (1.0 - nu_x / nu_v) * (1.0 - nu_y / nu_v))
    return lhs, rhs


def mixing_gap_single(
    g: Graph, x: VertexSet, summary: SpectralSummary
) -> tuple[float, float]:
    """Single-set mixing inequality sides for X against itself."""
    if g.m < 1:
        raise ValueError("mixing needs at least one edge")
    nu_v = 2.0 * g.m
    nu_x = volume(g, x)
    lhs = abs(edge_boundary(g, x, x) - nu_x * nu_x / nu_v)
    rhs = summary.xi * nu_x * (1.0 - nu_x / nu_v)
    return lhs, rhs


def independence_upper_bounds(
    g: Graph, summary: SpectralSummary
) -> tuple[float, float, float]:
    """Three upper bounds on the independence number.

    degree ratio n*dmax/(dmax + dmin); volume bound 2m*xi/(dmin*(xi + 1))
    (+inf when isolated vertices force dmin = 0); Laplacian bound
    n*(mu_1 - dmin)/mu_1.
    """
    if g.m < 1:
        raise ValueError("independence bounds need at least one edge")
    dmax, dmin, _ = degree_profile(g)
    xi = summary.xi
    mu1 = summary.laplacian_radius
    degree_bound = g.n * dmax / (dmax + dmin)
    mixing_bound = (
        2.0 * g.m * xi / (dmin * (xi + 1.0)) if dmin > 0 else math.inf
    )
    laplacian_bound = g.n * (mu1 - dmin) / mu1
    return degree_bound, mixing_bound, laplacian_bound


def semiregular_equality_check(
    g: Graph, ind: VertexSet, summary: SpectralSummary
) -> bool:
    """Check the equality structure of the Laplacian independence bound.

    For an independent set attaining the bound, the bipartite subgraph of
    edges between the set and its complement must be biregular: every
    inside vertex of degree dmin, every outside vertex of degree
    mu_1 - dmin.  mu_1 - dmin must sit within 1e-6 of an integer.
    """
    for v in iter_bits(ind):
        if g.rows[v] & ind:
            raise ValueError("witness set is not independent")
    _, dmin, _ = degree_profile(g)
    other_deg = summary.laplacian_radius - dmin
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


def cut_partition_bounds(
    g: Graph, s: VertexSet, x: VertexSet, y: VertexSet, summary: SpectralSummary
) -> tuple[float, float]:
    """Bounds tying a cut set S and a two-sided grouping X | Y of what it
    separates to the Laplacian spectrum.

    Returns (cap on |X|, floor on |S|): |X| <= (mu_1 - mu_{n-1})/(2 mu_1) * n
    and |S| >= 2 mu_{n-1}/(mu_1 - mu_{n-1}) * |X|.  Validates that S is a
    cut set, that X and Y partition the rest with no crossing edges, and
    that |X| <= |Y|.
    """
    if x & y:
        raise ValueError("X and Y must be disjoint")
    if (s | x | y) != g.full_mask or s & (x | y):
        raise ValueError("S, X, Y must partition the vertex set")
    if not x or not y:
        raise ValueError("X and Y must both be nonempty")
    if components(g, s).omega < 2:
        raise ValueError("S is not a cut set")
    if edge_boundary(g, x, y):
        raise ValueError("X and Y must have no crossing edges")
    size_x = x.bit_count()
    if size_x > y.bit_count():
        raise ValueError("|X| must not exceed |Y|")
    cap_ratio, floor_ratio = cut_partition_ratios(summary)
    return cap_ratio * g.n, floor_ratio * size_x


def cut_partition_ratios(summary: SpectralSummary) -> tuple[float, float]:
    """(cap on |X| over n, floor on |S| over |X|) for cut_partition_bounds:
    (mu_1 - mu_{n-1})/(2 mu_1) and 2 mu_{n-1}/(mu_1 - mu_{n-1})."""
    mu1 = summary.laplacian_radius
    mu_second = summary.algebraic_connectivity
    return (mu1 - mu_second) / (2.0 * mu1), 2.0 * mu_second / (mu1 - mu_second)


# ---------------------------------------------------------------------------
# Per-graph report

CSV_COLUMNS = (
    "graph6",
    "n",
    "m",
    "delta",
    "Delta",
    "tau",
    "inv_max_degree",
    "degree_sum_term",
    "spectral_term",
    "lap_product_bound",
    "lap_gap_bound",
    "brouwer_bound",
    "brouwer_strict_bound",
    "alon_bound",
    "connectivity_cap",
    "equality_lap_product",
    "equality_lap_gap",
)


@dataclass(frozen=True)
class BoundReport:
    """Every bound value for one graph, with equality flags against exact tau."""

    graph6: str
    n: int
    m: int
    delta: int
    Delta: int
    tau: ToughnessCertificate
    inv_max_degree: float
    degree_sum_term: float
    spectral_term: float
    lap_product_bound: float
    lap_gap_bound: float
    brouwer_bound: float | None
    brouwer_strict_bound: float | None
    alon_bound: float | None
    connectivity_cap: float | None
    equality_lap_product: bool
    equality_lap_gap: bool

    def tau_text(self) -> str:
        return "inf" if self.tau.infinite else str(self.tau.value)

    def to_json_dict(self) -> dict:
        """Fields in CSV_COLUMNS order; tau as text, undefined or infinite
        bounds as None."""
        out = {}
        for col in CSV_COLUMNS:
            value = getattr(self, col)
            out[col] = None if isinstance(value, float) and not math.isfinite(value) else value
        out["tau"] = self.tau_text()
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv_row(self) -> list[str]:
        d = self.to_json_dict()
        out = []
        for col in CSV_COLUMNS:
            v = d[col]
            if v is None:
                out.append("")
            elif isinstance(v, bool):
                out.append("1" if v else "0")
            else:
                out.append(str(v))
        return out

