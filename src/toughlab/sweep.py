"""Per-graph facts, the check table, and the corpus sweep engine.

``GraphFacts`` computes each fact about one graph once: ``verify`` (through
``evaluate_graph``), ``bound_report`` and ``equality_case_verdict`` all read
it, so the Laplacian-bound equality and the join-structure decisions each
live in one place.  ``CHECKS`` is the one list of check names; the README
describes each.  ``sweep`` runs the enabled checks over a stream of graph6
records, in parallel if asked.

Violations record (graph6, check, lhs, rhs) where the failed comparison was
"lhs within tolerance of rhs".  Results are aggregated in input order and
sorted, so reports are byte-identical across parallelism degrees apart from
wall_time.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from multiprocessing import get_context
from typing import Callable, Iterable, Iterator, NamedTuple

from .bounds import (
    EPS_EQ,
    BoundReport,
    algebraic_connectivity_cap,
    cut_partition_ratios,
    independence_upper_bounds,
    laplacian_toughness_bounds,
    mixing_gap,
    mixing_gap_single,
    regular_toughness_bounds,
    semiregular_equality_check,
    toughness_lower_terms,
)
from .extremal import ExtremalWitness, detect_join_form
from .formats import FormatError, parse_graph6, write_graph6
from .graphs import Graph, component_masks, degree_profile, is_complete, is_connected
from .invariants import ToughnessCertificate, independence_number, toughness
from .spectra import spectral_summary

MIXING_MAX_N = 6


class SweepConfigError(ValueError):
    """Invalid sweep configuration."""


class Violation(NamedTuple):
    graph6: str
    check: str
    lhs: float
    rhs: float


class Interesting(NamedTuple):
    graph6: str
    tag: str


class Diagnostic(NamedTuple):
    lineno: int
    message: str


class EqualityVerdict(NamedTuple):
    product_equality: bool
    gap_equality: bool
    structural: bool
    consistent: bool


class GraphFacts:
    """What the checks and reports read about one graph, each computed once.

    The cheap facts are set on construction.  ``bounded`` marks the graphs
    the toughness bounds speak about: connected and not complete (so
    n >= 2).  The toughness certificate, the two Laplacian bounds and the
    join witness are computed on first read and kept.
    """

    def __init__(self, g6: str, g: Graph) -> None:
        self.g6 = g6
        self.g = g
        self.connected = g.n >= 1 and is_connected(g)
        self.complete = g.n < 1 or is_complete(g)
        self.summary = spectral_summary(g) if g.n >= 2 else None
        self.bounded = self.connected and not self.complete

    @cached_property
    def cert(self) -> ToughnessCertificate:
        """Exact toughness certificate; requires a connected graph."""
        return toughness(self.g)

    @cached_property
    def tau(self) -> float:
        return self.cert.as_float()

    @cached_property
    def lap_bounds(self) -> tuple[float, float]:
        """(product, gap) Laplacian lower bounds on toughness; needs n >= 2."""
        return laplacian_toughness_bounds(self.g, self.summary)

    @cached_property
    def witness(self) -> ExtremalWitness | None:
        return detect_join_form(self.g)

    @cached_property
    def structural(self) -> bool:
        """G is a join of the extremal family, eigenvalue floor included."""
        return self.witness is not None and self.witness.eigen_condition_ok

    def at_tau(self, bound: float, eps_eq: float) -> bool:
        """Toughness sits at ``bound`` within the equality window."""
        return abs(self.tau - bound) <= eps_eq

    def lap_equalities(self, eps_eq: float) -> tuple[bool, bool]:
        """Toughness at the (product, gap) Laplacian bounds."""
        product, gap = self.lap_bounds
        return self.at_tau(product, eps_eq), self.at_tau(gap, eps_eq)

    def verdict(self, eps_eq: float = EPS_EQ) -> EqualityVerdict:
        """Numeric equality in both Laplacian bounds against join structure."""
        product, gap = self.lap_equalities(eps_eq)
        structural = self.structural
        return EqualityVerdict(product, gap, structural,
                               product == structural and gap == structural)


Record = Violation | Interesting
Check = Callable[[GraphFacts, float, float], Iterable[Record]]


def _lower_bound(f: GraphFacts, name: str, value: float, tol: float,
                 eps_eq: float) -> Iterator[Record]:
    """Toughness dominates ``value``; equality is worth a record."""
    if value > f.tau + tol:
        yield Violation(f.g6, name, value, f.tau)
    elif f.at_tau(value, eps_eq):
        yield Interesting(f.g6, f"{name}-equality")


def _check_tough_lower(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    if f.bounded:
        yield from _lower_bound(
            f, "tough-lower", max(toughness_lower_terms(f.g, f.summary)), tol, eps_eq)


def _check_lap_product(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    if f.bounded:
        yield from _lower_bound(f, "lap-product", f.lap_bounds[0], tol, eps_eq)


def _check_lap_gap(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    if f.bounded:
        yield from _lower_bound(f, "lap-gap", f.lap_bounds[1], tol, eps_eq)


def _check_conn_cap(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    """Algebraic connectivity under the toughness cap, equal iff join structure."""
    if not f.bounded:
        return
    cap = algebraic_connectivity_cap(f.summary, f.cert.value)
    mu_second = f.summary.algebraic_connectivity
    if mu_second > cap + tol:
        yield Violation(f.g6, "conn-cap", mu_second, cap)
    equal = abs(mu_second - cap) <= eps_eq
    if equal != f.structural:
        yield Violation(f.g6, "conn-cap-structure", float(equal), float(f.structural))
    if equal:
        yield Interesting(f.g6, "conn-cap-equality")


def _check_regular(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    reg = regular_toughness_bounds(f.g, f.summary) if f.bounded else None
    if reg is None:
        return
    brouwer, strict_bound, alon = reg
    if brouwer > f.tau + tol:
        yield Violation(f.g6, "regular-brouwer", brouwer, f.tau)
    if f.tau <= strict_bound - tol:
        yield Violation(f.g6, "regular-brouwer-strict", strict_bound, f.tau)
    if f.tau <= alon - tol:
        yield Violation(f.g6, "regular-alon", alon, f.tau)


def _check_alpha_bounds(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    """Independence number under its three bounds, biregular at equality."""
    if f.g.m < 1:
        return
    alpha_cert = independence_number(f.g)
    alpha = alpha_cert.alpha
    degree_b, mixing_b, laplacian_b = independence_upper_bounds(f.g, f.summary)
    for name, value in (
        ("alpha-degree", degree_b),
        ("alpha-mixing", mixing_b),
        ("alpha-laplacian", laplacian_b),
    ):
        if alpha > value + tol:
            yield Violation(f.g6, name, float(alpha), value)
    if abs(alpha - laplacian_b) <= eps_eq:
        if semiregular_equality_check(f.g, alpha_cert.witness, f.summary):
            yield Interesting(f.g6, "alpha-laplacian-equality")
        else:
            yield Violation(f.g6, "alpha-semiregular", float(alpha), laplacian_b)


def _check_mixing(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    """Both mixing inequalities over every subset pair."""
    g, summary = f.g, f.summary
    if g.m < 1:
        return
    full = g.full_mask
    for x in range(full + 1):
        lhs, rhs = mixing_gap_single(g, x, summary)
        if lhs > rhs + tol:
            yield Violation(f.g6, "mixing-single", lhs, rhs)
        for y in range(full + 1):
            lhs, rhs = mixing_gap(g, x, y, summary)
            if lhs > rhs + tol:
                yield Violation(f.g6, "mixing-pair", lhs, rhs)


def _check_cut_partition(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    """Size bounds for every cut set and two-sided grouping of its blocks."""
    if not f.bounded:
        return
    g = f.g
    cap_ratio, floor_ratio = cut_partition_ratios(f.summary)
    cap = cap_ratio * g.n
    full = g.full_mask
    for s_mask in range(1, full):
        sizes = [b.bit_count() for b in component_masks(g.rows, full & ~s_mask)]
        if len(sizes) < 2:
            continue
        size_s = s_mask.bit_count()
        # unordered groupings of blocks into two nonempty sides
        for pick in range(1, 1 << (len(sizes) - 1)):
            picked = sum(size for i, size in enumerate(sizes) if pick >> i & 1)
            size_x, size_y = sorted((picked, g.n - size_s - picked))
            floor = floor_ratio * size_x
            if size_x > cap + tol:
                yield Violation(f.g6, "cut-partition-x", float(size_x), cap)
            if size_s < floor - tol:
                yield Violation(f.g6, "cut-partition-s", float(size_s), floor)
            if size_x != size_y:
                # strict grouping: equality in either bound forces equal sides
                if abs(size_x - cap) <= eps_eq:
                    yield Violation(f.g6, "cut-partition-x-equality", float(size_x), cap)
                if abs(size_s - floor) <= eps_eq:
                    yield Violation(f.g6, "cut-partition-s-equality", float(size_s), floor)


def _check_extremal_iff(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    """Numeric equality in both Laplacian bounds iff the join structure."""
    if not f.bounded:
        return
    verdict = f.verdict(eps_eq)
    structural = float(verdict.structural)
    if verdict.product_equality != verdict.structural:
        yield Violation(f.g6, "extremal-iff-product", float(verdict.product_equality), structural)
    if verdict.gap_equality != verdict.structural:
        yield Violation(f.g6, "extremal-iff-gap", float(verdict.gap_equality), structural)


CHECKS: dict[str, Check] = {
    "tough-lower": _check_tough_lower,
    "lap-product": _check_lap_product,
    "lap-gap": _check_lap_gap,
    "conn-cap": _check_conn_cap,
    "regular": _check_regular,
    "alpha-bounds": _check_alpha_bounds,
    "mixing": _check_mixing,
    "cut-partition": _check_cut_partition,
    "extremal-iff": _check_extremal_iff,
}
CHECK_NAMES = tuple(CHECKS)
# mixing and cut-partition enumerate subset pairs / cut sets; they stay
# opt-in so plain `verify` runs scale past toy sizes
DEFAULT_CHECKS = tuple(name for name in CHECKS if name not in ("mixing", "cut-partition"))


@dataclass(frozen=True)
class SweepConfig:
    checks: tuple[str, ...] = DEFAULT_CHECKS
    tol: float = 1e-7
    eps_eq: float = 1e-7
    jobs: int = 1
    strict: bool = False
    corpus_id: str = "<corpus>"

    def validate(self) -> None:
        if not self.checks:
            raise SweepConfigError("at least one check must be enabled")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise SweepConfigError(f"unknown checks: {', '.join(unknown)}")
        if self.jobs < 1:
            raise SweepConfigError("jobs must be >= 1")


@dataclass(frozen=True)
class SweepReport:
    corpus_id: str
    graphs_checked: int
    violations: tuple[Violation, ...]
    interesting: tuple[Interesting, ...]
    diagnostics: tuple[Diagnostic, ...]
    wall_time: float

    def records_dict(self) -> dict:
        """Deterministic portion of the report (excludes wall_time)."""
        return {
            "corpus_id": self.corpus_id,
            "graphs_checked": self.graphs_checked,
            "violations": [list(v) for v in self.violations],
            "interesting": [list(i) for i in self.interesting],
            "diagnostics": [list(d) for d in self.diagnostics],
        }

    def summary_line(self) -> str:
        return json.dumps({
            "corpus_id": self.corpus_id,
            "graphs_checked": self.graphs_checked,
            "violations": len(self.violations),
            "interesting": len(self.interesting),
            "diagnostics": len(self.diagnostics),
            "wall_time": round(self.wall_time, 3),
        })


def evaluate_graph(
    g6: str, g: Graph, checks: Iterable[str], tol: float, eps_eq: float
) -> tuple[list[Violation], list[Interesting]]:
    """Run the enabled checks on one graph.

    Checks whose preconditions the graph does not meet (disconnected or
    complete input for toughness checks, edgeless graphs for mixing) are
    skipped, not failed.
    """
    checks = set(checks)
    if "mixing" in checks and g.n > MIXING_MAX_N:
        raise SweepConfigError(
            f"mixing check caps at n = {MIXING_MAX_N} (subset-pair explosion), got n = {g.n}")
    facts = GraphFacts(g6, g)
    violations: list[Violation] = []
    interesting: list[Interesting] = []
    for name, check in CHECKS.items():
        if name in checks:
            for record in check(facts, tol, eps_eq):
                if type(record) is Violation:
                    violations.append(record)
                else:
                    interesting.append(record)
    return violations, interesting


def bound_report(g: Graph) -> BoundReport:
    """Assemble the full per-graph bound report. Requires a connected graph."""
    facts = GraphFacts(write_graph6(g), g)
    if not facts.connected:
        raise ValueError("bound reports require a connected graph")
    cert = facts.cert
    dmax, dmin, _ = degree_profile(g)
    summary = facts.summary
    if summary is None:
        # single vertex: complete by convention, nothing to bound
        return BoundReport(
            facts.g6, g.n, g.m, dmin, dmax, cert,
            math.inf, math.inf, math.inf, math.inf, math.inf,
            None, None, None, None, False, False)
    terms = toughness_lower_terms(g, summary)
    lap_product, lap_gap = facts.lap_bounds
    reg = regular_toughness_bounds(g, summary)
    if facts.bounded:
        cap = algebraic_connectivity_cap(summary, cert.value)
        eq_product, eq_gap = facts.lap_equalities(EPS_EQ)
    else:
        cap, eq_product, eq_gap = None, False, False
    return BoundReport(
        graph6=facts.g6,
        n=g.n,
        m=g.m,
        delta=dmin,
        Delta=dmax,
        tau=cert,
        inv_max_degree=terms[0],
        degree_sum_term=terms[1],
        spectral_term=terms[2],
        lap_product_bound=lap_product,
        lap_gap_bound=lap_gap,
        brouwer_bound=reg[0] if reg else None,
        brouwer_strict_bound=reg[1] if reg else None,
        alon_bound=reg[2] if reg else None,
        connectivity_cap=cap,
        equality_lap_product=eq_product,
        equality_lap_gap=eq_gap,
    )


def equality_case_verdict(g: Graph) -> EqualityVerdict:
    """Compare numeric equality in the two Laplacian toughness bounds with
    the structural join-decomposition test.  Requires connected non-complete
    input."""
    facts = GraphFacts(write_graph6(g), g)
    if not facts.connected:
        raise ValueError("equality verdict requires a connected graph")
    if facts.complete:
        raise ValueError("equality verdict requires a non-complete graph")
    return facts.verdict()


def _evaluate_chunk(args) -> tuple[int, list[Violation], list[Interesting], list[Diagnostic]]:
    chunk, checks, tol, eps_eq = args
    count = 0
    violations: list[Violation] = []
    interesting: list[Interesting] = []
    diagnostics: list[Diagnostic] = []
    for lineno, line in chunk:
        try:
            g = parse_graph6(line)
        except FormatError as exc:
            diagnostics.append(Diagnostic(lineno, str(exc)))
            continue
        g6 = line.strip()
        v, i = evaluate_graph(g6, g, checks, tol, eps_eq)
        violations += v
        interesting += i
        count += 1
    return count, violations, interesting, diagnostics


def _chunked(lines: Iterable[tuple[int, str]], size: int) -> Iterator[list[tuple[int, str]]]:
    chunk: list[tuple[int, str]] = []
    for item in lines:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def sweep(config: SweepConfig, lines: Iterable[tuple[int, str]]) -> SweepReport:
    """Evaluate every graph6 record in ``lines`` against the enabled checks.

    ``lines`` yields (line number, text).  Malformed records become
    diagnostics and the sweep continues, unless strict mode is on, in which
    case the first one, by line number, raises FormatError.  Records are
    sorted before the report is assembled, so the outcome does not depend on
    worker scheduling.
    """
    config.validate()
    start = time.perf_counter()
    count = 0
    violations: list[Violation] = []
    interesting: list[Interesting] = []
    diagnostics: list[Diagnostic] = []

    nonblank = ((lineno, text) for lineno, text in lines if text.strip())
    payload = ((chunk, config.checks, config.tol, config.eps_eq)
               for chunk in _chunked(nonblank, 256))
    with ExitStack() as stack:
        run = map
        if config.jobs > 1:
            # imap keeps chunk order, so strict mode stops at the lowest bad line
            run = stack.enter_context(get_context().Pool(config.jobs)).imap
        for c, v, i, d in run(_evaluate_chunk, payload):
            count += c
            violations += v
            interesting += i
            diagnostics += d
            if config.strict and d:
                raise FormatError(f"line {d[0].lineno}: {d[0].message}")

    violations.sort()
    interesting.sort()
    diagnostics.sort()
    return SweepReport(
        corpus_id=config.corpus_id,
        graphs_checked=count,
        violations=tuple(violations),
        interesting=tuple(interesting),
        diagnostics=tuple(diagnostics),
        wall_time=time.perf_counter() - start,
    )
