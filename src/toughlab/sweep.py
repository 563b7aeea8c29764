"""Per-graph facts, the check table, and the corpus sweep engine.

``GraphFacts`` computes each fact about one graph once: ``verify`` (through
``evaluate_graph``) and the ``bounds`` and ``extremal`` commands all read
it, so the Laplacian-bound equality and the join-structure decisions each
live in one place.  ``CHECKS`` is the one list of checks: it maps each
name to its check and to the ``GraphFacts`` flag that is its domain, and
the README describes each.  ``sweep``, the record loop of every command,
runs an evaluator (by default the enabled checks) on each graph6 record.

Violations record (graph6, check, lhs, rhs) where the failed comparison was
"lhs within tolerance of rhs".  ``sweep`` hands each line's records to its
caller in input order and keeps only counts, so the record stream is the
same at any parallelism degree.  One worker emits a line's records before
it reads the next line; a process pool, started only when the input has a
second 256-line chunk, keeps at most two chunks per worker in flight, so a
slow caller stops the reading and memory does not grow with the input.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, compress, islice
from operator import lshift, or_
from typing import Callable, Iterable, Iterator, NamedTuple

from .bounds import (
    EPS_EQ,
    MIXING_MIRROR_MARGIN,
    MIXING_SCREEN_FACTOR,
    XI_FLOOR_MARGIN,
    cut_partition_ratios,
    degree_independence_bound,
    degree_toughness_terms,
    laplacian_independence_bound,
    laplacian_toughness_terms,
    mixing_gap,
    mixing_independence_bound,
    mixing_scale,
    mixing_terms,
    semiregular_equality_check,
    spectral_toughness_term,
)
from .extremal import ExtremalWitness, detect_join_form
from .formats import FormatError, graph6_record, parse_graph6
from .graphs import Graph, component_masks, degree_profile, is_complete, is_connected
from .invariants import (
    IndependenceCertificate,
    ToughnessCertificate,
    independence_number,
    toughness,
)
from .spectra import ConvergenceError, SpectralSummary, xi_cut_floor

MIXING_MAX_N = 10


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

    The cheap facts are set on construction: the degrees, and the two
    check domains that ``CHECKS`` names: ``bounded`` marks the graphs the
    toughness bounds, the Laplacian bounds and their join equality case
    speak about, connected and not complete (so n >= 2); ``has_edge``
    marks the graphs the mixing and independence checks need, m >= 1.
    ``summary`` solves each spectrum on its first read.  The independence
    and toughness certificates, the floor on xi, the two Laplacian bounds
    and the join witness are computed on first read and kept; toughness
    reads the independence number for its stopping rule.
    """

    def __init__(self, g6: str, g: Graph) -> None:
        self.g6 = g6
        self.g = g
        self.connected = g.n >= 1 and is_connected(g)
        self.complete = g.n < 1 or is_complete(g)
        self.bounded = self.connected and not self.complete
        self.has_edge = g.m >= 1
        self.dmax, self.dmin, self.degrees = degree_profile(g) if g.n >= 1 else (0, 0, [])
        self.summary = SpectralSummary(g) if g.n >= 2 else None

    @cached_property
    def xi_floor(self) -> float:
        """A number the solved xi cannot be below, found without a solve:
        a cut's floor less XI_FLOOR_MARGIN (see ``bounds``).  Needs m >= 1."""
        return xi_cut_floor(self.g) - XI_FLOOR_MARGIN

    @cached_property
    def alpha_cert(self) -> IndependenceCertificate:
        """Exact independence number with a witness; needs n >= 1."""
        return independence_number(self.g)

    @cached_property
    def cert(self) -> ToughnessCertificate:
        """Exact toughness certificate; requires a connected graph."""
        return toughness(self.g, alpha=self.alpha_cert.alpha)

    @cached_property
    def tau(self) -> float:
        return self.cert.as_float()

    @cached_property
    def lap_bounds(self) -> tuple[float, float]:
        """(product, gap) Laplacian lower bounds on toughness; needs n >= 2."""
        s = self.summary
        return laplacian_toughness_terms(
            self.g.n, self.dmin, s.laplacian_radius, s.algebraic_connectivity)

    @cached_property
    def witness(self) -> ExtremalWitness | None:
        return detect_join_form(self.g, degrees=self.degrees)

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
    """Toughness over the largest of the three lower-bound terms.  The
    spectral term falls as xi grows, so xi is read only where the term at
    xi's floor could top the two degree terms (see ``bounds``)."""
    value = max(degree_toughness_terms(f.g.n, f.dmax, f.dmin))
    floor = f.xi_floor
    if floor <= 0.0 or spectral_toughness_term(f.dmax, f.dmin, floor) > value:
        value = max(value, spectral_toughness_term(f.dmax, f.dmin, f.summary.xi))
    return _lower_bound(f, "tough-lower", value, tol, eps_eq)


def _check_lap_product(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    return _lower_bound(f, "lap-product", f.lap_bounds[0], tol, eps_eq)


def _check_lap_gap(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    return _lower_bound(f, "lap-gap", f.lap_bounds[1], tol, eps_eq)


def _check_alpha_bounds(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    """Independence number under its three bounds, biregular at equality.
    The mixing bound grows with xi, so xi is read only where the bound at
    xi's floor leaves a violation possible (see ``bounds``)."""
    g, alpha, dmin, mu1 = f.g, f.alpha_cert.alpha, f.dmin, f.summary.laplacian_radius
    degree_b = degree_independence_bound(g.n, f.dmax, dmin)
    if alpha > degree_b + tol:
        yield Violation(f.g6, "alpha-degree", float(alpha), degree_b)
    floor = f.xi_floor
    if floor <= 0.0 or alpha > mixing_independence_bound(g.m, dmin, floor) + tol:
        mixing_b = mixing_independence_bound(g.m, dmin, f.summary.xi)
        if alpha > mixing_b + tol:
            yield Violation(f.g6, "alpha-mixing", float(alpha), mixing_b)
    laplacian_b = laplacian_independence_bound(g.n, dmin, mu1)
    if alpha > laplacian_b + tol:
        yield Violation(f.g6, "alpha-laplacian", float(alpha), laplacian_b)
    if abs(alpha - laplacian_b) <= eps_eq:
        if semiregular_equality_check(g, f.alpha_cert.witness, dmin, mu1):
            yield Interesting(f.g6, "alpha-laplacian-equality")
        else:
            yield Violation(f.g6, "alpha-semiregular", float(alpha), laplacian_b)


def _check_mixing(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    """The mixing inequality over every ordered subset pair.  At X = Y its
    right side is xi vol X (1 - vol X / 2m), the lemma's single-set form.

    A pair (x, y) has the integer code vol[y] * (2m + 1) + e(x, y), where
    e(x, y) counts the ordered adjacent pairs (u, v) with u in x and v in
    y; the code is exact because 0 <= e, vol <= 2m.  The code is additive
    in y, a sum of one weight deg(v) * (2m + 1) + |N(v) & x| per vertex v
    of y, so the codes of row x are the subset sums of n weights: a
    bitset built by n shift-ors, for all rows at once.  The rows' bitsets
    are or-ed into one code set per volume vol[x], so the distinct
    (e, vol[x], vol[y]) triples are found without a loop over pairs.

    In a code set, the codes of one vol[y] form one block of 2m + 1 bits.
    In a block the centre and the right side are fixed, and the rounded
    e - centre is monotone in the integer e, so the block can hold a
    violation only if its smallest or largest e does.

    Each block stands for up to eight.  As e(x, y) = e(y, x), the blocks
    (nu_x, nu_y) and (nu_y, nu_x) hold the same e.  As vol(V - x) =
    2m - vol x and e(V - x, y) = vol y - e(x, y), the block
    (2m - nu_x, nu_y) holds the nu_y - e, around the centre nu_y - centre
    and under the same right side, as a(2m - nu) = a(nu)
    (``mixing_scale``); and likewise for V - y.  So code sets are built
    only for the rows with vol[x] <= m, and only the blocks
    nu_x <= nu_y <= m are screened, against xi a(nu_x) a(nu_y) scaled by
    MIXING_SCREEN_FACTOR, a floor under the right side of both
    orientations, less MIXING_MIRROR_MARGIN * 2m for what the mirrors'
    own roundings can add: one multiplication per block.

    Only a block that fails the screen gets the exact test of each of its
    orientations (``mixing_terms``), each on its own block and floats, and
    only an orientation that fails that has each triple evaluated, once.
    Only when some triple violates are the pairs replayed in order: a row
    x whose volume has a violating triple gets its codes in y order, the
    subset sums of its weights doubled one vertex at a time, so the check
    holds O(n 2^n) codes at once.
    """
    g = f.g
    two_m, xi = 2 * g.m, f.summary.xi
    base = two_m + 1
    block_mask = (1 << base) - 1
    margin = MIXING_MIRROR_MARGIN * two_m
    subsets = range(g.full_mask + 1)
    vol = [0]
    for degree in f.degrees:
        vol += [nu + degree for nu in vol]
    # the rows whose code sets are built: each orbit has one with vol <= m
    low = [nu <= g.m for nu in vol]
    low_rows = list(compress(subsets, low))
    heads = [degree * base for degree in f.degrees]
    # sums[k] has bit c set iff some y gives the pair (low_rows[k], y) the code c
    sums = [1] * len(low_rows)
    for head, row in zip(heads, g.rows):
        weight = [head + (row & x).bit_count() for x in low_rows]
        sums = list(map(or_, sums, map(lshift, sums, weight)))
    codes_of = dict.fromkeys(compress(vol, low), 0)
    for nu, codes in zip(compress(vol, low), sums):
        codes_of[nu] |= codes
    vols = sorted(codes_of)
    # violating[vol[x]][code] = (lhs, rhs) of each violating triple
    violating: dict[int, dict[int, tuple[float, float]]] = {}
    nu_v = float(two_m)
    scale = [mixing_scale(nu, two_m) for nu in vols]
    for i, nu_x in enumerate(vols):
        codes = codes_of[nu_x]
        scale_x = xi * scale[i] * MIXING_SCREEN_FACTOR
        for nu_y, scale_y in zip(vols[i:], scale[i:]):
            # centre: that of mixing_terms, bit for bit in either orientation
            block, centre = codes >> nu_y * base & block_mask, nu_x * nu_y / nu_v
            if not _block_can_violate(block, centre, scale_x * scale_y - margin + tol):
                continue
            for (nu_a, nu_b), block_ab in _orientations(block, nu_x, nu_y, two_m).items():
                centre, rhs = mixing_terms(nu_a, nu_b, two_m, xi)
                if _block_can_violate(block_ab, centre, rhs + tol):
                    offset = nu_b * base
                    for e in range(block_ab.bit_length()):
                        if block_ab >> e & 1:
                            sides = mixing_gap(e, nu_a, nu_b, two_m, xi)
                            if sides[0] > sides[1] + tol:
                                violating.setdefault(nu_a, {})[offset + e] = sides
    if not violating:
        return
    for x in subsets:
        sides_of = violating.get(vol[x])
        if sides_of:
            row_codes = [0]  # row_codes[y] is the code of (x, y)
            for head, row in zip(heads, g.rows):
                w = head + (row & x).bit_count()
                row_codes += [c + w for c in row_codes]
            for c in row_codes:
                if c in sides_of:
                    yield Violation(f.g6, "mixing-pair", *sides_of[c])


def _block_can_violate(block: int, centre: float, limit: float) -> bool:
    """Some e set in the bitset ``block`` has |e - centre| > limit: true iff
    its smallest or largest e does, as the rounded e - centre is monotone."""
    return (abs((block & -block).bit_length() - 1 - centre) > limit
            or abs(block.bit_length() - 1 - centre) > limit)


def _orientations(block: int, nu_x: int, nu_y: int, two_m: int) -> dict[tuple[int, int], int]:
    """(vol X, vol Y) -> its block, for each block that swapping X and Y or
    taking the complement of either makes of the block of (nu_x, nu_y)."""
    far_x, far_y = two_m - nu_x, two_m - nu_y
    # {nu_y - e}, {nu_x - e} and {2m - nu_x - nu_y + e} for the e in block
    minus_y = int(f"{block:0{nu_y + 1}b}"[::-1], 2)
    minus_x = int(f"{block:0{nu_x + 1}b}"[::-1], 2)
    both = block << far_x - nu_y
    return {(nu_x, nu_y): block, (nu_y, nu_x): block,
            (far_x, nu_y): minus_y, (nu_y, far_x): minus_y,
            (nu_x, far_y): minus_x, (far_y, nu_x): minus_x,
            (far_x, far_y): both, (far_y, far_x): both}


def _check_cut_partition(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    """Size bounds for every cut set and two-sided grouping of its blocks.

    The four conditions read only |S| and the smaller side |X|, with
    1 <= |X| <= (n - |S|) / 2, and the two equality ones only when
    2 |X| < n - |S|.  So they are decided once per (|S|, |X|), and the cut
    walk only sums block sizes and looks the records up; it skips the masks
    of a size with no records before computing their components.  Sizes
    below twice the exact toughness have none: a set S that leaves two or
    more blocks has tau <= |S| / 2.
    """
    g = f.g
    cap_ratio, floor_ratio = cut_partition_ratios(
        f.summary.laplacian_radius, f.summary.algebraic_connectivity)
    cap = cap_ratio * g.n
    records: dict[tuple[int, int], list[Violation]] = {}
    for size_s in range(math.ceil(2 * f.cert.value), g.n - 1):
        for size_x in range(1, (g.n - size_s) // 2 + 1):
            floor = floor_ratio * size_x
            found = []
            if size_x > cap + tol:
                found.append(Violation(f.g6, "cut-partition-x", float(size_x), cap))
            if size_s < floor - tol:
                found.append(Violation(f.g6, "cut-partition-s", float(size_s), floor))
            if 2 * size_x < g.n - size_s:
                # strict grouping: equality in either bound forces equal sides
                if abs(size_x - cap) <= eps_eq:
                    found.append(Violation(f.g6, "cut-partition-x-equality", float(size_x), cap))
                if abs(size_s - floor) <= eps_eq:
                    found.append(Violation(f.g6, "cut-partition-s-equality", float(size_s), floor))
            if found:
                records[size_s, size_x] = found
    if not records:
        return
    cut_sizes = {size_s for size_s, _ in records}
    full = g.full_mask
    for s_mask in range(1, full):
        size_s = s_mask.bit_count()
        if size_s not in cut_sizes:
            continue
        sizes = [b.bit_count() for b in component_masks(g.rows, full & ~s_mask)]
        # picked[k]: the size of the side holding the blocks set in k; the
        # last block is never picked, so each grouping comes once
        picked = [0]
        for size in sizes[:-1]:
            picked += [p + size for p in picked]
        for p in picked[1:]:
            yield from records.get((size_s, min(p, g.n - size_s - p)), ())


def _check_extremal_iff(f: GraphFacts, tol: float, eps_eq: float) -> Iterator[Record]:
    """Numeric equality in both Laplacian bounds iff the join structure."""
    verdict = f.verdict(eps_eq)
    structural = float(verdict.structural)
    if verdict.product_equality != verdict.structural:
        yield Violation(f.g6, "extremal-iff-product", float(verdict.product_equality), structural)
    if verdict.gap_equality != verdict.structural:
        yield Violation(f.g6, "extremal-iff-gap", float(verdict.gap_equality), structural)


# name -> (check, the GraphFacts flag a graph needs for the check to run)
CHECKS: dict[str, tuple[Check, str]] = {
    "tough-lower": (_check_tough_lower, "bounded"),
    "lap-product": (_check_lap_product, "bounded"),
    "lap-gap": (_check_lap_gap, "bounded"),
    "alpha-bounds": (_check_alpha_bounds, "has_edge"),
    "mixing": (_check_mixing, "has_edge"),
    "cut-partition": (_check_cut_partition, "bounded"),
    "extremal-iff": (_check_extremal_iff, "bounded"),
}
CHECK_NAMES = tuple(CHECKS)
# mixing and cut-partition enumerate subset pairs / cut sets; they stay
# opt-in so plain `verify` runs scale past toy sizes
DEFAULT_CHECKS = tuple(name for name in CHECKS if name not in ("mixing", "cut-partition"))


@dataclass(frozen=True)
class SweepConfig:
    checks: tuple[str, ...] = DEFAULT_CHECKS
    tol: float = 1e-7
    eps_eq: float = EPS_EQ
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
        if not math.isfinite(self.tol):
            raise SweepConfigError(f"tol must be finite, got {self.tol}")
        if not 0.0 <= self.eps_eq < math.inf:
            raise SweepConfigError(f"eps_eq must be finite and >= 0, got {self.eps_eq}")

    def evaluate(self, g6: str, g: Graph) -> list[Record]:
        return evaluate_graph(g6, g, self.checks, self.tol, self.eps_eq)


@dataclass(frozen=True)
class SweepReport:
    """What a sweep did: the records themselves went to its ``emit``."""

    corpus_id: str
    graphs_checked: int
    violations: int
    interesting: int
    diagnostics: int
    wall_time: float

    def summary_line(self) -> str:
        return json.dumps({**asdict(self), "wall_time": round(self.wall_time, 3)})


def evaluate_graph(
    g6: str, g: Graph, checks: Iterable[str], tol: float, eps_eq: float
) -> list[Record]:
    """Run the enabled checks on one graph; records come in ``CHECKS`` order.

    This is the one place a check is skipped: a check runs only on a graph
    whose ``GraphFacts`` flag named beside it in ``CHECKS`` is true, so
    the toughness, Laplacian, cut-partition and join checks skip
    disconnected and complete graphs, and the mixing and independence
    checks skip edgeless ones.  A check body may still return no record on
    a value, as ``cut-partition`` does, walking no cut set, when no
    (|S|, |X|) has a record.  Each spectrum is solved only if a check
    reads it.  A graph the checks cannot evaluate raises:
    SweepConfigError for mixing above MIXING_MAX_N vertices, and
    ConvergenceError from the eigensolver; ``sweep`` turns either into a
    diagnostic for its line.
    """
    checks = set(checks)
    if "mixing" in checks and g.n > MIXING_MAX_N:
        raise SweepConfigError(
            f"mixing check caps at n = {MIXING_MAX_N} (subset-pair explosion), got n = {g.n}")
    facts = GraphFacts(g6, g)
    records: list[Record] = []
    for name, (check, needs) in CHECKS.items():
        if name in checks and getattr(facts, needs):
            records += check(facts, tol, eps_eq)
    return records


def _evaluate_line(evaluate: Callable, item: tuple[int, str]) -> list:
    """The records of one (line number, text) item.  A line that does not
    parse, or whose graph ``evaluate`` cannot evaluate, yields its
    diagnostic alone."""
    lineno, line = item
    try:
        return evaluate(graph6_record(line), parse_graph6(line))
    except (FormatError, SweepConfigError, ConvergenceError) as exc:
        return [Diagnostic(lineno, str(exc))]


def _evaluate_chunk(evaluate: Callable, chunk: list) -> list[list]:
    """``_evaluate_line`` on each line of a chunk: a pool worker's task."""
    return [_evaluate_line(evaluate, item) for item in chunk]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def get_context():
    """The default multiprocessing context.

    ``multiprocessing`` is imported here, when a pool starts, and not with
    this module: most sweeps and every other command start no pool.
    """
    import multiprocessing

    return multiprocessing.get_context()


def _in_order(pool, payload: Iterable, depth: int) -> Iterator[list[list]]:
    """``_evaluate_chunk`` on each (evaluate, chunk) of ``payload`` on ``pool``,
    results in input order, with at most ``depth`` chunks not yet taken.

    Unlike ``Pool.imap``, which keeps collecting finished chunks while the
    caller is busy, this bounds the records held in the parent: a slow
    ``emit`` stops the reading of more input.
    """
    pending: deque = deque()
    for args in payload:
        pending.append(pool.apply_async(_evaluate_chunk, args))
        if len(pending) == depth:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


def sweep(config: SweepConfig, lines: Iterable[tuple[int, str]],
          emit: Callable, evaluate: Callable[[str, Graph], list] | None = None) -> SweepReport:
    """Run ``evaluate(g6, g)``, by default the enabled checks, on every
    graph6 record in ``lines``, which yields (line number, text).

    Each record and diagnostic goes to ``emit`` in input order at any
    ``jobs``; with one worker, a line's records go out before the next line
    is read.  A pool of ``min(jobs, usable CPUs)`` workers takes 256-line
    chunks, starts only when there are at least two, and holds at most two
    per worker; ``evaluate`` must pickle for it.  Malformed records, and
    graphs ``evaluate`` cannot evaluate (see ``evaluate_graph``), become
    diagnostics and the sweep continues, unless strict mode is on: then the
    records of the lines before the first such line are emitted and
    FormatError is raised for that line.  The report holds only counts.
    """
    config.validate()
    start = time.perf_counter()
    evaluate = evaluate or config.evaluate
    nonblank = 0
    counts: Counter[type] = Counter()

    items = ((lineno, text) for lineno, text in lines if text.strip())
    workers = min(config.jobs, _usable_cpus()) if config.jobs > 1 else 1
    ahead: list = []
    if workers > 1:
        chunks = iter(lambda: list(islice(items, 256)), [])
        # a pool does not pay for one chunk: read two before starting one
        ahead = list(islice(chunks, 2))
        if len(ahead) < 2:
            workers = 1
    with get_context().Pool(workers) if workers > 1 else nullcontext() as pool:
        if workers > 1:
            payload = ((evaluate, chunk) for chunk in chain(ahead, chunks))
            results = chain.from_iterable(_in_order(pool, payload, 2 * workers))
        else:
            results = (_evaluate_line(evaluate, item) for item in chain(*ahead, items))
        for records in results:
            nonblank += 1
            for record in records:
                if config.strict and type(record) is Diagnostic:
                    raise FormatError(f"line {record.lineno}: {record.message}")
                counts[type(record)] += 1
                emit(record)

    return SweepReport(
        corpus_id=config.corpus_id,
        # each line yields its records or exactly one diagnostic
        graphs_checked=nonblank - counts[Diagnostic],
        violations=counts[Violation],
        interesting=counts[Interesting],
        diagnostics=counts[Diagnostic],
        wall_time=time.perf_counter() - start,
    )
