"""Bound evaluators against hand-derived and oracle-derived values."""

import importlib
import io
import itertools
import json
import math
import os
import random
import struct
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import toughlab
from toughlab import (
    SpectralSummary,
    algebraic_connectivity_cap,
    complete_graph,
    degree_independence_bound,
    degree_toughness_terms,
    independence_number,
    laplacian_independence_bound,
    mask_of,
    mixing_gap,
    mixing_independence_bound,
    regular_toughness_bounds,
    semiregular_equality_check,
    spectral_toughness_term,
)
from toughlab.bounds import (
    MIXING_MIRROR_MARGIN,
    MIXING_SCREEN_FACTOR,
    cut_partition_ratios,
    mixing_scale,
    mixing_terms,
)
from toughlab.cli import BOUNDS_COLUMNS, main
from toughlab.formats import enumerate_labeled, write_graph6
from toughlab.graphs import Graph, component_masks, cycle_graph
from toughlab.sweep import CHECK_NAMES, DEFAULT_CHECKS, GraphFacts, Violation, evaluate_graph

from _oracles import component_sets, edge_boundary, to_adj, volume


def facts_of(g):
    return GraphFacts(write_graph6(g), g)


def lower_terms(f):
    """The three toughness lower-bound terms, read as the ``bounds`` report
    reads them: the degrees from ``GraphFacts``, then xi."""
    return (*degree_toughness_terms(f.g.n, f.dmax, f.dmin),
            spectral_toughness_term(f.dmax, f.dmin, f.summary.xi))


def regular_bounds(f):
    """The regular bounds of a regular graph of degree >= 1."""
    return regular_toughness_bounds(f.dmax, f.summary.lambda_reg)


def test_lower_terms(petersen, p3, c4):
    terms = lower_terms(facts_of(petersen))
    assert abs(terms[0] - 1 / 3) <= 1e-9
    assert abs(terms[1] - 0.2) <= 1e-9
    assert abs(terms[2] - 0.5) <= 1e-8
    terms = lower_terms(facts_of(p3))
    assert abs(terms[0] - 0.5) <= 1e-9
    assert abs(terms[1] - 0.5) <= 1e-9
    assert abs(terms[2] + 1.0) <= 1e-8
    terms = lower_terms(facts_of(c4))
    assert abs(terms[2]) <= 1e-8


def test_laplacian_bounds(c4, claw, petersen):
    product, gap = facts_of(c4).lap_bounds
    assert abs(product - 1) <= 1e-8 and abs(gap - 1) <= 1e-8
    product, gap = facts_of(claw).lap_bounds
    assert abs(product - 1 / 3) <= 1e-8 and abs(gap - 1 / 3) <= 1e-8
    product, gap = facts_of(petersen).lap_bounds
    assert abs(product - 0.5) <= 1e-8 and abs(gap - 2 / 3) <= 1e-8


def test_regular_bounds(petersen, k4, c4, claw):
    got = regular_bounds(facts_of(petersen))
    assert abs(got[0] - 0.5) <= 1e-8
    assert abs(got[1] + 0.5) <= 1e-8
    assert abs(got[2] + 1 / 30) <= 1e-8
    got = regular_bounds(facts_of(k4))
    # lambda = 1: d/lambda - 1 = 2, strict form 1, saving form 5/12
    assert abs(got[0] - 2) <= 1e-8 and abs(got[1] - 1) <= 1e-8
    assert abs(got[2] - 5 / 12) <= 1e-8
    got = regular_bounds(facts_of(c4))
    assert abs(got[0]) <= 1e-8 and abs(got[1] + 1) <= 1e-8 and abs(got[2] + 1 / 6) <= 1e-8
    # the claw is not regular, so the report leaves its regular columns empty
    assert SpectralSummary(claw).lambda_reg is None


def test_regular_records_match_the_bounds_at_negative_tolerances(petersen):
    # verify runs no regular check: on a d-regular graph xi = lambda / d, so
    # Brouwer's d/lambda - 1 is tough-lower's spectral term.  Over every
    # connected non-complete regular labeled graph with 3 <= n <= 6 the check
    # bounds tau by the larger of Brouwer's bound, 1/d and 2/n, up to
    # rounding, and at each tol its records are that bound compared with tau
    # in the check's own direction, bit for bit
    corpus = [GraphFacts(write_graph6(g), g) for n in range(3, 7) for g in enumerate_labeled(n)
              if len({row.bit_count() for row in g.rows}) == 1]
    corpus = [f for f in corpus if f.bounded]
    assert len(corpus) == 160
    fired = Counter()
    for tol in (-1.0, -2.0, -3.0):
        for f in corpus:
            brouwer = regular_bounds(f)[0]
            d = f.g.rows[0].bit_count()
            bound = max(lower_terms(f))
            assert abs(bound - max(1.0 / d, 2.0 / f.g.n, brouwer)) <= 1e-12, f.g6
            want = [("tough-lower", bound.hex(), f.tau.hex())] if bound > f.tau + tol else []
            got = [(r.check, r.lhs.hex(), r.rhs.hex())
                   for r in evaluate_graph(f.g6, f.g, ("tough-lower",), tol, 1e-7)
                   if type(r) is Violation]
            assert got == want, (f.g6, tol)
            fired.update(tol for _ in got)
    # tau <= 2 on this corpus, so from tol = -2 on every graph has a record
    assert 0 < fired[-1.0] < fired[-2.0] == fired[-3.0] == len(corpus)
    for f in corpus + [GraphFacts(write_graph6(g), g)
                       for g in (petersen, cycle_graph(9), cycle_graph(12))]:
        assert abs(regular_bounds(f)[0] - lower_terms(f)[2]) <= 1e-12, f.g6


def test_connectivity_cap(petersen, c4, claw):
    s = SpectralSummary(petersen)
    cap = algebraic_connectivity_cap(s.laplacian_radius, Fraction(4, 3))
    assert abs(cap - 20 / 7) <= 1e-8 and s.algebraic_connectivity <= cap + 1e-7
    s = SpectralSummary(c4)
    cap = algebraic_connectivity_cap(s.laplacian_radius, Fraction(1))
    assert abs(cap - 2) <= 1e-8 and abs(s.algebraic_connectivity - cap) <= 1e-7
    s = SpectralSummary(claw)
    cap = algebraic_connectivity_cap(s.laplacian_radius, Fraction(1, 3))
    assert abs(cap - 1) <= 1e-8 and abs(s.algebraic_connectivity - cap) <= 1e-7


def test_mixing_values(c4, petersen):
    xi = SpectralSummary(c4).xi
    x, y, full = 1 << 0, 1 << 2, c4.full_mask
    lhs, rhs = mixing_gap(edge_boundary(c4, x, y), volume(c4, x), volume(c4, y), 2 * c4.m, xi)
    assert abs(lhs - 0.5) <= 1e-9 and abs(rhs - 1.5) <= 1e-8
    lhs, rhs = mixing_gap(edge_boundary(c4, full, full), volume(c4, full), volume(c4, full),
                          2 * c4.m, xi)
    assert abs(lhs) <= 1e-9 and abs(rhs) <= 1e-9
    x = mask_of([0, 1, 2, 3])
    lhs, rhs = mixing_gap(edge_boundary(petersen, x, x), volume(petersen, x),
                          volume(petersen, x), 2 * petersen.m, SpectralSummary(petersen).xi)
    assert abs(lhs - 4.8) <= 1e-8 and abs(rhs - 4.8) <= 1e-8


def test_mixing_requires_an_edge():
    from toughlab import empty_graph
    g = empty_graph(3)
    xi = SpectralSummary(g).xi
    with pytest.raises(ValueError):
        mixing_gap(edge_boundary(g, 1, 2), volume(g, 1), volume(g, 2), 2 * g.m, xi)
    with pytest.raises(ValueError):
        mixing_gap(edge_boundary(g, 1, 1), volume(g, 1), volume(g, 1), 2 * g.m, xi)


def test_mixing_screen_floor_is_under_the_rhs_of_both_orientations():
    # every 2m up to 90 (n <= 10) and every pair of volumes it allows; the
    # floor is evaluated as the mixing check evaluates it
    rng = random.Random(17)
    xis = [1.0, 0.5, 1 / 3, 2.0 ** -20, *(rng.random() for _ in range(6))]
    for two_m in range(2, 91, 2):
        scale = [mixing_scale(nu, two_m) for nu in range(two_m + 1)]
        for xi in xis:
            for nu_x in range(two_m + 1):
                scale_x = xi * scale[nu_x] * MIXING_SCREEN_FACTOR
                for nu_y in range(nu_x, two_m + 1):
                    floor = scale_x * scale[nu_y]
                    assert floor <= mixing_terms(nu_x, nu_y, two_m, xi)[1], (two_m, nu_x, nu_y, xi)
                    assert floor <= mixing_terms(nu_y, nu_x, two_m, xi)[1], (two_m, nu_x, nu_y, xi)


# the xi of the floor test above
SCREEN_XIS = [1.0, 0.5, 1 / 3, 2.0 ** -20, *(random.Random(17).random() for _ in range(6))]
SCREEN_TOLS = (1e-7, 0.0, -2.0 ** -40, -0.05)


def test_the_pair_inequality_at_y_equal_x_is_the_single_set_one():
    # every 2m up to 90 (n <= 10) and every volume it allows: at Y = X the
    # pair terms are the single-set centre vol X^2 / 2m and right side
    # xi vol X (1 - vol X / 2m), so the pair check tests that inequality too
    for two_m in range(2, 91, 2):
        nu_v = float(two_m)
        for nu in range(two_m + 1):
            for xi in SCREEN_XIS:
                centre, rhs = mixing_terms(nu, nu, two_m, xi)
                assert centre == nu * nu / nu_v, (two_m, nu, xi)
                assert abs(rhs - xi * nu * (1.0 - nu / nu_v)) <= 2 * math.ulp(nu_v), (two_m, nu, xi)


def _least_passing_xi(passes, estimate):
    """The least float xi in (0, 1] with ``passes(xi)``, or None: a bisection
    on the bit patterns of positive floats, which ``passes`` is monotone in,
    first within 2^-40 of ``estimate``."""
    def bits(x):
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def as_float(b):
        return struct.unpack("<d", struct.pack("<q", b))[0]

    low, high = estimate * (1.0 - 2.0 ** -40), min(1.0, estimate * (1.0 + 2.0 ** -40))
    if not (0.0 < low and passes(high) and not passes(low)):
        if not passes(1.0):
            return None
        low, high = 0.0, 1.0
    fails, passing = bits(low), bits(high)
    while passing - fails > 1:
        mid = (fails + passing) // 2
        if passes(as_float(mid)):
            passing = mid
        else:
            fails = mid
    return as_float(passing)


def test_the_mirrored_mixing_screen_passes_no_violation_of_any_orientation():
    # every 2m up to 60, every pair nu_x <= nu_y <= m and every e(X, Y) the
    # pair allows: an e the screen passes, evaluated as the mixing check
    # evaluates it, violates in none of the eight blocks that swapping X
    # and Y or taking the complement of either makes of it, each tested
    # with its own floats.  Beside the fixed xi, each e is tried at the
    # least xi the screen passes it at, where the rhs sits closest above it
    for two_m in range(2, 61, 2):
        m, nu_v = two_m // 2, float(two_m)
        margin = MIXING_MIRROR_MARGIN * two_m
        scale = [mixing_scale(nu, two_m) for nu in range(m + 1)]
        for nu_x in range(m + 1):
            far_x = two_m - nu_x
            for nu_y in range(nu_x, m + 1):
                far_y = two_m - nu_y
                centre = nu_x * nu_y / nu_v
                # (vol X, vol Y, a, s): e(X, Y) is a + s e in that block
                orientations = (
                    (nu_x, nu_y, 0, 1), (nu_y, nu_x, 0, 1),
                    (far_x, nu_y, nu_y, -1), (nu_y, far_x, nu_y, -1),
                    (nu_x, far_y, nu_x, -1), (far_y, nu_x, nu_x, -1),
                    (far_x, far_y, far_x - nu_y, 1), (far_y, far_x, far_x - nu_y, 1))

                def limit(xi, tol):
                    return xi * scale[nu_x] * MIXING_SCREEN_FACTOR * scale[nu_y] - margin + tol

                def bounds_of(xi, tol):
                    """(a, s, centre, rhs + tol) of each orientation, for
                    comparing as mixing_gap's sides are compared"""
                    return [(a, sign, centre_ab, rhs_ab + tol) for (centre_ab, rhs_ab), a, sign in (
                        (mixing_terms(nu_a, nu_b, two_m, xi), a, sign)
                        for nu_a, nu_b, a, sign in orientations)]

                def assert_no_violation(e, bounds, *where):
                    for a, sign, centre_ab, bound in bounds:
                        assert abs(a + sign * e - centre_ab) <= bound, (
                            two_m, nu_x, nu_y, e, *where)

                for xi in SCREEN_XIS:
                    for tol in SCREEN_TOLS:
                        bounds, screen = bounds_of(xi, tol), limit(xi, tol)
                        for e in range(nu_x + 1):
                            if not abs(e - centre) > screen:
                                assert_no_violation(e, bounds, xi, tol)
                for e in range(nu_x + 1):
                    deviation = abs(e - centre)
                    for tol in SCREEN_TOLS:
                        xi = _least_passing_xi(
                            lambda xi: not deviation > limit(xi, tol),
                            (deviation - tol + margin) / (limit(1.0, margin) or 1.0))
                        if xi is not None:
                            assert_no_violation(e, bounds_of(xi, tol), xi, tol)


def _seeded_graphs(n, count, seed):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(count):
        mask = rng.getrandbits(len(pairs))
        yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def _reference_mixing(g, xi):
    """(check, lhs, rhs) for every subset pair in the check's order, each
    side computed from its definition with ``volume`` and ``edge_boundary``."""
    nu_v = 2.0 * g.m
    vol = [volume(g, x) for x in range(g.full_mask + 1)]
    sides = []
    for x, nu_x in enumerate(vol):
        for y, nu_y in enumerate(vol):
            lhs = abs(edge_boundary(g, x, y) - nu_x * nu_y / nu_v)
            rhs = xi * math.sqrt(nu_x * nu_y * (1.0 - nu_x / nu_v) * (1.0 - nu_y / nu_v))
            sides.append(("mixing-pair", lhs, rhs))
    return sides


def test_mixing_records_match_the_per_pair_definition():
    # every labeled graph with n <= 5, 300 seeded 6-vertex graphs, a few
    # 7-vertex ones and two 8-vertex ones; order, count and the bits of
    # both sides must agree.
    # At 1e-7 no (e, vol X, vol Y) triple violates, so the pair loop never
    # runs; at -0.05 and -0.5 almost every graph has both violating and
    # clean triples (a median of 19 % and 27 % of them violate), so the
    # loop walks a partial table of violating triples; at -1.0 most do
    corpus = itertools.chain(
        (g for n in range(1, 6) for g in enumerate_labeled(n)),
        _seeded_graphs(6, 300, seed=6),
        _seeded_graphs(7, 4, seed=7),
        _seeded_graphs(8, 2, seed=8),
    )
    graphs = violations = partial = 0
    for g in corpus:
        g6 = write_graph6(g)
        sides = _reference_mixing(g, SpectralSummary(g).xi) if g.m else []
        for tol in (1e-7, -0.05, -0.5, -1.0):
            want = [(check, lhs.hex(), rhs.hex())
                    for check, lhs, rhs in sides if lhs > rhs + tol]
            got = [(r.check, r.lhs.hex(), r.rhs.hex())
                   for r in evaluate_graph(g6, g, ("mixing",), tol, 1e-7)]
            assert got == want, (g6, tol)
            violations += len(got)
            # a violating and a clean pair mean a violating and a clean triple
            partial += tol == -0.05 and 0 < len(got) < (g.full_mask + 1) ** 2
        graphs += 1
    assert graphs == 1 + 2 + 8 + 64 + 1024 + 300 + 4 + 2
    assert violations > 90_000
    assert partial > 1_300


def test_mixing_records_match_the_per_pair_definition_on_the_float_boundary():
    # at tol 0 and -2^-40 a record turns on the last bit of a side: a
    # mirrored block whose centre or rhs rounded the other way than its
    # own would show here as a missing or extra record
    corpus = itertools.chain(
        (g for n in range(1, 6) for g in enumerate_labeled(n)),
        _seeded_graphs(6, 100, seed=66),
    )
    for g in corpus:
        if not g.m:
            continue
        g6 = write_graph6(g)
        sides = _reference_mixing(g, SpectralSummary(g).xi)
        for tol in (0.0, -2.0 ** -40):
            want = [(check, lhs.hex(), rhs.hex())
                    for check, lhs, rhs in sides if lhs > rhs + tol]
            got = [(r.check, r.lhs.hex(), r.rhs.hex())
                   for r in evaluate_graph(g6, g, ("mixing",), tol, 1e-7)]
            assert got == want, (g6, tol)


def test_every_single_set_violation_has_its_diagonal_pair_record():
    # every labeled graph with n <= 5: each X that violates the single-set
    # inequality, computed from its definition, has the (X, X) record among
    # the sweep's, with the same lhs bits.  Records come in the reference's
    # x-major pair order, so the index of (X, X) finds its record
    found = 0
    for g in (g for n in range(1, 6) for g in enumerate_labeled(n)):
        if not g.m:
            continue
        g6, xi, nu_v, size = write_graph6(g), SpectralSummary(g).xi, 2.0 * g.m, g.full_mask + 1
        sides = _reference_mixing(g, xi)
        for tol in (-0.05, -0.5):
            records = evaluate_graph(g6, g, ("mixing",), tol, 1e-7)
            index = [k for k, (_, lhs, rhs) in enumerate(sides) if lhs > rhs + tol]
            assert len(index) == len(records), (g6, tol)
            record_of = dict(zip(index, records))
            for x in range(size):
                nu = volume(g, x)
                lhs = abs(edge_boundary(g, x, x) - nu * nu / nu_v)
                rhs = xi * nu * (1.0 - nu / nu_v)
                if lhs > rhs + tol:
                    record = record_of.get(x * size + x)
                    assert record is not None, (g6, tol, x)
                    assert record.check == "mixing-pair" and record.lhs == lhs, (g6, tol, x)
                    assert abs(record.rhs - rhs) <= 2 * math.ulp(nu_v), (g6, tol, x)
                    found += 1
    assert found > 12_000


def test_mixing_memory_stays_linear_in_the_subset_count():
    # a seeded G(10, 1/2) at --tol -0.5 has violating triples, so every
    # subset pair is replayed; a table of all 4^n codes would take 40 MB
    g = next(_seeded_graphs(10, 1, seed=10))
    script = (
        "import resource, sys\n"
        "from toughlab.formats import parse_graph6\n"
        "from toughlab.sweep import GraphFacts, _check_mixing\n"
        "facts = GraphFacts(sys.argv[1], parse_graph6(sys.argv[1]))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "records = sum(1 for _ in _check_mixing(facts, -0.5, 1e-7))\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(records, after - before)\n")
    # ru_maxrss survives exec, so a process started from this one begins at
    # this one's peak; a small launcher gives the measured one its own
    launcher = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, *sys.argv[1:]]))"
    child = subprocess.run(
        [sys.executable, "-c", launcher, "-c", script, write_graph6(g)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(Path(toughlab.__file__).parents[1])})
    assert child.returncode == 0, child.stderr
    records, growth_kb = map(int, child.stdout.split())
    assert records > 4000
    assert growth_kb < 10 * 1024


def test_mixing_and_cut_partition_evaluate_only_groups_that_can_violate(monkeypatch):
    sweep_module = importlib.import_module("toughlab.sweep")
    calls, components, terms = [], [], []

    def counted(*args):
        calls.append(args)
        return mixing_gap(*args)

    def counted_terms(*args):
        terms.append(args)
        return mixing_terms(*args)

    def counted_components(rows, remaining):
        components.append(remaining)
        return component_masks(rows, remaining)

    # the package exports the function ``sweep`` under the module's name
    monkeypatch.setattr(sweep_module, "mixing_gap", counted)
    monkeypatch.setattr(sweep_module, "mixing_terms", counted_terms)
    monkeypatch.setattr(sweep_module, "component_masks", counted_components)
    graphs = [*_seeded_graphs(6, 6, seed=13), *_seeded_graphs(7, 3, seed=13)]
    evaluated = 0
    for g in graphs:
        g6, two_m = write_graph6(g), 2 * g.m
        xi = SpectralSummary(g).xi
        # at 1e-7 no triple violates and no cut size can give a record, so
        # the screens decide every (vol X, vol Y) block, each unordered
        # pair against its floor alone, and every |S|
        calls.clear()
        components.clear()
        terms.clear()
        checks = ("mixing", "cut-partition")
        assert evaluate_graph(g6, g, checks, 1e-7, 1e-7) == [], g6
        assert calls == [] and components == [] and terms == [], g6
        # (vol X, vol Y) -> the e(X, Y) of its distinct triples
        blocks: dict[tuple[int, int], set[int]] = {}
        subsets = range(g.full_mask + 1)
        for x in subsets:
            for y in subsets:
                blocks.setdefault((volume(g, x), volume(g, y)), set()).add(
                    edge_boundary(g, x, y))

        def violates(e, nu_x, nu_y, tol):
            lhs, rhs = mixing_gap(e, nu_x, nu_y, two_m, xi)
            return lhs > rhs + tol

        tol = -0.05
        evaluate_graph(g6, g, ("mixing",), tol, 1e-7)
        triples = [args[:3] for args in calls]
        assert len(triples) == len(set(triples)), g6
        for e, nu_x, nu_y in triples:
            es = blocks[nu_x, nu_y]
            assert e in es
            assert violates(min(es), nu_x, nu_y, tol) or violates(max(es), nu_x, nu_y, tol)
        # and no violating triple is missed
        assert set(triples) >= {(e, nu_x, nu_y) for (nu_x, nu_y), es in blocks.items()
                                for e in es if violates(e, nu_x, nu_y, tol)}
        evaluated += len(triples)
    assert evaluated > 0


def _reference_cut_partition(g, summary):
    """(check, lhs, rhs) for every cut set and grouping of the blocks it
    leaves, in the check's order, with the blocks from ``component_sets``,
    each with the comparison that makes it a record."""
    cap_ratio, floor_ratio = cut_partition_ratios(
        summary.laplacian_radius, summary.algebraic_connectivity)
    cap = cap_ratio * g.n
    adj = to_adj(g)
    sides = []
    for s_mask in range(1, g.full_mask):
        cut = {v for v in range(g.n) if s_mask >> v & 1}
        blocks = component_sets(adj, cut)
        for pick in range(1, 1 << (len(blocks) - 1)):
            picked = sum(len(b) for i, b in enumerate(blocks) if pick >> i & 1)
            size_x, size_y = sorted((picked, g.n - len(cut) - picked))
            floor = floor_ratio * size_x
            sides.append(("above", "cut-partition-x", float(size_x), cap))
            sides.append(("below", "cut-partition-s", float(len(cut)), floor))
            if size_x != size_y:
                sides.append(("equal", "cut-partition-x-equality", float(size_x), cap))
                sides.append(("equal", "cut-partition-s-equality", float(len(cut)), floor))
    return sides


def test_cut_partition_records_match_the_per_grouping_definition():
    # every labeled graph with n <= 5 and seeded 6- and 7-vertex graphs;
    # order, count and the bits of both sides must agree for each window
    corpus = itertools.chain(
        (g for n in range(1, 6) for g in enumerate_labeled(n)),
        _seeded_graphs(6, 150, seed=16),
        _seeded_graphs(7, 20, seed=17),
    )
    fired = Counter()
    for g in corpus:
        facts = GraphFacts(write_graph6(g), g)
        sides = _reference_cut_partition(g, facts.summary) if facts.bounded else []
        for tol, eps_eq in itertools.product((1e-7, -0.05, -0.5), (1e-7, 0.05, 0.5)):
            record = {"above": lambda lhs, rhs: lhs > rhs + tol,
                      "below": lambda lhs, rhs: lhs < rhs - tol,
                      "equal": lambda lhs, rhs: abs(lhs - rhs) <= eps_eq}
            want = [(check, lhs.hex(), rhs.hex())
                    for kind, check, lhs, rhs in sides if record[kind](lhs, rhs)]
            got = [(r.check, r.lhs.hex(), r.rhs.hex())
                   for r in evaluate_graph(facts.g6, g, ("cut-partition",), tol, eps_eq)]
            assert got == want, (facts.g6, tol, eps_eq)
            fired.update((check, tol, eps_eq) for check, _, _ in got)
    # the equality records fire at the widest window, and all four kinds fire
    assert fired["cut-partition-x-equality", 1e-7, 0.5] > 0
    assert fired["cut-partition-s-equality", 1e-7, 0.5] > 0
    assert {check for check, _, _ in fired} == {
        "cut-partition-x", "cut-partition-s", "cut-partition-x-equality",
        "cut-partition-s-equality"}


class _NoFloor(GraphFacts):
    """Facts whose floor on xi is 0, so it decides nothing."""

    xi_floor = 0.0


def test_the_xi_floor_changes_no_record(monkeypatch):
    # default checks on every labeled graph up to 5 vertices and on seeded
    # ones up to 9; all checks on fewer, as mixing at a negative tol
    # records most subset pairs
    corpora = {
        DEFAULT_CHECKS: [*(g for n in range(1, 6) for g in enumerate_labeled(n)),
                         *(g for n in range(6, 10) for g in _seeded_graphs(n, 100, seed=n))],
        CHECK_NAMES: [*(g for n in range(1, 5) for g in enumerate_labeled(n)),
                      *(g for n in range(5, 10) for g in _seeded_graphs(n, 4, seed=n))],
    }
    sweep_module = importlib.import_module("toughlab.sweep")
    tols = (1e-7, 0.0, -0.5, -1.0, -3.0)

    def records(checks):
        return [evaluate_graph(write_graph6(g), g, checks, tol, 1e-7)
                for g in corpora[checks] for tol in tols]

    with_floor = {checks: records(checks) for checks in corpora}
    monkeypatch.setattr(sweep_module, "GraphFacts", _NoFloor)
    for checks, want in with_floor.items():
        assert records(checks) == want
    # the floor has records to change: tough-lower and alpha-mixing ones
    # at each tol, and equality tags at the default one
    names = Counter(type(r).__name__ + ":" + r[1] for rs in with_floor[DEFAULT_CHECKS] for r in rs)
    assert names["Violation:tough-lower"] and names["Violation:alpha-mixing"]
    assert names["Interesting:tough-lower-equality"]


def test_independence_bound_values(petersen, c4, k4):
    def bounds(g):
        f = facts_of(g)
        return (degree_independence_bound(g.n, f.dmax, f.dmin),
                mixing_independence_bound(g.m, f.dmin, f.summary.xi),
                laplacian_independence_bound(g.n, f.dmin, f.summary.laplacian_radius))

    got = bounds(petersen)
    assert abs(got[0] - 5) <= 1e-8 and abs(got[1] - 4) <= 1e-7 and abs(got[2] - 4) <= 1e-7
    got = bounds(c4)
    assert all(abs(x - 2) <= 1e-7 for x in got)
    got = bounds(k4)
    assert abs(got[0] - 2) <= 1e-8 and abs(got[1] - 1) <= 1e-7 and abs(got[2] - 1) <= 1e-7


def test_semiregular_structure(petersen, c4, claw):
    def biregular(g, ind):
        f = facts_of(g)
        return semiregular_equality_check(g, ind, f.dmin, f.summary.laplacian_radius)

    assert biregular(petersen, independence_number(petersen).witness)
    assert biregular(c4, mask_of([0, 2]))
    assert biregular(claw, mask_of([1, 2, 3]))
    with pytest.raises(ValueError, match="independent"):
        biregular(c4, mask_of([0, 1]))


def test_cut_partition_values(c4, claw, petersen):
    # (cap on |X|, floor on |S|) = (cap ratio * n, floor ratio * |X|)
    def ratios(g):
        s = SpectralSummary(g)
        return cut_partition_ratios(s.laplacian_radius, s.algebraic_connectivity)

    cap_ratio, floor_ratio = ratios(c4)
    assert abs(cap_ratio * 4 - 1) <= 1e-8 and abs(floor_ratio * 1 - 2) <= 1e-8
    cap_ratio, floor_ratio = ratios(claw)
    assert abs(cap_ratio * 4 - 1.5) <= 1e-8 and abs(floor_ratio * 1 - 2 / 3) <= 1e-8
    # the cut {0, 1, 2, 3} leaves three 2-vertex blocks; X is one of them
    cap_ratio, floor_ratio = ratios(petersen)
    assert abs(cap_ratio * 10 - 3) <= 1e-7
    assert abs(floor_ratio * 2 - 8 / 3) <= 1e-7


def cli_output(monkeypatch, capsys, argv, graphs):
    """(exit code, stdout, stderr) of one in-process CLI call on the graphs."""
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(write_graph6(g) + "\n" for g in graphs)))
    code = main(argv)
    return (code, *capsys.readouterr())


def test_report_fields_and_serialization(c4, k4, monkeypatch, capsys):
    code, out, _ = cli_output(monkeypatch, capsys, ["bounds"], [c4, k4])
    assert code == 0
    rec_c4, rec_k4 = map(json.loads, out.splitlines())
    assert list(rec_c4) == list(BOUNDS_COLUMNS)
    assert rec_c4["graph6"] == write_graph6(c4) and rec_c4["tau"] == "1"
    assert rec_c4["equality_lap_product"] and rec_c4["equality_lap_gap"]
    assert rec_k4["tau"] == "inf" and not rec_k4["equality_lap_product"]
    assert rec_k4["lap_gap_bound"] is None  # infinite bound maps to null
    assert rec_k4["connectivity_cap"] is None
    # the CSV rows hold the same values: null empty, booleans 0/1
    code, out, _ = cli_output(monkeypatch, capsys, ["bounds", "--csv"], [c4, k4])
    header, *rows = out.splitlines()
    assert code == 0 and header.split(",") == list(BOUNDS_COLUMNS)
    for row, rec in zip(rows, (rec_c4, rec_k4), strict=True):
        assert row.split(",") == ["" if v is None else str(int(v) if isinstance(v, bool) else v)
                                  for v in rec.values()]


def test_report_requires_connected(monkeypatch, capsys):
    from toughlab import disjoint_union
    g = disjoint_union(complete_graph(2), complete_graph(1))
    assert cli_output(monkeypatch, capsys, ["bounds"], [g]) == (
        2, "", "line 1: bound reports require a connected graph\n")


def test_bounds_csv_on_empty_input_prints_the_header(monkeypatch, capsys):
    assert cli_output(monkeypatch, capsys, ["bounds", "--csv"], []) == (
        0, ",".join(BOUNDS_COLUMNS) + "\r\n", "")


def test_bounds_equality_flags_match_verify_tags(monkeypatch, capsys):
    # every connected labeled graph with n <= 5, at the default windows
    graphs = [g for n in range(1, 6) for g in enumerate_labeled(n, connected_only=True)]
    code, out, _ = cli_output(monkeypatch, capsys, ["bounds"], graphs)
    assert code == 0
    flags = {r["graph6"]: (r["equality_lap_product"], r["equality_lap_gap"])
             for r in map(json.loads, out.splitlines())}
    code, out, _ = cli_output(monkeypatch, capsys, ["verify", "--checks", "lap-product,lap-gap"],
                              graphs)
    assert code == 0
    tags = {(r["graph6"], r["tag"]) for r in map(json.loads, out.splitlines())}
    assert len(flags) == len(graphs) == 772
    for g6, flag in flags.items():
        assert flag == ((g6, "lap-product-equality") in tags,
                        (g6, "lap-gap-equality") in tags), g6
    assert sum(map(any, flags.values())) > 0


def test_master_inequalities_quick():
    # n <= 4 here; the full n <= 6 run lives in the acceptance suite
    for n in range(1, 5):
        for g in enumerate_labeled(n, connected_only=True):
            g6 = write_graph6(g)
            records = evaluate_graph(g6, g, CHECK_NAMES, 1e-7, 1e-7)
            violations = [r for r in records if type(r) is Violation]
            assert not violations, violations


def test_slack_is_nonnegative_for_finite_toughness():
    for g in enumerate_labeled(5, connected_only=True):
        facts = GraphFacts(write_graph6(g), g)
        if facts.cert.infinite:
            continue
        for value in (*lower_terms(facts), *facts.lap_bounds):
            assert facts.tau + 1e-7 >= value
