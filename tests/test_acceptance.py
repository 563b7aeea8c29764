"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavy corpora (all labeled connected graphs through n = 6) are
swept once in session fixtures and shared across criteria.  Criterion 7
keeps the join-spectrum closed form here, as the oracle for the numeric
spectrum of a join.  Criterion 9 (the algebraic-connectivity cap) has no
check of its own: the cap is the ``lap-gap`` bound rearranged, so its test
checks that identity beside the sweep's ``lap-gap`` verdicts.  Criterion 10
(constructive subset-sum and component split) went with those procedures,
which no command or check ran.
"""

import math
import time
from fractions import Fraction

import pytest

from toughlab import (
    algebraic_connectivity_cap,
    independence_number,
    join,
    laplacian_spectrum,
    mixing_gap_single,
    petersen_graph,
    semiregular_equality_check,
    spectral_summary,
    toughness,
    toughness_lower_terms,
    vertex_connectivity,
    write_graph6,
)
from toughlab.bounds import EPS_EQ
from toughlab.formats import enumerate_labeled
from toughlab.sweep import CHECKS, GraphFacts, SweepConfig, Violation, sweep

from _oracles import brute_alpha, brute_kappa, brute_toughness, edge_boundary, volume

JOBS = 2
# every check but two over the connected corpus: alpha-bounds sweeps every
# graph (criterion 8) and mixing every graph with n <= 5 (criterion 6)
MASTER_CHECKS = tuple(name for name in CHECKS if name not in ("alpha-bounds", "mixing"))
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def swept(config, lines):
    """The sweep's report and the violation records it emitted."""
    violations = []

    def keep(record):
        if type(record) is Violation:
            violations.append(record)

    return sweep(config, lines, keep), violations


def connected_corpus_lines():
    lineno = 0
    for n in range(1, 7):
        for g in enumerate_labeled(n, connected_only=True):
            lineno += 1
            yield lineno, write_graph6(g)


@pytest.fixture(scope="session")
def master_report():
    config = SweepConfig(checks=MASTER_CHECKS, jobs=JOBS,
                         corpus_id="gen:n<=6:connected")
    return swept(config, connected_corpus_lines())


@pytest.fixture(scope="session")
def alpha_report():
    def lines():
        lineno = 0
        for n in range(1, 7):
            for g in enumerate_labeled(n):
                lineno += 1
                yield lineno, write_graph6(g)

    config = SweepConfig(checks=("alpha-bounds",), jobs=JOBS, corpus_id="gen:n<=6")
    return swept(config, lines())


def violations_for(swept_report, prefixes):
    return [v for v in swept_report[1] if any(v.check.startswith(p) for p in prefixes)]


def test_criterion_1_toughness_lower_terms_sweep(master_report):
    bad = violations_for(master_report, ("tough-lower",))
    rep = master_report[0]
    ok = (
        not bad
        and rep.graphs_checked == sum(CONNECTED_COUNTS.values())
        and rep.wall_time < 600.0
    )
    report(
        "three-term lower bound sweep, n <= 6",
        ok,
        f"{rep.graphs_checked} graphs, {len(bad)} violations, "
        f"{rep.wall_time:.1f}s wall",
    )


def test_criterion_2_laplacian_bound_sweep(master_report):
    bad = violations_for(master_report, ("lap-product", "lap-gap"))
    report("Laplacian product and gap bound sweep, n <= 6", not bad,
           f"{len(bad)} violations")


def test_criterion_3_equality_iff_join_structure(master_report):
    bad = violations_for(master_report, ("extremal-iff",))
    report("equality iff join-decomposition sweep, n <= 6", not bad,
           f"{len(bad)} mismatches")


def test_criterion_4_regular_reduction_on_petersen():
    g = petersen_graph()
    s = spectral_summary(g)
    spectral_term = toughness_lower_terms(g, s)[2]
    d_over_lambda = 3.0 / s.lambda_reg - 1.0
    start = time.perf_counter()
    brute = brute_toughness(g)
    brute_seconds = time.perf_counter() - start
    cert = toughness(g)
    ok = (
        abs(spectral_term - 0.5) <= 1e-9
        and abs(spectral_term - d_over_lambda) <= 1e-9
        and brute == Fraction(4, 3) == cert.value
        and brute_seconds < 1.0
    )
    report("regular reduction on the Petersen graph", ok,
           f"term={spectral_term!r}, brute tau in {brute_seconds * 1000:.0f} ms")


def test_criterion_5_oracle_equivalence():
    mismatches = 0
    graphs = 0
    for n in range(1, 7):
        for g in enumerate_labeled(n, connected_only=True):
            graphs += 1
            cert = toughness(g)
            want = brute_toughness(g)
            if (want is None) != cert.infinite:
                mismatches += 1
            elif want is not None and cert.value != want:
                mismatches += 1
            if independence_number(g).alpha != brute_alpha(g):
                mismatches += 1
            if vertex_connectivity(g).kappa != brute_kappa(g):
                mismatches += 1
    report("pruned solvers match exhaustive oracles, n <= 6",
           mismatches == 0, f"{graphs} graphs, {mismatches} mismatches")


def test_criterion_6_mixing_sweep():
    def lines():
        lineno = 0
        for n in range(1, 6):
            for g in enumerate_labeled(n):
                lineno += 1
                yield lineno, write_graph6(g)

    rep, violations = swept(SweepConfig(checks=("mixing",), jobs=JOBS, corpus_id="gen:n<=5"),
                            lines())
    g = petersen_graph()
    witness = independence_number(g).witness
    lhs, rhs = mixing_gap_single(edge_boundary(g, witness, witness), volume(g, witness),
                                 2 * g.m, spectral_summary(g).xi)
    ok = (
        not violations
        and abs(lhs - 4.8) <= 1e-8
        and abs(rhs - 4.8) <= 1e-8
    )
    report("mixing inequalities over all subset pairs, n <= 5", ok,
           f"{rep.graphs_checked} graphs, {len(violations)} violations, "
           f"Petersen single-set {lhs:.9f} = {rhs:.9f}")


def test_criterion_7_join_spectrum_cross_check():
    sides = []
    for n in range(1, 5):
        for g in enumerate_labeled(n):
            sides.append((n, g, laplacian_spectrum(g)))
    worst = 0.0
    for ng, g, mu_g in sides:
        for nh, h, mu_h in sides:
            want = laplacian_spectrum(join(g, h))
            # closed form: n_g + n_h, each side's spectrum without its
            # trailing zero shifted up by the other side's order, and 0
            got = sorted([ng + nh, *(x + nh for x in mu_g[:-1]),
                          *(ng + y for y in mu_h[:-1]), 0.0], reverse=True)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    report("closed-form join spectrum vs numeric, orders <= 4",
           worst <= 1e-8, f"{len(sides) ** 2} pairs, worst gap {worst:.2e}")


def test_criterion_8_independence_bound_sweep(alpha_report):
    bad = violations_for(alpha_report, ("alpha-",))
    g = petersen_graph()
    s = spectral_summary(g)
    witness = independence_number(g).witness
    biregular = semiregular_equality_check(g, witness, s)
    inside = {(g.rows[v] & ~witness).bit_count()
              for v in range(10) if witness >> v & 1}
    outside = {(g.rows[v] & witness).bit_count()
               for v in range(10) if not witness >> v & 1}
    ok = not bad and biregular and inside == {3} and outside == {2}
    report("independence bounds with equality structure, n <= 6", ok,
           f"{alpha_report[0].graphs_checked} graphs, {len(bad)} violations, "
           f"Petersen biregular degrees {sorted(inside)}/{sorted(outside)}")


def test_criterion_9_connectivity_cap_sweep(master_report):
    # with mu_1 > mu_{n-1}, mu_{n-1} - tau mu_1 / (tau + 1) =
    # (mu_1 - mu_{n-1}) (gap - tau) / (tau + 1), so the cap holds and is
    # tight exactly where the gap bound is, which the sweep's lap-gap and
    # extremal-iff checks hold to the join structure
    bad = violations_for(master_report, ("lap-gap", "extremal-iff"))
    corpus = [GraphFacts(write_graph6(g), g) for n in range(2, 7)
              for g in enumerate_labeled(n, connected_only=True)]
    corpus = [f for f in corpus if f.bounded]
    cap_equal, gap_equal, structural = set(), set(), set()
    for f in corpus:
        mu1, mu_second = f.summary.laplacian_radius, f.summary.algebraic_connectivity
        cap = algebraic_connectivity_cap(f.summary, f.cert.value)
        gap = f.lap_bounds[1]
        if mu_second > cap + 1e-12 or not math.isclose(
                mu_second - cap, (mu1 - mu_second) * (gap - f.tau) / (f.tau + 1),
                abs_tol=1e-12):
            bad.append(f.g6)
        if abs(mu_second - cap) <= EPS_EQ:
            cap_equal.add(f.g6)
        if f.lap_equalities(EPS_EQ)[1]:
            gap_equal.add(f.g6)
        if f.structural:
            structural.add(f.g6)
    ok = (not bad and len(corpus) == 27470 and len(cap_equal) == 327
          and cap_equal == gap_equal == structural)
    report("algebraic-connectivity cap with equality iff structure, n <= 6",
           ok, f"{len(bad)} violations, {len(cap_equal)} equality cases")


def test_cut_partition_full_sweep(master_report):
    # companion to the numbered criteria: the cut/grouping bounds over the
    # same corpus, including the equality-forces-balance refinement
    bad = violations_for(master_report, ("cut-partition",))
    report("cut-set partition bounds sweep, n <= 6", not bad,
           f"{len(bad)} violations")
