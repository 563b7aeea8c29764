"""The extremal join family: construction, detection, equality structure."""

import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from toughlab import (
    Graph,
    SpectralSummary,
    build_extremal,
    complete_graph,
    degree_profile,
    detect_join_form,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_complete,
    is_connected,
    iter_bits,
    join,
    laplacian_spectrum,
    mask_of,
    toughness,
    vertex_connectivity,
)
from toughlab import extremal
from toughlab.cli import main
from toughlab.formats import enumerate_labeled, parse_graph6, write_graph6
from toughlab.sweep import GraphFacts, SweepConfig, sweep


def verdict_of(g):
    return GraphFacts(write_graph6(g), g).verdict()


def test_build_examples(claw, c4):
    assert build_extremal(complete_graph(1), 4) == claw
    built = build_extremal(empty_graph(2), 4)
    assert built.m == 4 and degree_profile(built)[:2] == (2, 2) and is_connected(built)
    split = build_extremal(complete_graph(2), 5)
    assert toughness(split).value == Fraction(2, 3)
    with pytest.raises(ValueError):
        build_extremal(complete_graph(3), 4)
    with pytest.raises(ValueError):
        build_extremal(empty_graph(0), 3)
    # the order the caller asked for, not the independent side's 98
    with pytest.raises(ValueError, match="n = 100 exceeds the vertex budget of 64"):
        build_extremal(complete_graph(2), 100)


def test_detect_examples(c4, petersen, claw):
    wit = detect_join_form(c4)
    assert wit is not None and wit.delta == 2
    assert wit.base_h == empty_graph(2)
    assert wit.eigen_condition_ok  # 0 >= 2*2 - 4
    assert detect_join_form(petersen) is None
    wit = detect_join_form(claw)
    assert wit is not None and wit.delta == 1 and wit.eigen_condition_ok
    assert wit.independent_part.bit_count() == 3


def test_detect_skips_disconnected_and_complete():
    assert detect_join_form(complete_graph(4)) is None
    assert detect_join_form(disjoint_union(complete_graph(2), complete_graph(2))) is None


def test_detect_matches_the_definition_exhaustively():
    # in the family iff some part P has every member's neighborhood equal to
    # V \ P (so P is independent) with |V \ P| = min degree in 1..n-2
    for n in range(1, 7):
        for g in enumerate_labeled(n):
            dmin = degree_profile(g)[1]
            parts = [] if not 1 <= dmin <= n - 2 else [
                mask_of(c) for c in itertools.combinations(range(n), n - dmin)
                if all(g.rows[v] == g.full_mask & ~mask_of(c) for v in c)]
            wit = detect_join_form(g)
            assert (wit is not None) == bool(parts)
            if wit is not None:
                assert is_connected(g) and not is_complete(g)
                assert wit.independent_part in parts and wit.delta == dmin
                assert wit.base_h == induced_subgraph(g, g.full_mask & ~wit.independent_part)
    with pytest.raises(ValueError):
        detect_join_form(empty_graph(0))


def ungated_join_part(g):
    """The independent part that detect_join_form's scan finds with no
    gate on the count of minimum-degree vertices, or None."""
    _, delta, degrees = degree_profile(g)
    if not 1 <= delta <= g.n - 2:
        return None
    for v in range(g.n):
        part = g.full_mask & ~g.rows[v]
        if degrees[v] == delta and all(g.rows[u] == g.rows[v] for u in iter_bits(part)):
            return part
    return None


def test_the_minimum_degree_count_gate_changes_no_witness():
    # every labeled graph with n <= 6, and the joins of every base with
    # delta <= 4 at n up to delta + 4, each also in two shuffled labelings
    rng = random.Random(32)
    joins = []
    for delta in range(1, 5):
        for base in enumerate_labeled(delta):
            for n in range(delta + 2, delta + 5):
                g = build_extremal(base, n)
                for perm in [list(range(n))] + [rng.sample(range(n), n) for _ in range(2)]:
                    joins.append(Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()]))
    found = gated = 0
    for g in itertools.chain((g for n in range(1, 7) for g in enumerate_labeled(n)), joins):
        wit, part = detect_join_form(g), ungated_join_part(g)
        assert (wit.independent_part if wit else None) == part, write_graph6(g)
        _, delta, degrees = degree_profile(g)
        found += wit is not None
        gated += 1 <= delta <= g.n - 2 and degrees.count(delta) < g.n - delta
    # many witnesses, and most graphs turned away by the gate before the
    # scan (measured: 780 and 25,587)
    assert found > 700 and gated > 25_000


def test_verdict_examples(c4, petersen):
    assert verdict_of(c4) == (True, True, True, True)
    assert verdict_of(petersen) == (False, False, False, True)
    split = join(complete_graph(2), empty_graph(3))
    assert verdict_of(split) == (True, True, True, True)
    # the checks read a verdict only for connected non-complete graphs
    k3 = complete_graph(3)
    assert not GraphFacts(write_graph6(k3), k3).bounded


def test_joins_with_a_disconnected_side_have_connectivity_k():
    # join a base of order k with any disconnected graph: the vertex
    # connectivity is k, and the algebraic connectivity lands exactly on it
    for k in range(1, 4):
        for base in enumerate_labeled(k):
            for order in range(2, 5):
                for other in enumerate_labeled(order):
                    if is_connected(other):
                        continue
                    if not extremal._eigen_condition(base, k, k + order):
                        continue
                    g = join(base, other)
                    assert vertex_connectivity(g).kappa == k
                    assert abs(SpectralSummary(g).algebraic_connectivity - k) <= 1e-8


def test_constructive_family_sweep():
    # every base of order <= 4 and every total order within reach of the
    # eigenvalue floor: the join must hit both equalities exactly
    for delta in range(1, 5):
        for base in enumerate_labeled(delta):
            for n in range(delta + 2, delta + 5):
                if not extremal._eigen_condition(base, delta, n):
                    continue
                g = build_extremal(base, n)
                s = SpectralSummary(g)
                assert degree_profile(g)[1] == delta
                assert abs(s.laplacian_radius - n) <= 1e-8
                assert abs(s.algebraic_connectivity - delta) <= 1e-8
                cert = toughness(g)
                assert cert.value == Fraction(delta, n - delta)
                verdict = verdict_of(g)
                assert verdict.product_equality and verdict.gap_equality
                assert verdict.structural and verdict.consistent
                wit = detect_join_form(g)
                assert wit is not None
                assert wit.independent_part.bit_count() == n - delta


def test_near_miss_joins_fail_the_equalities():
    # base = two disjoint edges on 4 vertices misses the eigenvalue floor
    # for n = 6; the resulting join must not satisfy either equality
    base = Graph.from_edges(4, [(0, 1), (2, 3)])
    g = join(base, empty_graph(2))
    verdict = verdict_of(g)
    assert not verdict.structural
    assert not verdict.product_equality and not verdict.gap_equality
    assert verdict.consistent


def test_floor_witnesses_stay_structural(monkeypatch, capsys):
    """Joins whose base sits exactly on the eigenvalue floor 2*delta - n.
    FFzfw and Fs~v_ are two labelings of K1,3 v 3K1 (floor 1), G}r~vo a
    5-vertex base joined with 3K1 (floor 2).  The floating-point base
    spectrum can land a few ulps below the floor; the floor is decided
    exactly, so each join stays in the family, and verify gives each the
    three equality tags and no violation."""
    cases = {"FFzfw": (1, [1, 1, 1, 3]), "Fs~v_": (1, [1, 1, 1, 3]),
             "G}r~vo": (2, [2, 2, 2, 4, 4])}
    g6s = list(cases)
    below = []
    for g6, (floor, base_degrees) in cases.items():
        facts = GraphFacts(g6, parse_graph6(g6))
        base = facts.witness.base_h
        assert sorted(degree_profile(base)[2]) == base_degrees
        assert 2 * base.n - facts.g.n == floor
        assert abs(laplacian_spectrum(base)[-2] - floor) <= 1e-12
        assert facts.structural and facts.verdict().consistent
        below.append(laplacian_spectrum(base)[-2] < floor)
    # a float comparison would put at least one of them outside the family
    assert any(below)
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(g6 + "\n" for g6 in g6s)))
    assert main(["verify"]) == 0
    tags = ["lap-product-equality", "lap-gap-equality", "alpha-laplacian-equality"]
    want = [{"kind": "interesting", "graph6": g6, "tag": tag} for g6 in g6s for tag in tags]
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == want


FLOOR_TAGS = ("lap-product-equality", "lap-gap-equality", "alpha-laplacian-equality")


def floor_bases(n):
    """Every labeled base H on delta vertices with mu_{delta-1}(H) exactly
    on the floor 2*delta - n > 0.  Fiedler's bound mu_{delta-1}(H) <=
    delta/(delta - 1) * min degree skips most candidates unsolved."""
    for delta in range(n // 2 + 1, n - 1):
        floor = 2 * delta - n
        for h in enumerate_labeled(delta, connected_only=False):
            if (degree_profile(h)[1] * delta >= floor * (delta - 1)
                    and abs(laplacian_spectrum(h)[-2] - floor) <= 1e-9):
                yield h


@pytest.mark.parametrize("n, joins", [(7, 41), (8, 155)])
def test_every_floor_join_passes_verify_in_six_labelings(n, joins):
    # the float spectrum reads many of these bases a few ulps below the
    # floor; each join, relabeled, must stay in the family
    rng = random.Random(n)
    bases = list(floor_bases(n))
    assert len(bases) == joins
    lines = []
    for h in bases:
        g = build_extremal(h, n)
        for perm in [list(range(n))] + [rng.sample(range(n), n) for _ in range(5)]:
            relabeled = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            lines.append(write_graph6(relabeled))
    records = []
    report = sweep(SweepConfig(), enumerate(lines, 1), records.append)
    assert report.graphs_checked == 6 * joins and report.violations == 0
    assert Counter(r.tag for r in records) == dict.fromkeys(FLOOR_TAGS, 6 * joins)


def test_the_exact_floor_matches_sympy():
    """The floor against sympy's exact semidefiniteness of L(H) + J - cI,
    built from the edge list, on every labeled base of 2 to 4 vertices at
    every floor c from 1 to delta, and on the n = 7 floor-join bases.
    Where the float spectrum is clear of c it gives the same answer."""
    sympy = pytest.importorskip("sympy")
    cases = [(h, c) for delta in range(2, 5)
             for h in enumerate_labeled(delta, connected_only=False)
             for c in range(1, delta + 1)]
    cases += [(h, 2 * h.n - 7) for h in floor_bases(7)]
    for h, c in cases:
        delta = h.n
        lap = sympy.zeros(delta, delta)
        for u, v in h.edges():
            lap[u, v] = lap[v, u] = -1
            lap[u, u] += 1
            lap[v, v] += 1
        want = (lap + sympy.ones(delta, delta) - c * sympy.eye(delta)).is_positive_semidefinite
        assert extremal._eigen_condition(h, delta, 2 * delta - c) == want, (h, c)
        mu = laplacian_spectrum(h)[-2]
        if abs(mu - c) > 1e-9:
            assert want == (mu > c)
