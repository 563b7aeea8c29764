"""The extremal join family: construction, detection, equality structure."""

import itertools
from fractions import Fraction

import pytest

from toughlab import (
    Graph,
    build_extremal,
    complete_graph,
    degree_profile,
    detect_join_form,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_complete,
    is_connected,
    join,
    laplacian_spectrum,
    mask_of,
    spectral_summary,
    toughness,
    vertex_connectivity,
)
from toughlab.formats import enumerate_labeled, write_graph6
from toughlab.sweep import GraphFacts


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
            mu_base = laplacian_spectrum(base) if k >= 2 else [0.0]
            for order in range(2, 5):
                for other in enumerate_labeled(order):
                    if is_connected(other):
                        continue
                    if k >= 2 and mu_base[-2] < 2 * k - (k + order):
                        continue
                    g = join(base, other)
                    assert vertex_connectivity(g).kappa == k
                    assert abs(spectral_summary(g).algebraic_connectivity - k) <= 1e-8


def test_constructive_family_sweep():
    # every base of order <= 4 and every total order within reach of the
    # eigenvalue floor: the join must hit both equalities exactly
    for delta in range(1, 5):
        for base in enumerate_labeled(delta):
            mu = laplacian_spectrum(base) if delta >= 2 else [0.0]
            for n in range(delta + 2, delta + 5):
                if delta >= 2 and mu[-2] < 2 * delta - n:
                    continue
                g = build_extremal(base, n)
                s = spectral_summary(g)
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
