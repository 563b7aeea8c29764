"""Exact invariants against independent brute-force oracles."""

import random
from fractions import Fraction

import pytest

from toughlab import (
    ComponentPartition,
    Graph,
    balanced_component_split,
    complete_graph,
    components,
    degree_profile,
    disjoint_union,
    independence_number,
    is_connected,
    mask_of,
    path_graph,
    subset_with_sum,
    toughness,
    vertex_connectivity,
)
from toughlab.formats import enumerate_labeled_connected

from _oracles import brute_alpha, brute_kappa, brute_toughness


def test_toughness_examples(petersen, c4, claw):
    assert toughness(complete_graph(5)).infinite
    cert = toughness(c4)
    assert cert.value == 1 and cert.cut == mask_of([0, 2]) and cert.omega == 2
    cert = toughness(petersen)
    assert cert.value == Fraction(4, 3) and cert.tau_num == 4 and cert.omega == 3
    cert = toughness(claw)
    assert cert.value == Fraction(1, 3) and cert.cut == 1 and cert.omega == 3


def test_toughness_certificate_postconditions():
    for n in range(2, 6):
        for g in enumerate_labeled_connected(n):
            cert = toughness(g)
            if cert.infinite:
                continue
            part = components(g, cert.cut)
            assert part.omega == cert.omega >= 2
            assert cert.cut != 0
            assert cert.tau_num == cert.cut.bit_count()
            assert cert.tau_den == cert.omega


def test_toughness_rejects_disconnected():
    with pytest.raises(ValueError):
        toughness(disjoint_union(complete_graph(2), complete_graph(2)))


def test_toughness_matches_exhaustive_oracle():
    for n in range(2, 6):
        for g in enumerate_labeled_connected(n):
            want = brute_toughness(g)
            cert = toughness(g)
            if want is None:
                assert cert.infinite
            else:
                assert cert.value == want


def test_invariants_match_oracles_on_random_graphs_7_to_10():
    rng = random.Random(710)
    for n in range(7, 11):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(25):
            p = rng.choice((0.3, 0.5, 0.7))
            g = Graph.from_edges(n, [e for e in pairs if rng.random() < p])
            while not is_connected(g):
                g = Graph.from_edges(n, [e for e in pairs if rng.random() < p])
            want = brute_toughness(g)
            cert = toughness(g)
            assert cert.infinite if want is None else cert.value == want
            assert independence_number(g).alpha == brute_alpha(g)
            assert vertex_connectivity(g).kappa == brute_kappa(g)


def test_independence_examples(c4, petersen):
    assert independence_number(complete_graph(6)).alpha == 1
    assert independence_number(c4).alpha == 2
    assert independence_number(petersen).alpha == 4


def test_independence_matches_oracle_with_valid_witness():
    for n in range(1, 6):
        for g in enumerate_labeled_connected(n):
            cert = independence_number(g)
            assert cert.alpha == brute_alpha(g)
            assert cert.witness.bit_count() == cert.alpha
            for v in range(n):
                if cert.witness >> v & 1:
                    assert g.rows[v] & cert.witness == 0


def test_connectivity_examples(c4, k4, petersen):
    cert = vertex_connectivity(k4)
    assert cert.kappa == 3 and cert.separator is None
    assert vertex_connectivity(c4).kappa == 2
    assert vertex_connectivity(petersen).kappa == 3


def test_connectivity_matches_oracle_with_valid_separator():
    for n in range(2, 6):
        for g in enumerate_labeled_connected(n):
            cert = vertex_connectivity(g)
            assert cert.kappa == brute_kappa(g)
            assert cert.kappa <= degree_profile(g)[1]
            if cert.separator is not None:
                assert cert.separator.bit_count() == cert.kappa
                assert components(g, cert.separator).omega >= 2


def test_connectivity_rejects_disconnected():
    with pytest.raises(ValueError):
        vertex_connectivity(disjoint_union(complete_graph(1), complete_graph(2)))


def test_subset_with_sum_examples():
    got = subset_with_sum([1, 2, 2], 3)
    assert got in ({0, 1}, {0, 2})
    assert subset_with_sum([3, 4], 0) == set()
    assert subset_with_sum([1, 1, 1, 3], 4) in ({0, 3}, {1, 3}, {2, 3})


def test_subset_with_sum_random_instances():
    rng = random.Random(5)
    for _ in range(300):
        p = rng.randint(1, 12)
        # positive entries totaling at most 2p - 1
        sizes = [1] * p
        budget = (2 * p - 1) - p
        for _ in range(budget):
            if rng.random() < 0.6:
                sizes[rng.randrange(p)] += 1
        target = rng.randint(0, sum(sizes))
        chosen = subset_with_sum(sizes, target)
        assert sum(sizes[i] for i in chosen) == target


def test_subset_with_sum_refuses_unguaranteed_instances():
    with pytest.raises(ValueError, match="existence not guaranteed"):
        subset_with_sum([2, 2], 3)
    with pytest.raises(ValueError, match="positive"):
        subset_with_sum([0, 1], 1)
    with pytest.raises(ValueError, match="outside"):
        subset_with_sum([1, 1], 5)


def _partition_of_paths(sizes):
    g = path_graph(sizes[0])
    for s in sizes[1:]:
        g = disjoint_union(g, path_graph(s))
    return g, components(g, 0)


def test_balanced_split_accepts_the_documented_case():
    g, part = _partition_of_paths([2, 2, 2, 3])
    r, t = balanced_component_split(part, 4)
    assert r.bit_count() >= 4 and t.bit_count() >= 4
    assert r & t == 0 and r | t == g.full_mask
    assert set(part.blocks) == {b for b in part.blocks if (b & r) in (0, b)}


def test_balanced_split_rejects_bad_shapes():
    _, part = _partition_of_paths([1, 1, 5])
    with pytest.raises(ValueError, match="smaller blocks"):
        balanced_component_split(part, 3)
    _, part = _partition_of_paths([1, 2, 2, 3])
    with pytest.raises(ValueError, match="below"):
        balanced_component_split(part, 4)
    _, part = _partition_of_paths([2, 2])
    with pytest.raises(ValueError, match="blocks, expected"):
        balanced_component_split(part, 3)


def test_balanced_split_random_instances():
    rng = random.Random(17)
    built = 0
    while built < 200:
        omega = rng.randint(2, 6)
        sizes = sorted(rng.randint(1, 6) for _ in range(omega))
        if sum(sizes) < 2 * omega + 1 or sum(sizes[:-1]) < omega:
            continue
        if sum(sizes) > 30:
            continue
        built += 1
        g, part = _partition_of_paths(sizes)
        r, t = balanced_component_split(part, omega)
        assert r.bit_count() >= omega and t.bit_count() >= omega
        assert r & t == 0 and (r | t) == g.full_mask
        for b in part.blocks:  # whole blocks only, hence no crossing edges
            assert b & r in (0, b)


def test_component_partition_block_order(petersen):
    part = components(disjoint_union(path_graph(3), path_graph(1)), 0)
    assert part.sizes() == (1, 3)
    assert isinstance(part, ComponentPartition)
    assert is_connected(petersen)
