"""Core graph representation and set combinatorics."""

import itertools
import random

import pytest

from toughlab import (
    Graph,
    complete_graph,
    component_masks,
    cycle_graph,
    degree_profile,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_complete,
    is_connected,
    join,
    mask_of,
    vertices_of,
)
from toughlab.formats import enumerate_labeled

from _oracles import component_sets, edge_boundary, to_adj, volume


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(80, [])


def test_degree_profile(petersen, claw):
    assert degree_profile(petersen) == (3, 3, [3] * 10)
    assert degree_profile(Graph.from_edges(1, [])) == (0, 0, [0])
    assert degree_profile(claw) == (3, 1, [3, 1, 1, 1])


def test_volume(c4, petersen):
    assert volume(c4, mask_of([0, 2])) == 4
    assert volume(c4, 0) == 0
    # a maximum independent set of the Petersen graph: the pairs through one point
    assert volume(petersen, mask_of([0, 1, 2, 3])) == 12


def test_volume_complement_identity():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9))
        x = rng.randint(0, g.full_mask)
        assert volume(g, x) + volume(g, g.full_mask & ~x) == 2 * g.m


def test_edge_boundary(c4, k4, petersen):
    assert edge_boundary(c4, 1 << 0, 1 << 2) == 0
    assert edge_boundary(k4, k4.full_mask, k4.full_mask) == 12
    ind = mask_of([0, 1, 2, 3])
    assert edge_boundary(petersen, ind, petersen.full_mask & ~ind) == 12


def test_edge_boundary_self_is_double_internal_count():
    # oracle: count unordered pairs inside X directly
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8))
        adj = to_adj(g)
        for _ in range(20):
            x = rng.randint(0, g.full_mask)
            inside = sum(
                1 for u, v in itertools.combinations(vertices_of(x), 2)
                if v in adj[u])
            got = edge_boundary(g, x, x)
            assert got == 2 * inside
            assert got % 2 == 0


def test_components(c4, petersen):
    assert component_masks(c4.rows, c4.full_mask & ~mask_of([0, 2])) == [1 << 1, 1 << 3]
    closed = (1 << 0) | petersen.rows[0]
    (block,) = component_masks(petersen.rows, petersen.full_mask & ~closed)
    assert block.bit_count() == 6
    # the remainder is a 6-cycle: connected and 2-regular
    ring = induced_subgraph(petersen, block)
    assert is_connected(ring) and degree_profile(ring)[:2] == (2, 2)


def test_components_empty_removal_matches_connectivity():
    for n in range(1, 6):
        for g in enumerate_labeled(n):
            assert is_connected(g) == (len(component_sets(to_adj(g), set())) == 1)


def test_join_small_cases(c4):
    k1 = complete_graph(1)
    assert join(k1, k1) == complete_graph(2)
    two = empty_graph(2)
    j = join(two, two)
    assert j.m == 4 and degree_profile(j)[:2] == (2, 2) and is_connected(j)
    split = join(complete_graph(2), empty_graph(3))
    assert sorted(split.rows[v].bit_count() for v in range(5)) == [2, 2, 2, 4, 4]


def test_join_degree_gain():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 5))
        h = random_graph(rng, rng.randint(1, 5))
        j = join(g, h)
        j.validate()
        for v in range(h.n):
            assert j.rows[g.n + v].bit_count() == h.rows[v].bit_count() + g.n
        for v in range(g.n):
            assert j.rows[v].bit_count() == g.rows[v].bit_count() + h.n


def test_disjoint_union():
    k1 = complete_graph(1)
    assert disjoint_union(k1, k1) == empty_graph(2)
    twok2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert twok2.m == 2 and len(component_masks(twok2.rows, twok2.full_mask)) == 2
    mixed = disjoint_union(cycle_graph(4), k1)
    assert component_masks(mixed.rows, mixed.full_mask) == [0b01111, 0b10000]


def test_connected_complete_flags(petersen):
    assert (is_connected(complete_graph(5)), is_complete(complete_graph(5))) == (True, True)
    assert (is_connected(empty_graph(2)), is_complete(empty_graph(2))) == (False, False)
    assert (is_connected(petersen), is_complete(petersen)) == (True, False)


def test_induced_subgraph(petersen):
    sub = induced_subgraph(petersen, mask_of([0, 7, 8, 9]))
    # vertex 0 with its three neighbors: a claw up to labels
    assert sub.m == 3 and degree_profile(sub)[:2] == (3, 1)
    sub.validate()


def test_star_and_cycle_shapes(claw):
    assert claw.m == 3 and claw.rows[0] == 0b1110
    with pytest.raises(ValueError):
        cycle_graph(2)
