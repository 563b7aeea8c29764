"""Exact invariants against independent brute-force oracles."""

import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from toughlab import (
    Graph,
    complete_graph,
    component_masks,
    cycle_graph,
    degree_profile,
    disjoint_union,
    empty_graph,
    independence_number,
    is_connected,
    join,
    mask_of,
    petersen_graph,
    star_graph,
    toughness,
    vertex_connectivity,
    vertices_of,
)
from toughlab.formats import enumerate_labeled
from toughlab.invariants import UNION_TABLE_VERTICES, _min_vertex_cut, _union_tables

from _oracles import (
    brute_alpha,
    brute_closest_separator,
    brute_kappa,
    brute_kappa_certificate,
    brute_toughness,
    brute_toughness_certificate,
    to_adj,
)


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
        for g in enumerate_labeled(n, connected_only=True):
            cert = toughness(g)
            if cert.infinite:
                continue
            blocks = component_masks(g.rows, g.full_mask & ~cert.cut)
            assert len(blocks) == cert.omega >= 2
            assert cert.cut != 0
            assert cert.tau_num == cert.cut.bit_count()
            assert cert.tau_den == cert.omega


def test_toughness_rejects_disconnected():
    with pytest.raises(ValueError):
        toughness(disjoint_union(complete_graph(2), complete_graph(2)))


def assert_certificate_matches_oracle(g):
    """τ, |S|, the cut and ω equal the oracle's minimum-size, minimum-mask cut."""
    want = brute_toughness_certificate(g)
    cert = toughness(g)
    if want is None:
        assert cert.infinite
        return
    tau, size, cut = want
    assert (cert.value, cert.tau_num, cert.cut) == (tau, size, cut)
    assert cert.omega == cert.tau_den == size / tau


def connected_gnp(rng, n, p=None):
    """A connected G(n, p) draw, p from {0.3, 0.5, 0.7} when not given."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if p is None:
        p = rng.choice((0.3, 0.5, 0.7))
    g = Graph.from_edges(n, [e for e in pairs if rng.random() < p])
    while not is_connected(g):
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < p])
    return g


def test_toughness_matches_exhaustive_oracle():
    for n in range(2, 7):
        for g in enumerate_labeled(n, connected_only=True):
            assert_certificate_matches_oracle(g)


def test_toughness_certificate_matches_oracle_on_larger_graphs():
    rng = random.Random(1012)
    graphs = [connected_gnp(rng, n) for n in (10, 11, 12) for _ in range(7)]
    for g in graphs + [petersen_graph(), cycle_graph(12), join(empty_graph(7), empty_graph(7))]:
        assert_certificate_matches_oracle(g)


def per_vertex_union(rows, mask):
    grown = 0
    for v in vertices_of(mask):
        grown |= rows[v]
    return grown


def assert_table_union_matches(g, masks):
    """The table lookups plus the per-vertex rows from label 20 up give the union."""
    lo, hi, split, top = _union_tables(g.rows)
    assert top == min(g.n, UNION_TABLE_VERTICES)
    assert len(lo) == 1 << split and len(hi) == 1 << (top - split)
    assert len(lo) + len(hi) <= 2 * 1024
    for mask in masks:
        far = per_vertex_union(g.rows, mask >> top << top)
        got = lo[mask & len(lo) - 1] | hi[mask >> split & len(hi) - 1] | far
        assert got == per_vertex_union(g.rows, mask), (g.n, mask)


def test_union_tables_match_the_per_vertex_union():
    rng = random.Random(3064)
    for g in (petersen_graph(), cycle_graph(12), connected_gnp(rng, 11), connected_gnp(rng, 12)):
        assert_table_union_matches(g, range(g.full_mask + 1))
    for n in (30, 64):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.3])
        assert_table_union_matches(g, [rng.getrandbits(n) for _ in range(3000)])


def test_toughness_above_the_table_vertices_matches_closed_forms():
    # K_{a,b} with the a-side on the top labels: the only cut of size a is that side
    for a, b in ((2, 19), (3, 22), (4, 20), (2, 38)):
        cert = toughness(join(empty_graph(b), empty_graph(a)))
        assert (cert.value, cert.cut, cert.omega) == (Fraction(a, b), ((1 << a) - 1) << b, b)
    # K_{1,k} centred on the last label
    for k in (20, 40, 63):
        cert = toughness(join(empty_graph(k), empty_graph(1)))
        assert (cert.value, cert.cut, cert.omega) == (Fraction(1, k), 1 << k, k)


def test_invariants_match_oracles_on_random_graphs_7_to_10():
    rng = random.Random(710)
    for n in range(7, 11):
        for _ in range(25):
            g = connected_gnp(rng, n)
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
        for g in enumerate_labeled(n, connected_only=True):
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


def assert_valid_separator(g, cert):
    assert cert.separator.bit_count() == cert.kappa
    assert len(component_masks(g.rows, g.full_mask & ~cert.separator)) >= 2


def assert_connectivity_matches_oracles(g):
    """κ and the separator equal the pair-by-pair brute-force certificate."""
    cert = vertex_connectivity(g)
    assert (cert.kappa, cert.separator) == brute_kappa_certificate(g)
    assert cert.kappa == brute_kappa(g)
    assert cert.kappa <= degree_profile(g)[1]
    if cert.separator is not None:
        assert_valid_separator(g, cert)


def test_connectivity_matches_oracle_with_valid_separator():
    for n in range(2, 6):
        for g in enumerate_labeled(n, connected_only=True):
            assert_connectivity_matches_oracles(g)


def test_connectivity_certificate_matches_oracle_on_random_graphs_6_to_9():
    rng = random.Random(609)
    for n in range(6, 10):
        for _ in range(50):
            assert_connectivity_matches_oracles(connected_gnp(rng, n))


def test_connectivity_at_large_n_matches_closed_forms():
    start = time.perf_counter()
    # K_{a,b} with the a-side on the top labels, K_{1,k} centred on label 0
    cases = [(join(empty_graph(b), empty_graph(a)), a)
             for a, b in ((2, 19), (3, 22), (1, 63), (7, 57), (20, 44))]
    cases += [(star_graph(k), 1) for k in (20, 40, 63)]
    cases += [(cycle_graph(n), 2) for n in (20, 41, 64)]
    cases += [(petersen_graph(), 3)]
    for g, kappa in cases:
        cert = vertex_connectivity(g)
        assert cert.kappa == kappa, (g.n, kappa)
        assert_valid_separator(g, cert)
    assert time.perf_counter() - start < 1.0


def test_each_pair_cut_is_the_minimum_separator_closest_to_its_first_vertex():
    # a 7-cycle with a pendant vertex: for the pair (5, 7) the search finds
    # the path 5-0-1-6-7 first, and vertex 0 stays out of the cut {6} only
    # if the next search walks back along that path from 6 to 0
    edges = [(0, 1), (0, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5), (6, 7)]
    graphs = [Graph.from_edges(8, edges)]
    rng = random.Random(717)
    graphs += [connected_gnp(rng, n) for n in (6, 7, 8) for _ in range(10)]
    for g in graphs:
        adj = to_adj(g)
        for s, t in itertools.permutations(range(g.n), 2):
            if not g.has_edge(s, t):
                size, sep = brute_closest_separator(adj, s, t, g.n)
                assert _min_vertex_cut(g.rows, s, t, g.n) == (size, mask_of(sep)), (g.rows, s, t)


# sha256 of the (rows, kappa, separator) lines below, so that any separator
# that moves changes it; rows rather than graph6, which caps at 62 vertices
CONNECTIVITY_CERTIFICATES_SHA256 = "1ce570e11de880a428664296c05cf385a45dec4a1d536a2c4265ef4c23bd6d4c"


def test_connectivity_certificates_beyond_the_oracles_are_unchanged():
    rng = random.Random(2212)
    lines = []
    for n in (12, 16, 24, 32, 48, 64):
        for p in (0.1, 0.3, 0.6):
            for _ in range(2):
                g = connected_gnp(rng, n, p)
                cert = vertex_connectivity(g)
                assert_valid_separator(g, cert)
                lines.append(f"{g.rows} {cert.kappa} {cert.separator}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == CONNECTIVITY_CERTIFICATES_SHA256


def test_connectivity_matches_networkx_past_the_brute_force_range():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1532)
    for _ in range(24):
        g = connected_gnp(rng, rng.randint(15, 32))
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        assert vertex_connectivity(g).kappa == nx.node_connectivity(G)


def test_connectivity_rejects_disconnected():
    with pytest.raises(ValueError):
        vertex_connectivity(disjoint_union(complete_graph(1), complete_graph(2)))

