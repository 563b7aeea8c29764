"""Eigensolver against the numpy and Jacobi oracles, plus the spectrum
conventions."""

import contextlib
import io
import json
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from toughlab import (
    ConvergenceError,
    Graph,
    SpectralSummary,
    complete_graph,
    cycle_graph,
    disjoint_union,
    degree_profile,
    empty_graph,
    join,
    laplacian_spectrum,
    adjacency_spectrum,
    normalized_laplacian_spectrum,
    petersen_graph,
    star_graph,
    symmetric_eigenvalues,
)
from toughlab import spectra
from toughlab.bounds import laplacian_independence_bound
from toughlab.cli import main
from toughlab.formats import enumerate_labeled, write_graph6
from toughlab.spectra import (
    adjacency_matrix,
    laplacian_matrix,
    local_max_cut,
    normalized_laplacian_matrix,
)
from toughlab.sweep import GraphFacts

from _oracles import has_nontrivial_bipartite_component, jacobi_eigenvalues


def close(xs, ys, tol=1e-8):
    return len(xs) == len(ys) and all(abs(a - b) <= tol for a, b in zip(xs, ys))


def test_solver_fixed_points(petersen):
    assert close(symmetric_eigenvalues([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [1, 1, 1])
    assert close(symmetric_eigenvalues([[0, 1], [1, 0]]), [1, -1])
    eigs = adjacency_spectrum(petersen)
    assert close(eigs, [3] + [1] * 5 + [-2] * 4)


def test_solver_against_numpy_oracle():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 12)
        raw = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
        mat = [[(raw[i][j] + raw[j][i]) / 2 for j in range(n)] for i in range(n)]
        want = sorted(np.linalg.eigvalsh(np.array(mat)), reverse=True)
        got = symmetric_eigenvalues(mat)
        # convergence target 1e-12 * initial Frobenius norm keeps the
        # eigenvalue error far inside the documented residual budget
        assert close(got, want, tol=1e-9)


def test_solver_rotates_entries_whose_squares_underflow():
    # 1e-170 squared underflows to zero, so a test on a sum of squares
    # would call these matrices diagonal and return zeros; 1e-160 squared
    # is subnormal and 1e160 squared overflows, so the reflections rescale
    for t in (1e-160, 1e-170, 1e-300, 1e160):
        got = symmetric_eigenvalues([[0, t], [t, 0]])
        assert abs(got[0] - t) <= 4 * math.ulp(t) and abs(got[1] + t) <= 4 * math.ulp(t), got
        got = symmetric_eigenvalues([[0, t, t], [t, 0, t], [t, t, 0]])
        want = [2 * t, -t, -t]
        assert all(abs(x - y) <= 8 * math.ulp(t) for x, y in zip(got, want)), got


def test_solver_and_jacobi_oracle_near_the_overflow_threshold():
    # squares of entries above about 1e154 overflow: a Frobenius norm built
    # from them is inf, and a convergence target of inf takes the diagonal
    # (1, -1, 1) * 1e300 for the eigenvalues
    scale = 1e300
    mat = [[x * scale for x in row] for row in ([1, 1, 0], [1, -1, 1], [0, 1, 1])]
    want = [math.sqrt(3) * scale, scale, -math.sqrt(3) * scale]
    for got in (jacobi_eigenvalues(mat), symmetric_eigenvalues(mat)):
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want)), got


def test_jacobi_oracle_agrees_with_the_solver_near_the_underflow_threshold():
    # an absolute convergence floor of 1e-300 stopped Jacobi early here:
    # at 1e-300 it returned (1.642, 1.030, -1.672) * 1e-300
    for scale in (1e-280, 1e-300):
        mat = [[x * scale for x in row] for row in ([1, 1, 0], [1, -1, 1], [0, 1, 1])]
        want = symmetric_eigenvalues(mat)
        got = jacobi_eigenvalues(mat)
        assert all(abs(a - b) <= 4 * math.ulp(b) for a, b in zip(got, want)), (scale, got, want)
        assert all(abs(a - b * scale) <= 1e-12 * scale
                   for a, b in zip(want, (math.sqrt(3), 1.0, -math.sqrt(3)))), (scale, want)
    assert jacobi_eigenvalues([[0.0] * 3 for _ in range(3)]) == [0.0] * 3


def test_solver_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eigenvalues([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        symmetric_eigenvalues([[0, 1]])
    with pytest.raises(ValueError):
        symmetric_eigenvalues([])
    assert symmetric_eigenvalues([[4.5]]) == [4.5]


def test_laplacian_examples(k4, claw, petersen):
    assert close(laplacian_spectrum(k4), [4, 4, 4, 0])
    assert close(laplacian_spectrum(claw), [4, 1, 1, 0])
    assert close(laplacian_spectrum(petersen), [5] * 4 + [2] * 5 + [0])


def test_normalized_examples(c4, petersen):
    assert close(normalized_laplacian_spectrum(c4), [2, 1, 1, 0])
    want = [5 / 3] * 4 + [2 / 3] * 5 + [0]
    assert close(normalized_laplacian_spectrum(petersen), want)
    lonely = disjoint_union(complete_graph(1), complete_graph(2))
    assert close(normalized_laplacian_spectrum(lonely), [2, 0, 0])


def test_summary_examples(petersen, c4, k4):
    s = SpectralSummary(petersen)
    assert abs(s.xi - 2 / 3) <= 1e-8 and abs(s.lambda_reg - 2) <= 1e-8
    s = SpectralSummary(c4)
    assert abs(s.xi - 1) <= 1e-8 and abs(s.lambda_reg - 2) <= 1e-8
    s = SpectralSummary(k4)
    assert abs(s.xi - 1 / 3) <= 1e-8 and abs(s.lambda_reg - 1) <= 1e-8
    irregular = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        SpectralSummary(Graph.from_edges(1, []))
    assert SpectralSummary(irregular).lambda_reg is None


def test_summary_solves_twice_for_every_graph(monkeypatch, claw, c4):
    calls = []
    solve = spectra.symmetric_eigenvalues
    monkeypatch.setattr(spectra, "symmetric_eigenvalues",
                        lambda m: calls.append("solve") or solve(m))
    # construction solves nothing; each spectrum is solved on first read
    for g in (claw, c4):
        calls.clear()
        s = SpectralSummary(g)
        assert calls == []
        _ = s.xi, s.laplacian_eigs, s.xi, s.laplacian_eigs
        assert calls == ["solve", "solve"]
    # lambda_reg needs no solve on an irregular graph, and on a regular one
    # only L, as L = dI - A
    calls.clear()
    assert SpectralSummary(claw).lambda_reg is None
    assert calls == []
    s = SpectralSummary(c4)
    assert s.lambda_reg is not None
    assert calls == ["solve"] and "laplacian_eigs" in vars(s) and "normalized_eigs" not in vars(s)
    # `toughlab spectra` reads both spectra and adds the adjacency solve
    for g in (claw, c4):
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(g) + "\n"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["spectra"]) == 0
        assert calls == ["solve"] * 3, write_graph6(g)


def test_cli_spectra_prints_the_adjacency_spectrum(monkeypatch, claw, c4):
    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(claw) + "\n" + write_graph6(c4) + "\n"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["spectra"]) == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["adjacency"] for r in records] == [adjacency_spectrum(claw), adjacency_spectrum(c4)]
    assert close(records[0]["adjacency"], [math.sqrt(3), 0, 0, -math.sqrt(3)])
    assert records[0]["lambda"] is None and records[1]["lambda"] is not None


def test_exhaustive_spectrum_invariants():
    # every labeled graph on up to 6 vertices
    for n in range(2, 7):
        for g in enumerate_labeled(n):
            lap = laplacian_spectrum(g)
            norm = normalized_laplacian_spectrum(g)
            assert len(lap) == n and len(norm) == n
            assert abs(math.fsum(lap) - 2 * g.m) <= 1e-8
            assert abs(lap[-1]) <= 1e-8
            assert abs(norm[-1]) <= 1e-8
            assert all(-1e-8 <= x <= 2 + 1e-8 for x in norm)
            dmax, dmin, _ = degree_profile(g)
            if dmax == dmin and dmax > 0:
                adj = adjacency_spectrum(g)
                d = dmax
                for i in range(n):
                    assert abs(lap[i] - (d - adj[n - 1 - i])) <= 1e-8
                    assert abs(norm[i] - lap[i] / d) <= 1e-8


def test_top_normalized_eigenvalue_detects_bipartite_parts():
    for n in range(2, 6):
        for g in enumerate_labeled(n):
            if g.m == 0:
                continue
            top = normalized_laplacian_spectrum(g)[0]
            assert (abs(top - 2) <= 1e-7) == has_nontrivial_bipartite_component(g)


def _gnp(n, p, rng):
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < p])


def _xi(g):
    norm = normalized_laplacian_spectrum(g)
    return max(abs(1.0 - norm[0]), abs(1.0 - norm[-2]))


def _xi_floor(g):
    """The exact floor (2 cut - m) / m on xi from a locally maximal cut."""
    return Fraction(2 * local_max_cut(g) - g.m, g.m)


def test_the_cut_floor_is_under_the_solved_xi():
    # every labeled graph with an edge on up to 6 vertices, then seeded
    # G(n, p) on 7 to 16
    rng = random.Random(29)
    graphs = [g for n in range(2, 7) for g in enumerate_labeled(n) if g.m]
    graphs += [_gnp(n, p, rng) for n in range(7, 17) for p in (0.2, 0.5, 0.8)
               for _ in range(4)]
    for g in graphs:
        if g.m:
            floor, xi = _xi_floor(g), _xi(g)
            # a locally maximal cut holds at least half the edges
            assert 0 <= floor <= 1 and floor <= xi + 1e-12, write_graph6(g)
    with pytest.raises(ValueError, match="edge"):
        local_max_cut(empty_graph(3))


def test_the_cut_floor_is_sharp_on_bipartite_graphs(petersen):
    # a bipartite graph with an edge has xi = 1, and its bipartition cuts
    # every edge, so the floor is 1
    cube = Graph.from_edges(16, [(v, v ^ 1 << b) for v in range(16) for b in range(4)])
    bipartite = [cycle_graph(n) for n in range(4, 13, 2)]
    bipartite += [join(empty_graph(a), empty_graph(b)) for a in range(1, 5) for b in range(a, 6)]
    for g in (*bipartite, cube, disjoint_union(cycle_graph(6), empty_graph(2))):
        assert _xi_floor(g) == 1 and abs(_xi(g) - 1.0) <= 1e-12, write_graph6(g)
    for g in (petersen, *(cycle_graph(n) for n in range(3, 12, 2))):
        floor = _xi_floor(g)
        assert floor < 1 and floor <= _xi(g) + 1e-12


def test_the_laplacian_floor_and_ceiling_hold_and_are_sharp():
    # every connected non-complete labeled graph on up to 6 vertices, then
    # seeded G(n, p) on 7 to 16: mu_1 is over its floor F and mu_{n-1}
    # under its ceiling C, and the screen holds the exact bounds at them,
    # on the far side of the solved ones up to solver error
    rng = random.Random(30)
    graphs = [g for n in range(3, 7) for g in enumerate_labeled(n, connected_only=True)]
    graphs += [_gnp(n, p, rng) for n in range(7, 17) for p in (0.2, 0.5, 0.8)
               for _ in range(4)]
    checked = 0
    for g in graphs:
        f = GraphFacts(write_graph6(g), g)
        if not f.bounded:
            continue
        checked += 1
        lap = laplacian_spectrum(g)
        floor, ceiling = Fraction(*f.mu1_floor), min(f.dmin, f.cert.tau_num)
        assert floor == max(f.dmax + 1, Fraction(4 * f.cut, g.n)), f.g6
        assert floor <= lap[0] + 1e-12 and ceiling >= lap[-2] - 1e-12, f.g6
        screen = [Fraction(*pair) for pair in f.lap_screen]
        assert screen == [floor * ceiling / (g.n * (floor - f.dmin)),
                          ceiling / (floor - ceiling)], f.g6
        assert all(bound >= solved - 1e-12 for bound, solved in zip(screen, f.lap_bounds)), f.g6
        assert (g.n * (floor - f.dmin) / floor
                <= laplacian_independence_bound(g.n, f.dmin, lap[0]) + 1e-12)
    assert checked > 27_000
    # the star K_{1,k}: mu_1 = dmax + 1 = n and mu_{n-1} = |S| = 1 for its centre
    for k in range(2, 11):
        f = GraphFacts(write_graph6(star_graph(k)), star_graph(k))
        lap = laplacian_spectrum(f.g)
        assert f.mu1_floor == (f.dmax + 1, 1) == (k + 1, 1) and abs(lap[0] - (k + 1)) <= 1e-12
        assert min(f.dmin, f.cert.tau_num) == f.cert.tau_num == 1 and abs(lap[-2] - 1) <= 1e-12
    # K_{a,a} and the 4-cube: the cut takes every edge and mu_1 = 4 cut / n
    cube = Graph.from_edges(16, [(v, v ^ 1 << b) for v in range(16) for b in range(4)])
    for g in (*(join(empty_graph(a), empty_graph(a)) for a in range(2, 6)), cube):
        f = GraphFacts(write_graph6(g), g)
        assert f.cut == g.m and f.mu1_floor == (4 * g.m, g.n) and 4 * g.m > (f.dmax + 1) * g.n
        assert abs(laplacian_spectrum(g)[0] - 4 * g.m / g.n) <= 1e-12, f.g6


def test_eigenvalue_counts_with_multiplicity():
    g = cycle_graph(5)
    assert len(adjacency_spectrum(g)) == 5
    assert len(laplacian_spectrum(g)) == 5
    assert len(normalized_laplacian_spectrum(g)) == 5


def test_adjacency_trace_vanishes():
    for n in range(2, 5):
        for g in enumerate_labeled(n):
            assert abs(math.fsum(adjacency_spectrum(g))) <= 1e-9


def test_laplacian_matrix_rows_sum_to_zero(petersen):
    for row in laplacian_matrix(petersen):
        assert abs(sum(row)) <= 1e-12


def frobenius(mat):
    return math.sqrt(math.fsum(x * x for row in mat for x in row))


def assert_matches_oracles(mat):
    """QL within 1e-12 of the Frobenius norm of both numpy and Jacobi."""
    got = symmetric_eigenvalues(mat)
    tol = 1e-12 * frobenius(mat)
    for want in (sorted(np.linalg.eigvalsh(np.array(mat, dtype=float)), reverse=True),
                 jacobi_eigenvalues(mat)):
        assert len(got) == len(want)
        assert all(abs(a - b) <= tol for a, b in zip(got, want)), (mat, got, want)


def test_solver_matches_both_oracles_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 30)
        raw = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
        assert_matches_oracles([[(raw[i][j] + raw[j][i]) / 2 for j in range(n)]
                                for i in range(n)])


def test_solver_matches_both_oracles_on_every_small_graph():
    for n in range(1, 6):
        for g in enumerate_labeled(n):
            for build in (laplacian_matrix, normalized_laplacian_matrix, adjacency_matrix):
                assert_matches_oracles(build(g))


def test_solver_matches_both_oracles_on_degenerate_spectra():
    graphs = [complete_graph(n) for n in range(1, 9)]
    graphs += [petersen_graph(), join(empty_graph(7), empty_graph(7)), empty_graph(6)]
    for g in graphs:
        for build in (laplacian_matrix, normalized_laplacian_matrix, adjacency_matrix):
            assert_matches_oracles(build(g))
    diagonal = [[float(i == j) * (3 - i) for j in range(6)] for i in range(6)]
    zero = [[0.0] * 5 for _ in range(5)]
    for mat in (diagonal, zero):
        assert_matches_oracles(mat)
    assert symmetric_eigenvalues(diagonal) == [3.0, 2.0, 1.0, 0.0, -1.0, -2.0]
    assert symmetric_eigenvalues(zero) == [0.0] * 5
    # K7,7: 7 and -7 once, 0 with multiplicity 12
    eigs = adjacency_spectrum(join(empty_graph(7), empty_graph(7)))
    assert close(eigs, [7] + [0] * 12 + [-7], tol=1e-12)


def test_an_exhausted_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(spectra, "QL_MAX_ITERATIONS", 0)
    with pytest.raises(ConvergenceError, match="no convergence after 0 QL iterations"):
        symmetric_eigenvalues([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    with pytest.raises(ConvergenceError):
        laplacian_spectrum(cycle_graph(5))
    # a diagonal matrix needs no iteration, and a 2x2 block is solved in
    # closed form
    assert symmetric_eigenvalues([[2, 0, 0], [0, 1, 0], [0, 0, 3]]) == [3.0, 2.0, 1.0]
    assert symmetric_eigenvalues([[1, -1], [-1, 1]]) == [2.0, 0.0]


def test_verify_reports_an_exhausted_iteration_cap_per_line(monkeypatch, capsys):
    monkeypatch.setattr(spectra, "QL_MAX_ITERATIONS", 0)
    # the edgeless graph's matrices are diagonal, so only line 2 fails
    monkeypatch.setattr("sys.stdin", io.StringIO("A?\nCl\n"))
    assert main(["verify"]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("line 2: no convergence after 0 QL iterations\n")
    assert json.loads(err.splitlines()[-1])["diagnostics"] == 1


def test_solver_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            symmetric_eigenvalues([[0, 1, 0], [1, bad, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="finite"):
        symmetric_eigenvalues([[math.nan]])
