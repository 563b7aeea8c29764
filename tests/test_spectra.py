"""Eigensolver against the numpy oracle, plus the spectrum conventions."""

import contextlib
import io
import json
import math
import random

import numpy as np
import pytest

from toughlab import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    degree_profile,
    laplacian_spectrum,
    adjacency_spectrum,
    normalized_laplacian_spectrum,
    spectral_summary,
    symmetric_eigenvalues,
)
from toughlab import spectra
from toughlab.cli import main
from toughlab.formats import enumerate_labeled, write_graph6
from toughlab.spectra import laplacian_matrix

from _oracles import has_nontrivial_bipartite_component


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
    # 1e-170 squared underflows to zero, so the sum of squares alone would
    # call the matrix diagonal before any rotation
    assert symmetric_eigenvalues([[0, 1e-170], [1e-170, 0]]) == [1e-170, -1e-170]


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
    s = spectral_summary(petersen)
    assert abs(s.xi - 2 / 3) <= 1e-8 and abs(s.lambda_reg - 2) <= 1e-8
    s = spectral_summary(c4)
    assert abs(s.xi - 1) <= 1e-8 and abs(s.lambda_reg - 2) <= 1e-8
    s = spectral_summary(k4)
    assert abs(s.xi - 1 / 3) <= 1e-8 and abs(s.lambda_reg - 1) <= 1e-8
    irregular = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        spectral_summary(Graph.from_edges(1, []))
    assert spectral_summary(irregular).lambda_reg is None


def test_summary_solves_adjacency_only_for_regular_graphs(monkeypatch, claw, c4):
    calls = []
    solve, adjacency = spectra.symmetric_eigenvalues, spectra.adjacency_spectrum
    monkeypatch.setattr(spectra, "symmetric_eigenvalues",
                        lambda m: calls.append("solve") or solve(m))
    monkeypatch.setattr(spectra, "adjacency_spectrum",
                        lambda g: calls.append("adjacency") or adjacency(g))
    assert spectral_summary(claw).lambda_reg is None
    assert calls == ["solve", "solve"]
    calls.clear()
    assert spectral_summary(c4).lambda_reg is not None
    assert calls.count("solve") == 3 and calls.count("adjacency") == 1
    # `toughlab spectra` prints the full adjacency list with no extra solve
    for g in (claw, c4):
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(g) + "\n"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["spectra"]) == 0
        assert calls.count("solve") == 3, write_graph6(g)


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
