"""Dense symmetric eigensolver and the three graph spectra.

The solver is a cyclic-rotation (Jacobi) diagonalizer kept in-repo so the
package has no numeric dependency and every run is bit-for-bit
deterministic.  Convergence: off-diagonal Frobenius norm <= 1e-12 times the
initial Frobenius norm plus an absolute floor of 1e-300, capped at
JACOBI_MAX_SWEEPS full sweeps.  Before each sweep a scan of the upper
triangle looks for one entry above the target; since the off-norm is at
least sqrt(2) times any entry, such an entry proves the sweep is needed,
and the exact sum of squares runs only when the scan finds none.

``spectral_summary`` solves the Laplacian and normalized Laplacian, which
every bound reads, and the adjacency matrix only for regular graphs, where
``lambda_reg`` needs it; it keeps that adjacency spectrum.
``adjacency_spectrum`` gives the full adjacency spectrum of any graph.

Eigenvalue order conventions: all spectra are returned descending.  The
normalized Laplacian uses the isolated-vertex convention of zeroing the
corresponding row and column, so each isolated vertex contributes a zero
eigenvalue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .graphs import Graph, degree_profile, iter_bits

JACOBI_MAX_SWEEPS = 100
SYMMETRY_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when the rotation loop fails to reach the target off-norm."""


def symmetric_eigenvalues(matrix: list[list[float]]) -> list[float]:
    """Eigenvalues of a symmetric real matrix, sorted descending.

    Raises ValueError for non-square or non-symmetric input (tolerance
    SYMMETRY_TOL) and ConvergenceError if JACOBI_MAX_SWEEPS sweeps do not
    reach the convergence target.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("matrix must have dimension >= 1")
    a = [[float(x) for x in row] for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > SYMMETRY_TOL:
                raise ValueError(f"matrix not symmetric at ({i}, {j})")
    if n == 1:
        return [a[0][0]]

    fro = math.sqrt(math.fsum(x * x for row in a for x in row))
    target = 1e-12 * fro + 1e-300
    plan = _rotation_plan(n)

    def converged() -> bool:
        # off_norm >= sqrt(2) |a_pq|, so one entry above target settles it
        # without the sum, whose squares can also underflow to zero
        for p, q, _ in plan:
            if abs(a[p][q]) > target:
                return False
        return math.sqrt(2.0 * math.fsum(
            a[p][q] * a[p][q] for p, q, _ in plan)) <= target

    for _ in range(JACOBI_MAX_SWEEPS):
        if converged():
            return sorted((a[i][i] for i in range(n)), reverse=True)
        for p, q, others in plan:
            ap = a[p]
            apq = ap[q]
            if apq == 0.0:
                continue
            aq = a[q]
            app, aqq = ap[p], aq[q]
            diff = aqq - app
            if abs(apq) < 1e-36 * abs(diff):
                t = apq / diff
            else:
                theta = diff / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            ap[p] = app - t * apq
            aq[q] = aqq + t * apq
            ap[q] = aq[p] = 0.0
            for i in others:
                ai = a[i]
                aip, aiq = ai[p], ai[q]
                ai[p] = ap[i] = aip - s * (aiq + tau * aip)
                ai[q] = aq[i] = aiq + s * (aip - tau * aiq)
    if converged():
        return sorted((a[i][i] for i in range(n)), reverse=True)
    raise ConvergenceError(f"no convergence after {JACOBI_MAX_SWEEPS} sweeps")


@functools.cache
def _rotation_plan(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Cyclic sweep order: each pair p < q with the indices other than p, q."""
    return tuple((p, q, tuple(i for i in range(n) if i != p and i != q))
                 for p in range(n - 1) for q in range(p + 1, n))


def adjacency_matrix(g: Graph) -> list[list[float]]:
    out = [[0.0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        for u in iter_bits(g.rows[v]):
            out[v][u] = 1.0
    return out


def laplacian_matrix(g: Graph) -> list[list[float]]:
    out = [[0.0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        out[v][v] = float(g.rows[v].bit_count())
        for u in iter_bits(g.rows[v]):
            out[v][u] = -1.0
    return out


def normalized_laplacian_matrix(g: Graph) -> list[list[float]]:
    inv_sqrt = [1.0 / math.sqrt(d) if (d := row.bit_count()) else 0.0 for row in g.rows]
    out = [[0.0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        if g.rows[v]:
            out[v][v] = 1.0
        for u in iter_bits(g.rows[v]):
            out[v][u] = -inv_sqrt[v] * inv_sqrt[u]
    return out


def adjacency_spectrum(g: Graph) -> list[float]:
    if g.n < 1:
        raise ValueError("spectrum needs at least one vertex")
    return symmetric_eigenvalues(adjacency_matrix(g))


def laplacian_spectrum(g: Graph) -> list[float]:
    if g.n < 1:
        raise ValueError("spectrum needs at least one vertex")
    return symmetric_eigenvalues(laplacian_matrix(g))


def normalized_laplacian_spectrum(g: Graph) -> list[float]:
    if g.n < 1:
        raise ValueError("spectrum needs at least one vertex")
    return symmetric_eigenvalues(normalized_laplacian_matrix(g))


@dataclass(frozen=True)
class SpectralSummary:
    """The Laplacian and normalized spectra of one graph, the adjacency
    spectrum if the graph is regular (else None), and the derived scalar
    quantities.

    ``xi`` is the normalized-Laplacian deviation max(|1 - top|, |1 - second
    smallest|).  ``lambda_reg`` is max(|second largest|, |smallest|) of the
    adjacency spectrum when the graph is regular, else None.
    """

    laplacian_eigs: tuple[float, ...]
    normalized_eigs: tuple[float, ...]
    xi: float
    regular_adjacency_eigs: tuple[float, ...] | None

    @property
    def lambda_reg(self) -> float | None:
        adj = self.regular_adjacency_eigs
        return None if adj is None else max(abs(adj[1]), abs(adj[-1]))

    @property
    def laplacian_radius(self) -> float:
        return self.laplacian_eigs[0]

    @property
    def algebraic_connectivity(self) -> float:
        return self.laplacian_eigs[-2]


def spectral_summary(g: Graph) -> SpectralSummary:
    """Compute the spectra the bounds read and the derived quantities.

    The adjacency spectrum is solved only for regular graphs, where it
    gives ``lambda_reg``.  Requires n >= 2.
    """
    if g.n < 2:
        raise ValueError("spectral summary needs at least two vertices")
    lap = laplacian_spectrum(g)
    norm = normalized_laplacian_spectrum(g)
    xi = max(abs(1.0 - norm[0]), abs(1.0 - norm[-2]))
    dmax, dmin, _ = degree_profile(g)
    adj = tuple(adjacency_spectrum(g)) if dmax == dmin else None
    return SpectralSummary(tuple(lap), tuple(norm), xi, adj)

