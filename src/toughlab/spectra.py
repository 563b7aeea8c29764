"""Dense symmetric eigensolver and the three graph spectra.

The solver computes eigenvalues only: Householder reduction to tridiagonal
form, then implicit QL with Wilkinson shifts (the tred2/tql1 pair of
Bowdler, Martin, Reinsch and Wilkinson, 1968).  An eigenvalue splits off
once its sub-diagonal coupling is at most machine epsilon times its two
diagonal neighbours; a 2x2 block that splits off is solved in closed form.
ConvergenceError reports an eigenvalue that needs more than
QL_MAX_ITERATIONS QL steps.  Results lie within a small multiple of machine
epsilon times the matrix norm of the exact eigenvalues.  The solver is
in-repo, so the package has no numeric dependency, and uses only double
arithmetic, ``math.sqrt``, ``math.hypot`` and the correctly rounded
``math.fsum``, so every machine gets the same bits.

The three spectrum functions hand the solver the matrices their builders
make, which are exactly symmetric and finite, without its input copy and
checks; other callers get both.  A ``SpectralSummary`` solves the
Laplacian and the normalized Laplacian each on its first read, so a caller
pays only for the spectra it reads, one solve each.  A regular graph's
``lambda_reg`` comes from the Laplacian spectrum, as L = dI - A.
``local_max_cut`` finds one locally maximal vertex bipartition with no
solve; its edge count bounds xi and mu_1 from below (see ``bounds``).
``adjacency_spectrum`` gives the full adjacency spectrum of any graph.

Eigenvalue order conventions: all spectra are returned descending.  The
normalized Laplacian uses the isolated-vertex convention of zeroing the
corresponding row and column, so each isolated vertex contributes a zero
eigenvalue.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul

from .graphs import Graph, degree_profile, iter_bits

QL_MAX_ITERATIONS = 30
SYMMETRY_TOL = 1e-12
_EPS = 2.0 ** -52


class ConvergenceError(RuntimeError):
    """Raised when QL exceeds its per-eigenvalue iteration cap."""


class _Built(list):
    """A matrix that a builder below made for one solve: square, of finite
    floats, exactly symmetric, and held by no caller, so the solver takes
    it as it is and overwrites it."""


def symmetric_eigenvalues(matrix: list[list[float]]) -> list[float]:
    """Eigenvalues of a symmetric real matrix, sorted descending.

    Raises ValueError for non-square, non-finite or non-symmetric input
    (tolerance SYMMETRY_TOL) and ConvergenceError if an eigenvalue needs
    more than QL_MAX_ITERATIONS QL steps.  The input is copied and checked
    unless it is one of this module's own ``_Built`` matrices.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("matrix must have dimension >= 1")
    if type(matrix) is _Built:
        a = matrix
    else:
        a = [[float(x) for x in row] for row in matrix]
        for row in a:
            if len(row) != n:
                raise ValueError("matrix must be square")
            if not all(map(math.isfinite, row)):
                raise ValueError("matrix entries must be finite")
        for i in range(n):
            for j in range(i + 1, n):
                if abs(a[i][j] - a[j][i]) > SYMMETRY_TOL:
                    raise ValueError(f"matrix not symmetric at ({i}, {j})")
    if n == 1:
        return [a[0][0]]
    diag, off = _tridiagonalize(a)
    _tridiagonal_ql(diag, off)
    return sorted(diag, reverse=True)


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Householder reduction of the symmetric ``a`` (overwritten) to the
    diagonal and sub-diagonal of a similar tridiagonal matrix.

    Row i, from the last down to row 2, is reflected onto its entry i - 1,
    after division by its 1-norm if its squares could overflow or
    underflow.  The leading block stays full and symmetric, so each
    product reads a row.
    """
    n = len(a)
    fsum, sqrt = math.fsum, math.sqrt
    off = [0.0] * n
    for i in range(n - 1, 1, -1):
        u = a[i][:i]
        h = fsum(map(mul, u, u))
        scale = 1.0
        if not 1e-150 < h < 1e150:
            scale = fsum(map(abs, u))
            if scale == 0.0:
                continue  # row i is already reduced
            u = [x / scale for x in u]
            h = fsum(map(mul, u, u))
        f = u[-1]
        g = -sqrt(h) if f >= 0.0 else sqrt(h)
        off[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        p = [fsum(map(mul, a[j], u)) / h for j in range(i)]
        k = fsum(map(mul, u, p)) / (h + h)
        q = [pj - k * uj for pj, uj in zip(p, u)]
        for j in range(i):
            aj, uj, qj = a[j], u[j], q[j]
            aj[:i] = [x - (uj * qk + qj * uk) for x, uk, qk in zip(aj, u, q)]
    off[0] = a[1][0]
    return [a[i][i] for i in range(n)], off


def _eigenvalues_2x2(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [b, c]]: the one of larger magnitude from
    the trace and discriminant, the other from the determinant over it, so
    neither cancels (as LAPACK's dlae2)."""
    sm = a + c
    rt = math.hypot(a - c, 2.0 * b)
    if sm == 0.0:
        return 0.5 * rt, -0.5 * rt
    rt1 = 0.5 * (sm + rt) if sm > 0.0 else 0.5 * (sm - rt)
    big, small = (a, c) if abs(a) > abs(c) else (c, a)
    return rt1, (big / rt1) * small - (b / rt1) * b


def _tridiagonal_ql(d: list[float], e: list[float]) -> None:
    """Overwrite d with the eigenvalues of the symmetric tridiagonal matrix
    with diagonal d and sub-diagonal e (e[i] couples i and i + 1), which
    is destroyed."""
    n = len(d)
    hypot = math.hypot
    for lo in range(n):
        steps = 0
        while True:
            m = lo
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == lo:
                break  # d[lo] has split off
            if m == lo + 1:
                d[lo], d[m] = _eigenvalues_2x2(d[lo], e[lo], d[m])
                e[lo] = 0.0
                break
            if steps == QL_MAX_ITERATIONS:
                raise ConvergenceError(
                    f"no convergence after {QL_MAX_ITERATIONS} QL iterations")
            steps += 1
            # the shift: the eigenvalue of the leading 2x2 block nearer d[lo]
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + (r if g >= 0.0 else -r))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = e[i + 1] = hypot(f, g)
                if r == 0.0:
                    # the rotation underflowed: deflate here and restart
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0


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
    return symmetric_eigenvalues(_Built(adjacency_matrix(g)))


def laplacian_spectrum(g: Graph) -> list[float]:
    if g.n < 1:
        raise ValueError("spectrum needs at least one vertex")
    return symmetric_eigenvalues(_Built(laplacian_matrix(g)))


def normalized_laplacian_spectrum(g: Graph) -> list[float]:
    if g.n < 1:
        raise ValueError("spectrum needs at least one vertex")
    return symmetric_eigenvalues(_Built(normalized_laplacian_matrix(g)))


class SpectralSummary:
    """The Laplacian and normalized spectra of one graph with n >= 2 and
    the derived scalar quantities, each computed on first read and kept.

    ``xi`` is the normalized-Laplacian deviation max(|1 - top|, |1 - second
    smallest|).  ``lambda_reg`` is max(|second largest|, |smallest|) of the
    adjacency spectrum when the graph is regular, else None: for a
    d-regular graph the adjacency eigenvalues are d minus the Laplacian
    ones, so it is max(|d - mu_{n-1}|, |mu_1 - d|).
    """

    def __init__(self, g: Graph) -> None:
        if g.n < 2:
            raise ValueError("spectral summary needs at least two vertices")
        self.g = g

    @cached_property
    def laplacian_eigs(self) -> tuple[float, ...]:
        return tuple(laplacian_spectrum(self.g))

    @cached_property
    def normalized_eigs(self) -> tuple[float, ...]:
        return tuple(normalized_laplacian_spectrum(self.g))

    @cached_property
    def xi(self) -> float:
        norm = self.normalized_eigs
        return max(abs(1.0 - norm[0]), abs(1.0 - norm[-2]))

    @cached_property
    def lambda_reg(self) -> float | None:
        dmax, dmin, _ = degree_profile(self.g)
        if dmax != dmin:
            return None
        lap = self.laplacian_eigs
        return max(abs(dmax - lap[-2]), abs(lap[0] - dmax))

    @property
    def laplacian_radius(self) -> float:
        return self.laplacian_eigs[0]

    @property
    def algebraic_connectivity(self) -> float:
        return self.laplacian_eigs[-2]


def local_max_cut(g: Graph) -> int:
    """The edge count e(S, V - S) of one locally maximal vertex bipartition
    S | V - S of ``g``, found with no solve.  Requires m >= 1.

    Each vertex in turn joins the side opposite most of its placed
    neighbours; then single vertices change sides while that grows the
    cut.  The cut ends locally maximal, so it holds at least m / 2 edges.
    The sweep's floors on xi and mu_1 read it.
    """
    if g.m < 1:
        raise ValueError("the cut floor needs at least one edge")
    rows = g.rows
    side = 0  # the vertices of S
    for v, row in enumerate(rows):
        placed = row & ((1 << v) - 1)
        if 2 * (placed & side).bit_count() < placed.bit_count():
            side |= 1 << v
    moved = True
    while moved:
        moved = False
        for v, row in enumerate(rows):
            # v changes sides when most of its neighbours share its side
            same = row & side if side >> v & 1 else row & ~side
            if 2 * same.bit_count() > row.bit_count():
                side ^= 1 << v
                moved = True
    return sum((rows[v] & ~side).bit_count() for v in iter_bits(side))

