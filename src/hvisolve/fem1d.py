"""Uniform-mesh P1 finite elements on (0,1) with a Dirichlet condition at x=0.

The Dirichlet node x_0 = 0 is eliminated, leaving n unknowns at the nodes
x_1, ..., x_n = 1 (dim V_n = n, hat basis with v_j(x_i) = delta_ij).  The
right end x_n = 1 has half support, hence the distinct last diagonal entries.

Assembly is exact (no quadrature) and dtype-agnostic: passing a
``fractions.Fraction`` mesh width produces exact rational matrices, which the
tests use for bit-level row identities.
"""

from dataclasses import dataclass

import numpy as np


class SingularSystemError(RuntimeError):
    """Raised when elimination meets a pivot below the singularity threshold."""


PIVOT_TOL = 1e-14


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of (0,1): n free nodes x_i = i*dx, i = 1..n, with n*dx = 1."""

    n: int
    dx: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("mesh needs n >= 2 free nodes")
        if abs(float(self.n * self.dx) - 1.0) > 1e-12:
            raise ValueError("n*dx must equal 1, got %r" % (self.n * self.dx,))

    @classmethod
    def uniform(cls, n):
        return cls(n, 1.0 / n)

    @property
    def nodes(self):
        """Coordinates of the free nodes x_1..x_n."""
        return float(self.dx) * np.arange(1, self.n + 1)


def _array(values):
    # Object dtype keeps Fractions exact; floats collapse to float64.
    if values and not isinstance(values[0], float):
        return np.array(values, dtype=object)
    return np.array(values, dtype=float)


@dataclass
class TridiagonalSystem:
    """Symmetric-storage tridiagonal matrix: sub-, main-, super-diagonal."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if len(self.lower) != len(self.diag) - 1 or len(self.upper) != len(self.diag) - 1:
            raise ValueError("off-diagonals must have length size-1")

    @property
    def size(self):
        return len(self.diag)

    def __add__(self, other):
        return TridiagonalSystem(
            self.lower + other.lower, self.diag + other.diag, self.upper + other.upper
        )

    def scaled(self, s):
        return TridiagonalSystem(self.lower * s, self.diag * s, self.upper * s)

    def matvec(self, x):
        """A x for a vector x, or A applied to each row of an (m, n) stack."""
        y = self.diag * x
        y[..., :-1] = y[..., :-1] + self.upper * x[..., 1:]
        y[..., 1:] = y[..., 1:] + self.lower * x[..., :-1]
        return y

    def to_dense(self):
        n = self.size
        a = np.zeros((n, n), dtype=self.diag.dtype)
        a[np.arange(n), np.arange(n)] = self.diag
        a[np.arange(1, n), np.arange(n - 1)] = self.lower
        a[np.arange(n - 1), np.arange(1, n)] = self.upper
        return a

    def row(self, i):
        """Nonzero entries of row i as (lower, diag, upper); None where absent."""
        lo = self.lower[i - 1] if i > 0 else None
        up = self.upper[i] if i < self.size - 1 else None
        return lo, self.diag[i], up


def assemble_mass(mesh):
    """Mass matrix of the hat basis: interior diag 2dx/3, last dx/3, off-diag dx/6."""
    dx, n = mesh.dx, mesh.n
    diag = [dx * 2 / 3] * (n - 1) + [dx / 3]
    off = [dx / 6] * (n - 1)
    return TridiagonalSystem(_array(off), _array(diag), _array(off))


def assemble_stiffness(mesh):
    """Stiffness matrix: interior diag 2/dx, last 1/dx, off-diag -1/dx."""
    dx, n = mesh.dx, mesh.n
    one = dx / dx  # stays exact for Fraction input
    diag = [2 * one / dx] * (n - 1) + [one / dx]
    off = [-one / dx] * (n - 1)
    return TridiagonalSystem(_array(off), _array(diag), _array(off))


@dataclass(frozen=True)
class ThomasFactor:
    """Thomas elimination of a tridiagonal matrix, done once for many solves.

    Row i of the forward sweep is ``d_i = (b_i - lower[i-1]*d_{i-1}) / pivots[i]``
    and of the back sweep ``x_i = d_i - mult[i]*x_{i+1}``, with
    ``mult[i] = upper[i] / pivots[i]``.  The entries are Python floats, so a
    vector solve runs on floats instead of numpy scalars; the arithmetic per
    column is the same for a vector and for an array of columns.
    """

    lower: tuple
    pivots: tuple
    mult: tuple

    @property
    def size(self):
        return len(self.pivots)

    def solve(self, rhs):
        """Solve for a vector, or for each column of an (n, m) array in one row sweep."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or len(rhs) != self.size:
            raise ValueError("rhs shape %s does not fit system size %d" % (rhs.shape, self.size))
        if rhs.ndim == 1:
            return np.array(self._substitute(rhs.tolist()), dtype=float)
        return self._substitute(rhs.copy())

    def _substitute(self, x):
        # Overwrites x, a list of floats or an (n, m) array holding the
        # right-hand side, with the solution, one row at a time.
        lower, pivots, mult = self.lower, self.pivots, self.mult
        xi = x[0] / pivots[0]
        x[0] = xi
        for i in range(1, len(x)):
            xi = (x[i] - lower[i - 1] * xi) / pivots[i]
            x[i] = xi
        for i in range(len(x) - 2, -1, -1):
            xi = x[i] - mult[i] * xi
            x[i] = xi
        return x


def factor_tridiagonal(sys):
    """Pivots and multipliers of Thomas elimination; raises SingularSystemError
    on |pivot| < 1e-14.

    Entries are taken as floats, so a ``Fraction`` matrix factors like the
    float matrix of its rounded entries.
    """
    diag = np.asarray(sys.diag, dtype=float).tolist()
    lower = np.asarray(sys.lower, dtype=float).tolist()
    upper = np.asarray(sys.upper, dtype=float).tolist()
    pivots = []
    mult = []
    piv = diag[0]
    for i in range(sys.size):
        if i > 0:
            mult.append(upper[i - 1] / piv)
            piv = diag[i] - lower[i - 1] * mult[-1]
        if abs(piv) < PIVOT_TOL:
            raise SingularSystemError("zero pivot at row %d" % i)
        pivots.append(piv)
    return ThomasFactor(tuple(lower), tuple(pivots), tuple(mult))


def solve_tridiagonal(sys, rhs):
    """Thomas elimination; raises SingularSystemError on |pivot| < 1e-14.

    ``rhs`` is a vector or an (n, m) array; an array is solved for all m
    columns in one sweep over the rows, with the same arithmetic per column
    as the vector solve.  To solve with one matrix many times, factor it once
    with ``factor_tridiagonal``.
    """
    return factor_tridiagonal(sys).solve(rhs)


def factor_ldl(sys):
    """Symmetric tridiagonal A = L D L^T with L unit lower bidiagonal.

    Returns L as a TridiagonalSystem with a zero upper diagonal, so that
    ``solve_tridiagonal(L, b)`` is the forward sweep L^{-1} b, and the pivots
    D as a vector.  Raises SingularSystemError on |pivot| < 1e-14.  On a
    symmetric matrix these are the Thomas pivots, and L's subdiagonal is the
    Thomas multipliers.
    """
    if not np.array_equal(sys.lower, sys.upper):
        raise ValueError("LDL^T factorization needs a symmetric matrix")
    factor = factor_tridiagonal(sys)
    n = sys.size
    low = TridiagonalSystem(np.array(factor.mult), np.ones(n), np.zeros(n - 1))
    return low, np.array(factor.pivots)
