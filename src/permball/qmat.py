"""The doubly-stochastic Q matrices supported on the band, plus Sinkhorn.

Three constructions: the piecewise-constant first class (exact rationals),
and the two geometric second-class families driven by the algebraic roots
alpha_r and alpha_{r,n}.  ``sinkhorn_balance`` recovers the entropy-
maximizing balanced matrix numerically; for the high range (and the even-n
boundary of the low range) its fixed point coincides with the constructed
family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import BallSpec, BandMatrix
from .errors import ConvergenceError, DimensionError, DomainError, ValidationError
from .scalar import alpha_high_root, alpha_low_root

STOCHASTIC_TOL = 1e-9
SINKHORN_MAX_ITER = 200_000

Cells = tuple[np.ndarray, np.ndarray]


def _line_sums(cells: Cells, x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of the cell values x, in x's dtype, so integer
    numerators sum exactly.  Each row's cells are one contiguous run."""
    rows, cols = cells
    row_sums = np.add.reduceat(x, np.searchsorted(rows, np.arange(n)))
    col_sums = np.zeros(n, dtype=x.dtype)
    np.add.at(col_sums, cols, x)
    return row_sums, col_sums


def _sum_deviation(cells: Cells, values: np.ndarray, n: int) -> float:
    """Max deviation of any row or column sum from 1."""
    return float(max(np.abs(s - 1.0).max() for s in _line_sums(cells, values, n)))


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Doubly-stochastic matrix stored as its values on the cells of
    ``spec``'s band (row-major, as ``BandMatrix.cells``); other entries are 0.

    The first class construction additionally carries exact integer
    numerators on the same cells over a common denominator, so double
    stochasticity can be asserted with equality rather than a tolerance.
    ``residual`` records the achieved max row/column-sum deviation.
    """

    spec: BallSpec
    values: np.ndarray
    exact_numerators: np.ndarray | None = None
    exact_denominator: int | None = None
    residual: float = 0.0
    # Zero-based (rows, cols) of ``values``; built from ``spec`` if omitted.
    cells: Cells | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.cells is None:
            object.__setattr__(self, "cells", BandMatrix(self.spec).cells())

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def entries(self) -> np.ndarray:
        """Dense n x n view, built on every access (export and tests)."""
        dense = np.zeros((self.n, self.n))
        dense[self.cells] = self.values
        return dense

    @property
    def is_exact(self) -> bool:
        return self.exact_numerators is not None

    def _positions(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Indices into ``values`` of the zero-based band cells (i, j)."""
        row_starts = np.searchsorted(self.cells[0], np.arange(self.n))
        return row_starts[i] + j - np.maximum(i - self.spec.r, 0)

    def _at(self, x: np.ndarray, i: int, j: int) -> np.number | int:
        """Cell array x at one-based (i, j); 0 off the band."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise DimensionError(f"index ({i},{j}) outside 1..{self.n}")
        if abs(i - j) > self.spec.r:
            return 0
        return x[int(self._positions(i - 1, j - 1))]

    def entry(self, i: int, j: int) -> float:
        return float(self._at(self.values, i, j))

    def entry_exact(self, i: int, j: int) -> Fraction:
        if not self.is_exact:
            raise ValidationError("matrix was not built in exact mode")
        numerator = int(self._at(self.exact_numerators, i, j))
        return Fraction(numerator, self.exact_denominator)

    def row_sums(self) -> np.ndarray:
        return _line_sums(self.cells, self.values, self.n)[0]

    def col_sums(self) -> np.ndarray:
        return _line_sums(self.cells, self.values, self.n)[1]

    def max_sum_deviation(self) -> float:
        return _sum_deviation(self.cells, self.values, self.n)

    def exactly_doubly_stochastic(self) -> bool:
        """Exact-rational check: every row/column numerator sum equals D."""
        if not self.is_exact:
            raise ValidationError("matrix was not built in exact mode")
        num, d = self.exact_numerators, self.exact_denominator
        return all((s == d).all() for s in _line_sums(self.cells, num, self.n))

    def is_symmetric(self, tol: float = 0.0) -> bool:
        x = self.exact_numerators if self.is_exact else self.values
        rows, cols = self.cells
        mirrored = x[self._positions(cols, rows)]
        return bool(np.abs(x - mirrored).max() <= (0 if self.is_exact else tol))

    def support_equals_band(self) -> bool:
        """Every band cell is positive (the cells are the band)."""
        return bool((self.values > 0).all())


def _finish(
    spec: BallSpec,
    cells: Cells,
    values: np.ndarray,
    *,
    numerators: np.ndarray | None = None,
    denominator: int | None = None,
) -> StochasticMatrix:
    residual = _sum_deviation(cells, values, spec.n)
    if residual > STOCHASTIC_TOL:
        raise ConvergenceError(
            f"constructed matrix misses double stochasticity: "
            f"residual {residual:g} > {STOCHASTIC_TOL:g}",
            residual=residual,
        )
    sm = StochasticMatrix(spec, values, numerators, denominator, residual, cells)
    if not sm.support_equals_band():
        raise ValidationError("constructed matrix support differs from the band")
    return sm


def _first_class_numerators(
    spec: BallSpec, cells: Cells, low_regime: bool
) -> tuple[np.ndarray, int]:
    n, r = spec.n, spec.r
    ij = cells[0] + cells[1] + 2  # i + j, one-based
    if low_regime:
        denominator = 2 * r + 1
        corners = (ij <= r + 1) | (ij >= 2 * n - r + 1)
    else:
        denominator = n
        corners = (ij <= n - r) | (ij >= n + r + 2)
    num = np.ones(ij.size, dtype=np.int64)
    num[corners] = 2
    return num, denominator


def q_first_class(spec: BallSpec) -> StochasticMatrix:
    """Piecewise-constant doubly-stochastic matrix on the band, in exact
    rationals.

    Entry values are 1/(2r+1) with 2/(2r+1) corner triangles when
    2r <= n-1 (``BallSpec.low_range``), and 1/n with 2/n corner triangles
    when 2r >= n-1.  At rho = 1/2 the two regimes coincide; both are built
    and asserted equal.
    """
    n, r = spec.n, spec.r
    cells = BandMatrix(spec).cells()
    num, denominator = _first_class_numerators(spec, cells, spec.low_range)
    if spec.rho == Fraction(1, 2):
        num_high, d_high = _first_class_numerators(spec, cells, False)
        if denominator != d_high or (num != num_high).any():
            raise ValidationError(
                f"regime-boundary mismatch for first-class matrix at n={n}, r={r}"
            )
    values = num / float(denominator)
    sm = _finish(spec, cells, values, numerators=num, denominator=denominator)
    if not sm.exactly_doubly_stochastic():
        raise ValidationError(
            f"first-class matrix rational sums differ from 1 at n={n}, r={r}"
        )
    return sm


def q_second_low(spec: BallSpec) -> StochasticMatrix:
    """Geometric doubly-stochastic matrix for 1 <= r <= (n-2)/2.

    On the band, entries are C*alpha^e with C = (alpha-1)/(alpha+1) and an
    exponent that decays linearly away from the corners: e = |i-j| in the
    bulk, and (r+1-i)+(r+1-j) / mirrored in the two (r+1)x(r+1) corner
    blocks, where alpha solves alpha^(r+1) = alpha + 1.
    """
    n, r = spec.n, spec.r
    if not spec.second_low_range:
        raise DomainError(
            f"second-class low matrix requires 1 <= r <= (n-2)/2, got n={n}, r={r}"
        )
    alpha = alpha_low_root(r).value
    c = (alpha - 1.0) / (alpha + 1.0)
    cells = BandMatrix(spec).cells()
    i, j = cells[0] + 1, cells[1] + 1
    expo = np.abs(i - j)
    top = (i <= r + 1) & (j <= r + 1)
    bot = (i >= n - r) & (j >= n - r)
    expo = np.where(top, (r + 1 - i) + (r + 1 - j), expo)
    expo = np.where(bot, (i - (n - r)) + (j - (n - r)), expo)
    return _finish(spec, cells, c * np.power(alpha, expo))


def q_second_high(spec: BallSpec) -> StochasticMatrix:
    """Geometric doubly-stochastic matrix for (n-1)/2 < r < n-1.

    Entries are C * alpha^(v_i + v_j) on the band with v_i = (n-r) - i for
    i <= n-r, v_i = i - (r+1) for i >= r+1, and 0 on the overlap, where
    alpha solves alpha^(n-r) + (2r-n)*alpha = 2r-n+2 and
    C = (alpha-1)*alpha^-(n-r).  This is the Sinkhorn fixed point of the
    band matrix.
    """
    n, r = spec.n, spec.r
    if not spec.second_high_range:
        raise DomainError(
            f"second-class high matrix requires (n-1)/2 < r < n-1, got n={n}, r={r}"
        )
    alpha = alpha_high_root(n, r).value
    c = (alpha - 1.0) * alpha ** (-(n - r))
    idx = np.arange(1, n + 1)
    v = np.zeros(n)
    left = idx <= n - r
    right = idx >= r + 1
    v[left] = (n - r) - idx[left]
    v[right] = idx[right] - (r + 1)
    cells = BandMatrix(spec).cells()
    expo = v[cells[0]] + v[cells[1]]
    return _finish(spec, cells, c * np.power(alpha, expo))


@dataclass(frozen=True)
class ScalingVectors:
    """Diagonal scales accumulated by Sinkhorn balancing."""

    row_scale: np.ndarray
    col_scale: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        if (self.row_scale <= 0).any() or (self.col_scale <= 0).any():
            raise ValidationError("scaling vectors must be strictly positive")


def _window_sums(spec: BallSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> A x for the 0/1 band A of ``spec``, in O(n) per call.

    (A x)_i sums x_j over the window |i-j| <= r, taken as the difference
    of two entries of the prefix sum of x.
    """
    idx = np.arange(spec.n)
    lo = np.maximum(idx - spec.r, 0)
    hi = np.minimum(idx + spec.r + 1, spec.n)
    prefix = np.zeros(spec.n + 1)

    def apply(x: np.ndarray) -> np.ndarray:
        np.cumsum(x, out=prefix[1:])
        return prefix[hi] - prefix[lo]

    return apply


def sinkhorn_balance(
    m: np.ndarray | BandMatrix,
    tol: float = STOCHASTIC_TOL,
    max_iter: int = SINKHORN_MAX_ITER,
    *,
    order: str = "rows-first",
) -> tuple[StochasticMatrix, ScalingVectors]:
    """Alternately normalize rows and columns until both sum to 1 +- tol.

    Returns the balanced matrix together with the accumulated diagonal
    scales.  Requires a matrix with total support (every row and column
    must carry positive mass); the band matrices qualify.  A ``BandMatrix``
    stays implicit (each sweep is a pair of O(n) window sums, and the
    result holds only the band cells); a dense input is the band of radius
    n-1, zeros allowed.  At convergence the cell values are built and
    their row and column sums give the returned residual.  Raises
    ConvergenceError carrying the residual if max_iter is exhausted.
    """
    if order not in ("rows-first", "cols-first"):
        raise ValidationError(f"unknown iteration order {order!r}")
    if isinstance(m, BandMatrix):
        spec, weights = m.spec, 1.0
        apply_u = apply_v = _window_sums(m.spec)  # the band is symmetric
    else:
        a = np.asarray(m, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError("sinkhorn_balance requires a square matrix")
        if (a < 0).any():
            raise DomainError("sinkhorn_balance requires non-negative entries")
        if (a.sum(axis=1) == 0).any() or (a.sum(axis=0) == 0).any():
            raise DomainError("matrix has an empty row or column (no total support)")
        spec, weights = BallSpec(a.shape[0], a.shape[0] - 1), a.ravel()
        apply_u, apply_v = a.dot, a.T.dot
        if order == "cols-first":
            apply_u, apply_v = apply_v, apply_u
    cells = BandMatrix(spec).cells()
    # u is the scale normalized first in each iteration, v the other one;
    # apply_u(v) gives the sums that u divides out, apply_v(u) those of v.
    v = np.ones(spec.n)
    den_u = apply_u(v)
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        u = 1.0 / den_u
        den_v = apply_v(u)
        v = 1.0 / den_v
        # The sums of u's side are u * den_u, with den_u the next
        # iteration's denominator; v's sums v * den_v are 1 by construction.
        den_u = apply_u(v)
        residual = float(np.abs(u * den_u - 1.0).max())
        if residual > tol:
            continue
        row, col = (u, v) if order == "rows-first" else (v, u)
        values = row[cells[0]] * weights * col[cells[1]]
        residual = _sum_deviation(cells, values, spec.n)
        if residual <= tol:
            break
    else:
        raise ConvergenceError(
            f"sinkhorn_balance did not reach tol={tol:g} in {max_iter} iterations "
            f"(residual {residual:g})",
            residual=residual,
        )
    sm = StochasticMatrix(spec, values, residual=residual, cells=cells)
    if isinstance(m, BandMatrix) and not sm.support_equals_band():
        raise ValidationError("balanced matrix support differs from the band")
    return sm, ScalingVectors(row, col, iterations, residual)
