"""The doubly-stochastic Q matrices supported on the band, plus Sinkhorn.

Three constructions: the piecewise-constant first class (exact rationals),
and the two geometric second-class families driven by the algebraic roots
alpha_r and alpha_{r,n}.  ``sinkhorn_balance`` recovers the entropy-
maximizing balanced matrix numerically as diag(x) A diag(x) for one scale
vector x, since the band A is symmetric; each sweep is one O(n) window sum
and the sweep count (at most 63 measured) does not grow with n or fall with
rho.  In the high range its fixed point coincides with ``q_second_high``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import BallSpec, BandMatrix
from .errors import ConvergenceError, DomainError, ValidationError
from .scalar import alpha_high_root, alpha_low_root

STOCHASTIC_TOL = 1e-9
# The most sweeps measured is 63, at (9,1) with tol 1e-13, over every r at
# n <= 160 and over sampled r at n from 500 to 10^5.
SINKHORN_MAX_ITER = 1_000

Cells = tuple[np.ndarray, np.ndarray]


# The band cells of the spec built last, as one tuple (spec, weakref to
# rows, weakref to cols), so the three builders share one build per spec.
# One read of the tuple never pairs a spec with another spec's cells, and
# the weak references leave the cells' lifetime to the matrices on them.
_shared_cells: tuple[BallSpec, weakref.ref, weakref.ref] | None = None


def _band_cells(spec: BallSpec) -> Cells:
    """``BandMatrix(spec).cells()``, read-only, and the same arrays for as
    long as a matrix built on them is alive."""
    global _shared_cells
    entry = _shared_cells
    if entry is not None and entry[0] == spec:
        rows, cols = entry[1](), entry[2]()
        if rows is not None and cols is not None:
            return rows, cols
    rows, cols = BandMatrix(spec).cells()
    rows.flags.writeable = False
    cols.flags.writeable = False
    _shared_cells = (spec, weakref.ref(rows), weakref.ref(cols))
    return rows, cols


def _line_sums(cells: Cells, x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of the cell values x, in x's dtype, so integer
    numerators sum exactly.  Each row's cells are one contiguous run.
    ``np.bincount`` would copy read-only (shared) column indices and cast
    integer numerators to float on every call; ``np.add.at`` does neither."""
    rows, cols = cells
    by_row = np.add.reduceat(x, np.searchsorted(rows, np.arange(n)))
    by_col = np.zeros(n, dtype=x.dtype)
    np.add.at(by_col, cols, x)
    return by_row, by_col


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
        n, r = self.n, self.spec.r
        # Cell (j, i) sits at row j's start minus its first column, plus i.
        idx = np.arange(n)
        first = np.maximum(idx - r, 0)
        counts = np.minimum(idx + r + 1, n) - first
        shift = np.cumsum(counts) - counts - first
        mirrored = x[shift[cols] + rows]
        if self.is_exact:
            return bool(np.array_equal(x, mirrored))
        return bool(np.abs(x - mirrored).max() <= tol)

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
    """The constructed matrix, once its line sums are 1 within
    STOCHASTIC_TOL (and exactly, where it has numerators) and every band
    cell is positive."""
    where = f"at n={spec.n}, r={spec.r}"
    residual = _sum_deviation(cells, values, spec.n)
    if residual > STOCHASTIC_TOL:
        raise ConvergenceError(
            f"constructed matrix misses double stochasticity {where}: "
            f"residual {residual:g} > {STOCHASTIC_TOL:g}",
            residual=residual,
        )
    sm = StochasticMatrix(spec, values, numerators, denominator, residual, cells)
    if not sm.support_equals_band():
        raise ValidationError(
            f"constructed matrix support differs from the band {where}"
        )
    if sm.is_exact and not sm.exactly_doubly_stochastic():
        raise ValidationError(
            f"constructed matrix rational sums differ from 1 {where}"
        )
    return sm


def _mirror_distance(cells: Cells, n: int) -> np.ndarray:
    """|i+j-n-1| per cell: how far the cell lies from the anti-diagonal."""
    distance = cells[0] + cells[1]
    distance += 1 - n
    return np.abs(distance, out=distance)


def q_first_class(spec: BallSpec) -> StochasticMatrix:
    """Piecewise-constant doubly-stochastic matrix on the band, in exact
    rationals.

    The band cells with |i+j-n-1| >= far, the two corner triangles, hold
    2/D and the others 1/D: (far, D) = (n-r, 2r+1) when 2r <= n-1
    (``BallSpec.low_range``), and (r+1, n) when 2r >= n-1.  At rho = 1/2
    the two pairs are the same.
    """
    n, r = spec.n, spec.r
    far, denominator = (n - r, 2 * r + 1) if spec.low_range else (r + 1, n)
    cells = _band_cells(spec)
    num = _mirror_distance(cells, n)
    np.greater_equal(num, far, out=num)
    num += 1
    values = num / float(denominator)
    return _finish(spec, cells, values, numerators=num, denominator=denominator)


def _geometric(c: float, alpha: float, expo: np.ndarray, top: int) -> np.ndarray:
    """c * alpha**expo per cell, from a table of the powers 0..top."""
    return (c * np.power(alpha, np.arange(top + 1)))[expo]


def q_second_low(spec: BallSpec) -> StochasticMatrix:
    """Geometric doubly-stochastic matrix for 1 <= r <= (n-2)/2.

    On the band, entries are C*alpha^e with C = (alpha-1)/(alpha+1) and an
    exponent that decays linearly away from the corners: e = |i-j| in the
    bulk, and (r+1-i)+(r+1-j) / mirrored in the two (r+1)x(r+1) corner
    blocks, where alpha solves alpha^(r+1) = alpha + 1.  Both pieces are
    e = max(|i-j|, |i+j-n-1| - (n-2r-1)).
    """
    n, r = spec.n, spec.r
    if not spec.second_low_range:
        raise DomainError(
            f"second-class low matrix requires 1 <= r <= (n-2)/2, got n={n}, r={r}"
        )
    alpha = alpha_low_root(r).value
    c = (alpha - 1.0) / (alpha + 1.0)
    cells = _band_cells(spec)
    expo = cells[0] - cells[1]
    np.abs(expo, out=expo)
    corner = _mirror_distance(cells, n)
    corner -= n - 2 * r - 1
    np.maximum(expo, corner, out=expo)
    return _finish(spec, cells, _geometric(c, alpha, expo, 2 * r))


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
    idx = np.arange(n)  # i - 1
    v = np.maximum(np.maximum((n - r - 1) - idx, idx - r), 0)
    cells = _band_cells(spec)
    expo = v[cells[0]]
    expo += v[cells[1]]
    return _finish(spec, cells, _geometric(c, alpha, expo, 2 * (n - r - 1)))


@dataclass(frozen=True)
class ScalingVectors:
    """The diagonal scale x of Sinkhorn balancing: Q_ij = x_i * A_ij * x_j."""

    scale: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        if (self.scale <= 0).any():
            raise ValidationError("scaling vector must be strictly positive")


def _window_sums(spec: BallSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> A x for the 0/1 band A of ``spec``, in O(n) per call.

    (A x)_i sums x_j over the window |i-j| <= r: the difference of two
    entries of the prefix sum of x - c, plus the window's width times c,
    with c the middle entry of x.  A balanced scale is flat in the middle,
    so that prefix does not grow with n and the difference loses no digits.
    """
    idx = np.arange(spec.n)
    lo = np.maximum(idx - spec.r, 0)
    hi = np.minimum(idx + spec.r + 1, spec.n)
    width = (hi - lo).astype(float)
    prefix = np.zeros(spec.n + 1)

    def apply(x: np.ndarray) -> np.ndarray:
        c = x[spec.n // 2]
        np.cumsum(x - c, out=prefix[1:])
        return prefix[hi] - prefix[lo] + c * width

    return apply


def sinkhorn_balance(
    band: BandMatrix, tol: float = STOCHASTIC_TOL
) -> tuple[StochasticMatrix, ScalingVectors]:
    """Scale the band symmetrically until its line sums are 1 +- tol.

    The band A is symmetric, so its balanced limit is x_i * A_ij * x_j for
    one vector x.  Each sweep takes s = x * (A x), one O(n) window sum, and
    sets x to x / sqrt(s) (Knight, 2008); the sweep count does not depend
    on n or rho.  At convergence the band cells are built and their line
    sums give the returned residual.  Returns the matrix and x; raises
    ConvergenceError carrying the residual after SINKHORN_MAX_ITER sweeps.
    """
    spec = band.spec
    cells = band.cells()
    window_sums = _window_sums(spec)
    # The all-ones band (r = n-1) is balanced by this start.
    x = 1.0 / np.sqrt(window_sums(np.ones(spec.n)))
    residual = np.inf
    for iterations in range(1, SINKHORN_MAX_ITER + 1):
        sums = x * window_sums(x)
        residual = float(np.abs(sums - 1.0).max())
        if residual <= tol:
            values = x[cells[0]] * x[cells[1]]
            residual = _sum_deviation(cells, values, spec.n)
            if residual <= tol:
                break
        x /= np.sqrt(sums)
    else:
        raise ConvergenceError(
            f"sinkhorn_balance did not reach tol={tol:g} in {SINKHORN_MAX_ITER} "
            f"iterations (residual {residual:g})",
            residual=residual,
        )
    sm = StochasticMatrix(spec, values, residual=residual, cells=cells)
    if not sm.support_equals_band():
        raise ValidationError("balanced matrix support differs from the band")
    return sm, ScalingVectors(x, iterations, residual)
