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
from functools import cached_property
from typing import Callable

import numpy as np

from .core import BallSpec, BandMatrix, Cells
from .errors import ConvergenceError, DomainError, ValidationError
from .scalar import alpha_high_root, alpha_low_root

STOCHASTIC_TOL = 1e-9
# The most sweeps measured is 63, at (9,1) with tol 1e-13, over every r at
# n <= 160 and over sampled r at n from 500 to 10^5.
SINKHORN_MAX_ITER = 1_000

# The band cells of each spec a live matrix is built on, so the builders
# and Sinkhorn share one layout, and its mirror index, per spec; the
# matrices alone keep an entry alive.
_LAYOUTS = weakref.WeakValueDictionary()


def _band_cells(spec: BallSpec) -> Cells:
    """``BandMatrix(spec).cells()``, the same record for as long as a
    matrix built on it is alive."""
    cells = _LAYOUTS.get(spec)
    if cells is None:
        cells = _LAYOUTS[spec] = BandMatrix(spec).cells()
    return cells


def _sum_deviation(cells: Cells, values: np.ndarray) -> float:
    """Max |s - 1| over the row sums s, each row one run from its start.
    fl(s - 1) is monotone in s and fl(1 - s) is its negation, so the two
    extreme sums give it to the bit.  No column is summed: every matrix
    here is exactly symmetric."""
    sums = np.add.reduceat(values, cells.starts)
    return float(max(sums.max() - 1.0, 1.0 - sums.min()))


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Doubly-stochastic matrix stored as its values on the cells of
    ``spec``'s band (row-major, as ``BandMatrix.cells``); other entries are 0.

    The first class construction additionally carries exact integer
    numerators on the same cells over a common denominator, so double
    stochasticity can be asserted with equality rather than a tolerance.
    Every matrix built here is exactly symmetric, so its column sums are
    its row sums.  ``cells`` is ``spec``'s shared layout, and ``residual``
    the max row-sum deviation of ``values``, computed on first use.
    """

    spec: BallSpec
    values: np.ndarray
    exact_numerators: np.ndarray | None = None
    exact_denominator: int | None = None
    cells: Cells = field(init=False, repr=False)

    def __post_init__(self):
        cells = _band_cells(self.spec)
        if self.values.shape != cells.rows.shape:
            raise ValidationError(
                f"{self.values.size} values for {cells.rows.size} cells of {self.spec}"
            )
        object.__setattr__(self, "cells", cells)

    @cached_property
    def residual(self) -> float:
        """Max |s - 1| over the row sums s of ``values``."""
        return _sum_deviation(self.cells, self.values)

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def entries(self) -> np.ndarray:
        """Dense n x n view, built on every access (export and tests)."""
        dense = np.zeros((self.n, self.n))
        dense[self.cells.rows, self.cells.cols] = self.values
        return dense

    @property
    def is_exact(self) -> bool:
        return self.exact_numerators is not None

    def exactly_doubly_stochastic(self) -> bool:
        """Exact-rational check: every row numerator sum equals D and the
        numerators are symmetric, so every column sum equals D too."""
        if not self.is_exact:
            raise ValidationError("matrix was not built in exact mode")
        return self._exact_rows() and self.is_symmetric()

    def _exact_rows(self) -> bool:
        """Every row's numerators sum to the denominator exactly."""
        sums = np.add.reduceat(self.exact_numerators, self.cells.starts)
        return bool((sums == self.exact_denominator).all())

    def is_symmetric(self) -> bool:
        """Every cell equals its mirror exactly (on the numerators, when
        exact): each Q built here is symmetric in IEEE arithmetic."""
        x = self.exact_numerators if self.is_exact else self.values
        return bool((x[self.cells.mirror] == x).all())

    def support_equals_band(self) -> bool:
        """Every band cell is positive (the cells are the band)."""
        return bool(self.values.min() > 0)


def _finish(
    spec: BallSpec,
    values: np.ndarray,
    *,
    numerators: np.ndarray | None = None,
    denominator: int | None = None,
) -> StochasticMatrix:
    """The constructed matrix, once its row sums are 1 within
    STOCHASTIC_TOL, every band cell is positive, its numerator rows (the
    first class's) sum to the denominator exactly, and every cell equals
    its mirror exactly, which makes each column sum its row's."""
    sm = StochasticMatrix(spec, values, numerators, denominator)
    if sm.residual > STOCHASTIC_TOL:
        raise ConvergenceError(
            f"constructed matrix misses double stochasticity at n={spec.n}, "
            f"r={spec.r}: residual {sm.residual:g} > {STOCHASTIC_TOL:g}",
            residual=sm.residual,
        )
    if not sm.support_equals_band():
        problem = "constructed matrix support differs from the band {}"
    elif sm.is_exact and not sm._exact_rows():
        problem = "constructed matrix rational sums differ from 1 {}"
    elif not sm.is_symmetric():
        kind = "first-class" if sm.is_exact else "second-class"
        problem = kind + " asymmetry {}: a cell is not its mirror"
    else:
        return sm
    raise ValidationError(problem.format(f"at n={spec.n}, r={spec.r}"))


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
    # 1 + [|i+j-n-1| >= far] by zero-based i + j, read per cell.
    num = ((np.abs(np.arange(1 - n, n)) >= far) + 1)[cells.rows + cells.cols]
    # Exact for the numerators 1 and 2, so each value is num / D.
    values = num * (1.0 / denominator)
    return _finish(spec, values, numerators=num, denominator=denominator)


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
    # The corner term by zero-based i + j, read per cell.
    corner = np.abs(np.arange(1 - n, n)) - (n - 2 * r - 1)
    expo = cells.rows - cells.cols
    np.abs(expo, out=expo)
    np.maximum(expo, corner[cells.rows + cells.cols], out=expo)
    return _finish(spec, _geometric(c, alpha, expo, 2 * r))


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
    expo = v[cells.rows]
    expo += v[cells.cols]
    return _finish(spec, _geometric(c, alpha, expo, 2 * (n - r - 1)))


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
    lo, width, _ = BandMatrix(spec).windows()
    hi = lo + width
    width = width.astype(float)
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
    on n or rho.  At convergence the band cells x_i * x_j are built and
    their row sums give the returned residual; x_i * x_j = x_j * x_i in
    IEEE arithmetic, so each column holds its row's values.  Returns the
    matrix and x; raises ConvergenceError carrying the residual after
    SINKHORN_MAX_ITER sweeps.
    """
    spec = band.spec
    cells = _band_cells(spec)
    window_sums = _window_sums(spec)
    # The all-ones band (r = n-1) is balanced by this start.
    x = 1.0 / np.sqrt(window_sums(np.ones(spec.n)))
    residual = np.inf
    for iterations in range(1, SINKHORN_MAX_ITER + 1):
        sums = x * window_sums(x)
        residual = float(np.abs(sums - 1.0).max())
        if residual <= tol:
            sm = StochasticMatrix(spec, x[cells.rows] * x[cells.cols])
            residual = sm.residual
            if residual <= tol:
                break
        x /= np.sqrt(sums)
    else:
        raise ConvergenceError(
            f"sinkhorn_balance did not reach tol={tol:g} in {SINKHORN_MAX_ITER} "
            f"iterations (residual {residual:g})",
            residual=residual,
        )
    if not sm.support_equals_band():
        raise ValidationError("balanced matrix support differs from the band")
    return sm, ScalingVectors(x, iterations, residual)
