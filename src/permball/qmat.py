"""The doubly-stochastic Q matrices supported on the band, plus Sinkhorn.

Three constructions: the piecewise-constant first class (exact rationals),
and the two geometric second-class families driven by the algebraic roots
alpha_r and alpha_{r,n}.  ``sinkhorn_balance`` recovers the entropy-
maximizing balanced matrix numerically as diag(x) A diag(x) for one scale
vector x, since the band A is symmetric; each sweep is one O(n) window sum
and the sweep count (at most 63 measured) does not grow with n or fall with
rho.  In the high range its fixed point coincides with ``q_second_high``.

Every Q here is symmetric, and is stored as the r+1 diagonals of its upper
triangle (symmetric band storage): ``values[d, t] = Q[t, t+d]``, zero-based,
in an (r+1) x (n+1) array whose other entries, the padding, are exactly 0.
The builders evaluate their formulas on that (d, t) grid through strided
views of small 1-D tables, and the row sums read the lower triangle through
one strided view of the same array, so no per-cell index array is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import BallSpec, BandMatrix
from .errors import ConvergenceError, DomainError, ValidationError
from .scalar import alpha_high_root, alpha_low_root

STOCHASTIC_TOL = 1e-9
# The most sweeps measured is 63, at (9,1) with tol 1e-13, over every r at
# n <= 160 and over sampled r at n from 500 to 10^5.
SINKHORN_MAX_ITER = 1_000


def _diagonal_grid(table: np.ndarray, r: int, n: int, step: int = 1) -> np.ndarray:
    """The read-only (r+1) x (n+1) view ``grid[d, t] = table[step*t + d]``
    of a 1-D table of at least step*n + r + 1 entries: a per-cell formula in
    t+d (the column, step 1) or 2t+d (the zero-based i+j, step 2)."""
    # The view reads memory unchecked, so its last entry must be the table's.
    assert table.shape == (table.size,) and table.size > step * n + r
    stride = table.strides[0]
    return as_strided(table, (r + 1, n + 1), (stride, step * stride), writeable=False)


def _on_band(n: int, r: int) -> np.ndarray:
    """True on the stored cells that are band cells, t+d < n, and False on
    the padding."""
    return _diagonal_grid(np.arange(n + r + 1) < n, r, n)


def _row_sums(stored: np.ndarray) -> np.ndarray:
    """Each row's sum of a Q stored as its upper diagonals.

    Row t's cells from the diagonal rightwards are column t of ``stored``.
    Its cells left of the diagonal, Q[t, t-d] = stored[d, t-d], sit at flat
    index d*n + t, so they are one strided view whose rows step by n; where
    t < d that view reads padding, which is 0.
    """
    n = stored.shape[1] - 1
    flat = stored.reshape(-1)
    step = flat.strides[0]
    left = as_strided(
        flat[n:], (stored.shape[0] - 1, n), (n * step, step), writeable=False
    )
    return stored[:, :n].sum(axis=0) + left.sum(axis=0)


def band_sum(stored: np.ndarray) -> float:
    """The sum over every band cell of a per-cell term stored as a Q's
    values are: the diagonal once, and each other stored cell twice, for
    itself and its mirror."""
    return float(np.sum(stored[0])) + 2.0 * float(np.sum(stored[1:]))


def _dense(stored: np.ndarray) -> np.ndarray:
    """The n x n array of a Q stored as its upper diagonals."""
    n = stored.shape[1] - 1
    dense = np.zeros((n, n), stored.dtype)
    flat = dense.reshape(-1)
    for d, diagonal in enumerate(stored):
        flat[d :: n + 1][: n - d] = diagonal[: n - d]  # Q[t, t+d]
        flat[d * n :: n + 1][: n - d] = diagonal[: n - d]  # Q[t+d, t]
    return dense


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Doubly-stochastic matrix on ``spec``'s band, symmetric by storage.

    ``values[d, t]`` is Q[t, t+d] = Q[t+d, t] (zero-based) for 0 <= d <= r
    and t < n-d, in an (r+1) x (n+1) array whose other entries, the
    padding, are exactly 0.  Entries off the band are 0, and a Q cannot be
    asymmetric, so its column sums are its row sums.

    The first class construction additionally carries exact integer
    numerators in the same layout over a common denominator, so double
    stochasticity can be asserted with equality rather than a tolerance.
    ``residual`` is the max row-sum deviation of ``values``, computed on
    first use.
    """

    spec: BallSpec
    values: np.ndarray
    exact_numerators: np.ndarray | None = None
    exact_denominator: int | None = None

    def __post_init__(self):
        shape = (self.spec.r + 1, self.spec.n + 1)
        for name in ("values", "exact_numerators"):
            stored = getattr(self, name)
            if stored is not None and stored.shape != shape:
                raise ValidationError(
                    f"{name} of shape {stored.shape} for {self.spec}, which "
                    f"stores its r+1 diagonals as {shape}"
                )

    @cached_property
    def residual(self) -> float:
        """Max |s - 1| over the row sums s of ``values``.  fl(s - 1) is
        monotone in s and fl(1 - s) is its negation, so the two extreme
        sums give it to the bit."""
        sums = _row_sums(self.values)
        return float(max(sums.max() - 1.0, 1.0 - sums.min()))

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def entries(self) -> np.ndarray:
        """Dense n x n view, built on every access (export and tests)."""
        return _dense(self.values)

    def row_major(self, *stored: np.ndarray) -> tuple[np.ndarray, ...]:
        """The band cells' zero-based rows and columns in row-major order,
        then each of ``stored`` (arrays laid out as ``values``) at them."""
        rows, cols = BandMatrix(self.spec).cells()
        # Cell (i, j) is stored on diagonal |i-j| at position min(i, j).
        at = (np.abs(cols - rows), np.minimum(rows, cols))
        return (rows, cols, *(x[at] for x in stored))

    @property
    def is_exact(self) -> bool:
        return self.exact_numerators is not None

    def exactly_doubly_stochastic(self) -> bool:
        """Exact-rational check: every row numerator sum equals D, and so,
        by symmetry, does every column's."""
        if not self.is_exact:
            raise ValidationError("matrix was not built in exact mode")
        return bool((_row_sums(self.exact_numerators) == self.exact_denominator).all())

    def support_equals_band(self) -> bool:
        """Every band cell is positive, and no padding cell is."""
        return bool(np.array_equal(self.values > 0, _on_band(self.n, self.spec.r)))


def _finish(
    spec: BallSpec,
    values: np.ndarray,
    *,
    numerators: np.ndarray | None = None,
    denominator: int | None = None,
) -> StochasticMatrix:
    """The constructed matrix, once its row sums are 1 within
    STOCHASTIC_TOL, it is positive exactly on the band, and its numerator
    rows (the first class's) sum to the denominator exactly."""
    sm = StochasticMatrix(spec, values, numerators, denominator)
    if sm.residual > STOCHASTIC_TOL:
        raise ConvergenceError(
            f"constructed matrix misses double stochasticity at n={spec.n}, "
            f"r={spec.r}: residual {sm.residual:g} > {STOCHASTIC_TOL:g}",
            residual=sm.residual,
        )
    if not sm.support_equals_band():
        problem = "constructed matrix support differs from the band {}"
    elif sm.is_exact and not sm.exactly_doubly_stochastic():
        problem = "constructed matrix rational sums differ from 1 {}"
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
    # 1 + [|i+j-n-1| >= far] by the zero-based i + j = 2t+d of cell (t, t+d).
    by_sum = (np.abs(np.arange(1 - n, n + r + 2)) >= far) + 1
    # In C order, which the row sums' strided view of the lower part needs.
    num = np.multiply(_diagonal_grid(by_sum, r, n, step=2), _on_band(n, r), order="C")
    # Exact for the numerators 1 and 2, so each value is num / D.
    values = num * (1.0 / denominator)
    return _finish(spec, values, numerators=num, denominator=denominator)


def _powers(c: float, alpha: float, top: int) -> np.ndarray:
    """c * alpha**e for the exponents e = 0..top."""
    return c * np.power(alpha, np.arange(top + 1))


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
    powers = _powers((alpha - 1.0) / (alpha + 1.0), alpha, 2 * r)
    # The corner term by the zero-based i + j, at least 0 (so never above
    # the bulk term d) and at most 2r, which only padding cells exceed.
    corner = np.abs(np.arange(1 - n, n + r + 2)) - (n - 2 * r - 1)
    by_sum = powers[np.clip(corner, 0, 2 * r)]
    # alpha > 1, so the powers increase and the larger of two powers is the
    # power of the larger exponent.
    grid = _diagonal_grid(by_sum, r, n, step=2)
    values = np.maximum(powers[: r + 1, None], grid, order="C")  # C, as the first class
    values *= _on_band(n, r)
    return _finish(spec, values)


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
    top = n - r - 1  # the largest v
    powers = _powers((alpha - 1.0) * alpha ** (-(n - r)), alpha, 2 * top)
    # The Hankel view by_sum[v, w] = powers[v + w], read at (v_t, v_(t+d)),
    # so no exponent is summed per cell.  Past the last column, v is
    # 2*top + 1, whose Hankel column is all zeros.
    padded = np.concatenate([powers, np.zeros(top + 1)])
    stride = padded.strides[0]
    by_sum = as_strided(padded, (top + 1, 2 * top + 2), (stride, stride), writeable=False)
    idx = np.arange(n + r + 1)  # i - 1
    v = np.maximum(np.maximum(top - idx, idx - r), 0)
    v[n:] = 2 * top + 1
    v_row = np.minimum(v[: n + 1], top)  # any v at the padding column t = n
    return _finish(spec, by_sum[v_row, _diagonal_grid(v, r, n)])


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
    lo, width = BandMatrix(spec).windows()
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
    on n or rho.  At convergence the stored cells x_t * x_(t+d) are built
    and their row sums give the returned residual.  Returns the
    matrix and x; raises ConvergenceError carrying the residual after
    SINKHORN_MAX_ITER sweeps.
    """
    spec = band.spec
    n, r = spec.n, spec.r
    window_sums = _window_sums(spec)
    # The all-ones band (r = n-1) is balanced by this start.
    x = 1.0 / np.sqrt(window_sums(np.ones(n)))
    # x zero-padded, so x_t * x_(t+d) is 0 on the padding cells.
    padded = np.zeros(n + r + 1)
    residual = np.inf
    for iterations in range(1, SINKHORN_MAX_ITER + 1):
        sums = x * window_sums(x)
        residual = float(np.abs(sums - 1.0).max())
        if residual <= tol:
            padded[:n] = x
            values = padded[: n + 1] * _diagonal_grid(padded, r, n)
            sm = StochasticMatrix(spec, values)
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
