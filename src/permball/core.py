"""Ball specifications, normalized radii and the implicit band matrix.

Everything downstream is indexed by a ``BallSpec`` (n, r): the ball of
radius r around any center in S_n, and the 0/1 banded Toeplitz matrix
whose permanent equals the ball size.  All indices are one-based, matching
the convention [n] = {1, ..., n}; conversion to zero-based happens only at
array edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError

# CLI rho strings are parsed as exact rationals; decimals whose exact
# denominator exceeds this are rejected rather than silently rounded.
RHO_DENOMINATOR_LIMIT = 10**6


@dataclass(frozen=True)
class BallSpec:
    """A ball/band specification: n symbols, integer radius 0 <= r <= n-1."""

    n: int
    r: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.r, int) or isinstance(self.r, bool):
            raise ValidationError(f"r must be an integer, got {self.r!r}")
        if not 0 <= self.r <= self.n - 1:
            raise ValidationError(
                f"radius r={self.r} outside 0..n-1={self.n - 1} for n={self.n}"
            )

    @property
    def rho(self) -> Fraction:
        """Normalized radius r/(n-1); zero for the degenerate n=1 space."""
        if self.n == 1:
            return Fraction(0)
        return Fraction(self.r, self.n - 1)

    # The three radius ranges on which the bounds and the doubly-stochastic
    # constructions split (rho = 1/2 sits at 2r = n-1).

    @property
    def low_range(self) -> bool:
        """2r <= n-1: the low branch of phi1, Phi1, phi2 and the first class."""
        return 2 * self.r <= self.n - 1

    @property
    def second_low_range(self) -> bool:
        """1 <= r <= (n-2)/2: the domain of the second-class low matrix."""
        return 1 <= self.r and 2 * self.r <= self.n - 2

    @property
    def second_high_range(self) -> bool:
        """(n-1)/2 < r < n-1: the domain of the second-class high matrix."""
        return 2 * self.r > self.n - 1 and self.r < self.n - 1


@dataclass(frozen=True)
class BandMatrix:
    """Implicit n x n band matrix with ones exactly on |i-j| <= r.

    Entries are computed, never stored.  Numeric consumers work on the
    O(n r) cell list from ``cells`` or on each row's window |i-j| <= r.
    """

    spec: BallSpec

    @property
    def n(self) -> int:
        return self.spec.n

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-based (rows, cols) of the |i-j| <= r cells in row-major
        order, built in O(n r) without an n x n mask."""
        idx = np.arange(self.n)
        lo = np.maximum(idx - self.spec.r, 0)
        counts = np.minimum(idx + self.spec.r + 1, self.n) - lo
        rows = np.repeat(idx, counts)
        # Column = lo of the row plus the cell's offset within its row.
        starts = np.cumsum(counts) - counts
        cols = np.arange(rows.size) + np.repeat(lo - starts, counts)
        return rows, cols


def parse_rho(text: str) -> Fraction:
    """Parse "p/q" or a decimal string as an exact rational rho.

    Decimals are taken at face value; if the exact denominator exceeds
    RHO_DENOMINATOR_LIMIT the input is rejected (use p/q form instead of
    relying on any rounding).  ``radius_from_rho`` checks the range.
    """
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse rho {text!r}") from exc
    if value.denominator > RHO_DENOMINATOR_LIMIT:
        raise ValidationError(
            f"rho {text!r} has denominator {value.denominator} above the "
            f"limit {RHO_DENOMINATOR_LIMIT}; pass an exact p/q fraction"
        )
    return value


def radius_from_rho(rho: Fraction, n: int) -> BallSpec:
    """Convert a normalized radius to BallSpec(n, rho*(n-1)).

    rho*(n-1) must be an integer; otherwise a ValidationError names the
    nearest n >= 2 for which it would be (never silently rounded).
    """
    if not 0 <= rho <= 1:
        raise ValidationError(f"rho={rho} outside [0, 1]")
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    product = rho * (n - 1)
    if product.denominator != 1:
        # The admissible n are 1 + m*q; m = 0 gives the one-symbol space.
        q = rho.denominator
        lower = 1 + q * ((n - 1) // q)
        upper = lower + q
        nearest = lower if lower > 1 and n - lower <= upper - n else upper
        raise ValidationError(
            f"rho*(n-1)={float(product):g} not integral for rho={rho} and "
            f"n={n}; nearest admissible n is {nearest}"
        )
    return BallSpec(n, int(product))
