"""Domain types for permutations under the infinity (Chebyshev) metric.

Everything downstream is indexed by a ``BallSpec`` (n, r): the ball of
radius r around any center in S_n, and the 0/1 banded Toeplitz matrix
whose permanent equals the ball size.  All indices are one-based, matching
the convention [n] = {1, ..., n}; conversion to zero-based happens only at
array edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionError, ValidationError

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
class PermutationVector:
    """A permutation of {1,...,n}, stored as the image tuple (f(1),...,f(n))."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n < 1:
            raise ValidationError("permutation must have length >= 1")
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValidationError(
                f"entries {self.image!r} are not a permutation of 1..{n}"
            )

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.image):
            raise DimensionError(f"index {i} outside 1..{len(self.image)}")
        return self.image[i - 1]

    @classmethod
    def identity(cls, n: int) -> "PermutationVector":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_string(cls, text: str) -> "PermutationVector":
        """Parse the external one-line format, e.g. "3,1,2"."""
        try:
            image = tuple(int(part) for part in text.strip().split(","))
        except ValueError as exc:
            raise ValidationError(f"cannot parse permutation {text!r}") from exc
        return cls(image)

    def to_string(self) -> str:
        return ",".join(str(v) for v in self.image)

    def compose(self, other: "PermutationVector") -> "PermutationVector":
        """Composition self∘other, the mapping i -> self(other(i))."""
        if len(self) != len(other):
            raise DimensionError(
                f"cannot compose permutations of lengths {len(self)} and {len(other)}"
            )
        return PermutationVector(tuple(self.image[j - 1] for j in other.image))


def infinity_distance(
    f: PermutationVector | Sequence[int], g: PermutationVector | Sequence[int]
) -> int:
    """Chebyshev distance max_i |f(i) - g(i)| between two permutations."""
    fi = f.image if isinstance(f, PermutationVector) else tuple(f)
    gi = g.image if isinstance(g, PermutationVector) else tuple(g)
    if len(fi) != len(gi):
        raise DimensionError(
            f"length mismatch: {len(fi)} vs {len(gi)}"
        )
    return max(abs(a - b) for a, b in zip(fi, gi))


def band_entry(spec: BallSpec, i: int, j: int) -> int:
    """Entry (i, j) of the banded Toeplitz 0/1 matrix: 1 iff |i-j| <= r."""
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise DimensionError(f"index ({i},{j}) outside 1..{spec.n}")
    return 1 if abs(i - j) <= spec.r else 0


@dataclass(frozen=True)
class BandMatrix:
    """Implicit n x n band matrix with ones exactly on |i-j| <= r.

    Entries are computed, never stored, so arbitrarily large n costs O(1)
    memory.  Dense views exist for the small-n numeric backends.
    """

    spec: BallSpec

    @property
    def n(self) -> int:
        return self.spec.n

    def entry(self, i: int, j: int) -> int:
        return band_entry(self.spec, i, j)

    def row_ones(self, i: int) -> int:
        """Number of ones in row i (between r+1 and 2r+1)."""
        if not 1 <= i <= self.n:
            raise DimensionError(f"row {i} outside 1..{self.n}")
        lo = max(1, i - self.spec.r)
        hi = min(self.n, i + self.spec.r)
        return hi - lo + 1

    def support_mask(self) -> np.ndarray:
        """Dense boolean mask of the band (materializes n x n)."""
        idx = np.arange(1, self.n + 1)
        return np.abs(idx[:, None] - idx[None, :]) <= self.spec.r

    def toarray(self) -> np.ndarray:
        """Dense float 0/1 matrix (materializes n x n)."""
        return self.support_mask().astype(float)

    def rows(self) -> Iterator[list[int]]:
        """Row-by-row dense integer view, for exact-arithmetic consumers."""
        for i in range(1, self.n + 1):
            yield [band_entry(self.spec, i, j) for j in range(1, self.n + 1)]


@dataclass(frozen=True)
class NormalizedRadius:
    """An exact rational normalized radius rho in [0, 1]."""

    rho: Fraction

    def __post_init__(self):
        if not 0 <= self.rho <= 1:
            raise ValidationError(f"rho={self.rho} outside [0, 1]")

    @classmethod
    def parse(cls, text: str) -> "NormalizedRadius":
        """Parse "p/q" or a decimal string as an exact rational.

        Decimals are taken at face value; if the exact denominator exceeds
        RHO_DENOMINATOR_LIMIT the input is rejected (use p/q form instead of
        relying on any rounding).
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
        return cls(value)

    def radius(self, n: int) -> BallSpec:
        return radius_from_rho(self.rho, n)


def radius_from_rho(rho: Fraction | NormalizedRadius, n: int) -> BallSpec:
    """Convert a normalized radius to BallSpec(n, rho*(n-1)).

    rho*(n-1) must be an integer; otherwise a ValidationError names the
    nearest n for which it would be (never silently rounded).
    """
    frac = rho.rho if isinstance(rho, NormalizedRadius) else Fraction(rho)
    if not 0 <= frac <= 1:
        raise ValidationError(f"rho={frac} outside [0, 1]")
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    product = frac * (n - 1)
    if product.denominator != 1:
        q = frac.denominator
        lower = 1 + q * ((n - 1) // q)
        upper = lower + q
        if lower < 1 or lower == n:
            lower = upper
        nearest = lower if abs(n - lower) <= abs(n - upper) else upper
        raise ValidationError(
            f"rho*(n-1)={float(product):g} not integral for rho={frac} and "
            f"n={n}; nearest admissible n is {nearest}"
        )
    return BallSpec(n, int(product))
