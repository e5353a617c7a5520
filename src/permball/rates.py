"""Coding-rate consequences: ball-packing and covering-code upper bounds.

Rates are in bits per symbol with no standalone log2(n) term: the finite
quotients cancel it against the log of the factorial, and the asymptotic
forms are already stated that way.  A rate is asymptotic when n is None
and finite otherwise.  Asymptotically a lower bound of exponent E
(``asym.exponent``) gives the rate E - log2(e): the "new" curves are the
best lower exponent, min(E_phi2, E_phi3), minus log2(e).  The "old"
curves reproduce the bounds known before the improved ball-size
estimates: phi1's for packing, the prior-art formula for covering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .asym import exponent, step_grid
from .bounds import best_finite_lower_bound
from .core import RHO_DENOMINATOR_LIMIT, BallSpec, radius_from_rho
from .errors import CapacityError, DomainError, ValidationError
from .oracle import ball_size_exact
from .scalar import LOG2E, LN2, log2_factorial

KINDS = ("ecc_old", "ecc_new", "cover_old", "cover_new")

# The figures' 99-point default grids: fig2's ECC grid ends at delta = 1
# where the new bound improves the most, fig3's covering grid straddles
# rho = 1/2.
DEFAULT_ECC_GRID = tuple(step_grid(0.01, 2))
DEFAULT_COVER_GRID = tuple(step_grid(0.01, 1))


@dataclass(frozen=True)
class RatePoint:
    kind: str
    x: float
    rate_bits: float
    mode: str
    n: int | None = None


# The lower families each variant's ball exponent is the best of.
_LOWER = {"old": ("phi1",), "new": ("phi2", "phi3")}


def _rate_from_exponent(variant: str, rho: float) -> float:
    """The variant's best lower exponent at rho, minus log2(e)."""
    return min(exponent(f, rho).e_value for f in _LOWER[variant]) - LOG2E


def _cover_asymptotic(rho: float, variant: str) -> float:
    if variant == "new":
        return _rate_from_exponent(variant, rho)
    # Prior art, no family's exponent: E_phi1 - log2(e) + 1 to rho = 1/2.
    if rho <= 0.5:
        return 2.0 * rho + math.log2(1.0 / rho)
    return 2.0 * (1.0 - rho)


def _log2_ball_or_lower(spec: BallSpec) -> float:
    try:
        return math.log2(ball_size_exact(spec))
    except CapacityError:
        return best_finite_lower_bound(spec)


def ecc_rate_upper(
    delta: float, variant: str = "new", n: int | None = None
) -> RatePoint:
    """Upper bound on the rate of a code with normalized distance delta.

    Asymptotic (n None): such a code packs balls of radius delta/2.
    Finite: (1/n)*(log2(n!) - log2 |B_{floor((d-1)/2), n}|) with
    d = delta*(n-1), taking the exact ball size when a backend can reach
    it and the best lower bound otherwise (which only weakens the packing
    bound).
    """
    _check_variant(variant, n)
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"ecc bound requires delta in (0, 1], got {delta}")
    kind = f"ecc_{variant}"
    if n is None:
        rate = _rate_from_exponent(variant, delta / 2.0)
        return RatePoint(kind, delta, rate, "asymptotic")
    # Exact rational distance: 0.29 * 100 is 28.999999999999996 in floats.
    arg = Fraction(delta).limit_denominator(RHO_DENOMINATOR_LIMIT) * (n - 1) - 1
    if arg < 0:
        raise DomainError(
            f"delta={delta} gives a negative packing radius argument at n={n}"
        )
    spec = BallSpec(n, arg // 2)
    rate = (log2_factorial(n) - _log2_ball_or_lower(spec)) / n
    return RatePoint(kind, delta, rate, "finite", n)


def covering_rate_upper(
    rho: float, variant: str = "new", n: int | None = None
) -> RatePoint:
    """Upper bound on the rate of an optimal covering code of radius rho.

    Asymptotic when n is None.  Finite requires rho*(n-1) integral and
    evaluates (1/n)*(log2(n!*(1+ln(n!))) - log2 |B_{rho,n}|).
    """
    _check_variant(variant, n)
    if not 0.0 < rho < 1.0:
        raise DomainError(f"covering bound requires rho in (0, 1), got {rho}")
    kind = f"cover_{variant}"
    if n is None:
        return RatePoint(kind, rho, _cover_asymptotic(rho, variant), "asymptotic")
    spec = radius_from_rho(Fraction(rho).limit_denominator(RHO_DENOMINATOR_LIMIT), n)
    ln_nf = log2_factorial(n) * LN2
    rate = (
        log2_factorial(n) + math.log2(1.0 + ln_nf) - _log2_ball_or_lower(spec)
    ) / n
    return RatePoint(kind, rho, rate, "finite", n)


def _check_variant(variant: str, n: int | None) -> None:
    if variant not in ("old", "new"):
        raise ValidationError(f"variant must be 'old' or 'new', got {variant!r}")
    if n is not None and n < 2:
        raise ValidationError("finite mode requires n >= 2")
    if n is not None and variant == "old":
        raise ValidationError(
            "finite mode has no 'old' variant: it takes the exact ball size "
            "or the best lower bound, not the bounds known before"
        )


def rate_table(
    kinds: Sequence[str] = KINDS, grid: Iterable[float] | None = None
) -> list[RatePoint]:
    """Asymptotic rate points for the requested kinds over a grid, sorted
    by (kind, x)."""
    points: list[RatePoint] = []
    # Read a one-shot iterator once, for every kind.
    grid = None if grid is None else tuple(grid)
    for kind in kinds:
        if kind not in KINDS:
            raise ValidationError(f"unknown rate kind {kind!r}")
        family, variant = kind.split("_")
        xs = grid
        if xs is None:
            xs = DEFAULT_ECC_GRID if family == "ecc" else DEFAULT_COVER_GRID
        rate = ecc_rate_upper if family == "ecc" else covering_rate_upper
        points.extend(rate(x, variant) for x in xs)
    points.sort(key=lambda p: (p.kind, p.x))
    return points
