"""Asymptotic exponents, the four gap curves, and the crossover constant.

The exponent E(rho) of a family is normalized by
log2(bound) = n*log2(n) - n*E(rho) + o(n); a gap is then the difference of
a lower-family exponent and the upper-family exponent.  Each gap value is
double-derived: the closed-form expression must agree with the exponent
difference to 1e-9 on every call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import finite_bound
from .core import BallSpec
from .errors import DomainError, PermballError, ValidationError
from .scalar import LOG2E, binary_entropy, mu_star, t_hat

logger = logging.getLogger(__name__)

EXPONENT_FAMILIES = ("phi1", "Phi1", "phi1_prime", "phi2", "phi3")
GAP_PAIRS = ("phi1", "phi1_prime", "phi2", "phi3")

DUAL_DERIVATION_TOL = 1e-9

# The rho where the phi2 and phi3 gap curves cross, ~0.249: the root of
# (3 - 2*log2(e))*rho = 2 - log2(e) - log2(log2(e)).
CROSSOVER_XI = (2.0 - LOG2E - math.log2(LOG2E)) / (3.0 - 2.0 * LOG2E)

# The finest figure grid: 10^5 points, about 5 s for fig1 at the measured
# 47 us per point (2-vCPU host).  A finer step asks for time and memory
# without bound (1e-300 would be 10^300 points).
GRID_MIN_STEP = 1e-5


@dataclass(frozen=True)
class Exponent:
    family: str
    rho: float
    e_value: float


@dataclass(frozen=True)
class GapCurvePoint:
    pair: str
    rho: float
    gap_bits: float


def _require_open_unit(rho: float, what: str) -> None:
    if not 0.0 < rho < 1.0:
        raise DomainError(f"{what} requires rho in (0, 1), got {rho}")


def exponent(family: str, rho: float) -> Exponent:
    """The bracketed per-symbol exponent E(rho) of a bound family."""
    if family not in EXPONENT_FAMILIES:
        raise ValidationError(
            f"unknown exponent family {family!r}; expected one of {EXPONENT_FAMILIES}"
        )
    _require_open_unit(rho, f"exponent({family!r})")
    log2rho = math.log2(rho)
    if family == "phi1":
        if rho <= 0.5:
            e = LOG2E - 1.0 + 2.0 * rho - log2rho
        else:
            e = LOG2E - log2rho
    elif family == "Phi1":
        if rho <= 0.5:
            e = (LOG2E - 1.0) * (2.0 * rho + 1.0) - log2rho
        else:
            e = LOG2E * (3.0 - 2.0 * rho) + 2.0 * rho * log2rho
    elif family == "phi1_prime":
        if rho > 0.5:
            raise DomainError(f"phi1_prime exponent requires rho <= 1/2, got {rho}")
        mu = mu_star()
        e = (
            (LOG2E - 1.0) * (2.0 * rho + 1.0)
            - log2rho
            + 2.0 * (binary_entropy(mu) + math.log2(mu)) * rho
        )
    elif family == "phi2":
        if rho <= 0.5:
            e = LOG2E - 1.0 + rho - log2rho
        else:
            e = LOG2E + 2.0 * (1.0 - rho) ** 2
    else:
        if rho <= 0.5:
            e = (LOG2E - 1.0) * 2.0 * rho - log2rho - math.log2(LOG2E) + 1.0
        else:
            t = t_hat(rho)
            e = (
                math.log2(math.e * t / LOG2E)
                - t * (2.0 * rho - 1.0)
                - math.log2(1.0 - rho)
            )
    return Exponent(family, rho, e)


def _gap_closed_form(pair: str, rho: float) -> float:
    if pair == "phi1":
        if rho <= 0.5:
            return (4.0 - 2.0 * LOG2E) * rho
        return 2.0 * (rho - 1.0) * LOG2E - (2.0 * rho + 1.0) * math.log2(rho)
    if pair == "phi1_prime":
        mu = mu_star()
        return 2.0 * (binary_entropy(mu) + math.log2(mu)) * rho
    if pair == "phi2":
        if rho <= 0.5:
            return (3.0 - 2.0 * LOG2E) * rho
        return 2.0 * (1.0 - rho) * (1.0 - rho - LOG2E) - 2.0 * rho * math.log2(rho)
    if rho <= 0.5:
        return math.log2(4.0 / (math.e * LOG2E))
    t = t_hat(rho)
    return (
        math.log2(t / LOG2E)
        - t * (2.0 * rho - 1.0)
        - math.log2(1.0 - rho)
        - 2.0 * (1.0 - rho) * LOG2E
        - 2.0 * rho * math.log2(rho)
    )


def gap(pair: str, rho: float) -> GapCurvePoint:
    """Asymptotic gap (bits per symbol) of a lower family against Phi1.

    Evaluates the closed-form expression and cross-checks it against
    the exponent difference on every call.
    """
    if pair not in GAP_PAIRS:
        raise ValidationError(
            f"unknown gap pair {pair!r}; expected one of {GAP_PAIRS}"
        )
    _require_open_unit(rho, f"gap({pair!r})")
    if pair == "phi1_prime" and not rho < 0.5:
        raise DomainError(f"phi1_prime gap requires rho in (0, 1/2), got {rho}")
    value = _gap_closed_form(pair, rho)
    rederived = exponent(pair, rho).e_value - exponent("Phi1", rho).e_value
    if abs(value - rederived) > DUAL_DERIVATION_TOL:
        raise PermballError(
            f"gap({pair}, {rho}) dual derivation mismatch: closed {value!r} vs "
            f"exponent difference {rederived!r}"
        )
    return GapCurvePoint(pair, rho, value)


def crossover_xi() -> float:
    """``CROSSOVER_XI``, checked: the phi2 and phi3 gap curves agree there."""
    xi = CROSSOVER_XI
    if abs(gap("phi2", xi).gap_bits - gap("phi3", xi).gap_bits) > DUAL_DERIVATION_TOL:
        raise PermballError("crossover constant fails the defining equality")
    return xi


def step_grid(step: float, first: int = 1) -> list[float]:
    """The figure grid step*k for round(1/step) - 1 consecutive k from
    ``first``: rho in (0, 1) from first = 1, delta in (0, 1] from first = 2.

    A point above 1 (the last one from first = 2 when round(1/step) >
    1/step, e.g. 0.28*4) is taken as 1, the largest admissible delta.
    Steps outside [GRID_MIN_STEP, 1/2] are rejected; every step inside
    gives at least one point.
    """
    if not GRID_MIN_STEP <= step <= 0.5:
        raise ValidationError(f"grid step {step} outside [{GRID_MIN_STEP:g}, 1/2]")
    count = int(round(1.0 / step)) - 1
    return [min(step * k, 1.0) for k in range(first, first + count)]


def gap_curve_table(
    pairs: Sequence[str] = GAP_PAIRS,
    rho_grid: Iterable[float] | None = None,
    step: float = 0.01,
) -> list[GapCurvePoint]:
    """Dense gap table over a rho grid; out-of-range points are skipped."""
    if rho_grid is None:
        rho_grid = step_grid(step)
    points = []
    grid = list(rho_grid)
    for pair in pairs:
        if pair not in GAP_PAIRS:
            raise ValidationError(f"unknown gap pair {pair!r}")
        skipped = []
        for rho in grid:
            try:
                points.append(gap(pair, rho))
            except DomainError:
                skipped.append(rho)
        if skipped:
            logger.info(
                "skipped %d out-of-range grid points for %s (rho %g..%g)",
                len(skipped), pair, min(skipped), max(skipped),
            )
    return points


def empirical_exponent(family: str, n: int, rho: float) -> tuple[float, float]:
    """Finite-n exponent estimate (n*log2(n) - bits)/n at the nearest
    integral radius; returns (estimate, effective rho = r/(n-1))."""
    if n < 2:
        raise DomainError("empirical exponent needs n >= 2")
    r = round(rho * (n - 1))
    r = min(max(r, 0), n - 1)
    spec = BallSpec(n, r)
    bv = finite_bound(family, spec)
    if not bv.valid:
        raise DomainError(
            f"family {family} invalid at n={n}, r={r}: {bv.reason}"
        )
    return (n * math.log2(n) - bv.bits) / n, r / (n - 1)
