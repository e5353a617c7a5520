"""Finite-n bound evaluators for the ball size, all in log2 domain.

Five closed families (phi1, Phi1, phi1_prime, phi2, phi3) plus the two
generic functionals of a doubly-stochastic matrix on the band: the
Van der Waerden / Sinkhorn lower bound and the Bethe-permanent lower
bound.  Out-of-range requests yield inert invalid values rather than
exceptions so that sweeps can tabulate coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BallSpec, BandMatrix
from .errors import DomainError, ValidationError
from .qmat import StochasticMatrix
from .scalar import (
    LOG2_FACTORIAL_EXACT_MAX,
    LOG2E,
    alpha_high_root,
    alpha_low_root,
    log2_factorial,
    log2_factorial_table,
    log2_omega_r,
    sr_sums,
)

@dataclass(frozen=True)
class BoundValue:
    """A tagged bound in bits; invalid values carry the violated range."""

    family: str
    direction: str
    bits: float
    spec: BallSpec
    valid: bool
    reason: str = ""


def _relative_entropy_terms(
    band: BandMatrix, q: StochasticMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """q's positive values and their terms -q*log2(q).  Q must be stored
    on ``band``'s spec, so its cells are the band's, where the band is 1."""
    if band.spec != q.spec:
        raise ValidationError(
            f"Q on the band of n={q.spec.n}, r={q.spec.r} does not match "
            f"the band of n={band.spec.n}, r={band.spec.r}"
        )
    positive = q.values > 0
    qv = q.values if positive.all() else q.values[positive]
    return qv, -qv * np.log2(qv)


def vdw_sinkhorn_bound(band: BandMatrix, q: StochasticMatrix) -> float:
    """Lower bound on log2 per(band): log2(n!/n^n) + sum(-q*log2(q)).

    Q must be stored on the band's own spec; cells with q = 0 contribute
    nothing (the 0*log2(0) = 0 convention).
    """
    _, h = _relative_entropy_terms(band, q)
    n = q.n
    return log2_factorial(n) - n * math.log2(n) + float(np.sum(h))


def bethe_bound(band: BandMatrix, q: StochasticMatrix) -> float:
    """Lower bound on log2 per(band) through the Bethe permanent:
    sum over support of [-q*log2(q) + (1-q)*log2(1-q)]."""
    qv, h = _relative_entropy_terms(band, q)
    one_minus = 1.0 - qv
    # 0 where q = 1 (the 0*log2(0) = 0 convention), without a masked copy.
    extra = np.log2(one_minus, out=np.zeros_like(qv), where=one_minus > 0)
    extra *= one_minus
    h += extra
    return float(np.sum(h))


def _phi1_bits(spec: BallSpec) -> float:
    n, r = spec.n, spec.r
    base = log2_factorial(n) + n * math.log2(2 * r + 1) - n * math.log2(n)
    if spec.low_range:
        return base - 2 * r
    return base - n


def _Phi1_bits(spec: BallSpec) -> float:
    n, r = spec.n, spec.r
    if spec.low_range:
        table = log2_factorial_table(2 * r + 1)
        head = (n - 2 * r) / (2 * r + 1) * table[2 * r + 1]
        i = np.arange(r + 1, 2 * r + 1)
    else:
        table = log2_factorial_table(n)
        head = (2 * r + 2 - n) / n * table[n]
        i = np.arange(r + 1, n)
    if i.size == 0:
        return float(head)
    return float(head + np.sum(2.0 * table[i] / i))


def _phi1_prime_bits(spec: BallSpec) -> float:
    n, r = spec.n, spec.r
    log2_omega = log2_omega_r(r) + r * LOG2E - r * math.log2(2 * r + 1)
    return (
        0.5 * math.log2(2 * math.pi * (n + 2 * r))
        - 2.0 * log2_omega
        + n * (math.log2(2 * r + 1) - LOG2E)
    )


def _phi2_bits(spec: BallSpec) -> float:
    n, r = spec.n, spec.r
    if spec.low_range:
        return (
            log2_factorial(n)
            - 2.0 * r * (r + 1) / (2 * r + 1)
            + n * (math.log2(2 * r + 1) - math.log2(n))
        )
    return log2_factorial(n) - 2.0 * (n - r - 1) * (n - r) / n


def phi3_low_t_parts(spec: BallSpec) -> dict[str, float]:
    """Closed-form pieces of the entropy sum T for the low-range Q.

    T splits over the two corner blocks (T1 = T5), the two off-block
    wedges (T2 = T4), and the constant middle columns (T3); each piece is
    a polynomial in the geometric sums at alpha_r.
    """
    n, r = spec.n, spec.r
    if not spec.second_low_range:
        raise DomainError(
            f"low-range T decomposition requires 1 <= r <= (n-2)/2, got n={n}, r={r}"
        )
    alpha = alpha_low_root(r).value
    c = (alpha - 1.0) / (alpha + 1.0)
    s = sr_sums(r)
    log2c = math.log2(c)
    log2a = math.log2(alpha)
    t1 = c * s.s0 * s.s0 * log2c + 2.0 * c * s.s0 * s.s1 * log2a
    t2 = c * s.s1 * log2c + c * s.s2 * log2a
    t3 = (n - 2 * r - 2) * c * ((2.0 * s.s0 - 1.0) * log2c + 2.0 * s.s1 * log2a)
    return {"T1": t1, "T2": t2, "T3": t3, "T4": t2, "T5": t1,
            "T": 2.0 * t1 + 2.0 * t2 + t3}


def _phi3_bits(spec: BallSpec) -> float:
    n, r = spec.n, spec.r
    if spec.second_low_range:
        t = phi3_low_t_parts(spec)["T"]
        return log2_factorial(n) - n * math.log2(n) - t
    alpha = alpha_high_root(n, r).value
    return (
        log2_factorial(n)
        - n * math.log2(n)
        - n * math.log2(alpha - 1.0)
        + (n - r) * (2 * r - n + 2) * math.log2(alpha)
    )


# Per closed family: direction, bits at a spec, and the radius range it
# covers with the text that refuses a radius outside it.
_CLOSED = {
    "phi1": ("lower", _phi1_bits, lambda spec: True, ""),
    # Phi1 reads log2(k!) from the cumulative table for k <= min(2r+1, n).
    "Phi1": (
        "upper", _Phi1_bits,
        lambda spec: min(2 * spec.r + 1, spec.n) <= LOG2_FACTORIAL_EXACT_MAX,
        f"Phi1 requires min(2r+1, n) <= {LOG2_FACTORIAL_EXACT_MAX}, "
        "the cumulative log2-factorial table's cap",
    ),
    "phi1_prime": (
        "lower", _phi1_prime_bits, lambda spec: 1 <= spec.r and spec.low_range,
        "phi1_prime requires 1 <= r <= (n-1)/2",
    ),
    "phi2": ("lower", _phi2_bits, lambda spec: True, ""),
    "phi3": (
        "lower", _phi3_bits,
        lambda spec: spec.second_low_range or spec.second_high_range,
        "phi3 requires 1 <= r <= (n-2)/2 or (n-1)/2 < r < n-1",
    ),
}
# The generic families are functionals of a doubly-stochastic Q on the band.
GENERIC_FAMILIES = {"vdw_generic": vdw_sinkhorn_bound, "bethe_generic": bethe_bound}

CLOSED_FAMILIES = tuple(_CLOSED)
LOWER_FAMILIES = tuple(f for f, entry in _CLOSED.items() if entry[0] == "lower")
ALL_FAMILIES = CLOSED_FAMILIES + tuple(GENERIC_FAMILIES)
DIRECTIONS = {f: _CLOSED[f][0] if f in _CLOSED else "lower" for f in ALL_FAMILIES}


def finite_bound(family: str, spec: BallSpec) -> BoundValue:
    """Finite-n value of a closed bound family at a spec, in bits.

    phi1 and phi2 cover every radius, with a branch at rho = 1/2
    (``BallSpec.low_range``); so does Phi1 while min(2r+1, n) is within
    the cumulative log2-factorial table.  Outside the range of Phi1,
    phi1_prime or phi3 the result is an inert invalid value whose reason
    is the family's refusal text.
    """
    if family not in CLOSED_FAMILIES:
        raise ValidationError(
            f"unknown bound family {family!r}; expected one of {CLOSED_FAMILIES}"
        )
    direction, bits, covers, refusal = _CLOSED[family]
    if not covers(spec):
        reason = f"{refusal}, got r={spec.r}"
        return BoundValue(family, direction, math.nan, spec, False, reason)
    return BoundValue(family, direction, bits(spec), spec, True)


def best_finite_lower_bound(spec: BallSpec) -> float:
    """Largest valid lower-family value in bits (used by the rate bounds
    when the exact count is out of reach)."""
    values = [
        bv.bits
        for bv in (finite_bound(f, spec) for f in LOWER_FAMILIES)
        if bv.valid
    ]
    if not values:
        raise DomainError(f"no lower bound family is valid at n={spec.n}, r={spec.r}")
    return max(values)
