"""Finite-n bound evaluators for the ball size, all in log2 domain.

Five closed families (phi1, Phi1, phi1_prime, phi2, phi3) plus the two
generic functionals that take an explicit doubly-stochastic matrix: the
Van der Waerden / Sinkhorn lower bound and the Bethe-permanent lower
bound.  Out-of-range requests yield inert invalid values rather than
exceptions so that sweeps can tabulate coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BallSpec, BandMatrix
from .errors import DimensionError, DomainError, SupportError, ValidationError
from .qmat import StochasticMatrix
from .scalar import (
    LOG2E,
    alpha_high_root,
    alpha_low_root,
    log2_factorial,
    log2_factorial_table,
    log2_omega_r,
    sr_sums,
)

LOWER_FAMILIES = ("phi1", "phi1_prime", "phi2", "phi3")
CLOSED_FAMILIES = ("phi1", "Phi1", "phi1_prime", "phi2", "phi3")
GENERIC_FAMILIES = ("vdw_generic", "bethe_generic")
ALL_FAMILIES = CLOSED_FAMILIES + GENERIC_FAMILIES

DIRECTIONS = {
    "phi1": "lower",
    "phi1_prime": "lower",
    "phi2": "lower",
    "phi3": "lower",
    "Phi1": "upper",
    "vdw_generic": "lower",
    "bethe_generic": "lower",
}


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
    m: np.ndarray | BandMatrix, q: StochasticMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """q's positive values and their terms -q*log2(q/m), read at q's cells
    once m is known to be a non-negative matrix of q's size that is
    positive wherever q is."""
    if isinstance(m, BandMatrix):
        size = m.n
    else:
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("bound functional requires a square matrix")
        if (m < 0).any():
            raise DomainError("bound functional requires non-negative entries")
        size = m.shape[0]
    if size != q.n:
        raise DimensionError(f"matrix size {size} differs from Q size {q.n}")
    positive = q.values > 0
    qv = q.values if positive.all() else q.values[positive]
    if isinstance(m, BandMatrix) and m.spec.r >= q.spec.r:
        return qv, -qv * np.log2(qv)  # q's band lies in m's, where m is 1
    rows, cols = q.cells
    if isinstance(m, BandMatrix):
        at_cells = (np.abs(rows - cols) <= m.spec.r).astype(float)
    else:
        at_cells = m[rows, cols]
    bad = positive & (at_cells == 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise SupportError(
            f"Q is positive at cell ({rows[k] + 1},{cols[k] + 1}) "
            "where the matrix is zero"
        )
    return qv, -qv * np.log2(qv / at_cells[positive])


def vdw_sinkhorn_bound(m: np.ndarray | BandMatrix, q: StochasticMatrix) -> float:
    """Lower bound on log2 per(m): log2(n!/n^n) + sum(-q*log2(q/m)).

    Requires support(q) contained in support(m); cells with q = 0
    contribute nothing (the 0*log2(0/0) = 0 convention).
    """
    _, h = _relative_entropy_terms(m, q)
    n = q.n
    return log2_factorial(n) - n * math.log2(n) + float(np.sum(h))


def bethe_bound(m: np.ndarray | BandMatrix, q: StochasticMatrix) -> float:
    """Lower bound on log2 per(m) through the Bethe permanent:
    sum over support of [-q*log2(q/m) + (1-q)*log2(1-q)]."""
    qv, h = _relative_entropy_terms(m, q)
    one_minus = 1.0 - qv
    extra = np.zeros_like(qv)
    positive = one_minus > 0
    extra[positive] = one_minus[positive] * np.log2(one_minus[positive])
    return float(np.sum(h + extra))


def _invalid(family: str, spec: BallSpec, reason: str) -> BoundValue:
    return BoundValue(family, DIRECTIONS[family], math.nan, spec, False, reason)


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


def finite_bound(family: str, spec: BallSpec) -> BoundValue:
    """Finite-n value of a closed bound family at a spec, in bits.

    phi1, Phi1, phi2 cover the whole radius range with a branch at
    rho = 1/2 (``BallSpec.low_range``); phi1_prime requires r >= 1 and
    ``low_range``, i.e. 1 <= r <= (n-1)/2; phi3 requires
    ``second_low_range`` or ``second_high_range``, i.e. 1 <= r <= (n-2)/2
    or (n-1)/2 < r < n-1.  Outside a family's range the result is an inert
    invalid value.
    """
    if family not in CLOSED_FAMILIES:
        raise ValidationError(
            f"unknown bound family {family!r}; expected one of {CLOSED_FAMILIES}"
        )
    r = spec.r
    if family == "phi1":
        bits = _phi1_bits(spec)
    elif family == "Phi1":
        bits = _Phi1_bits(spec)
    elif family == "phi2":
        bits = _phi2_bits(spec)
    elif family == "phi1_prime":
        if not (1 <= r and spec.low_range):
            return _invalid(
                family, spec, f"phi1_prime requires 1 <= r <= (n-1)/2, got r={r}"
            )
        bits = _phi1_prime_bits(spec)
    else:
        if not (spec.second_low_range or spec.second_high_range):
            return _invalid(
                family,
                spec,
                f"phi3 requires 1 <= r <= (n-2)/2 or (n-1)/2 < r < n-1, got r={r}",
            )
        bits = _phi3_bits(spec)
    return BoundValue(family, DIRECTIONS[family], bits, spec, True)


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
