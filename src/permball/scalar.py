"""Special functions and root solvers used by all the bound formulas.

Everything here evaluates in the log2 domain ("bits") so that the bound
evaluators never form the astronomically large quantities themselves.  Root
solvers bracket first (the brackets are guaranteed by sign analysis) and
polish with Newton, storing the achieved residual for auditability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BallSpec
from .errors import CapacityError, ConvergenceError, DomainError, ValidationError

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)

LAMBERT_TOL = 1e-12
LAMBERT_MAX_STEPS = 50
ALPHA_RESIDUAL_TOL = 1e-12
# omega_r's exact big-integer sum is capped here; the bounds read
# log2_omega_r, which sums in the log domain at every r.
OMEGA_EXACT_MAX_R = 10**4
# log2(n!) is an exact running sum up to here and log-gamma beyond.
LOG2_FACTORIAL_EXACT_MAX = 10**6

_log2_cumulative: np.ndarray = np.zeros(1)


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W for x >= 0: the w >= 0 with w*e^w = x.

    Halley iteration from a log-based initial guess; hard-fails if the
    residual tolerance |w*e^w - x| <= 1e-12 * max(1, x) is unmet.
    """
    if x < 0:
        raise DomainError(f"lambert_w requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < math.e:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    tol = LAMBERT_TOL * max(1.0, x)
    for _ in range(LAMBERT_MAX_STEPS):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    f = w * math.exp(w) - x
    if abs(f) <= tol:
        return w
    raise ConvergenceError(
        f"lambert_w failed to reach |w*e^w - x| <= {tol:g} at x={x}", residual=f
    )


def lambert_w_of_log(log_x: float) -> float:
    """Lambert W given ln(x), usable when x itself would overflow.

    Solves w + ln(w) = ln(x) by Newton; agrees with lambert_w on the
    overlap.  Only the x >= e branch is needed (log_x >= 1).
    """
    if log_x < 1.0:
        return lambert_w(math.exp(log_x))
    w = log_x - math.log(log_x) if log_x > 1.0 else 1.0
    for _ in range(LAMBERT_MAX_STEPS):
        f = w + math.log(w) - log_x
        if abs(f) <= LAMBERT_TOL * max(1.0, abs(log_x)):
            return w
        w -= f / (1.0 + 1.0 / w)
    raise ConvergenceError(f"lambert_w_of_log failed at log_x={log_x}")


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits, with the 0*log2(0) = 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary_entropy requires x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _grow_log2_table(n: int) -> np.ndarray:
    global _log2_cumulative
    if n < _log2_cumulative.size:
        return _log2_cumulative
    size = 1024
    while size <= n:
        size *= 2
    table = np.zeros(size)
    table[1:] = np.cumsum(np.log2(np.arange(1, size, dtype=float)))
    _log2_cumulative = table
    return table


def log2_factorial(n: int) -> float:
    """log2(n!): exact running sum for n <= 10^6, log-gamma beyond."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"log2_factorial requires a non-negative integer, got {n!r}")
    if n <= LOG2_FACTORIAL_EXACT_MAX:
        return float(_grow_log2_table(n)[n])
    return math.lgamma(n + 1) / LN2


def log2_factorial_table(n: int) -> np.ndarray:
    """Array L with L[k] = log2(k!) for 0 <= k <= n (running-sum path)."""
    if n > LOG2_FACTORIAL_EXACT_MAX:
        raise CapacityError(
            f"cumulative log2-factorial table capped at {LOG2_FACTORIAL_EXACT_MAX}"
        )
    return _grow_log2_table(n)[: n + 1]


def mu_star() -> float:
    """The constant 1/(1 + W(1/e)) ~ 0.782 from the binomial-sum peak."""
    return 1.0 / (1.0 + lambert_w(math.exp(-1.0)))


@dataclass(frozen=True)
class AlphaRoot:
    """A solved algebraic constant with the defining-polynomial residual."""

    value: float
    residual: float


def _bisect_newton(g, gprime, lo: float, hi: float) -> float:
    """Root of g on [lo, hi] with g(lo) < 0 <= g(hi): bisection then Newton."""
    glo, ghi = g(lo), g(hi)
    if ghi == 0.0:
        return hi
    if not (glo < 0.0 < ghi):
        raise ConvergenceError(f"bracket [{lo}, {hi}] does not straddle the root")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(8):
        step = g(x) / gprime(x)
        x_new = x - step
        if not lo <= x_new <= hi:
            break
        x = x_new
        if abs(step) <= 1e-17 * max(1.0, abs(x)):
            break
    return x


def _alpha_root(m: int, c: int) -> AlphaRoot:
    """The root a = 1 + d in [1, 2] of a^m + c*(a-1) = 2, for m >= 2, c >= -1.

    Solved in d via exp(m*log1p(d)), which keeps the residual at float
    precision for large m and avoids the cancellation of the printed
    forms.  At the root a^m = 2 - c*d <= 2 - min(c, 0), which bounds d.
    """

    def g(d: float) -> float:
        return math.exp(m * math.log1p(d)) - 2.0 + c * d

    def gprime(d: float) -> float:
        return m * math.exp((m - 1) * math.log1p(d)) + c

    d_hi = math.expm1(math.log(2 - min(c, 0)) / m) * (1.0 + 1e-12)
    d = _bisect_newton(g, gprime, 0.0, d_hi)
    residual = g(d)
    if abs(residual) > ALPHA_RESIDUAL_TOL * max(1.0, 2.0 - c * d):
        raise ConvergenceError(
            f"alpha root residual {residual:g} too large at m={m}, c={c}",
            residual=residual,
        )
    return AlphaRoot(1.0 + d, residual)


def alpha_low_root(r: int) -> AlphaRoot:
    """Unique positive root α_r of a^(r+1) = a + 1, which lies in (1, 2)."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise DomainError(f"alpha_low_root requires integer r >= 1, got {r!r}")
    return _alpha_root(r + 1, -1)


def alpha_high_root(n: int, r: int) -> AlphaRoot:
    """Unique positive root of a^(n-r) + (2r-n)*a - (2r-n+2) = 0.

    Defined for (n-1)/2 < r < n-1 (``BallSpec.second_high_range``); the
    root lies in (1, 2^(1/(n-r))].
    """
    if not (isinstance(n, int) and isinstance(r, int)):
        raise DomainError("alpha_high_root requires integer n, r")
    try:
        in_range = BallSpec(n, r).second_high_range
    except ValidationError:  # no ball at all, so not in the range either
        in_range = False
    if not in_range:
        raise DomainError(
            f"alpha_high_root requires (n-1)/2 < r < n-1, got n={n}, r={r}"
        )
    return _alpha_root(n - r, 2 * r - n)


def t_hat(rho: float) -> float:
    """The limit constant t̂(rho) for 1/2 < rho < 1.

    t̂ = log2(e) * (2(1-rho)/(2rho-1) - W((1-rho)/(2rho-1) * exp(2(1-rho)/(2rho-1)))).
    It is the root t of 2^t + t*(2rho-1)*ln(2)/(1-rho) - 2 = 0.  The Lambert
    argument overflows as rho -> 1/2, so it is fed to W in log form there.
    """
    if not 0.5 < rho < 1.0:
        raise DomainError(f"t_hat requires 1/2 < rho < 1, got {rho}")
    a = 2.0 * (1.0 - rho) / (2.0 * rho - 1.0)
    log_arg = math.log((1.0 - rho) / (2.0 * rho - 1.0)) + a
    if log_arg > 700.0:
        w = lambert_w_of_log(log_arg)
    else:
        w = lambert_w(math.exp(log_arg))
    return LOG2E * (a - w)


def omega_r(r: int) -> int:
    """Exact value of the sum of binom(r, m) * (m+1)^r over m = 0..r."""
    if not isinstance(r, int) or r < 0:
        raise DomainError(f"omega_r requires a non-negative integer, got {r!r}")
    if r > OMEGA_EXACT_MAX_R:
        raise CapacityError(
            f"exact big-integer mode capped at r={OMEGA_EXACT_MAX_R}; "
            "use log2_omega_r"
        )
    return sum(math.comb(r, m) * (m + 1) ** r for m in range(r + 1))


def log2_omega_r(r: int) -> float:
    """log2 of the binomial power sum, summed in the log domain at every r.

    The binomials come from the running log2-factorial table.  Agrees with
    log2(omega_r(r)) to 1e-12 relative (tested).
    """
    if not isinstance(r, int) or r < 0:
        raise DomainError(f"log2_omega_r requires a non-negative integer, got {r!r}")
    log2_fact = _grow_log2_table(r)[: r + 1]
    # log2(binom(r, m) * (m+1)^r) for m = 0..r; the reversed table holds log2((r-m)!).
    log2_terms = log2_fact[r] - log2_fact - log2_fact[::-1]
    log2_terms += r * np.log2(np.arange(1.0, r + 2))
    peak = log2_terms.max()
    return float(peak + math.log2(np.exp2(log2_terms - peak).sum()))


@dataclass(frozen=True)
class SrSums:
    """The three geometric-series sums at the low-regime alpha root."""

    s0: float
    s1: float
    s2: float


def sr_sums(r: int) -> SrSums:
    """Closed forms of sum(l^k * a^l, l=0..r) for k = 0, 1, 2 at a = alpha_r.

    The closed forms already use a^(r+1) = a + 1 to eliminate the high
    powers; direct summation agrees to 1e-10 relative (tested).
    """
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"sr_sums requires integer r >= 1, got {r!r}")
    a = alpha_low_root(r).value
    am1 = a - 1.0
    s0 = a / am1
    s1 = (r * a * a - r - 1.0) / (am1 * am1)
    s2 = (
        r * r * (a + 1.0) / am1
        + 1.0 / (am1 * am1)
        - 2.0 * (r * a * a - r - 1.0) / (am1 * am1 * am1)
    )
    return SrSums(s0, s1, s2)
