"""Special functions and root solvers used by all the bound formulas.

Everything here evaluates in the log2 domain ("bits") so that the bound
evaluators never form the astronomically large quantities themselves.  Root
solvers bracket first (the brackets are guaranteed by sign analysis) and
polish with Newton, storing the achieved residual for auditability.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import BallSpec
from .errors import ConvergenceError, DomainError, ValidationError

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)

LAMBERT_TOL = 1e-12
LAMBERT_MAX_STEPS = 50
ALPHA_RESIDUAL_TOL = 1e-12
# Unused by ``log2_factorial``, which builds no table at any n; kept
# because the benchmark's set-up imports it (ROADMAP 1d).
LOG2_FACTORIAL_EXACT_MAX = 10**6
# log2(n!) rounded from the integer n! while it fits in a float; log-gamma
# is up to 4 ulps off there (log2(2!) = 0.9999999999999996).
_SMALL_LOG2_FACTORIALS = tuple(math.log2(math.factorial(k)) for k in range(171))

# Sums of ln(i!)/i read a prefix table below this and Stirling's series
# from it up.
STIRLING_MIN = 256
_LN_2PI = math.log(2.0 * math.pi)
# _LN_FACTORIAL_OVER_I_PREFIX[k] = sum of ln(i!)/i over 1 <= i <= k.
_LN_FACTORIAL_OVER_I_PREFIX = list(
    itertools.accumulate(
        (math.lgamma(i + 1) / i for i in range(1, STIRLING_MIN)), initial=0.0
    )
)


def _euler_maclaurin_ends() -> dict[int, tuple[list[float], list[float]]]:
    """Per sign s (+1 at the top end of a sum, -1 at the bottom), the
    coefficients (A, B) with sum of u^k (A[k] + B[k] ln x) over k, u = 1/x,
    equal to half the summand ln(x!)/x plus s times Euler-Maclaurin's end
    terms at x, plus s times the antiderivative -c x^(1-p)/(p-1) of each
    Stirling tail term c x^-p.

    The summand is Stirling's series ln x - 1 + (ln x + ln 2pi)/(2x)
    + sum of c x^-p, taken term by term, and for odd m its derivatives are
    (m-1)! x^-m for ln x, -m! x^-(m+1) (ln x - H_m) for ln(x)/x and
    -p(p+1)..(p+m-1) x^-(p+m) for x^-p.
    """
    stirling_tail = ((2, 1 / 12), (4, -1 / 360), (6, 1 / 1260), (8, -1 / 1680))
    # B_(m+1)/(m+1)! for the odd derivative orders m.
    bernoulli = ((1, 1 / 12), (3, -1 / 720), (5, 1 / 30240), (7, -1 / 1209600))
    ends = {}
    for sign in (1, -1):
        a, b = [0.0] * 16, [0.0] * 16
        a[0], b[0] = -0.5, 0.5
        a[1], b[1] = 0.25 * _LN_2PI, 0.25
        for p, c in stirling_tail:
            a[p] += 0.5 * c
            a[p - 1] -= sign * c / (p - 1)
        for m, weight in bernoulli:
            w = sign * weight
            harmonic = math.fsum(1 / j for j in range(1, m + 1))
            a[m] += w * math.factorial(m - 1)
            b[m + 1] -= w * math.factorial(m) / 2
            a[m + 1] -= w * math.factorial(m) / 2 * (_LN_2PI - harmonic)
            for p, c in stirling_tail:
                a[p + m] -= w * c * math.perm(p + m - 1, m)
        ends[sign] = (a[::-1], b[::-1])
    return ends


# Highest power first, for Horner's rule.
_EULER_MACLAURIN_ENDS = _euler_maclaurin_ends()


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


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits, with the 0*log2(0) = 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary_entropy requires x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def log2_factorial(n: int) -> float:
    """log2(n!) in O(1): rounded from n! itself for n <= 170, and
    ``math.lgamma(n + 1) / ln 2`` beyond."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"log2_factorial requires a non-negative integer, got {n!r}")
    if n < len(_SMALL_LOG2_FACTORIALS):
        return _SMALL_LOG2_FACTORIALS[n]
    return math.lgamma(n + 1) / LN2


def _euler_maclaurin_end(x: int, sign: int) -> float:
    a, b = _EULER_MACLAURIN_ENDS[sign]
    u = 1.0 / x
    pa = pb = 0.0
    for ak, bk in zip(a, b):
        pa = pa * u + ak
        pb = pb * u + bk
    return pa + pb * math.log(x)


def sum_ln_factorial_over_i(a: int, b: int) -> float:
    """S(a, b) = sum of ln(i!)/i over a <= i <= b, in O(1); 0 when a > b.

    Terms below STIRLING_MIN come from a table of prefix sums.  From there
    up, Euler-Maclaurin sums Stirling's series for ln(i!)/i term by term;
    the integral of its leading terms is written with log1p, so a short
    span high up loses no digits to cancellation.  Agrees with
    ``math.fsum`` of lgamma(i+1)/i to 1e-13 relative (tested).
    """
    if not (isinstance(a, int) and isinstance(b, int)) or a < 1:
        raise DomainError(
            f"sum_ln_factorial_over_i requires integers a >= 1 and b, got {a!r}, {b!r}"
        )
    if a > b:
        return 0.0
    prefix = _LN_FACTORIAL_OVER_I_PREFIX
    if b < STIRLING_MIN:
        return prefix[b] - prefix[a - 1]
    head = 0.0
    if a < STIRLING_MIN:
        head = prefix[-1] - prefix[a - 1]
        a = STIRLING_MIN
    ln_a = math.log(a)
    span = math.log1p((b - a) / a)  # ln b - ln a
    # The integral of ln x - 1 + (ln x + ln 2pi)/(2x) over [a, b].
    integral = b * span + (b - a) * (ln_a - 2.0) + span * (
        0.5 * ln_a + 0.25 * span + 0.5 * _LN_2PI
    )
    return head + integral + _euler_maclaurin_end(b, 1) + _euler_maclaurin_end(a, -1)


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


# Memoised: the doubly-stochastic battery (n <= 200) asks 1,264 times for
# 587 distinct roots, 99 of them low-range.  The bound keeps a long sweep
# over (n, r) from growing the memo past about 0.3 MB.
@functools.lru_cache(maxsize=1024)
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

    It is the root t in (0, 1] of g(t) = 2^t + c*t - 2 with
    c = (2rho-1)*ln(2)/(1-rho), that is
    t̂ = log2(e) * (a - W((1-rho)/(2rho-1) * e^a)) with a = 2(1-rho)/(2rho-1).
    Where the Lambert argument overflows (rho < 1/2 + 7.2e-4), g is solved
    by ``_bisect_newton`` on [0, 1] instead: g(0) = -1 < 0 < c = g(1).
    """
    if not 0.5 < rho < 1.0:
        raise DomainError(f"t_hat requires 1/2 < rho < 1, got {rho}")
    a = 2.0 * (1.0 - rho) / (2.0 * rho - 1.0)
    log_arg = math.log((1.0 - rho) / (2.0 * rho - 1.0)) + a
    if log_arg <= 700.0:
        return LOG2E * (a - lambert_w(math.exp(log_arg)))
    c = (2.0 * rho - 1.0) * LN2 / (1.0 - rho)
    return _bisect_newton(
        lambda t: 2.0**t + c * t - 2.0, lambda t: LN2 * 2.0**t + c, 0.0, 1.0
    )


def log2_omega_r(r: int) -> float:
    """log2 of omega_r, the sum of binom(r, m) * (m+1)^r over m = 0..r.

    The terms' logs t(m) are concave in m, so bisection on the step
    t(m+1) - t(m) = ln((r-m)/(m+1)) + r ln((m+2)/(m+1)) finds the peak, and
    only a window around it is summed: 8*sqrt(r) + 64 terms each side to
    start, doubled until both edges sit at least 80 bits below the peak,
    or all of [0, r] when that is shorter.  Inside the window t is a
    running sum of the steps from its first term, whose value takes three
    log-gammas; no table is read.  Agrees with the exact big-integer sum
    to 1e-12 relative (tested).
    """
    if not isinstance(r, int) or r < 0:
        raise DomainError(f"log2_omega_r requires a non-negative integer, got {r!r}")
    lo, hi = 0, r
    while lo < hi:
        mid = (lo + hi) // 2
        if math.log((r - mid) / (mid + 1)) + r * math.log1p(1 / (mid + 1)) > 0.0:
            lo = mid + 1
        else:
            hi = mid
    peak, half = lo, int(8 * math.sqrt(r)) + 64
    while True:
        lo, hi = max(0, peak - half), min(r, peak + half)
        k = np.arange(lo + 1, hi + 1, dtype=float)  # m + 1 for the steps from m
        steps = np.log((r + 1 - k) / k) + r * np.log1p(1.0 / k)
        ln_terms = np.zeros(hi - lo + 1)  # t(m) - t(lo)
        np.cumsum(steps, out=ln_terms[1:])
        top = ln_terms[peak - lo]
        if (lo == 0 or top >= 80 * LN2) and (hi == r or top - ln_terms[-1] >= 80 * LN2):
            break
        half *= 2
    ln_first = (
        math.lgamma(r + 1) - math.lgamma(lo + 1) - math.lgamma(r - lo + 1)
        + r * math.log1p(lo)
    )
    return (ln_first + float(top) + math.log(np.exp(ln_terms - top).sum())) / LN2


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
