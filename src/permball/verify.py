"""Built-in verification suite: every acceptance check as a named function.

The CLI ``verify`` command and the test suite share these checks.  Each
check returns a CheckResult with a pass flag and, on failure, the first
counterexample in the detail string.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .asym import crossover_xi, empirical_exponent, exponent, gap, gap_curve_table
from .bounds import (
    LOWER_FAMILIES,
    bethe_bound,
    finite_bound,
    phi3_low_t_parts,
    vdw_sinkhorn_bound,
)
from .cache import ResultCache
from .core import BallSpec, BandMatrix
from .errors import PermballError
from .oracle import (
    EXACT_MAX_SECONDS,
    applicable_backends,
    ball_size_exact,
    ball_size_exact_detailed,
)
from .qmat import q_first_class, q_second_high, q_second_low, sinkhorn_balance
from .rates import rate_table
from .scalar import LN2, LOG2E, alpha_high_root, alpha_low_root, mu_star, t_hat

SANDWICH_MAX_N = 10
SINKHORN_HIGH_SPECS = ((4, 2), (6, 4), (8, 5), (10, 7))
SINKHORN_LOW_BOUNDARY_SPECS = ((6, 2), (8, 3), (10, 4))
T_DECOMPOSITION_SPECS = ((8, 2), (12, 3), (20, 6))
BETHE_TREND_NS = (20, 40, 80)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(name: str, fn: Callable[[], str | None]) -> CheckResult:
    start = time.perf_counter()
    try:
        problem = fn()
    except PermballError as exc:
        problem = str(exc)
    elapsed = time.perf_counter() - start
    if problem:
        return CheckResult(name, False, problem, elapsed)
    return CheckResult(name, True, "ok", elapsed)


# -- counting backends agree --------------------------------------------


def _oracle_agreement(max_n: int) -> str | None:
    # Verify mode raises VerificationError, which _run reports, unless every
    # applicable backend gives the same count.
    for n in range(1, max_n + 1):
        for r in range(0, n):
            ball_size_exact(BallSpec(n, r), verify=True)
    return None


def check_oracle_agreement(max_n: int = 8) -> CheckResult:
    return _run(
        f"oracle agreement (n <= {max_n})", lambda: _oracle_agreement(max_n)
    )


# -- bounds bracket the exact counts -------------------------------------


def _sandwich() -> str | None:
    for n in range(2, SANDWICH_MAX_N + 1):
        for r in range(0, n):
            spec = BallSpec(n, r)
            exact_bits = math.log2(ball_size_exact(spec))
            upper = finite_bound("Phi1", spec)
            if not exact_bits <= upper.bits + 1e-9:
                return (
                    f"upper bound below the exact count at n={n}, r={r}: "
                    f"{upper.bits} < {exact_bits}"
                )
            for family in LOWER_FAMILIES:
                bv = finite_bound(family, spec)
                if not bv.valid:
                    continue
                if family == "phi1_prime":
                    if not bv.bits < exact_bits:
                        return (
                            f"{family} not strictly below the exact count at "
                            f"n={n}, r={r}: {bv.bits} vs {exact_bits}"
                        )
                elif not bv.bits <= exact_bits + 1e-9:
                    return (
                        f"{family} above the exact count at n={n}, r={r}: "
                        f"{bv.bits} > {exact_bits}"
                    )
    return None


def check_sandwich() -> CheckResult:
    return _run(f"sandwich property (n <= {SANDWICH_MAX_N})", _sandwich)


# -- doubly-stochastic constructions -------------------------------------


def _battery_radii(n: int) -> list[int]:
    candidates = {
        0,
        1,
        2,
        (n - 1) // 3,
        (n - 2) // 2,
        (n - 1) // 2,
        n // 2,
        (2 * (n - 1)) // 3,
        n - 2,
        n - 1,
    }
    return sorted(r for r in candidates if 0 <= r <= n - 1)


def _double_stochasticity(max_n: int) -> str | None:
    # Each builder raises, and _run reports, unless its row sums are 1
    # within STOCHASTIC_TOL (exactly, for the first class) and its support
    # is the band; each Q is symmetric by storage, so its column sums are
    # its row sums.  The battery adds no check.
    for n in range(1, max_n + 1):
        for r in _battery_radii(n):
            spec = BallSpec(n, r)
            q_first_class(spec)
            if spec.second_low_range:
                q_second_low(spec)
            if spec.second_high_range:
                q_second_high(spec)
    return None


def check_double_stochasticity(max_n: int = 200) -> CheckResult:
    return _run(
        f"doubly-stochastic constructions (n <= {max_n})",
        lambda: _double_stochasticity(max_n),
    )


# -- sinkhorn fixed points ------------------------------------------------


def _balanced_deviation(spec: BallSpec, build: Callable) -> float:
    """Largest entry gap between the balanced band and a construction."""
    balanced, _ = sinkhorn_balance(BandMatrix(spec), tol=1e-12)
    return float(np.abs(balanced.values - build(spec).values).max())


def _sinkhorn_fixed_points(specs, build: Callable, note: str = "") -> str | None:
    """The first of ``specs`` whose balanced band deviates from ``build``
    by more than 1e-6, followed by ``note``; None if none does."""
    for n, r in specs:
        deviation = _balanced_deviation(BallSpec(n, r), build)
        if deviation > 1e-6:
            return f"balanced matrix deviates {deviation:g} at n={n}, r={r}{note}"
    return None


def check_sinkhorn_fixed_points_high() -> CheckResult:
    return _run(
        "sinkhorn fixed points (high range)",
        lambda: _sinkhorn_fixed_points(SINKHORN_HIGH_SPECS, q_second_high),
    )


def check_sinkhorn_fixed_points_low_boundary() -> CheckResult:
    note = (
        " from the low-range construction; the actual fixed point is the "
        "V-shaped geometric matrix with ratio root of a^(r+1) = 2, which has "
        "strictly larger entropy"
    )
    return _run(
        "sinkhorn fixed points (even-n low boundary)",
        lambda: _sinkhorn_fixed_points(
            SINKHORN_LOW_BOUNDARY_SPECS, q_second_low, note
        ),
    )


# -- closed constants -----------------------------------------------------


def _closed_constants() -> str | None:
    mu = mu_star()
    if abs(mu - 0.782) > 1e-3:
        return f"mu* = {mu} misses 0.782 +- 0.001"
    xi = crossover_xi()
    if abs(xi - 0.249) > 1e-3:
        return f"xi = {xi} misses 0.249 +- 0.001"
    const = math.log2(4.0 / (math.e * LOG2E))
    if abs(const - 0.02854) > 1e-4:
        return f"log2(4/(e*log2 e)) = {const} misses 0.02854 +- 1e-4"
    for k in range(1, 51):
        rho = k / 100
        value = gap("phi3", rho).gap_bits
        if abs(value - const) > 1e-12:
            return f"phi3 gap not constant at rho={rho}: {value}"
    grid_max = max(p.gap_bits for p in gap_curve_table(["phi3"]))
    if grid_max > 0.029:
        return f"max phi3 gap {grid_max} exceeds 0.029"
    g1 = gap("phi1", 0.5).gap_bits
    if abs(g1 - (2.0 - LOG2E)) > 1e-9:
        return f"gap(phi1, 1/2) = {g1} misses 2 - log2(e)"
    g2 = gap("phi2", 0.5).gap_bits
    if abs(g2 - (3.0 - 2.0 * LOG2E) / 2.0) > 1e-9:
        return f"gap(phi2, 1/2) = {g2} misses (3 - 2*log2(e))/2"
    return None


def check_closed_constants() -> CheckResult:
    return _run("closed constants", _closed_constants)


# -- finite-to-asymptotic convergence -------------------------------------


def _convergence() -> str | None:
    for family in ("phi1", "Phi1", "phi2", "phi3"):
        for rho in (0.25, 0.5, 0.75):
            deviations = []
            for n in (100, 1000, 10000):
                estimate, rho_eff = empirical_exponent(family, n, rho)
                deviations.append(abs(estimate - exponent(family, rho_eff).e_value))
            if any(
                deviations[k + 1] > deviations[k] + 1e-12
                for k in range(len(deviations) - 1)
            ):
                return (
                    f"{family} at rho={rho}: deviations {deviations} not "
                    "monotone non-increasing"
                )
            if deviations[-1] > 0.02:
                return (
                    f"{family} at rho={rho}: final deviation {deviations[-1]} "
                    "exceeds 0.02 bits/symbol"
                )
    return None


def check_convergence() -> CheckResult:
    return _run("finite-to-asymptotic convergence", _convergence)


# -- closed forms equal their generic functionals -------------------------


def _direct_t_parts(spec: BallSpec) -> dict[str, float]:
    """Region-by-region direct summation of q*log2(q) (the oracle side)."""
    n, r = spec.n, spec.r
    q = q_second_low(spec).entries

    def term(i: int, j: int) -> float:
        v = q[i - 1, j - 1]
        return v * math.log2(v) if v > 0 else 0.0

    t1 = sum(term(i, j) for j in range(1, r + 2) for i in range(1, r + 2))
    t2 = sum(term(i, j) for j in range(2, r + 2) for i in range(r + 2, j + r + 1))
    t3 = sum(
        term(i, j) for j in range(r + 2, n - r) for i in range(j - r, j + r + 1)
    )
    t4 = sum(term(i, j) for j in range(n - r, n) for i in range(j - r, n - r))
    t5 = sum(term(i, j) for j in range(n - r, n + 1) for i in range(n - r, n + 1))
    return {"T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5,
            "T": t1 + t2 + t3 + t4 + t5}


def _bound_identities() -> str | None:
    for n, r in SINKHORN_HIGH_SPECS:
        spec = BallSpec(n, r)
        closed = finite_bound("phi3", spec).bits
        generic = vdw_sinkhorn_bound(BandMatrix(spec), q_second_high(spec))
        if abs(closed - generic) > 1e-9:
            return (
                f"high-range closed form {closed} differs from the generic "
                f"functional {generic} at n={n}, r={r}"
            )
    for n, r in T_DECOMPOSITION_SPECS:
        spec = BallSpec(n, r)
        closed = phi3_low_t_parts(spec)
        direct = _direct_t_parts(spec)
        for key in ("T1", "T2", "T3", "T4", "T5", "T"):
            if abs(closed[key] - direct[key]) > 1e-9:
                return (
                    f"{key} mismatch at n={n}, r={r}: closed {closed[key]} vs "
                    f"direct {direct[key]}"
                )
        if abs(closed["T1"] - closed["T5"]) > 1e-12 or abs(
            closed["T2"] - closed["T4"]
        ) > 1e-12:
            return f"block symmetry broken at n={n}, r={r}"
        generic = vdw_sinkhorn_bound(BandMatrix(spec), q_second_low(spec))
        closed_bits = finite_bound("phi3", spec).bits
        if abs(closed_bits - generic) > 1e-9:
            return (
                f"low-range closed form {closed_bits} differs from the generic "
                f"functional {generic} at n={n}, r={r}"
            )
    return None


def check_bound_identities() -> CheckResult:
    return _run("closed-form/generic bound identities", _bound_identities)


# -- root quality ---------------------------------------------------------


def _root_quality() -> str | None:
    for r in (1, 2, 3, 5, 10, 100, 1000):
        root = alpha_low_root(r)
        limit = 1e-12 * max(1.0, root.value + 1.0)
        if abs(root.residual) > limit:
            return f"alpha_low residual {root.residual:g} exceeds {limit:g} at r={r}"
    for n, r in ((4, 2), (5, 3), (6, 4), (10, 7), (100, 60), (10000, 7499)):
        root = alpha_high_root(n, r)
        limit = 1e-12 * max(1.0, root.value ** (n - r))
        if abs(root.residual) > limit:
            return (
                f"alpha_high residual {root.residual:g} exceeds {limit:g} "
                f"at n={n}, r={r}"
            )
    drift = abs(1000 * (alpha_low_root(1000).value - 1.0) - LN2)
    if drift > 0.01:
        return f"|r*(alpha_r - 1) - ln 2| = {drift} exceeds 0.01 at r=1000"
    for rho in (0.5000001, 0.5005, 0.6, 0.75, 0.9):
        t = t_hat(rho)
        residual = 2.0**t + t * (2 * rho - 1) * LN2 / (1 - rho) - 2.0
        if abs(residual) > 1e-9:
            return f"t_hat({rho}) root residual {residual:g} exceeds 1e-9"
    return None


def check_root_quality() -> CheckResult:
    return _run("algebraic root quality", _root_quality)


# -- rate improvements ----------------------------------------------------


def _rate_improvements() -> str | None:
    # fig2's and fig3's curves on their default grids: the new bound is
    # nowhere above the old one and gains the most at delta = 1, rho = 1/2.
    for family, x_name, peak in (("ecc", "delta", 1.0), ("cover", "rho", 0.5)):
        # Sorted by (kind, x): the new curve, then the old one, on one grid.
        points = rate_table((f"{family}_old", f"{family}_new"))
        half = len(points) // 2
        rows = [
            (p.x, q.rate_bits, p.rate_bits) for p, q in zip(points[:half], points[half:])
        ]
        for x, old, new in rows:
            if new > old + 1e-12:
                return f"{family}_new {new} above {family}_old {old} at {x_name}={x}"
        best = max(rows, key=lambda row: row[1] - row[2])[0]
        if best != peak:
            return f"largest {family} improvement at {x_name}={best}, not {peak}"
    return None


def check_rate_improvements() -> CheckResult:
    return _run("rate bound improvements", _rate_improvements)


# -- bethe/vdw trend ------------------------------------------------------


def _bethe_vdw_trend() -> str | None:
    gaps = []
    for n in BETHE_TREND_NS:
        r = round(0.75 * (n - 1))
        spec = BallSpec(n, r)
        q = q_second_high(spec)
        band = BandMatrix(spec)
        gaps.append(abs(bethe_bound(band, q) - vdw_sinkhorn_bound(band, q)) / n)
    if any(gaps[k + 1] >= gaps[k] for k in range(len(gaps) - 1)):
        return f"per-symbol bethe/vdw difference not decreasing: {gaps}"
    return None


def check_bethe_vdw_agreement() -> CheckResult:
    return _run("bethe/vdw per-symbol agreement trend", _bethe_vdw_trend)


# -- cache audit --------------------------------------------------------


def check_cache(cache_dir) -> CheckResult:
    """Re-derive every cached count the way ``exact --verify`` does, with
    the first admitted backend.  Records over the time budget are not
    recomputed; a passing result names them."""
    skipped = []

    def audit() -> str | None:
        cache = ResultCache(cache_dir)
        for record in cache.records():
            spec = record.spec()
            first = applicable_backends(spec)[:1]
            if not first:
                skipped.append(spec)
                continue
            ball_size_exact_detailed(spec, cache=cache, verify=True, backends=first)
        return None

    result = _run(f"cache audit ({cache_dir})", audit)
    if not (result.passed and skipped):
        return result
    cells = "; ".join(f"n={spec.n}, r={spec.r}" for spec in skipped)
    plural = "" if len(skipped) == 1 else "s"
    return replace(
        result,
        detail=f"ok; {len(skipped)} record{plural} not recomputed: {cells} "
        f"over the {EXACT_MAX_SECONDS:g} s budget",
    )


# -- suites -------------------------------------------------------------


def quick_checks(cache_dir=None) -> list[CheckResult]:
    results = [
        check_oracle_agreement(max_n=6),
        check_double_stochasticity(max_n=40),
        check_closed_constants(),
        check_root_quality(),
    ]
    if cache_dir is not None:
        results.append(check_cache(cache_dir))
    return results


def full_checks(cache_dir=None) -> list[CheckResult]:
    results = [
        check_oracle_agreement(),
        check_sandwich(),
        check_double_stochasticity(),
        check_sinkhorn_fixed_points_high(),
        check_sinkhorn_fixed_points_low_boundary(),
        check_closed_constants(),
        check_convergence(),
        check_bound_identities(),
        check_root_quality(),
        check_rate_improvements(),
        check_bethe_vdw_agreement(),
    ]
    if cache_dir is not None:
        results.append(check_cache(cache_dir))
    return results
