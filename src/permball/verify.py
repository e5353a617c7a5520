"""Built-in verification suite: every acceptance check as a named function.

The CLI ``verify`` command and the test suite share these checks.  Each
check returns a CheckResult with a pass flag and, on failure, the first
counterexample in the detail string.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
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
from .core import BallSpec, BandMatrix
from .errors import PermballError
from .oracle import (
    ball_size_band_dp,
    ball_size_enumerate,
    ball_size_exact,
    permanent_ryser,
)
from .qmat import q_first_class, q_second_high, q_second_low, sinkhorn_balance
from .rates import DEFAULT_COVER_GRID, DEFAULT_ECC_GRID, covering_rate_upper, ecc_rate_upper
from .scalar import LN2, LOG2E, alpha_high_root, alpha_low_root, mu_star, t_hat

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
    for n in range(1, max_n + 1):
        for r in range(0, n):
            spec = BallSpec(n, r)
            counts = {
                "enumerate": ball_size_enumerate(spec),
                "ryser": permanent_ryser(list(BandMatrix(spec).rows())),
                "band-dp": ball_size_band_dp(spec),
                "band-dp/vacant": ball_size_band_dp(spec, vacant_encoding=True),
            }
            if len(set(counts.values())) != 1:
                return f"disagreement at n={n}, r={r}: {counts}"
    return None


def check_oracle_agreement(max_n: int = 8) -> CheckResult:
    return _run(
        f"oracle agreement (n <= {max_n})", lambda: _oracle_agreement(max_n)
    )


# -- bounds bracket the exact counts -------------------------------------


def _sandwich(max_n: int) -> str | None:
    for n in range(2, max_n + 1):
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


def check_sandwich(max_n: int = 10) -> CheckResult:
    return _run(f"sandwich property (n <= {max_n})", lambda: _sandwich(max_n))


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
    for n in range(1, max_n + 1):
        for r in _battery_radii(n):
            spec = BallSpec(n, r)
            q = q_first_class(spec)
            if not q.exactly_doubly_stochastic():
                return f"first-class sums differ from 1 at n={n}, r={r}"
            if not q.support_equals_band():
                return f"first-class support mismatch at n={n}, r={r}"
            if not q.is_symmetric():
                return f"first-class asymmetry at n={n}, r={r}"
            for label, in_range, build in (
                ("low", spec.second_low_range, q_second_low),
                ("high", spec.second_high_range, q_second_high),
            ):
                if not in_range:
                    continue
                second = build(spec)
                if second.max_sum_deviation() > 1e-9:
                    return (
                        f"second-class {label} deviation "
                        f"{second.max_sum_deviation():g} at n={n}, r={r}"
                    )
                if not second.support_equals_band():
                    return f"second-class {label} support mismatch at n={n}, r={r}"
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


def _sinkhorn_high() -> str | None:
    for n, r in SINKHORN_HIGH_SPECS:
        deviation = _balanced_deviation(BallSpec(n, r), q_second_high)
        if deviation > 1e-6:
            return f"balanced matrix deviates {deviation:g} at n={n}, r={r}"
    return None


def _sinkhorn_low_boundary() -> str | None:
    worst = None
    for n, r in SINKHORN_LOW_BOUNDARY_SPECS:
        deviation = _balanced_deviation(BallSpec(n, r), q_second_low)
        if deviation > 1e-6:
            worst = (
                f"balanced matrix deviates {deviation:g} from the low-range "
                f"construction at n={n}, r={r}; the actual fixed point is the "
                f"V-shaped geometric matrix with ratio root of a^(r+1) = 2, "
                f"which has strictly larger entropy"
            )
    return worst


def check_sinkhorn_fixed_points_high() -> CheckResult:
    return _run("sinkhorn fixed points (high range)", _sinkhorn_high)


def check_sinkhorn_fixed_points_low_boundary() -> CheckResult:
    return _run(
        "sinkhorn fixed points (even-n low boundary)", _sinkhorn_low_boundary
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
    for rho in (0.6, 0.75, 0.9):
        t = t_hat(rho)
        residual = 2.0**t + t * (2 * rho - 1) * LN2 / (1 - rho) - 2.0
        if abs(residual) > 1e-9:
            return f"t_hat({rho}) root residual {residual:g} exceeds 1e-9"
    return None


def check_root_quality() -> CheckResult:
    return _run("algebraic root quality", _root_quality)


# -- rate improvements ----------------------------------------------------


def _rate_improvements() -> str | None:
    ecc = [
        (
            x,
            ecc_rate_upper(x, "old").rate_bits,
            ecc_rate_upper(x, "new").rate_bits,
        )
        for x in DEFAULT_ECC_GRID
    ]
    for x, old, new in ecc:
        if new > old + 1e-12:
            return f"ecc_new {new} above ecc_old {old} at delta={x}"
    best = max(ecc, key=lambda row: row[1] - row[2])
    if best[0] != DEFAULT_ECC_GRID[-1]:
        return f"largest ecc improvement at delta={best[0]}, not the endpoint"
    cover = [
        (
            x,
            covering_rate_upper(x, "old").rate_bits,
            covering_rate_upper(x, "new").rate_bits,
        )
        for x in DEFAULT_COVER_GRID
    ]
    for x, old, new in cover:
        if new > old + 1e-12:
            return f"cover_new {new} above cover_old {old} at rho={x}"
    best = max(cover, key=lambda row: row[1] - row[2])
    if abs(best[0] - 0.5) > 1e-12:
        return f"largest covering improvement at rho={best[0]}, not 0.5"
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
    from .cache import ResultCache

    def audit() -> str | None:
        cache = ResultCache(cache_dir)
        problems = cache.audit()
        return problems[0] if problems else None

    return _run(f"cache audit ({cache_dir})", audit)


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
