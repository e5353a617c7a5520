"""Special-function values against independent oracles."""

import math
import random
import tracemalloc

import pytest

from permball.asym import step_grid
from permball.errors import DomainError
from permball.scalar import (
    LOG2E,
    alpha_high_root,
    alpha_low_root,
    binary_entropy,
    lambert_w,
    log2_factorial,
    log2_omega_r,
    mu_star,
    sr_sums,
    sum_ln_factorial_over_i,
    t_hat,
)


def omega_r(r):
    """The exact big-integer sum of binom(r, m) * (m+1)^r over m = 0..r."""
    return sum(math.comb(r, m) * (m + 1) ** r for m in range(r + 1))


def lambert_fixed_point(x, steps=200):
    """Independent route: damped fixed-point iteration w <- x*exp(-w)."""
    w = 0.5
    for _ in range(steps):
        w = 0.5 * (w + x * math.exp(-w))
    return w


def bisect(f, lo, hi, steps=100):
    flo = f(lo)
    assert flo * f(hi) <= 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def root_equation(rho, t):
    """g(t) = 2^t + c*t - 2 with c = (2rho-1)*ln(2)/(1-rho), t_hat's equation."""
    return 2.0**t + t * (2 * rho - 1) * math.log(2) / (1 - rho) - 2.0


class TestLambertW:
    def test_anchor_values(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_against_fixed_point_iteration(self):
        x = math.exp(-1.0)
        assert lambert_w(x) == pytest.approx(lambert_fixed_point(x), abs=1e-12)
        assert lambert_w(x) == pytest.approx(0.27846, abs=1e-5)

    def test_defining_equation_on_log_grid(self):
        for k in range(-24, 25):
            x = 10.0 ** (k / 4.0)
            w = lambert_w(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            lambert_w(-0.1)


class TestBinaryEntropy:
    def test_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)

    def test_symmetry(self):
        for k in range(1, 50):
            x = k / 50
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)


class TestLog2Factorial:
    def test_small_values(self):
        assert log2_factorial(0) == 0.0
        assert log2_factorial(1) == 0.0
        assert log2_factorial(5) == pytest.approx(math.log2(120), abs=1e-12)

    def test_stirling_series_oracle_at_million(self):
        n = 10**6
        value = log2_factorial(n)
        stirling = n * math.log2(n / math.e) + 0.5 * math.log2(2 * math.pi * n)
        assert abs(value - stirling) / value <= 1e-6

    def test_switchover_agreement(self):
        n = 10**6
        assert log2_factorial(n) == pytest.approx(
            math.lgamma(n + 1) / math.log(2), rel=1e-8
        )

    def test_table_consistency(self):
        for k in (0, 1, 7, 50, 170, 1000):
            assert log2_factorial(k) == pytest.approx(
                math.log2(math.factorial(k)), rel=1e-14, abs=1e-14
            )

    def test_no_table_is_built(self):
        # log-gamma at every n: a call at n = 10^6 allocates no table.
        tracemalloc.start()
        try:
            log2_factorial(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024


class TestSumLnFactorialOverI:
    ENDS = (1, 2, 3, 17, 100, 255, 256, 257, 300, 1000, 4096, 99_999, 10**5,
            999_999, 10**6)

    @pytest.fixture(scope="class")
    def terms(self):
        # terms[i] = ln(i!)/i, the summand, for i <= 10^6.
        return [0.0] + [math.lgamma(i + 1) / i for i in range(1, 10**6 + 1)]

    def test_against_fsum(self, terms):
        # Spans from a = 1, with a = b, across the prefix table's end at 256
        # and up to 10^6, plus short spans at random places.
        spans = [(a, b) for a in self.ENDS for b in self.ENDS if a <= b]
        rng = random.Random(36)
        for _ in range(200):
            a = rng.randint(1, 10**6)
            spans.append((a, min(10**6, a + rng.choice((0, 1, 2, 10, 100, 1000)))))
        for a, b in spans:
            expected = math.fsum(terms[a : b + 1])
            if expected == 0.0:  # S(1, 1) = ln(1!)/1
                assert sum_ln_factorial_over_i(a, b) == 0.0
                continue
            assert sum_ln_factorial_over_i(a, b) == pytest.approx(expected, rel=1e-13), (a, b)

    def test_empty_span_is_zero(self):
        assert sum_ln_factorial_over_i(5, 4) == 0.0
        assert sum_ln_factorial_over_i(10**6, 10**6 - 1) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sum_ln_factorial_over_i(0, 5)
        with pytest.raises(DomainError):
            sum_ln_factorial_over_i(1, 5.0)


class TestMuStar:
    def test_paper_value(self):
        assert mu_star() == pytest.approx(0.782, abs=1e-3)

    def test_defining_equation(self):
        mu = mu_star()
        assert abs((1 - mu) / mu * math.exp(1 / mu) - 1.0) <= 1e-9

    def test_agreement_with_direct_root_solve(self):
        direct = bisect(lambda m: (1 - m) / m * math.exp(1 / m) - 1.0, 0.5, 0.99)
        assert mu_star() == pytest.approx(direct, abs=1e-10)


class TestAlphaLowRoot:
    def test_golden_ratio(self):
        root = alpha_low_root(1)
        assert root.value == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-14)

    def test_r2_against_bisection_oracle(self):
        direct = bisect(lambda a: a**3 - a - 1.0, 1.0, 2.0)
        assert alpha_low_root(2).value == pytest.approx(direct, abs=1e-12)

    def test_asymptote(self):
        drift = [
            abs(r * (alpha_low_root(r).value - 1.0) - math.log(2))
            for r in (10, 100, 1000)
        ]
        assert drift[0] > drift[1] > drift[2]
        assert drift[2] <= 0.01
        assert abs(alpha_low_root(1000).value - (1 + math.log(2) / 1000)) <= 5e-5

    def test_residual_contract(self):
        for r in (1, 4, 33, 1000, 5000):
            root = alpha_low_root(r)
            assert abs(root.residual) <= 1e-12 * max(1.0, root.value + 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_low_root(0)

    def test_bool_is_refused(self):
        with pytest.raises(DomainError):
            alpha_low_root(True)

    def test_memoised_roots_keep_their_bits_and_the_memo_is_bounded(self):
        from permball import scalar

        for r in (1, 7, 66):
            assert alpha_low_root(r) is alpha_low_root(r)
            assert alpha_low_root(r) == scalar._alpha_root.__wrapped__(r + 1, -1)
        assert alpha_high_root(200, 132) == scalar._alpha_root.__wrapped__(68, 64)
        assert scalar._alpha_root.cache_info().maxsize == 1024


class TestAlphaHighRoot:
    def test_quadratic_cases(self):
        assert alpha_high_root(4, 2).value == pytest.approx(math.sqrt(2), abs=1e-14)
        assert alpha_high_root(5, 3).value == pytest.approx(
            (-1 + math.sqrt(13)) / 2, abs=1e-14
        )
        assert alpha_high_root(6, 4).value == pytest.approx(
            -1 + math.sqrt(5), abs=1e-14
        )

    def test_residual_contract(self):
        for n, r in ((4, 2), (10, 7), (101, 75), (2000, 1500)):
            root = alpha_high_root(n, r)
            assert abs(root.residual) <= 1e-12 * max(1.0, root.value ** (n - r))

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_high_root(6, 2)
        with pytest.raises(DomainError):
            alpha_high_root(6, 5)

    @pytest.mark.parametrize("r", [2, 3, 50, 500000])
    def test_half_radius_is_a_root_of_two(self, r):
        # At n = 2r the linear term vanishes and a^r = 2.
        assert alpha_high_root(2 * r, r).value == pytest.approx(2 ** (1 / r), rel=1e-15)

    @pytest.mark.parametrize("rho", [0.6, 0.75, 0.9])
    def test_scaled_log_tends_to_t_hat(self, rho):
        # 2^t + c*t*ln2/m = 2 is the n -> infinity limit of
        # a^m + c*(a-1) = 2 with a = 2^(t/m), m = n-r, c = 2r-n.
        n = 10**6 + 1
        r = round(rho * (n - 1))
        scaled = (n - r) * math.log2(alpha_high_root(n, r).value)
        assert abs(scaled - t_hat(rho)) <= 3 / n


class TestTHat:
    def test_value_at_three_quarters(self):
        expected = LOG2E * (1.0 - lambert_w(math.e / 2.0))
        assert t_hat(0.75) == pytest.approx(expected, abs=1e-12)
        assert t_hat(0.75) == pytest.approx(0.454, abs=1e-3)

    @pytest.mark.parametrize("rho", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_root_equation(self, rho):
        assert abs(root_equation(rho, t_hat(rho))) <= 1e-9

    def test_vanishes_toward_one(self):
        assert 0 < t_hat(0.9999) < 2e-4

    def test_near_half_does_not_overflow(self):
        # Below rho = 1/2 + 7.2e-4 the Lambert argument overflows and the
        # root is solved directly.
        grid = [0.5 + 10.0**-k for k in range(4, 16)]
        for rho in grid + [math.nextafter(0.5, 1.0), 0.50071]:
            t = t_hat(rho)
            assert 0.0 < t <= 1.0, rho
            assert abs(root_equation(rho, t)) <= 1e-15, rho

    def test_non_increasing_across_the_overflow_threshold(self):
        grid = [0.5 + k * 1e-5 for k in range(1, 200)]
        values = [t_hat(rho) for rho in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_lambert_form_kept_on_the_figure_grid(self):
        # The figures' rho > 1/2 keep the Lambert form's digits exactly.
        for rho in step_grid(0.01):
            if rho <= 0.5:
                continue
            a = 2.0 * (1.0 - rho) / (2.0 * rho - 1.0)
            log_arg = math.log((1.0 - rho) / (2.0 * rho - 1.0)) + a
            assert t_hat(rho) == LOG2E * (a - lambert_w(math.exp(log_arg))), rho

    def test_domain(self):
        for rho in (0.5, 1.0, 0.2):
            with pytest.raises(DomainError):
                t_hat(rho)


class TestOmega:
    def test_small_values(self):
        assert log2_omega_r(0) == 0.0
        assert log2_omega_r(1) == pytest.approx(math.log2(3), rel=1e-15)
        assert log2_omega_r(2) == pytest.approx(math.log2(18), rel=1e-15)

    def test_matches_direct_definition(self):
        # Past r of about 250 the window is shorter than [0, r].
        for r in (1000, 2000, 2999):
            assert log2_omega_r(r) == pytest.approx(math.log2(omega_r(r)), rel=1e-12)

    def test_log_form_agreement(self):
        # The windowed log-domain sum against the exact integer.
        for r in range(601):
            assert log2_omega_r(r) == pytest.approx(math.log2(omega_r(r)), rel=1e-12), r

    def test_capacity(self):
        # No cap: past the exact sum's reach the window matches a sum of
        # all r+1 terms from math.lgamma.
        r = 10**5
        ln_terms = [
            math.lgamma(r + 1) - math.lgamma(m + 1) - math.lgamma(r - m + 1)
            + r * math.log(m + 1)
            for m in range(r + 1)
        ]
        top = max(ln_terms)
        expected = (top + math.log(math.fsum(math.exp(t - top) for t in ln_terms))) / math.log(2)
        assert log2_omega_r(r) == pytest.approx(expected, rel=1e-13)
        assert math.isfinite(log2_omega_r(10**9))


class TestSrSums:
    def test_r1_closed_forms(self):
        a = alpha_low_root(1).value
        s = sr_sums(1)
        assert s.s0 == pytest.approx(1 + a, abs=1e-12)
        assert s.s0 == pytest.approx(a / (a - 1), abs=1e-12)
        assert s.s1 == pytest.approx(a, abs=1e-12)
        assert s.s1 == pytest.approx((a * a - 2) / (a - 1) ** 2, abs=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 17, 60, 200])
    def test_against_direct_summation(self, r):
        a = alpha_low_root(r).value
        s = sr_sums(r)
        direct = [sum(l**k * a**l for l in range(r + 1)) for k in (0, 1, 2)]
        assert s.s0 == pytest.approx(direct[0], rel=1e-10)
        assert s.s1 == pytest.approx(direct[1], rel=1e-10)
        assert s.s2 == pytest.approx(direct[2], rel=1e-10)
