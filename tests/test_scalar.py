"""Special-function values against independent oracles."""

import math

import pytest

from permball.errors import CapacityError, DomainError
from permball.scalar import (
    LOG2E,
    alpha_high_root,
    alpha_low_root,
    binary_entropy,
    lambert_w,
    log2_factorial,
    log2_factorial_table,
    log2_omega_r,
    mu_star,
    omega_r,
    sr_sums,
    t_hat,
)


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
        table = log2_factorial_table(50)
        for k in (0, 1, 7, 50):
            assert table[k] == pytest.approx(log2_factorial(k), abs=1e-12)


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
        t = t_hat(rho)
        residual = 2.0**t + t * (2 * rho - 1) * math.log(2) / (1 - rho) - 2.0
        assert abs(residual) <= 1e-9

    def test_vanishes_toward_one(self):
        assert 0 < t_hat(0.9999) < 2e-4

    def test_near_half_does_not_overflow(self):
        assert t_hat(0.5000001) == pytest.approx(1.0, abs=1e-5)

    def test_domain(self):
        for rho in (0.5, 1.0, 0.2):
            with pytest.raises(DomainError):
                t_hat(rho)


class TestOmega:
    def test_small_values(self):
        assert omega_r(0) == 1
        assert omega_r(1) == 3
        assert omega_r(2) == 18

    def test_matches_direct_definition(self):
        for r in (3, 7, 20):
            direct = sum(math.comb(r, m) * (m + 1) ** r for m in range(r + 1))
            assert omega_r(r) == direct

    def test_log_form_agreement(self):
        # The log-domain sum against the exact integer.
        for r in (0, 1, 2, 5, 50, 60, 500, 1000):
            assert log2_omega_r(r) == pytest.approx(math.log2(omega_r(r)), rel=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            omega_r(10**4 + 1)
        assert log2_omega_r(10**4 + 1) > 0


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
