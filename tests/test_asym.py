"""Exponents, gap curves, crossover, and finite-to-asymptotic convergence."""

import math

import pytest

from permball.asym import (
    crossover_xi,
    empirical_exponent,
    exponent,
    gap,
    gap_curve_table,
)
from permball.errors import DomainError, ValidationError
from permball.scalar import LOG2E, binary_entropy, mu_star, t_hat


def bisect(f, lo, hi, steps=80):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestExponent:
    def test_phi1_continuity_at_half(self):
        assert exponent("phi1", 0.5).e_value == pytest.approx(
            LOG2E + 1.0, abs=1e-12
        )
        # The high branch evaluates to the same number at rho = 1/2.
        assert LOG2E - math.log2(0.5) == pytest.approx(LOG2E + 1.0, abs=1e-15)

    def test_Phi1_continuity_at_half(self):
        value = exponent("Phi1", 0.5).e_value
        assert value == pytest.approx(2 * LOG2E - 1.0, abs=1e-12)
        high = LOG2E * (3 - 2 * 0.5) + 2 * 0.5 * math.log2(0.5)
        assert value == pytest.approx(high, abs=1e-12)

    def test_phi2_continuity_at_half(self):
        low = exponent("phi2", 0.5).e_value
        high = LOG2E + 2 * (1 - 0.5) ** 2
        assert low == pytest.approx(high, abs=1e-12)

    def test_phi3_high_value(self):
        t = t_hat(0.75)
        expected = math.log2(math.e * t / LOG2E) - t * 0.5 - math.log2(0.25)
        assert exponent("phi3", 0.75).e_value == pytest.approx(expected, abs=1e-12)

    def test_phi1_prime_adds_entropy_term(self):
        mu = mu_star()
        rho = 0.3
        delta = exponent("phi1_prime", rho).e_value - exponent("Phi1", rho).e_value
        assert delta == pytest.approx(
            2 * (binary_entropy(mu) + math.log2(mu)) * rho, abs=1e-12
        )

    def test_domains(self):
        with pytest.raises(DomainError):
            exponent("phi1", 0.0)
        with pytest.raises(DomainError):
            exponent("phi1", 1.0)
        with pytest.raises(DomainError):
            exponent("phi1_prime", 0.6)
        with pytest.raises(ValidationError):
            exponent("phi4", 0.5)


class TestGap:
    def test_spot_values(self):
        assert gap("phi1", 0.5).gap_bits == pytest.approx(2 - LOG2E, abs=1e-12)
        assert gap("phi2", 0.5).gap_bits == pytest.approx(
            (3 - 2 * LOG2E) / 2, abs=1e-12
        )
        assert gap("phi3", 0.3).gap_bits == pytest.approx(
            math.log2(4 / (math.e * LOG2E)), abs=1e-12
        )
        assert gap("phi3", 0.3).gap_bits == pytest.approx(0.02854, abs=1e-4)

    def test_phi1_prime_linear_form(self):
        mu = mu_star()
        slope = 2 * (binary_entropy(mu) + math.log2(mu))
        for rho in (0.1, 0.25, 0.4, 0.49):
            assert gap("phi1_prime", rho).gap_bits == pytest.approx(
                slope * rho, abs=1e-12
            )
        assert slope * 0.5 == pytest.approx(0.4017, abs=1e-4)

    def test_phi1_linear_on_low_range(self):
        slope = 4 - 2 * LOG2E
        for rho in (0.05, 0.2, 0.5):
            assert gap("phi1", rho).gap_bits == pytest.approx(slope * rho, abs=1e-12)

    def test_dual_derivation_exercised_across_grid(self):
        # gap() raises internally if the closed form and the exponent
        # difference disagree; sweeping the grid exercises every branch.
        for k in range(1, 100):
            rho = k / 100
            gap("phi1", rho)
            gap("phi2", rho)
            gap("phi3", rho)
            if rho < 0.5:
                gap("phi1_prime", rho)

    def test_nonnegative_everywhere(self):
        points = gap_curve_table()
        assert all(p.gap_bits >= 0 for p in points)

    def test_orderings(self):
        for k in range(1, 100):
            rho = k / 100
            assert gap("phi2", rho).gap_bits <= gap("phi1", rho).gap_bits + 1e-12
            if rho < 0.5:
                assert (
                    gap("phi1_prime", rho).gap_bits
                    <= gap("phi1", rho).gap_bits + 1e-12
                )

    def test_phi3_stays_under_its_plateau_just_above_half(self):
        # For rho <= 1/2 the phi3 gap is the constant log2(4/(e log2 e)).
        plateau = gap("phi3", 0.5).gap_bits
        grid = [0.5 + 10.0**-k for k in range(2, 16)]
        grid += [0.5 + k * 1e-5 for k in range(1, 1001)]
        assert max(gap("phi3", rho).gap_bits - plateau for rho in grid) <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            gap("phi1_prime", 0.5)
        with pytest.raises(DomainError):
            gap("phi1", 0.0)


class TestCrossover:
    def test_value(self):
        assert crossover_xi() == pytest.approx(0.249, abs=1e-3)

    def test_curves_cross_there(self):
        xi = crossover_xi()
        assert gap("phi2", xi).gap_bits == pytest.approx(
            gap("phi3", xi).gap_bits, abs=1e-9
        )

    def test_against_bisection_oracle(self):
        xi = bisect(
            lambda rho: gap("phi2", rho).gap_bits - gap("phi3", rho).gap_bits,
            0.1,
            0.4,
        )
        assert crossover_xi() == pytest.approx(xi, abs=1e-10)


class TestGapCurveTable:
    def test_phi3_column_is_flat_then_small(self):
        points = gap_curve_table(["phi3"])
        low = [p.gap_bits for p in points if p.rho <= 0.5]
        const = math.log2(4 / (math.e * LOG2E))
        assert all(abs(v - const) <= 1e-12 for v in low)
        assert max(p.gap_bits for p in points) <= 0.029

    def test_out_of_range_points_skipped(self):
        points = gap_curve_table(["phi1_prime"])
        assert all(p.rho < 0.5 for p in points)
        assert len(points) == 49


class TestConvergence:
    @pytest.mark.parametrize("family", ["phi1", "Phi1", "phi2", "phi3"])
    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
    def test_deviation_shrinks_with_n(self, family, rho):
        deviations = []
        for n in (100, 1000, 10000):
            estimate, rho_eff = empirical_exponent(family, n, rho)
            deviations.append(abs(estimate - exponent(family, rho_eff).e_value))
        assert deviations[0] >= deviations[1] >= deviations[2]
        assert deviations[2] <= 0.02

    def test_invalid_family_range(self):
        # The refusal texts of the closed-family table reach users here.
        with pytest.raises(DomainError) as caught:
            empirical_exponent("phi1_prime", 1000, 0.75)
        assert str(caught.value) == (
            "family phi1_prime invalid at n=1000, r=749: "
            "phi1_prime requires 1 <= r <= (n-1)/2, got r=749"
        )
        with pytest.raises(DomainError) as caught:
            empirical_exponent("phi3", 1001, 0.5)
        assert str(caught.value) == (
            "family phi3 invalid at n=1001, r=500: "
            "phi3 requires 1 <= r <= (n-2)/2 or (n-1)/2 < r < n-1, got r=500"
        )
        with pytest.raises(ValidationError) as caught:
            empirical_exponent("phi9", 10, 0.5)
        assert str(caught.value) == (
            "unknown bound family 'phi9'; expected one of "
            "('phi1', 'Phi1', 'phi1_prime', 'phi2', 'phi3')"
        )
