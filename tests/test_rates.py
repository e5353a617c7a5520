"""Ball-packing and covering rate bounds, old versus improved."""

import math
import time

import pytest

from permball.asym import CROSSOVER_XI, exponent
from permball.core import BallSpec
from permball.errors import DomainError, ValidationError
from permball.oracle import ball_size_exact
from permball.rates import (
    DEFAULT_COVER_GRID,
    DEFAULT_ECC_GRID,
    covering_rate_upper,
    ecc_rate_upper,
    rate_table,
)
from permball.scalar import LOG2E, log2_factorial, t_hat


class TestEccAsymptotic:
    def test_old_spot_value(self):
        assert ecc_rate_upper(0.5, "old").rate_bits == pytest.approx(1.5, abs=1e-12)

    def test_new_first_branch(self):
        assert ecc_rate_upper(0.25, "new").rate_bits == pytest.approx(
            2.125, abs=1e-12
        )

    def test_new_second_branch(self):
        expected = (
            (LOG2E - 1) * (0.8 - 1)
            + math.log2(1 / 0.8)
            + 1
            - math.log2(LOG2E)
        )
        assert ecc_rate_upper(0.8, "new").rate_bits == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.7046, abs=1e-4)

    def test_branch_continuity_at_crossover(self):
        xi = CROSSOVER_XI
        eps = 1e-9
        left = ecc_rate_upper(2 * xi - eps, "new").rate_bits
        right = ecc_rate_upper(2 * xi + eps, "new").rate_bits
        assert abs(left - right) <= 1e-6

    def test_positive_and_decreasing(self):
        values = [ecc_rate_upper(x, "new").rate_bits for x in DEFAULT_ECC_GRID]
        assert all(v > 0 for v in values)
        tail = [v for x, v in zip(DEFAULT_ECC_GRID, values) if x >= 0.2]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            ecc_rate_upper(0.0, "new")
        with pytest.raises(DomainError):
            ecc_rate_upper(1.2, "new")
        with pytest.raises(ValidationError):
            ecc_rate_upper(0.5, "improved")


class TestCoverAsymptotic:
    def test_old_spot_values(self):
        assert covering_rate_upper(0.25, "old").rate_bits == pytest.approx(
            2.5, abs=1e-12
        )
        assert covering_rate_upper(0.75, "old").rate_bits == pytest.approx(
            0.5, abs=1e-12
        )

    def test_old_is_phi1_rate_plus_one_bit_up_to_half(self):
        for rho in (0.1, 0.25, 0.5):
            expected = exponent("phi1", rho).e_value - LOG2E + 1.0
            assert covering_rate_upper(rho, "old").rate_bits == pytest.approx(
                expected, abs=1e-12
            )

    def test_new_high_branch_value(self):
        t = t_hat(0.75)
        expected = (
            math.log2(t) - math.log2(LOG2E) - 0.5 * t - math.log2(0.25)
        )
        assert covering_rate_upper(0.75, "new").rate_bits == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.106, abs=1e-3)

    def test_branch_continuity(self):
        xi = CROSSOVER_XI
        eps = 1e-9
        assert abs(
            covering_rate_upper(xi - eps, "new").rate_bits
            - covering_rate_upper(xi + eps, "new").rate_bits
        ) <= 1e-6
        assert abs(
            covering_rate_upper(0.5 - eps, "new").rate_bits
            - covering_rate_upper(0.5 + eps, "new").rate_bits
        ) <= 1e-6

    def test_positive_on_grid(self):
        values = [covering_rate_upper(x, "new").rate_bits for x in DEFAULT_COVER_GRID]
        assert all(v > 0 for v in values)

    def test_domain(self):
        for rho in (0.0, 1.0):
            with pytest.raises(DomainError):
                covering_rate_upper(rho, "new")


class TestImprovements:
    def test_new_below_old_pointwise(self):
        for x in DEFAULT_ECC_GRID:
            assert (
                ecc_rate_upper(x, "new").rate_bits
                <= ecc_rate_upper(x, "old").rate_bits + 1e-12
            )
        for x in DEFAULT_COVER_GRID:
            assert (
                covering_rate_upper(x, "new").rate_bits
                <= covering_rate_upper(x, "old").rate_bits + 1e-12
            )

    def test_largest_ecc_improvement_at_endpoint(self):
        gains = [
            ecc_rate_upper(x, "old").rate_bits - ecc_rate_upper(x, "new").rate_bits
            for x in DEFAULT_ECC_GRID
        ]
        assert max(range(len(gains)), key=gains.__getitem__) == len(gains) - 1
        assert DEFAULT_ECC_GRID[-1] == 1.0

    def test_largest_cover_improvement_at_half(self):
        gains = [
            covering_rate_upper(x, "old").rate_bits
            - covering_rate_upper(x, "new").rate_bits
            for x in DEFAULT_COVER_GRID
        ]
        best = DEFAULT_COVER_GRID[max(range(len(gains)), key=gains.__getitem__)]
        assert best == pytest.approx(0.5, abs=1e-12)


class TestFiniteMode:
    def test_ecc_quotient_matches_definition(self):
        n, delta = 9, 0.5
        point = ecc_rate_upper(delta, "new", n=n)
        r = int(math.floor((delta * (n - 1) - 1) / 2))
        expected = (
            log2_factorial(n) - math.log2(ball_size_exact(BallSpec(n, r)))
        ) / n
        assert point.rate_bits == pytest.approx(expected, abs=1e-12)
        assert point.n == n and point.mode == "finite"

    def test_cover_quotient_matches_definition(self):
        n, rho = 9, 0.5
        point = covering_rate_upper(rho, "new", n=n)
        ln_nf = log2_factorial(n) * math.log(2)
        expected = (
            log2_factorial(n)
            + math.log2(1 + ln_nf)
            - math.log2(ball_size_exact(BallSpec(n, 4)))
        ) / n
        assert point.rate_bits == pytest.approx(expected, abs=1e-12)

    def test_oracle_rate_tighter_than_lower_bound_rate(self):
        # Swapping the exact count for any valid lower bound can only
        # enlarge (weaken) the packing quotient.
        from permball.bounds import best_finite_lower_bound

        for n in (6, 8, 10):
            for delta in (0.4, 0.6, 1.0):
                r = int(math.floor((delta * (n - 1) - 1) / 2))
                spec = BallSpec(n, r)
                with_oracle = (
                    log2_factorial(n) - math.log2(ball_size_exact(spec))
                ) / n
                with_bound = (
                    log2_factorial(n) - best_finite_lower_bound(spec)
                ) / n
                assert with_oracle <= with_bound + 1e-12

    def test_cells_over_the_exact_budget_take_the_lower_bound(self):
        # delta = 0.26 at n = 100 asks for |B_{12,100}|, which no exact
        # backend counts within its work budget.
        from permball.bounds import best_finite_lower_bound

        start = time.perf_counter()
        point = ecc_rate_upper(0.26, "new", n=100)
        assert time.perf_counter() - start < 1.0
        expected = (
            log2_factorial(100) - best_finite_lower_bound(BallSpec(100, 12))
        ) / 100
        assert point.rate_bits == expected

    def test_ecc_distance_is_not_rounded_down(self):
        # 0.29 * 100 is 28.999999999999996 in floats; d = 29 packs radius 14.
        from permball.bounds import best_finite_lower_bound

        expected = (
            log2_factorial(101) - best_finite_lower_bound(BallSpec(101, 14))
        ) / 101
        assert ecc_rate_upper(0.29, "new", n=101).rate_bits == expected

    def test_finite_cover_requires_integral_radius(self):
        with pytest.raises(ValidationError, match="not integral"):
            covering_rate_upper(0.5, "new", n=10)

    def test_negative_packing_argument_rejected(self):
        with pytest.raises(DomainError):
            ecc_rate_upper(0.05, "new", n=9)

    def test_mode_follows_n(self):
        assert ecc_rate_upper(0.5).mode == "asymptotic"
        assert ecc_rate_upper(0.5).n is None
        assert covering_rate_upper(0.5, n=9).mode == "finite"

    @pytest.mark.parametrize("rate", [ecc_rate_upper, covering_rate_upper])
    def test_finite_old_variant_is_refused(self, rate):
        # The finite quotient takes the exact count or the best lower
        # bound, so an "old" finite point would repeat the "new" one.
        with pytest.raises(ValidationError, match="no 'old' variant"):
            rate(0.5, "old", n=9)
        with pytest.raises(ValidationError, match="n >= 2"):
            rate(0.5, "new", n=1)


class TestRateTable:
    def test_sorted_and_complete(self):
        points = rate_table(("ecc_new", "ecc_old"), grid=(0.3, 0.1, 0.2))
        assert [(p.kind, p.x) for p in points] == [
            ("ecc_new", 0.1),
            ("ecc_new", 0.2),
            ("ecc_new", 0.3),
            ("ecc_old", 0.1),
            ("ecc_old", 0.2),
            ("ecc_old", 0.3),
        ]

    def test_one_shot_grid_serves_every_kind(self):
        kinds = ("ecc_old", "ecc_new")
        points = rate_table(kinds, grid=iter([0.1, 0.2]))
        assert len(points) == 4
        assert points == rate_table(kinds, grid=[0.1, 0.2])

    def test_default_grids(self):
        points = rate_table(("cover_new",))
        assert len(points) == 99
        points = rate_table(("ecc_old",))
        assert len(points) == 99

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            rate_table(("ecc_newest",))
