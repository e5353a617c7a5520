"""Bound functionals and the closed finite-n families."""

import math

import numpy as np
import pytest

from permball.bounds import (
    BoundValue,
    best_finite_lower_bound,
    bethe_bound,
    finite_bound,
    phi3_low_t_parts,
    vdw_sinkhorn_bound,
)
from permball.core import BallSpec, BandMatrix
from permball.errors import SupportError, ValidationError
from permball.oracle import ball_size_exact
from permball.qmat import (
    StochasticMatrix,
    q_first_class,
    q_second_high,
    q_second_low,
    sinkhorn_balance,
)


def uniform(n):
    # The dense form: the band of radius n-1 holds every cell.
    return StochasticMatrix(BallSpec(n, n - 1), np.full(n * n, 1.0 / n))


class TestVdwSinkhornBound:
    def test_two_by_two_uniform(self):
        assert vdw_sinkhorn_bound(np.ones((2, 2)), uniform(2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_band_n3_hand_evaluated(self):
        # Seven support cells: two of value 2/3 and five of value 1/3.
        expected = (
            math.log2(6 / 27)
            + 2 * (-(2 / 3) * math.log2(2 / 3))
            + 5 * (-(1 / 3) * math.log2(1 / 3))
        )
        value = vdw_sinkhorn_bound(
            BandMatrix(BallSpec(3, 1)), q_first_class(BallSpec(3, 1))
        )
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.2516, abs=1e-4)
        assert value <= math.log2(3)

    def test_second_family_dominates_and_bounds_exact(self):
        spec = BallSpec(4, 2)
        band = BandMatrix(spec)
        second = vdw_sinkhorn_bound(band, q_second_high(spec))
        first = vdw_sinkhorn_bound(band, q_first_class(spec))
        exact = math.log2(ball_size_exact(spec))
        assert first <= second <= exact
        assert second == pytest.approx(3.67118, abs=1e-5)

    def test_support_violation_names_cell(self):
        with pytest.raises(SupportError, match=r"\(1,2\)"):
            vdw_sinkhorn_bound(np.eye(2), uniform(2))
        # A band narrower than Q's: its first cell outside that band.
        with pytest.raises(SupportError, match=r"\(1,2\)"):
            bethe_bound(BandMatrix(BallSpec(3, 0)), q_first_class(BallSpec(3, 1)))

    def test_balanced_matrix_maximizes_functional(self):
        for n, r in ((5, 2), (6, 2), (8, 5), (9, 4)):
            spec = BallSpec(n, r)
            band = BandMatrix(spec)
            balanced, _ = sinkhorn_balance(band, tol=1e-11)
            best = vdw_sinkhorn_bound(band, balanced)
            candidates = [q_first_class(spec)]
            if 1 <= r <= (n - 2) // 2:
                candidates.append(q_second_low(spec))
            if 2 * r > n - 1 and r < n - 1:
                candidates.append(q_second_high(spec))
            for q in candidates:
                assert best >= vdw_sinkhorn_bound(band, q) - 1e-6


class TestGenericFunctionalsOnWeightedMatrices:
    """The two functionals lower-bound log2 per(M) for any non-negative M."""

    def permanent(self, m):
        import itertools

        n = len(m)
        total = 0
        for perm in itertools.permutations(range(n)):
            product = 1
            for i in range(n):
                product *= m[i][perm[i]]
                if product == 0:
                    break
            total += product
        return total

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_vdw_and_bethe_below_true_permanent(self, seed):
        # Strictly positive entries so the matrix has total support and the
        # balancing converges to an exact fixed point.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        m = rng.integers(1, 5, size=(n, n))
        exact = self.permanent(m.tolist())
        balanced, _ = sinkhorn_balance(m.astype(float), tol=1e-10)
        assert vdw_sinkhorn_bound(m.astype(float), balanced) <= math.log2(exact) + 1e-9
        assert bethe_bound(m.astype(float), balanced) <= math.log2(exact) + 1e-9

    def test_band_without_total_support_is_still_bounded(self):
        # Q need not be the balanced matrix; any valid doubly-stochastic Q
        # with contained support certifies a lower bound.
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        q = StochasticMatrix(BallSpec(2, 1), np.eye(2).ravel())
        assert vdw_sinkhorn_bound(m, q) <= math.log2(self.permanent(m.tolist()))


class TestBetheBound:
    def test_two_by_two_uniform_vanishes(self):
        assert bethe_bound(np.ones((2, 2)), uniform(2)) == pytest.approx(0.0, abs=1e-12)

    def test_three_by_three_uniform(self):
        per_entry = -(1 / 3) * math.log2(1 / 3) + (2 / 3) * math.log2(2 / 3)
        assert bethe_bound(np.ones((3, 3)), uniform(3)) == pytest.approx(
            9 * per_entry, abs=1e-12
        )
        assert bethe_bound(np.ones((3, 3)), uniform(3)) == pytest.approx(
            1.2451, abs=1e-4
        )

    def test_lower_bounds_exact_count(self):
        for n, r in ((6, 4), (8, 5), (7, 5)):
            spec = BallSpec(n, r)
            value = bethe_bound(BandMatrix(spec), q_second_high(spec))
            assert value <= math.log2(ball_size_exact(spec))


class TestFiniteBound:
    def test_phi1_example(self):
        bv = finite_bound("phi1", BallSpec(5, 2))
        assert bv.bits == pytest.approx(math.log2(7.5), abs=1e-12)
        assert bv.bits <= math.log2(31)

    def test_Phi1_example(self):
        bv = finite_bound("Phi1", BallSpec(4, 2))
        assert bv.bits == pytest.approx(
            math.log2(24**0.5 * 6 ** (2 / 3)), abs=1e-12
        )
        assert bv.bits >= math.log2(14)

    def test_phi3_high_equals_generic_functional(self):
        spec = BallSpec(4, 2)
        closed = finite_bound("phi3", spec).bits
        direct = (
            math.log2(24)
            - 4 * math.log2(4)
            - 4 * math.log2(math.sqrt(2) - 1)
            + 4 * math.log2(math.sqrt(2))
        )
        assert closed == pytest.approx(direct, abs=1e-12)
        generic = vdw_sinkhorn_bound(BandMatrix(spec), q_second_high(spec))
        assert abs(closed - generic) <= 1e-9

    @pytest.mark.parametrize("n,r", [(4, 2), (6, 2), (7, 3), (9, 2), (10, 7), (5, 1)])
    def test_phi2_equals_first_class_functional(self, n, r):
        spec = BallSpec(n, r)
        closed = finite_bound("phi2", spec).bits
        generic = vdw_sinkhorn_bound(BandMatrix(spec), q_first_class(spec))
        assert abs(closed - generic) <= 1e-9

    @pytest.mark.parametrize("n,r", [(6, 2), (8, 2), (12, 3), (20, 6)])
    def test_phi3_low_equals_second_low_functional(self, n, r):
        spec = BallSpec(n, r)
        closed = finite_bound("phi3", spec).bits
        generic = vdw_sinkhorn_bound(BandMatrix(spec), q_second_low(spec))
        assert abs(closed - generic) <= 1e-9

    def test_t_decomposition_against_direct_region_sums(self):
        spec = BallSpec(8, 2)
        n, r = spec.n, spec.r
        q = q_second_low(spec).entries

        def term(i, j):
            v = q[i - 1, j - 1]
            return v * math.log2(v) if v > 0 else 0.0

        direct = {
            "T1": sum(term(i, j) for j in range(1, r + 2) for i in range(1, r + 2)),
            "T2": sum(
                term(i, j) for j in range(2, r + 2) for i in range(r + 2, j + r + 1)
            ),
            "T3": sum(
                term(i, j)
                for j in range(r + 2, n - r)
                for i in range(j - r, j + r + 1)
            ),
            "T4": sum(
                term(i, j) for j in range(n - r, n) for i in range(j - r, n - r)
            ),
            "T5": sum(
                term(i, j)
                for j in range(n - r, n + 1)
                for i in range(n - r, n + 1)
            ),
        }
        closed = phi3_low_t_parts(spec)
        for key, value in direct.items():
            assert closed[key] == pytest.approx(value, abs=1e-12)
        assert closed["T1"] == closed["T5"]
        assert closed["T2"] == closed["T4"]
        whole = float(np.sum(q[q > 0] * np.log2(q[q > 0])))
        assert closed["T"] == pytest.approx(whole, abs=1e-9)

    def test_phi1_prime_against_direct_linear_evaluation(self):
        # Small enough to evaluate the printed quotient in plain floats.
        n, r = 10, 2
        omega = 18 * math.e**2 / 5**2
        direct = math.sqrt(2 * math.pi * (n + 2 * r)) / omega**2 * (5 / math.e) ** n
        bv = finite_bound("phi1_prime", BallSpec(n, r))
        assert bv.bits == pytest.approx(math.log2(direct), abs=1e-9)

    def test_invalid_ranges_are_inert_values(self):
        bv = finite_bound("phi1_prime", BallSpec(6, 4))
        assert isinstance(bv, BoundValue)
        assert not bv.valid
        assert math.isnan(bv.bits)
        assert "phi1_prime" in bv.reason
        bv = finite_bound("phi3", BallSpec(5, 2))
        assert not bv.valid
        with pytest.raises(ValidationError):
            finite_bound("phi9", BallSpec(5, 2))

    def test_full_radius_coverage_for_main_families(self):
        for n in (1, 2, 5):
            for r in range(n):
                for family in ("phi1", "Phi1", "phi2"):
                    assert finite_bound(family, BallSpec(n, r)).valid

    def test_boundary_values(self):
        # r = n-1: the upper bound meets the exact count n! exactly.
        bv = finite_bound("Phi1", BallSpec(6, 5))
        assert bv.bits == pytest.approx(math.log2(math.factorial(6)), abs=1e-9)
        # phi2 at r = n-1 also collapses onto log2(n!).
        bv = finite_bound("phi2", BallSpec(6, 5))
        assert bv.bits == pytest.approx(math.log2(math.factorial(6)), abs=1e-9)


class TestSandwich:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_families_bracketed_by_exact(self, n):
        for r in range(n):
            spec = BallSpec(n, r)
            exact_bits = math.log2(ball_size_exact(spec))
            upper = finite_bound("Phi1", spec).bits
            assert exact_bits <= upper + 1e-9
            for family in ("phi1", "phi1_prime", "phi2", "phi3"):
                bv = finite_bound(family, spec)
                if not bv.valid:
                    continue
                if family == "phi1_prime":
                    assert bv.bits < exact_bits
                else:
                    assert bv.bits <= exact_bits + 1e-9

    def test_lower_never_exceeds_upper(self):
        for n in (3, 6, 10, 40):
            for r in range(0, n, max(1, n // 5)):
                spec = BallSpec(n, r)
                upper = finite_bound("Phi1", spec).bits
                for family in ("phi1", "phi1_prime", "phi2", "phi3"):
                    bv = finite_bound(family, spec)
                    if bv.valid:
                        assert bv.bits <= upper + 1e-9


@pytest.mark.parametrize("n,r", [(8, 5), (5, 0), (12, 3), (40, 39)])
def test_best_finite_lower_bound(n, r):
    spec = BallSpec(n, r)
    members = [
        finite_bound(f, spec) for f in ("phi1", "phi1_prime", "phi2", "phi3")
    ]
    assert best_finite_lower_bound(spec) == max(
        bv.bits for bv in members if bv.valid
    )
