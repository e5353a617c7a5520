"""Doubly-stochastic constructions and Sinkhorn balancing."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from permball.core import BallSpec, BandMatrix
from permball.errors import ConvergenceError, DomainError, ValidationError
from permball.qmat import (
    q_first_class,
    q_second_high,
    q_second_low,
    sinkhorn_balance,
)
from permball.scalar import alpha_low_root


class TestFirstClass:
    def test_low_regime_entries(self):
        q = q_first_class(BallSpec(5, 1))
        assert q.entry_exact(1, 1) == Fraction(2, 3)
        assert q.entry_exact(2, 1) == Fraction(1, 3)
        assert sum(q.entry_exact(i, 1) for i in range(1, 6)) == 1

    def test_high_regime_entries(self):
        q = q_first_class(BallSpec(4, 2))
        assert q.entry_exact(1, 1) == Fraction(2, 4)
        assert q.entry_exact(2, 3) == Fraction(1, 4)

    def test_exact_double_stochasticity(self):
        q = q_first_class(BallSpec(6, 2))
        assert q.exactly_doubly_stochastic()
        assert q.support_equals_band()
        assert q.is_symmetric()

    def test_column_sums_by_direct_summation(self):
        for n, r in ((6, 2), (9, 4), (10, 7), (7, 3)):
            q = q_first_class(BallSpec(n, r))
            for j in range(1, n + 1):
                assert sum(q.entry_exact(i, j) for i in range(1, n + 1)) == 1
                assert sum(q.entry_exact(j, i) for i in range(1, n + 1)) == 1

    def test_regime_boundary_consistency(self):
        # Odd n with 2r = n-1: both defining formulas must coincide.
        for n in (3, 5, 7, 11):
            q = q_first_class(BallSpec(n, (n - 1) // 2))
            assert q.exactly_doubly_stochastic()

    def test_identity_at_radius_zero(self):
        q = q_first_class(BallSpec(5, 0))
        assert q.exactly_doubly_stochastic()
        assert all(q.entry_exact(i, i) == 1 for i in range(1, 6))


class TestSecondLow:
    def test_entry_values_from_alpha(self):
        spec = BallSpec(6, 2)
        alpha = alpha_low_root(2).value
        c = (alpha - 1) / (alpha + 1)
        q = q_second_low(spec)
        assert q.entry(4, 4) == pytest.approx(c, abs=1e-12)
        assert c == pytest.approx(0.1396806, abs=1e-6)
        assert q.entry(1, 1) == pytest.approx(c * alpha**4, abs=1e-12)
        # alpha^4 = alpha^2 + alpha by the defining cubic
        assert alpha**4 == pytest.approx(alpha**2 + alpha, abs=1e-12)

    def test_column_one_closed_sum(self):
        spec = BallSpec(6, 2)
        alpha = alpha_low_root(2).value
        c = (alpha - 1) / (alpha + 1)
        q = q_second_low(spec)
        assert float(q.col_sums()[0]) == pytest.approx(
            c * (alpha**4 + alpha**3 + alpha**2), abs=1e-12
        )
        assert float(q.col_sums()[0]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n,r", [(4, 1), (6, 2), (8, 3), (20, 6), (41, 12), (200, 60)])
    def test_stochasticity_support_symmetry(self, n, r):
        q = q_second_low(BallSpec(n, r))
        assert q.max_sum_deviation() <= 1e-9
        assert q.support_equals_band()
        assert q.is_symmetric(1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_second_low(BallSpec(6, 0))
        with pytest.raises(DomainError):
            q_second_low(BallSpec(6, 3))


class TestSecondHigh:
    def test_entry_values_n4(self):
        q = q_second_high(BallSpec(4, 2))
        alpha = math.sqrt(2)
        c = (alpha - 1) / 2
        assert c == pytest.approx(0.2071068, abs=1e-7)
        assert q.entry(1, 1) == pytest.approx(c * alpha**2, abs=1e-12)
        assert q.entry(1, 1) == pytest.approx(0.4142136, abs=1e-7)
        assert float(q.col_sums()[0]) == pytest.approx(
            c * alpha * (alpha + 2), abs=1e-12
        )

    @pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (6, 4), (10, 7), (20, 14), (101, 75)])
    def test_stochasticity_support_symmetry(self, n, r):
        q = q_second_high(BallSpec(n, r))
        assert q.max_sum_deviation() <= 1e-9
        assert q.support_equals_band()
        assert q.is_symmetric(1e-12)
        # Reversal symmetry: entries(i,j) = entries(n+1-i, n+1-j).
        assert np.abs(q.entries - q.entries[::-1, ::-1]).max() <= 1e-15

    def test_central_block_constant(self):
        # The rows between the two gradient wedges share a single value.
        q = q_second_high(BallSpec(20, 14))
        middle = q.entries[6:14, 6:14]
        assert np.ptp(middle[middle > 0]) <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            q_second_high(BallSpec(7, 3))
        with pytest.raises(DomainError):
            q_second_high(BallSpec(7, 6))


class TestSinkhorn:
    def test_all_ones_balances_immediately(self):
        balanced, scales = sinkhorn_balance(np.ones((3, 3)))
        assert np.allclose(balanced.entries, 1.0 / 3.0)
        assert scales.iterations == 1

    def test_high_range_fixed_points(self):
        for n, r in ((4, 2), (6, 4), (8, 5), (10, 7)):
            spec = BallSpec(n, r)
            balanced, _ = sinkhorn_balance(BandMatrix(spec), tol=1e-10)
            deviation = np.abs(balanced.entries - q_second_high(spec).entries).max()
            assert deviation <= 1e-6

    def test_even_boundary_fixed_point_is_v_shaped_geometric(self):
        # At n even, r=(n-2)/2 the balanced limit is the separable geometric
        # matrix with ratio root of a^(r+1) = 2 (strictly larger entropy than
        # the corner-block construction, which is not separable there).
        for n, r in ((6, 2), (8, 3), (10, 4)):
            spec = BallSpec(n, r)
            balanced, _ = sinkhorn_balance(BandMatrix(spec), tol=1e-12)
            alpha = 2.0 ** (1.0 / (r + 1))
            idx = np.arange(1, n + 1)
            v = np.maximum((n - r) - idx, idx - (r + 1)).astype(float)
            c = (alpha - 1.0) * alpha ** (-(n - r))
            band = np.abs(idx[:, None] - idx[None, :]) <= r
            expected = np.where(band, c * alpha ** (v[:, None] + v[None, :]), 0.0)
            assert np.abs(balanced.entries - expected).max() <= 1e-9

            def entropy(q):
                mask = q > 0
                return float(np.sum(-q[mask] * np.log2(q[mask])))

            assert entropy(balanced.entries) > entropy(q_second_low(spec).entries)

    def test_order_invariance(self):
        band = BandMatrix(BallSpec(9, 4))
        a, _ = sinkhorn_balance(band, tol=1e-11, order="rows-first")
        b, _ = sinkhorn_balance(band, tol=1e-11, order="cols-first")
        assert np.abs(a.entries - b.entries).max() <= 1e-9

    @pytest.mark.parametrize("order", ["rows-first", "cols-first"])
    @pytest.mark.parametrize(
        "n,r",
        [
            (8, 1), (60, 2), (200, 4),  # low rho
            (9, 6), (40, 31), (200, 190),  # high rho
            (10, 4), (100, 49), (200, 99),  # even-n boundary, r = (n-2)/2
        ],
    )
    def test_band_input_matches_dense_reference(self, n, r, order):
        # The implicit band (window sums) against its dense array (matvecs).
        tol = 1e-10
        band = BandMatrix(BallSpec(n, r))
        idx = np.arange(n)
        mask = (np.abs(idx[:, None] - idx[None, :]) <= r).astype(float)
        implicit, implicit_scales = sinkhorn_balance(band, tol=tol, order=order)
        dense, dense_scales = sinkhorn_balance(mask, tol=tol, order=order)
        assert implicit_scales.iterations == dense_scales.iterations
        assert np.abs(implicit.entries - dense.entries).max() <= 1e-12
        assert implicit.residual <= tol and dense.residual <= tol
        assert implicit_scales.residual == implicit.residual

    def test_cells_built_once_per_recheck_and_failed_recheck_keeps_iterating(
        self, monkeypatch
    ):
        from permball import qmat

        band = BandMatrix(BallSpec(12, 3))
        _, plain = sinkhorn_balance(band, tol=1e-10)
        real_deviation, real_cells = qmat._sum_deviation, BandMatrix.cells
        rechecked, cell_lists = [], []

        def first_recheck_fails(cells, values, n):
            rechecked.append(values)
            return np.inf if len(rechecked) == 1 else real_deviation(cells, values, n)

        def counted_cells(self):
            cell_lists.append(self.spec)
            return real_cells(self)

        monkeypatch.setattr(qmat, "_sum_deviation", first_recheck_fails)
        monkeypatch.setattr(BandMatrix, "cells", counted_cells)
        balanced, scales = sinkhorn_balance(band, tol=1e-10)
        assert scales.iterations == plain.iterations + 1
        # One cell-value array per re-check, each over the 12*7 - 3*4 band
        # cells, and the last one is the result; no n x n array is built.
        band_cells = 12 * 7 - 3 * 4
        assert [values.shape for values in rechecked] == [(band_cells,)] * 2
        assert rechecked[0] is not rechecked[1] and balanced.values is rechecked[1]
        assert cell_lists == [band.spec]
        assert balanced.residual <= 1e-10

    def test_scaling_vectors_reconstruct_matrix(self):
        band = BandMatrix(BallSpec(7, 4))
        balanced, scales = sinkhorn_balance(band, tol=1e-11)
        idx = np.arange(7)
        mask = np.abs(idx[:, None] - idx[None, :]) <= 4
        rebuilt = scales.row_scale[:, None] * mask * scales.col_scale[None, :]
        assert np.abs(rebuilt - balanced.entries).max() <= 1e-12
        assert scales.residual <= 1e-11

    def test_convergence_error_carries_residual(self):
        with pytest.raises(ConvergenceError) as info:
            sinkhorn_balance(BandMatrix(BallSpec(8, 2)), tol=1e-14, max_iter=1)
        assert info.value.residual is not None
        assert info.value.residual > 0

    def test_rejects_empty_row(self):
        with pytest.raises(DomainError):
            sinkhorn_balance(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            sinkhorn_balance(np.ones((2, 2)), order="diagonal-first")


class TestOptimalityOrdering:
    @pytest.mark.parametrize("n,r", [(4, 2), (6, 4), (9, 5), (12, 8)])
    def test_high_range_beats_first_class(self, n, r):
        # The entropy functional at the separable family dominates the
        # piecewise-constant family on the same support.
        from permball.bounds import vdw_sinkhorn_bound

        spec = BallSpec(n, r)
        band = BandMatrix(spec)
        high = vdw_sinkhorn_bound(band, q_second_high(spec))
        first = vdw_sinkhorn_bound(band, q_first_class(spec))
        assert high >= first - 1e-9


class TestBandNativeMemory:
    """A band input builds no n x n array: at n = 2000 every traced peak
    stays below the size of one dense float array (30.5 MB)."""

    DENSE_BYTES = 2000 * 2000 * 8

    @staticmethod
    def traced(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_constructions_balancing_functionals_and_export(self):
        from permball.bounds import bethe_bound, vdw_sinkhorn_bound
        from permball.tables import render_matrix_triplets_csv

        spec = BallSpec(2000, 40)
        band = BandMatrix(spec)
        peaks = {}
        _, peaks["q_first_class"] = self.traced(q_first_class, spec)
        _, peaks["q_second_low"] = self.traced(q_second_low, spec)
        (balanced, _), peaks["sinkhorn_balance"] = self.traced(
            sinkhorn_balance, band, tol=1e-10
        )
        _, peaks["vdw_sinkhorn_bound"] = self.traced(vdw_sinkhorn_bound, band, balanced)
        _, peaks["bethe_bound"] = self.traced(bethe_bound, band, balanced)
        text, peaks["triplets"] = self.traced(
            lambda: render_matrix_triplets_csv(q_first_class(BallSpec(2000, 2)))
        )
        # The header plus the n(2r+1) - r(r+1) band cells at r = 2.
        assert text.count("\n") == 1 + 2000 * 5 - 2 * 3
        assert all(peak < self.DENSE_BYTES for peak in peaks.values()), peaks
