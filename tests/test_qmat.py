"""Doubly-stochastic constructions and Sinkhorn balancing."""

import dataclasses
import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from permball import qmat, verify
from permball.core import BallSpec, BandMatrix
from permball.errors import ConvergenceError, DomainError
from permball.qmat import (
    q_first_class,
    q_second_high,
    q_second_low,
    sinkhorn_balance,
)
from permball.scalar import alpha_high_root, alpha_low_root


def exact_entries(q):
    """q's exact entries as a dense, zero-based grid of Fractions."""
    numerators = np.zeros((q.n, q.n), dtype=np.int64)
    numerators[q.cells] = q.exact_numerators
    return [[Fraction(int(v), q.exact_denominator) for v in row] for row in numerators]


class TestFirstClass:
    def test_low_regime_entries(self):
        q = exact_entries(q_first_class(BallSpec(5, 1)))
        assert q[0][0] == Fraction(2, 3)
        assert q[1][0] == Fraction(1, 3)
        assert sum(row[0] for row in q) == 1

    def test_high_regime_entries(self):
        q = exact_entries(q_first_class(BallSpec(4, 2)))
        assert q[0][0] == Fraction(2, 4)
        assert q[1][2] == Fraction(1, 4)

    def test_exact_double_stochasticity(self):
        q = q_first_class(BallSpec(6, 2))
        assert q.exactly_doubly_stochastic()
        assert q.support_equals_band()
        assert q.is_symmetric()

    def test_column_sums_by_direct_summation(self):
        for n, r in ((6, 2), (9, 4), (10, 7), (7, 3)):
            q = exact_entries(q_first_class(BallSpec(n, r)))
            for j in range(n):
                assert sum(row[j] for row in q) == 1
                assert sum(q[j]) == 1

    def test_regime_boundary_consistency(self):
        # Odd n with 2r = n-1: both defining formulas must coincide.
        for n in (3, 5, 7, 11):
            q = q_first_class(BallSpec(n, (n - 1) // 2))
            assert q.exactly_doubly_stochastic()

    def test_identity_at_radius_zero(self):
        q = q_first_class(BallSpec(5, 0))
        assert q.exactly_doubly_stochastic()
        assert all(exact_entries(q)[i][i] == 1 for i in range(5))


class TestSecondLow:
    def test_entry_values_from_alpha(self):
        spec = BallSpec(6, 2)
        alpha = alpha_low_root(2).value
        c = (alpha - 1) / (alpha + 1)
        q = q_second_low(spec)
        assert q.entries[3, 3] == pytest.approx(c, abs=1e-12)
        assert c == pytest.approx(0.1396806, abs=1e-6)
        assert q.entries[0, 0] == pytest.approx(c * alpha**4, abs=1e-12)
        # alpha^4 = alpha^2 + alpha by the defining cubic
        assert alpha**4 == pytest.approx(alpha**2 + alpha, abs=1e-12)

    def test_column_one_closed_sum(self):
        spec = BallSpec(6, 2)
        alpha = alpha_low_root(2).value
        c = (alpha - 1) / (alpha + 1)
        first_column = q_second_low(spec).entries.sum(axis=0)[0]
        assert first_column == pytest.approx(
            c * (alpha**4 + alpha**3 + alpha**2), abs=1e-12
        )
        assert first_column == pytest.approx(1.0, abs=1e-9)

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
        assert q.entries[0, 0] == pytest.approx(c * alpha**2, abs=1e-12)
        assert q.entries[0, 0] == pytest.approx(0.4142136, abs=1e-7)
        first_column = q.entries.sum(axis=0)[0]
        assert first_column == pytest.approx(c * alpha * (alpha + 2), abs=1e-12)

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


class TestPerCellDefinitions:
    """Each builder's values equal its per-cell definition, evaluated here
    on a dense one-based (i, j) grid, bit for bit, for every n <= 40."""

    SPECS = [BallSpec(n, r) for n in range(1, 41) for r in range(n)]

    @staticmethod
    def grid(spec):
        i, j = np.indices((spec.n, spec.n)) + 1
        return i, j, np.abs(i - j) <= spec.r

    def test_first_class(self):
        for spec in self.SPECS:
            n, r = spec.n, spec.r
            i, j, band = self.grid(spec)
            if spec.low_range:
                d, corners = 2 * r + 1, (i + j <= r + 1) | (i + j >= 2 * n - r + 1)
            else:
                d, corners = n, (i + j <= n - r) | (i + j >= n + r + 2)
            num = np.where(corners, 2, 1)[band]
            q = q_first_class(spec)
            assert q.exact_denominator == d, spec
            assert np.array_equal(q.exact_numerators, num), spec
            assert np.array_equal(q.values, num / float(d)), spec

    def test_second_low(self):
        for spec in filter(lambda s: s.second_low_range, self.SPECS):
            n, r = spec.n, spec.r
            i, j, band = self.grid(spec)
            expo = np.abs(i - j)
            top = (i <= r + 1) & (j <= r + 1)
            bottom = (i >= n - r) & (j >= n - r)
            expo[top] = ((r + 1 - i) + (r + 1 - j))[top]
            expo[bottom] = ((i - (n - r)) + (j - (n - r)))[bottom]
            alpha = alpha_low_root(r).value
            c = (alpha - 1.0) / (alpha + 1.0)
            values = (c * np.power(alpha, expo))[band]
            assert np.array_equal(q_second_low(spec).values, values), spec

    def test_second_high(self):
        for spec in filter(lambda s: s.second_high_range, self.SPECS):
            n, r = spec.n, spec.r
            i, j, band = self.grid(spec)
            v = np.zeros(n + 1)
            for k in range(1, n + 1):
                if k <= n - r:
                    v[k] = (n - r) - k
                elif k >= r + 1:
                    v[k] = k - (r + 1)
            alpha = alpha_high_root(n, r).value
            c = (alpha - 1.0) * alpha ** (-(n - r))
            values = (c * np.power(alpha, v[i] + v[j]))[band]
            assert np.array_equal(q_second_high(spec).values, values), spec


BATTERY_SPECS_TO_40 = [
    BallSpec(n, r) for n in range(1, 41) for r in verify._battery_radii(n)
]


def battery_matrices(spec):
    yield q_first_class(spec)
    if spec.second_low_range:
        yield q_second_low(spec)
    if spec.second_high_range:
        yield q_second_high(spec)


class TestLineSums:
    @staticmethod
    def columns_by_add_at(cells, x, n):
        by_col = np.zeros(n, dtype=x.dtype)
        np.add.at(by_col, cells[1], x)
        return by_col

    def test_column_sums_match_add_at_bit_for_bit(self):
        # Column sums are added in cell order: any other way of taking
        # them must keep every float sum and residual to the bit.
        rng = np.random.default_rng(20)
        for spec in BATTERY_SPECS_TO_40:
            for q in battery_matrices(spec):
                inputs = [q.values, rng.random(q.values.size)]
                if q.is_exact:
                    inputs.append(q.exact_numerators)
                for x in inputs:
                    _, by_col = qmat._line_sums(q.cells, x, spec.n)
                    expected = self.columns_by_add_at(q.cells, x, spec.n)
                    assert by_col.tobytes() == expected.tobytes(), spec

    def test_exact_check_catches_one_moved_numerator(self):
        rng = np.random.default_rng(21)
        for spec in BATTERY_SPECS_TO_40:
            q = q_first_class(spec)
            assert q.exactly_doubly_stochastic(), spec
            moved = q.exact_numerators.copy()
            moved[rng.integers(moved.size)] += 1
            broken = dataclasses.replace(q, exact_numerators=moved)
            assert not broken.exactly_doubly_stochastic(), spec


class TestSharedCells:
    @staticmethod
    def check_cells(matrices):
        for q in matrices:
            for got, expected in zip(q.cells, BandMatrix(q.spec).cells()):
                assert np.array_equal(got, expected), q.spec
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = 1

    def test_one_read_only_build_per_spec_that_matrices_alone_keep(self):
        a, b = BallSpec(12, 3), BallSpec(12, 4)
        built = [q_first_class(a), q_first_class(b), q_second_low(b)]
        built += [q_first_class(a), q_second_low(a)]
        self.check_cells(built)
        # A builder reuses the cells of the spec built last while a
        # matrix on them is alive; a spec built again gets a fresh build.
        assert built[1].cells[0] is built[2].cells[0]
        assert built[3].cells[1] is built[4].cells[1]
        assert built[0].cells[0] is not built[3].cells[0]
        del built
        gc.collect()
        spec, rows, cols = qmat._shared_cells
        assert spec == a and rows() is None and cols() is None


BALANCE_CELLS = [
    (8, 1), (60, 2), (200, 4),  # low rho
    (9, 6), (40, 31), (200, 190),  # high rho
    (10, 4), (100, 49), (200, 99),  # even-n boundary, r = (n-2)/2
]


class TestSinkhorn:
    def test_all_ones_balances_immediately(self):
        # At r = n-1 the band is the all-ones matrix.
        balanced, scales = sinkhorn_balance(BandMatrix(BallSpec(3, 2)))
        assert np.allclose(balanced.entries, 1.0 / 3.0)
        assert scales.iterations == 1

    def test_sweep_count_does_not_depend_on_rho(self):
        # The symmetric iteration contracts by about 0.6 per sweep at any
        # n and rho, so about 40 sweeps reach 1e-10 everywhere.
        for n, r in ((500, 10), (500, 25), (500, 449), (2000, 10)):
            _, scales = sinkhorn_balance(BandMatrix(BallSpec(n, r)), tol=1e-10)
            assert scales.iterations <= 60, (n, r, scales.iterations)
        balanced, scales = sinkhorn_balance(BandMatrix(BallSpec(10**5, 1)), tol=1e-10)
        assert scales.residual == balanced.residual <= 1e-10
        assert balanced.support_equals_band()

    def test_tight_tol_is_reached_at_large_n(self):
        # The window sums centre x before taking its prefix sum; a plain
        # prefix sum of x stalls near 1.7e-13 here.
        balanced, scales = sinkhorn_balance(BandMatrix(BallSpec(2000, 10)), tol=1e-13)
        assert scales.residual == balanced.residual <= 1e-13

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

    @pytest.mark.parametrize("n,r", BALANCE_CELLS)
    def test_balanced_band_is_symmetric(self, n, r):
        # The band is symmetric and its balanced limit is unique, so the
        # result may not depend on normalizing rows before columns.
        balanced, scales = sinkhorn_balance(BandMatrix(BallSpec(n, r)), tol=1e-10)
        assert balanced.is_symmetric(tol=1e-9)
        assert scales.residual == balanced.residual <= 1e-10

    @pytest.mark.parametrize("n,r", [*BALANCE_CELLS, (1, 0), (12, 11)])
    def test_band_input_matches_dense_reference(self, n, r):
        # The window sums that balance the implicit band, against the
        # product with its dense 0/1 mask.
        idx = np.arange(n)
        mask = (np.abs(idx[:, None] - idx[None, :]) <= r).astype(float)
        rng = np.random.default_rng(1000 * n + r)
        x, y = rng.random(n), rng.random(n)
        window_sums = qmat._window_sums(BallSpec(n, r))
        first = window_sums(x)
        second = window_sums(y)
        # The map reuses one prefix buffer; an earlier result stays intact.
        np.testing.assert_allclose(first, mask @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(second, mask @ y, rtol=1e-12, atol=1e-12)

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
        rebuilt = scales.scale[:, None] * mask * scales.scale[None, :]
        assert np.abs(rebuilt - balanced.entries).max() <= 1e-12
        assert scales.residual <= 1e-11

    def test_convergence_error_carries_residual(self, monkeypatch):
        monkeypatch.setattr(qmat, "SINKHORN_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="in 1 iterations") as info:
            sinkhorn_balance(BandMatrix(BallSpec(8, 2)), tol=1e-14)
        assert info.value.residual is not None
        assert info.value.residual > 0


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
