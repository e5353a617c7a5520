"""Doubly-stochastic constructions and Sinkhorn balancing."""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from permball import qmat, verify
from permball.core import BallSpec, BandMatrix
from permball.errors import ConvergenceError, DomainError, ValidationError
from permball.qmat import (
    q_first_class,
    q_second_high,
    q_second_low,
    sinkhorn_balance,
)
from permball.scalar import alpha_high_root, alpha_low_root


def exact_entries(q):
    """q's exact entries as a dense, zero-based grid of Fractions."""
    numerators = qmat._dense(q.exact_numerators)
    return [[Fraction(int(v), q.exact_denominator) for v in row] for row in numerators]


def stored(dense, r):
    """The (r+1) x (n+1) upper-diagonal storage of a symmetric dense
    matrix: row d holds its d-th diagonal, then zeros."""
    n = len(dense)
    out = np.zeros((r + 1, n + 1), dense.dtype)
    for d in range(r + 1):
        out[d, : n - d] = np.diagonal(dense, d)
    return out


def band_mask(spec):
    idx = np.arange(spec.n)
    return np.abs(idx[:, None] - idx[None, :]) <= spec.r


def line_sum_deviation(q):
    """Largest gap from 1 of a row or column sum of q's dense entries."""
    dense = q.entries
    sums = np.concatenate([dense.sum(axis=0), dense.sum(axis=1)])
    return float(np.abs(sums - 1).max())


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
        assert (q.entries == q.entries.T).all()

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
        assert line_sum_deviation(q) <= 1e-9
        assert q.support_equals_band()
        assert (q.entries == q.entries.T).all()

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
        assert line_sum_deviation(q) <= 1e-9
        assert q.support_equals_band()
        assert (q.entries == q.entries.T).all()
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


# Battery specs at n = 150..200, where the band runs up to 40,000 cells.
LARGE_BATTERY_SPECS = [
    BallSpec(n, r) for n in (150, 173, 199, 200) for r in verify._battery_radii(n)
]


class TestPerCellDefinitions:
    """Each builder's stored values, numerators and denominator equal its
    per-cell definition, evaluated here on a dense one-based (i, j) grid
    and moved to the upper-diagonal storage, bit for bit, at every (n, r)
    with n <= 60, the battery's specs among them, and the large battery
    specs."""

    SPECS = [BallSpec(n, r) for n in range(1, 61) for r in range(n)]
    SPECS += LARGE_BATTERY_SPECS

    @staticmethod
    def grid(spec):
        i, j = np.indices((spec.n, spec.n)) + 1
        return i, j, np.abs(i - j) <= spec.r

    @staticmethod
    def assert_bits(q, values, numerators=None, denominator=None):
        def same(got, want):
            return got.dtype == want.dtype and got.tobytes() == want.tobytes()

        assert same(q.values, values), q.spec
        if numerators is None:
            assert q.exact_numerators is None and q.exact_denominator is None, q.spec
        else:
            assert same(q.exact_numerators, numerators), q.spec
            assert type(q.exact_denominator) is int, q.spec
            assert q.exact_denominator == denominator, q.spec

    def test_first_class(self):
        for spec in self.SPECS:
            n, r = spec.n, spec.r
            i, j, band = self.grid(spec)
            if spec.low_range:
                d, corners = 2 * r + 1, (i + j <= r + 1) | (i + j >= 2 * n - r + 1)
            else:
                d, corners = n, (i + j <= n - r) | (i + j >= n + r + 2)
            num = stored(np.where(band, np.where(corners, 2, 1), 0), r)
            self.assert_bits(q_first_class(spec), num / float(d), num, d)

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
            values = np.where(band, c * np.power(alpha, expo), 0.0)
            self.assert_bits(q_second_low(spec), stored(values, r))

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
            values = np.where(band, c * np.power(alpha, v[i] + v[j]), 0.0)
            self.assert_bits(q_second_high(spec), stored(values, r))

    def test_balanced_cells_and_sweep_counts(self):
        # Each balanced cell is x_i * x_j, and the dense entries and sweep
        # counts at every (n, r) with n <= 60 hash as they did when Q was
        # stored cell by cell in row-major order.
        digest = hashlib.sha256()
        for spec in self.SPECS[: 60 * 61 // 2]:
            balanced, scales = sinkhorn_balance(BandMatrix(spec), tol=1e-10)
            x = scales.scale
            _, _, band = self.grid(spec)
            dense = np.where(band, x[:, None] * x[None, :], 0.0)
            assert balanced.entries.tobytes() == dense.tobytes(), spec
            digest.update(dense.tobytes())
            digest.update(scales.iterations.to_bytes(4, "little"))
        assert digest.hexdigest() == BALANCED_TO_60_SHA256


# sha256 of the balanced entries and sweep counts above, recorded with the
# row-major layout.
BALANCED_TO_60_SHA256 = "21e4969f8ff12efb8c824460bf2ca0f25b637c1dbdf6f2a1b1f67dac18e59d8e"


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
    def add_at(index, x, n):
        sums = np.zeros(n, dtype=x.dtype)
        np.add.at(sums, index, x)
        return sums

    def test_column_sums_match_add_at_bit_for_bit(self):
        # Q is symmetric by storage, so added in row-major cell order,
        # column j meets row j's values in row j's order, and its sum is
        # row j's to the bit.
        built = (
            q for spec in BATTERY_SPECS_TO_40 + LARGE_BATTERY_SPECS
            for q in battery_matrices(spec)
        )
        balanced = (
            sinkhorn_balance(BandMatrix(BallSpec(n, r)), tol=1e-10)[0]
            for n, r in BALANCE_CELLS
        )
        for q in itertools.chain(built, balanced):
            inputs = [q.values] + ([q.exact_numerators] if q.is_exact else [])
            for stored_x in inputs:
                rows, cols, x = q.row_major(stored_x)
                by_col = self.add_at(cols, x, q.n)
                assert by_col.tobytes() == self.add_at(rows, x, q.n).tobytes(), q.spec

    def test_padding_cells_are_exactly_zero(self):
        balanced = (
            sinkhorn_balance(BandMatrix(spec), tol=1e-10)[0] for spec in BATTERY_SPECS_TO_40
        )
        built = (q for spec in BATTERY_SPECS_TO_40 for q in battery_matrices(spec))
        for q in itertools.chain(built, balanced):
            n, r = q.n, q.spec.r
            d, t = np.indices((r + 1, n + 1))
            padding = t + d >= n
            inputs = [q.values] + ([q.exact_numerators] if q.is_exact else [])
            for x in inputs:
                assert (x[padding] == 0).all() and not np.signbit(x[padding]).any(), q.spec
                assert (x[~padding] > 0).all(), q.spec
                # The row sums read it through a view of its C-order buffer.
                assert x.flags.c_contiguous, q.spec

    def test_residual_from_the_extreme_sums_matches_the_largest_gap(self):
        # Row sums on both sides of 1, the larger gap above 1 in some draws
        # and below it in others: the residual is max |s - 1| to the bit.
        rng = np.random.default_rng(5)
        q = q_second_low(BallSpec(40, 13))
        sides = set()
        for _ in range(200):
            values = q.values * (1 + rng.uniform(-1e-10, 1e-10, q.values.shape))
            sums = qmat._row_sums(values)
            assert sums.min() < 1 < sums.max()
            expected = float(np.abs(sums - 1.0).max())
            got = qmat.StochasticMatrix(q.spec, values).residual
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            sides.add(sums.max() - 1 > 1 - sums.min())
        assert sides == {True, False}

    def test_hand_built_matrix_reports_its_own_residual(self):
        # Rows of 2, 3 and 2 cells at 0.4 sum to 0.8, 1.2 and 0.8.
        spec = BallSpec(3, 1)
        q = qmat.StochasticMatrix(spec, stored(np.where(band_mask(spec), 0.4, 0.0), 1))
        assert q.residual == pytest.approx(0.2, abs=1e-15)

    def test_replaced_values_get_a_fresh_residual(self):
        q = q_second_low(BallSpec(20, 6))
        assert q.residual <= 1e-12
        scaled = dataclasses.replace(q, values=q.values * (1 + 1e-6))
        assert scaled.residual == pytest.approx(1e-6, rel=1e-6)

    def test_values_must_cover_the_band_cells(self):
        # (3, 1) stores its 2 diagonals in a 2 x 4 array; neither the 7
        # cells in row-major order, nor the dense matrix, nor the
        # diagonals without their padding column are taken.
        spec = BallSpec(3, 1)
        for wrong in (np.full(7, 0.4), np.eye(3), np.full((2, 3), 0.4)):
            with pytest.raises(ValidationError, match=r"values of shape .* \(2, 4\)"):
                qmat.StochasticMatrix(spec, wrong)
        with pytest.raises(ValidationError, match="exact_numerators of shape"):
            qmat.StochasticMatrix(spec, np.zeros((2, 4)), np.ones((3, 4), np.int64), 3)

    def test_exact_check_catches_one_moved_numerator(self):
        rng = np.random.default_rng(21)
        for spec in BATTERY_SPECS_TO_40:
            q = q_first_class(spec)
            assert q.exactly_doubly_stochastic(), spec
            moved = q.exact_numerators.copy()
            cells = np.argwhere(moved > 0)
            moved[tuple(cells[rng.integers(len(cells))])] += 1
            broken = dataclasses.replace(q, exact_numerators=moved)
            assert not broken.exactly_doubly_stochastic(), spec


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
        assert (balanced.entries == balanced.entries.T).all()
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
        band = BandMatrix(BallSpec(12, 3))
        plain = sinkhorn_balance(band, tol=1e-10)[1]
        real_row_sums = qmat._row_sums
        rechecked, listed = [], []

        def first_recheck_fails(values):
            rechecked.append(values)
            sums = real_row_sums(values)
            return sums + 1.0 if len(rechecked) == 1 else sums

        def counted_cells(self):
            listed.append(self.spec)

        monkeypatch.setattr(qmat, "_row_sums", first_recheck_fails)
        monkeypatch.setattr(BandMatrix, "cells", counted_cells)
        balanced, scales = sinkhorn_balance(band, tol=1e-10)
        assert scales.iterations == plain.iterations + 1
        # One stored array per re-check, the 4 diagonals of the 12 x 12
        # band with their padding, and the last one is the result; no
        # n x n array and no cell list is built.
        assert [values.shape for values in rechecked] == [(4, 13)] * 2
        assert rechecked[0] is not rechecked[1] and balanced.values is rechecked[1]
        assert listed == []
        # The residual is the row-sum deviation.
        rows = real_row_sums(balanced.values)
        assert balanced.residual == float(np.abs(rows - 1.0).max()) <= 1e-10

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


class TestExactSymmetry:
    def test_every_construction_is_symmetric_to_the_bit(self):
        # Each stored cell is both Q[t, t+d] and Q[t+d, t], so the entries
        # equal their transpose to the bit, and one stored cell moved by
        # one ulp moves both.
        def symmetric(dense):
            return dense.tobytes() == np.ascontiguousarray(dense.T).tobytes()

        for spec in BATTERY_SPECS_TO_40:
            for q in battery_matrices(spec):
                assert symmetric(q.entries), spec
        for n, r in BALANCE_CELLS:
            balanced, _ = sinkhorn_balance(BandMatrix(BallSpec(n, r)), tol=1e-10)
            assert symmetric(balanced.entries), (n, r)
            moved = balanced.values.copy()
            moved[1, 0] = np.nextafter(moved[1, 0], np.inf)
            dense = dataclasses.replace(balanced, values=moved).entries
            assert dense[0, 1] == dense[1, 0] == moved[1, 0] != balanced.values[1, 0]


SPECS_TO_40 = [BallSpec(n, r) for n in range(1, 41) for r in range(n)]


class TestSymmetryContract:
    """Each Q is symmetric by storage, so its column sums, which qmat never
    takes, are its row sums."""

    def test_columns_sum_like_rows(self):
        # The strided row sums against fsum of each row and each column of
        # the dense entries, and exactly for the first class's numerators.
        specs = SPECS_TO_40 + [BallSpec(200, r) for r in (66, 132, 199)]
        for spec in specs:
            balanced, _ = sinkhorn_balance(BandMatrix(spec), tol=1e-10)
            for q in [*battery_matrices(spec), balanced]:
                sums = qmat._row_sums(q.values)
                dense = q.entries
                bound = (2 * spec.r + 1) * np.finfo(float).eps
                for lines in (dense, dense.T):
                    exact = np.array([math.fsum(line) for line in lines.tolist()])
                    assert np.abs(sums - exact).max() <= bound, spec
                assert np.abs(sums - 1).max() <= qmat.STOCHASTIC_TOL, spec
                if q.is_exact:
                    sums = qmat._row_sums(q.exact_numerators)
                    num = qmat._dense(q.exact_numerators)
                    assert (sums == num.sum(axis=1)).all(), spec
                    assert (sums == num.sum(axis=0)).all(), spec
                    assert (sums == q.exact_denominator).all(), spec

    @staticmethod
    def asymmetric_numerators(q):
        """q's dense numerators doubled over 2D, one unit moved from (i, i)
        to (i, i+1): every row still sums to 2D, columns i and i+1 do not,
        and a 3-cycle minus its transpose: every line sums to 2D."""
        i = q.n // 2 - 1
        moved = 2 * qmat._dense(q.exact_numerators)
        moved[i, i] -= 1
        moved[i, i + 1] += 1
        cycled = 2 * qmat._dense(q.exact_numerators)
        for a, b in ((i - 1, i), (i, i + 1), (i + 1, i - 1)):
            cycled[a, b] += 1
            cycled[b, a] -= 1
        return moved, cycled

    def test_asymmetric_exact_numerators_are_refused(self):
        # An asymmetric Q has no upper-diagonal storage: given whole, its
        # numerators are refused for their shape, even where every row
        # sums to the denominator.
        for spec in filter(lambda s: s.r >= 2 and s.n >= 4, SPECS_TO_40):
            q = q_first_class(spec)
            for num in self.asymmetric_numerators(q):
                d = 2 * q.exact_denominator
                assert (num.sum(axis=1) == d).all() and (num != num.T).any(), spec
                with pytest.raises(ValidationError, match="exact_numerators of shape"):
                    qmat._finish(spec, q.values, numerators=num, denominator=d)


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
    """A band input builds no n x n array and no per-cell index array: at
    (2000, 40), where the stored diagonals take 41 x 2001 x 8 B = 656 KB,
    every traced peak stays within 10% of its measured value."""

    MEASURED_PEAK_BYTES = {
        "q_first_class": 1_523_428,  # the values and the exact numerators
        "q_second_low": 901_569,
        "sinkhorn_balance": 949_971,
        "vdw_sinkhorn_bound": 658_262,  # one array of terms
        "bethe_bound": 1_969_376,  # the terms, 1 - q and its terms
        "triplets": 3_354_210,  # the export at (2000, 2), its strings
    }

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
        assert peaks.keys() == self.MEASURED_PEAK_BYTES.keys()
        for name, peak in peaks.items():
            assert peak <= 1.1 * self.MEASURED_PEAK_BYTES[name], (name, peak)
