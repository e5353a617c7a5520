"""Property tests for the single definitions: the three radius ranges on
``BallSpec``, the domains that follow them, the figure grid, the sweep
JSON against its CSV, the band-cell matrices against dense references,
the exact counting backends against each other, the bounds around the
exact count, the rho round trip, the cache's keyed records, and the
round trip of every CSV schema.

Hypothesis runs derandomized and without an example database, so the
suite stays deterministic and writes no ``.hypothesis/`` directory.
"""

import json
import math
import re
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from permball.asym import GAP_PAIRS, GRID_MIN_STEP, gap_curve_table, step_grid
from permball.bounds import (
    ALL_FAMILIES,
    CLOSED_FAMILIES,
    LOWER_FAMILIES,
    bethe_bound,
    finite_bound,
    vdw_sinkhorn_bound,
)
from permball.cache import ResultCache
from permball.cli import FIGURES, _sweep_cell, main
from permball.core import BallSpec, BandMatrix, parse_rho, radius_from_rho
from permball.errors import DomainError, ValidationError
from permball.oracle import (
    applicable_backends,
    ball_size_band_dp,
    ball_size_exact,
    ball_size_exact_detailed,
    ball_size_modular_dp,
)
from permball.qmat import q_first_class, q_second_high, q_second_low, sinkhorn_balance
from permball.rates import rate_table
from permball.scalar import log2_factorial
from permball.tables import (
    parse_gap_long_csv,
    parse_gap_wide_csv,
    parse_matrix_dense_csv,
    parse_matrix_triplets_csv,
    parse_rate_csv,
    parse_rate_wide_csv,
    parse_sweep_csv,
    render_gap_long_csv,
    render_gap_wide_csv,
    render_matrix_dense_csv,
    render_matrix_triplets_csv,
    render_rate_csv,
    render_rate_wide_csv,
    render_sweep_csv,
    sweep_json_row,
    sweep_row,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)

# Even without a database, Hypothesis caches the constants it reads from the
# source files under its home directory (./.hypothesis by default), and its
# pytest plugin does so while collecting, before any fixture runs.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "permball-hypothesis")


@st.composite
def specs(draw, max_n=40, max_r=None):
    n = draw(st.integers(1, max_n))
    r_top = n - 1 if max_r is None else min(max_r, n - 1)
    return BallSpec(n, draw(st.integers(0, r_top)))


@PROPERTY_SETTINGS
@given(specs())
def test_ranges_match_the_papers_rational_inequalities(spec):
    half_span = Fraction(spec.n - 1, 2)
    assert spec.low_range == (spec.r <= half_span)
    assert spec.second_low_range == (1 <= spec.r <= Fraction(spec.n - 2, 2))
    assert spec.second_high_range == (half_span < spec.r < spec.n - 1)


@PROPERTY_SETTINGS
@given(specs())
def test_phi3_and_phi1_prime_valid_exactly_on_their_ranges(spec):
    phi3 = finite_bound("phi3", spec)
    assert phi3.valid == (spec.second_low_range or spec.second_high_range)
    phi1_prime = finite_bound("phi1_prime", spec)
    assert phi1_prime.valid == (spec.r >= 1 and spec.low_range)


@PROPERTY_SETTINGS
@given(specs())
def test_second_class_matrices_raise_exactly_outside_their_ranges(spec):
    for build, in_range in (
        (q_second_low, spec.second_low_range),
        (q_second_high, spec.second_high_range),
    ):
        if in_range:
            assert build(spec).max_sum_deviation() <= 1e-9
        else:
            with pytest.raises(DomainError):
                build(spec)


@PROPERTY_SETTINGS
@given(st.floats(min_value=GRID_MIN_STEP, max_value=0.5))
def test_every_accepted_grid_step_gives_points(step):
    for first in (1, 2):
        assert step_grid(step, first)
    # fig2's delta grid: the ecc bound is defined on (0, 1] only.
    assert all(0 < delta <= 1 for delta in step_grid(step, 2))


@pytest.mark.parametrize(
    "step", [0.0, -0.5, 1e-300, GRID_MIN_STEP / 2, 0.5000001, 2.0, float("nan")]
)
def test_grid_steps_outside_accepted_interval_are_rejected(step):
    with pytest.raises(ValidationError):
        step_grid(step)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(ALL_FAMILIES), min_size=1, unique=True),
)
def test_sweep_json_rows_equal_parsed_csv_rows(n_values, families):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        argv = [
            "sweep", "--n", ",".join(map(str, n_values)),
            "--families", ",".join(families),
            "--cache-dir", str(base / "cache"), "--jobs", "1",
        ]
        main([*argv, "--out", str(base / "s.csv")])
        main([*argv, "--format", "json", "--out", str(base / "s.json")])
        csv_rows = parse_sweep_csv((base / "s.csv").read_text())
        json_rows = json.loads((base / "s.json").read_text())["rows"]
    assert len(json_rows) == len(csv_rows) == len(families) * sum(n_values)
    for row, expected in zip(json_rows, csv_rows):
        spec = BallSpec(row.pop("n"), row.pop("r"))
        exact = row["exact_count"]
        row.update(spec=spec, exact_count=None if exact is None else int(exact))
        family = expected["family"]
        reason = finite_bound(family, spec).reason if family in CLOSED_FAMILIES else ""
        assert row == {**expected, "reason": reason}


def q_matrices(spec):
    """Every qmatrix family valid at spec, as the CLI builds them."""
    qs = [q_first_class(spec), sinkhorn_balance(BandMatrix(spec), tol=1e-10)[0]]
    if spec.second_low_range:
        qs.append(q_second_low(spec))
    if spec.second_high_range:
        qs.append(q_second_high(spec))
    return qs


@PROPERTY_SETTINGS
@given(specs())
def test_band_cell_matrices_match_dense_references(spec):
    n, r = spec.n, spec.r
    idx = np.arange(n)
    band = np.abs(idx[:, None] - idx[None, :]) <= r
    weights = band.astype(float)
    for q in q_matrices(spec):
        dense = q.entries
        assert ((dense > 0) == band).all()
        assert np.abs(dense.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(dense.sum(axis=0) - 1.0).max() <= 1e-9
        # The dense functionals as they were written before the cell form.
        mask = dense > 0
        qv = dense[mask]
        h = -qv * np.log2(qv / weights[mask])
        vdw = log2_factorial(n) - n * math.log2(n) + float(np.sum(h))
        one_minus = 1.0 - qv
        extra = np.zeros_like(qv)
        positive = one_minus > 0
        extra[positive] = one_minus[positive] * np.log2(one_minus[positive])
        assert abs(vdw_sinkhorn_bound(BandMatrix(spec), q) - vdw) <= 1e-12
        assert abs(bethe_bound(BandMatrix(spec), q) - float(np.sum(h + extra))) <= 1e-12
        triplets = parse_matrix_triplets_csv(render_matrix_triplets_csv(q))
        assert [(i - 1, j - 1) for i, j, _ in triplets] == list(zip(*np.nonzero(dense)))
        assert [float(Fraction(value)) for _, _, value in triplets] == list(qv)


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(specs(max_n=9))
def test_every_applicable_backend_gives_the_same_count(spec):
    # Verify mode raises VerificationError unless all the counts agree.
    result = ball_size_exact_detailed(spec, verify=True)
    assert result.backend.split("+") == sorted(applicable_backends(spec))
    assert 1 <= result.value <= math.factorial(spec.n)


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(specs(max_n=60, max_r=6))
def test_residue_dp_equals_the_dict_dp(spec):
    assert ball_size_modular_dp(spec) == ball_size_band_dp(spec)


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(specs(max_n=9))
def test_valid_bounds_sandwich_the_exact_count(spec):
    exact_bits = math.log2(ball_size_exact(spec))
    assert exact_bits <= finite_bound("Phi1", spec).bits + 1e-9
    for family in LOWER_FAMILIES:
        bound = finite_bound(family, spec)
        if bound.valid:
            assert bound.bits <= exact_bits + 1e-9, family
    band = BandMatrix(spec)
    balanced, _ = sinkhorn_balance(band, tol=1e-10)
    for functional in (vdw_sinkhorn_bound, bethe_bound):
        assert functional(band, balanced) <= exact_bits + 1e-9, functional.__name__
    phi1_prime = finite_bound("phi1_prime", spec)
    if phi1_prime.valid:
        assert phi1_prime.bits < exact_bits


@PROPERTY_SETTINGS
@given(specs(max_n=60))
def test_rho_text_round_trips_to_the_same_spec(spec):
    assert radius_from_rho(parse_rho(str(spec.rho)), spec.n) == spec


@PROPERTY_SETTINGS
@given(st.integers(2, 200), st.fractions(0, 1, max_denominator=60))
def test_nearest_admissible_n_is_another_n_that_is_accepted(n, rho):
    assume((rho * (n - 1)).denominator != 1)
    with pytest.raises(ValidationError, match="nearest admissible n") as info:
        radius_from_rho(rho, n)
    nearest = int(re.search(r"nearest admissible n is (\d+)", str(info.value))[1])
    assert nearest != n and nearest >= 2
    assert radius_from_rho(rho, nearest).r == rho * (nearest - 1)


@PROPERTY_SETTINGS
@given(specs(max_n=60), st.integers(0, 10**40), specs(max_n=60))
def test_cache_round_trips_and_refuses_a_record_under_another_key(spec, count, other):
    assume(other != spec)
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        cache.put(spec, count, "band-dp")
        assert int(cache.get(spec).exact_count) == count
        shutil.copy(cache.path_for(spec), cache.path_for(other))
        with pytest.raises(ValidationError, match="which its file name does not"):
            cache.get(other)


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(specs(max_n=9))
def test_sweep_rows_round_trip_as_csv_and_json(spec):
    pairs = _sweep_cell(ALL_FAMILIES, None, spec.n, spec.r)
    parsed = parse_sweep_csv(render_sweep_csv([sweep_row(*pair) for pair in pairs]))
    loaded = json.loads(json.dumps([sweep_json_row(*pair) for pair in pairs]))
    assert len(parsed) == len(loaded) == len(ALL_FAMILIES)
    for (bv, exact), csv_row, json_row in zip(pairs, parsed, loaded):
        bits = None if math.isnan(bv.bits) else bv.bits
        expected = {"family": bv.family, "direction": bv.direction}
        expected.update(bits=bits, valid=bv.valid)
        assert csv_row == {**expected, "spec": spec, "exact_count": exact}
        count = None if exact is None else str(exact)
        json_expected = {**expected, "n": spec.n, "r": spec.r, "exact_count": count}
        assert json_row == {**json_expected, "reason": bv.reason}


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(specs(max_n=9))
def test_qmatrix_round_trips_dense_and_triplets(spec):
    for q in q_matrices(spec):
        # Exact matrices export fractions; float cells parse back exactly.
        value = Fraction if q.is_exact else float
        if q.is_exact:
            numerators = np.zeros((spec.n, spec.n), dtype=np.int64)
            numerators[q.cells] = q.exact_numerators
            d = q.exact_denominator
            grid = [[Fraction(int(x), d) for x in row] for row in numerators]
        else:
            grid = q.entries.tolist()
        dense = parse_matrix_dense_csv(render_matrix_dense_csv(q))
        assert [[value(x) for x in row] for row in dense] == grid
        triplets = parse_matrix_triplets_csv(render_matrix_triplets_csv(q))
        assert [(i - 1, j - 1, value(text)) for i, j, text in triplets] == [
            (i, j, grid[i][j]) for i, j in zip(*q.cells) if grid[i][j] > 0
        ]


# Down to 1e-3 (about 1,000 points per curve): the whole accepted range
# reaches 10^5 points per curve, seconds per example.
@settings(PROPERTY_SETTINGS, max_examples=15)
@given(st.floats(min_value=1e-3, max_value=0.5))
def test_gap_and_rate_tables_round_trip_long_and_wide(step):
    by_pair = lambda p: (p.pair, p.rho)
    points = gap_curve_table(GAP_PAIRS, step=step)
    assert parse_gap_long_csv(render_gap_long_csv(points)) == points
    wide = parse_gap_wide_csv(render_gap_wide_csv(points, GAP_PAIRS), GAP_PAIRS)
    assert sorted(wide, key=by_pair) == sorted(points, key=by_pair)
    by_kind = lambda p: (p.kind, p.x)
    for which in ("fig2", "fig3"):
        kinds, x_name, reserved, *_, first = FIGURES[which]
        points = rate_table(kinds, step_grid(step, first))
        assert parse_rate_csv(render_rate_csv(points)) == points
        text = render_rate_wide_csv(points, kinds, x_name, unavailable=tuple(reserved))
        wide = parse_rate_wide_csv(text, kinds, x_name, unavailable=tuple(reserved))
        assert sorted(wide, key=by_kind) == sorted(points, key=by_kind)
