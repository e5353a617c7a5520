"""Property tests for the single definitions: the three radius ranges on
``BallSpec``, the domains that follow them, the figure grid, the sweep
JSON against its CSV, and the band-cell matrices against dense references.

Hypothesis runs derandomized and without an example database, so the
suite stays deterministic and writes no ``.hypothesis/`` directory.
"""

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from permball.asym import GRID_MIN_STEP, step_grid
from permball.bounds import ALL_FAMILIES, bethe_bound, finite_bound, vdw_sinkhorn_bound
from permball.cli import main
from permball.core import BallSpec, BandMatrix
from permball.errors import DomainError, ValidationError
from permball.qmat import q_first_class, q_second_high, q_second_low, sinkhorn_balance
from permball.scalar import log2_factorial
from permball.tables import (
    parse_matrix_triplets_csv,
    parse_sweep_csv,
    render_matrix_triplets_csv,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)

# Even without a database, Hypothesis caches the constants it reads from the
# source files under its home directory (./.hypothesis by default), and its
# pytest plugin does so while collecting, before any fixture runs.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "permball-hypothesis")


@st.composite
def specs(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    return BallSpec(n, draw(st.integers(0, n - 1)))


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
        assert row == expected


@PROPERTY_SETTINGS
@given(specs())
def test_band_cell_matrices_match_dense_references(spec):
    n, r = spec.n, spec.r
    idx = np.arange(n)
    band = np.abs(idx[:, None] - idx[None, :]) <= r
    weights = band.astype(float)
    qs = [q_first_class(spec), sinkhorn_balance(BandMatrix(spec), tol=1e-10)[0]]
    if spec.second_low_range:
        qs.append(q_second_low(spec))
    if spec.second_high_range:
        qs.append(q_second_high(spec))
    for q in qs:
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
