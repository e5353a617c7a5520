"""Round-trips through the documented CSV schemas."""

import math

import pytest

from permball import qmat
from permball.asym import GAP_PAIRS, gap_curve_table
from permball.bounds import finite_bound
from permball.core import BallSpec
from permball.errors import ValidationError
from permball.qmat import q_first_class, q_second_high
from permball.rates import rate_table
from permball.tables import (
    data_section,
    format_float,
    parse_gap_long_csv,
    parse_gap_wide_csv,
    parse_matrix_triplets_csv,
    parse_rate_csv,
    parse_sweep_csv,
    render_gap_long_csv,
    render_gap_wide_csv,
    render_matrix_dense_csv,
    render_matrix_triplets_csv,
    render_rate_csv,
    render_sweep_csv,
    sweep_row,
)


def test_float_formatting_round_trips_exactly():
    for value in (1 / 3, 2 - math.log2(math.e), 1e-300, 0.0):
        assert float(format_float(value)) == value
    assert format_float(float("nan")) == ""
    assert format_float(None) == ""


def test_sweep_round_trip():
    rows = []
    for n in (4, 5):
        for r in range(n):
            spec = BallSpec(n, r)
            for family in ("phi1", "Phi1", "phi3"):
                bv = finite_bound(family, spec)
                rows.append(sweep_row(bv, 7 if family == "phi1" else None))
    text = render_sweep_csv(rows, comments=("demo sweep",))
    parsed = parse_sweep_csv(text)
    assert len(parsed) == len(rows)
    assert parsed[0]["family"] == "phi1"
    assert parsed[0]["spec"] == BallSpec(4, 0)
    invalid = [row for row in parsed if not row["valid"]]
    assert invalid and all(row["bits"] is None for row in invalid)
    valid_bits = [row["bits"] for row in parsed if row["valid"]]
    assert all(isinstance(b, float) for b in valid_bits)


def test_sweep_header_enforced():
    with pytest.raises(ValidationError, match="header"):
        parse_sweep_csv("a,b\n1,2\n")


def test_gap_long_round_trip():
    points = gap_curve_table(["phi2", "phi3"], step=0.2)
    text = render_gap_long_csv(points)
    parsed = parse_gap_long_csv(text)
    assert parsed == points


def test_gap_wide_round_trip_with_blanks():
    points = gap_curve_table(GAP_PAIRS, step=0.25)
    text = render_gap_wide_csv(points, GAP_PAIRS, comments=("wide",))
    parsed = parse_gap_wide_csv(text, GAP_PAIRS)
    assert sorted(parsed, key=lambda p: (p.pair, p.rho)) == sorted(
        points, key=lambda p: (p.pair, p.rho)
    )
    # phi1_prime has no value at rho = 0.75: a blank cell, not a zero.
    lines = text.splitlines()
    assert lines[-1].count(",,") == 1 or ",," in lines[-1]


def test_rate_round_trip():
    points = rate_table(("ecc_old", "cover_new"), grid=(0.25, 0.5))
    text = render_rate_csv(points)
    assert parse_rate_csv(text) == points


def test_matrix_dense_exact_round_trip():
    from fractions import Fraction

    from permball.tables import parse_matrix_dense_csv

    sm = q_first_class(BallSpec(5, 1))
    text = render_matrix_dense_csv(sm)
    assert "2/3" in text and "1/3" in text
    numerators = qmat._dense(sm.exact_numerators)
    assert parse_matrix_dense_csv(text) == [
        [Fraction(int(v), sm.exact_denominator) for v in row] for row in numerators
    ]
    floats = parse_matrix_dense_csv(render_matrix_dense_csv(q_second_high(BallSpec(4, 2))))
    assert float(floats[0][0]) == q_second_high(BallSpec(4, 2)).entries[0, 0]


def test_rate_wide_round_trip():
    from permball.tables import parse_rate_wide_csv, render_rate_wide_csv

    points = rate_table(("cover_old", "cover_new"), grid=(0.2, 0.5, 0.8))
    text = render_rate_wide_csv(
        points, ("cover_old", "cover_new"), "rho", unavailable=("construction",)
    )
    back = parse_rate_wide_csv(
        text, ("cover_old", "cover_new"), "rho", unavailable=("construction",)
    )
    key = lambda p: (p.kind, p.x)
    assert sorted(back, key=key) == sorted(points, key=key)


def test_matrix_triplets_round_trip():
    sm = q_second_high(BallSpec(4, 2))
    text = render_matrix_triplets_csv(sm)
    triplets = parse_matrix_triplets_csv(text)
    assert len(triplets) == 14
    for i, j, value in triplets:
        assert sm.entries[i - 1, j - 1] == float(value)


def test_data_section_strips_comments():
    text = "# one\n# two\nh1,h2\n1,2\n"
    assert data_section(text) == "h1,h2\n1,2"


# sha256 of the dense and triplet exports of each qmatrix family, recorded
# when Q was stored cell by cell in row-major order.
MATRIX_EXPORT_SHA256 = {
    ("first", 7, 2): (
        "626dbbc6ab6a5ad1e9b93a15b514e6d190f36ab04701f23df2f4a1fd5aef40df",
        "c5b468e1f722dcb7c5d68df74df9bec6f8c3522340523ad5122c53945a56ac24",
    ),
    ("second-low", 10, 3): (
        "b9aeb1bc8acb285c17bce30e525a27cbae778c4d183aa68e037d271312f382b2",
        "c11932e1a03ea4d80c818bffd8f5817449cdabd0ddf9c875189ec74b884f3e57",
    ),
    ("second-high", 9, 6): (
        "3f287d0b16bd6a7c707a50e377058bbf1643b14cf0782e02adbf33331b422ad8",
        "d7f2aa9732cb485a8f9b3c7f29733b13df36fe80603e477b9ade8e0a4cb6a737",
    ),
    ("balanced", 12, 4): (
        "6b67e8efa4dc6fb25d42d3d2155f870d19ba79788acd8f22160b648b735dd1bb",
        "f8387ab2aeaec4e5a4acfc6e4b960464eca7def08b6725b1ea2b26fa553fbbcc",
    ),
}


@pytest.mark.parametrize("family, n, r", sorted(MATRIX_EXPORT_SHA256))
def test_matrix_exports_keep_their_bytes(family, n, r):
    import hashlib

    from permball.cli import QMATRIX_FAMILIES
    from permball.tables import render_matrix_triplets_csv

    sm = QMATRIX_FAMILIES[family](BallSpec(n, r))
    digests = tuple(
        hashlib.sha256(render(sm).encode()).hexdigest()
        for render in (render_matrix_dense_csv, render_matrix_triplets_csv)
    )
    assert digests == MATRIX_EXPORT_SHA256[family, n, r]
