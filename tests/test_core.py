"""Metric axioms, the band matrix, radius conversion, and the package's
public names."""

import itertools
import re
import types
from pathlib import Path

import numpy as np
import pytest

from permball.core import BallSpec, BandMatrix, parse_rho, radius_from_rho
from permball.errors import ValidationError
from fractions import Fraction


def dist(f, g):
    return max(abs(a - b) for a, b in zip(f, g))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_metric_axioms_exhaustive(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    for f in perms:
        for g in perms:
            d = dist(f, g)
            assert 0 <= d <= n - 1
            assert (d == 0) == (f == g)
            assert d == dist(g, f)
    for f in perms:
        for g in perms:
            dfg = dist(f, g)
            for h in perms:
                assert dfg <= dist(f, h) + dist(h, g)


def test_metric_axioms_n5_pairs():
    perms = list(itertools.permutations(range(1, 6)))
    anchors = perms[::17]
    for f in perms:
        for g in perms:
            d = dist(f, g)
            assert (d == 0) == (f == g)
            assert d == dist(g, f)
            for h in anchors:
                assert d <= dist(f, h) + dist(h, g)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_right_invariance(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    hs = perms if n <= 4 else perms[::11]
    for f in perms:
        for g in perms:
            d = dist(f, g)
            for h in hs:
                fh = tuple(f[k - 1] for k in h)
                gh = tuple(g[k - 1] for k in h)
                assert dist(fh, gh) == d


def test_ball_spec_validation():
    with pytest.raises(ValidationError):
        BallSpec(0, 0)
    with pytest.raises(ValidationError):
        BallSpec(4, 4)
    with pytest.raises(ValidationError):
        BallSpec(4, -1)
    assert BallSpec(5, 2).rho == Fraction(1, 2)
    assert BallSpec(1, 0).rho == 0


def dense_band(band):
    """The 0/1 matrix whose ones sit on ``band.cells()``."""
    dense = np.zeros((band.n, band.n), dtype=int)
    dense[band.cells()] = 1
    return dense


def test_band_rows_examples():
    rows = dense_band(BandMatrix(BallSpec(5, 2))).tolist()
    assert rows[0] == [1, 1, 1, 0, 0]
    assert rows[2] == [1, 1, 1, 1, 1]
    assert (dense_band(BandMatrix(BallSpec(4, 3))) == 1).all()


@pytest.mark.parametrize("n,r", [(5, 2), (6, 0), (7, 6), (9, 3)])
def test_band_symmetry_and_row_counts(n, r):
    band = BandMatrix(BallSpec(n, r))
    dense = dense_band(band)
    assert (dense == dense.T).all()
    assert ((r + 1 <= dense.sum(axis=1)) & (dense.sum(axis=1) <= 2 * r + 1)).all()
    idx = np.arange(n)
    mask = np.abs(idx[:, None] - idx[None, :]) <= r
    assert (dense == mask).all()
    rows, cols = band.cells()
    # The cells are the mask's nonzero cells, in the same row-major order.
    assert (rows == np.nonzero(mask)[0]).all() and (cols == np.nonzero(mask)[1]).all()


def test_radius_from_rho():
    assert radius_from_rho(Fraction(1, 2), 5) == BallSpec(5, 2)
    assert radius_from_rho(Fraction(1), 7) == BallSpec(7, 6)
    with pytest.raises(ValidationError, match="not integral"):
        radius_from_rho(Fraction(1, 2), 6)
    with pytest.raises(ValidationError, match="nearest admissible n"):
        radius_from_rho(Fraction(1, 3), 5)
    # Below the first multiple of the denominator, the answer is n = q + 1,
    # not the one-symbol space n = 1.
    with pytest.raises(ValidationError, match="nearest admissible n is 11$"):
        radius_from_rho(Fraction(1, 10), 3)


def test_normalized_radius_parsing():
    assert parse_rho("1/2") == Fraction(1, 2)
    assert parse_rho(" 0.25 ") == Fraction(1, 4)
    assert radius_from_rho(parse_rho("0.5"), 9) == BallSpec(9, 4)
    # parse_rho leaves the range to radius_from_rho.
    with pytest.raises(ValidationError, match=r"rho=3/2 outside \[0, 1\]"):
        radius_from_rho(parse_rho("3/2"), 9)
    with pytest.raises(ValidationError, match="denominator"):
        parse_rho("0.333333333333333")
    with pytest.raises(ValidationError, match="cannot parse"):
        parse_rho("abc")
    with pytest.raises(ValidationError, match="cannot parse"):
        parse_rho("1/0")


def test_star_import_binds_no_module_and_every_quick_tour_name():
    namespace = {}
    exec("from permball import *", namespace)
    modules = [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert modules == []
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"from permball import \(([^)]*)\)", readme).group(1)
    names = {name.strip() for name in block.split(",") if name.strip()}
    assert "BallSpec" in names and names <= namespace.keys()
