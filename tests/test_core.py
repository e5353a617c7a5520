"""Metric axioms, band indexing, and radius conversion."""

import itertools

import numpy as np
import pytest

from permball.core import (
    BallSpec,
    BandMatrix,
    NormalizedRadius,
    PermutationVector,
    band_entry,
    infinity_distance,
    radius_from_rho,
)
from permball.errors import DimensionError, ValidationError
from fractions import Fraction


def dist(f, g):
    return max(abs(a - b) for a, b in zip(f, g))


def test_distance_examples():
    assert infinity_distance((1, 2, 3), (1, 2, 3)) == 0
    assert infinity_distance((2, 1), (1, 2)) == 1
    assert infinity_distance((3, 1, 2), (1, 2, 3)) == 2


def test_distance_length_mismatch():
    with pytest.raises(DimensionError):
        infinity_distance((1, 2), (1, 2, 3))


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


def test_permutation_vector_validation():
    with pytest.raises(ValidationError):
        PermutationVector((1, 1, 2))
    with pytest.raises(ValidationError):
        PermutationVector((0, 1))
    with pytest.raises(ValidationError):
        PermutationVector(())


def test_permutation_serialization_round_trip():
    p = PermutationVector.from_string("3,1,2")
    assert p.image == (3, 1, 2)
    assert p.to_string() == "3,1,2"
    assert PermutationVector.from_string(p.to_string()) == p
    with pytest.raises(ValidationError):
        PermutationVector.from_string("3,1,x")


def test_compose_matches_right_invariance_definition():
    f = PermutationVector((2, 3, 1))
    h = PermutationVector((3, 1, 2))
    assert f.compose(h).image == (1, 2, 3)
    assert infinity_distance(f.compose(h), h.compose(h).compose(h)) >= 0


def test_ball_spec_validation():
    with pytest.raises(ValidationError):
        BallSpec(0, 0)
    with pytest.raises(ValidationError):
        BallSpec(4, 4)
    with pytest.raises(ValidationError):
        BallSpec(4, -1)
    assert BallSpec(5, 2).rho == Fraction(1, 2)
    assert BallSpec(1, 0).rho == 0


def test_band_entry_examples():
    assert band_entry(BallSpec(5, 2), 1, 3) == 1
    assert band_entry(BallSpec(5, 2), 1, 4) == 0
    n4_full = BallSpec(4, 3)
    assert all(
        band_entry(n4_full, i, j) == 1 for i in range(1, 5) for j in range(1, 5)
    )
    with pytest.raises(DimensionError):
        band_entry(BallSpec(5, 2), 0, 1)
    with pytest.raises(DimensionError):
        band_entry(BallSpec(5, 2), 1, 6)


@pytest.mark.parametrize("n,r", [(5, 2), (6, 0), (7, 6), (9, 3)])
def test_band_symmetry_and_row_counts(n, r):
    spec = BallSpec(n, r)
    band = BandMatrix(spec)
    for i in range(1, n + 1):
        assert r + 1 <= band.row_ones(i) <= 2 * r + 1
        for j in range(1, n + 1):
            assert band.entry(i, j) == band.entry(j, i)
    idx = np.arange(n)
    mask = np.abs(idx[:, None] - idx[None, :]) <= r
    rows, cols = band.cells()
    assert mask.sum() == sum(band.row_ones(i) for i in range(1, n + 1))
    # The cells are the mask's nonzero cells, in the same row-major order.
    assert (rows == np.nonzero(mask)[0]).all() and (cols == np.nonzero(mask)[1]).all()


def test_radius_from_rho():
    assert radius_from_rho(Fraction(1, 2), 5) == BallSpec(5, 2)
    assert radius_from_rho(Fraction(1), 7) == BallSpec(7, 6)
    with pytest.raises(ValidationError, match="not integral"):
        radius_from_rho(Fraction(1, 2), 6)
    with pytest.raises(ValidationError, match="nearest admissible n"):
        radius_from_rho(Fraction(1, 3), 5)


def test_normalized_radius_parsing():
    assert NormalizedRadius.parse("1/2").rho == Fraction(1, 2)
    assert NormalizedRadius.parse("0.25").rho == Fraction(1, 4)
    assert NormalizedRadius.parse("0.5").radius(9) == BallSpec(9, 4)
    with pytest.raises(ValidationError):
        NormalizedRadius.parse("3/2")
    with pytest.raises(ValidationError, match="denominator"):
        NormalizedRadius.parse("0.333333333333333")
    with pytest.raises(ValidationError):
        NormalizedRadius.parse("abc")
