"""The doubly-stochastic battery: what it visits and the defects it catches.

Each fake builder below injects its defect into the construction before
the construction's own checks (``qmat._finish``) run, where a defect in a
real builder would sit, and at one (n, r) of the battery only.
"""

import numpy as np
import pytest

from permball import qmat, verify

LOW, HIGH = (31, 10), (31, 20)  # both in _battery_radii(31)


def cell(q, i, j):
    """Position of the zero-based cell (i, j) in q's cell list."""
    rows, cols = q.cells
    return int(np.flatnonzero((rows == i) & (cols == j))[0])


def at(target, build, defect):
    """``build``, with ``defect(q)`` giving (values, numerators,
    denominator) at ``target``."""

    def fake(spec):
        q = build(spec)
        if (spec.n, spec.r) != target:
            return q
        values, numerators, denominator = defect(q)
        return qmat._finish(
            spec, q.cells, values, numerators=numerators, denominator=denominator
        )

    return fake


def changed_numerator(q):
    num = q.exact_numerators.copy()
    num[cell(q, 3, 4)] += 1
    return num / q.exact_denominator, num, q.exact_denominator


def exact_but_asymmetric(q):
    # Twice the numerators plus a 3-cycle minus its transpose: every line
    # sum stays exactly 2D and every cell positive.
    num = 2 * q.exact_numerators
    for i, j in ((3, 4), (4, 5), (5, 3)):
        num[cell(q, i, j)] += 1
        num[cell(q, j, i)] -= 1
    d = 2 * q.exact_denominator
    return num / d, num, d


def zero_cell(q):
    # Move the value of (10, 20) around a 2 x 2 cycle so that every line
    # sum keeps its value and only the support changes.
    values = q.values.copy()
    v = values[cell(q, 10, 20)]
    for i, j, sign in ((10, 20, -1), (10, 19, 1), (11, 19, -1), (11, 20, 1)):
        values[cell(q, i, j)] += sign * v
    return values, None, None


def sums_off(q):
    return q.values * (1 + 1e-8), None, None


@pytest.mark.parametrize(
    "name, target, defect, message",
    [
        ("q_first_class", LOW, changed_numerator, "misses double stochasticity"),
        ("q_first_class", HIGH, exact_but_asymmetric, "first-class asymmetry"),
        ("q_second_low", LOW, zero_cell, "support differs from the band"),
        ("q_second_high", HIGH, sums_off, "misses double stochasticity"),
    ],
)
def test_battery_catches_each_defect(monkeypatch, name, target, defect, message):
    monkeypatch.setattr(verify, name, at(target, getattr(verify, name), defect))
    result = verify.check_double_stochasticity(max_n=40)
    assert not result.passed
    assert message in result.detail
    assert f"n={target[0]}, r={target[1]}" in result.detail


def test_builders_tolerance_is_the_checks_bound():
    # The battery relies on the builders' residual check for 1e-9.
    assert qmat.STOCHASTIC_TOL <= 1e-9


def test_battery_visits_every_spec(monkeypatch):
    # A faster battery must not get there by visiting fewer specs.
    visits = {}

    def counted(name, build):
        def wrapper(spec):
            visits[name] = visits.get(name, 0) + 1
            return build(spec)

        return wrapper

    for name in ("q_first_class", "q_second_low", "q_second_high"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    assert verify.check_double_stochasticity(max_n=200).passed
    assert visits == {"q_first_class": 1762, "q_second_low": 776, "q_second_high": 488}
