"""The doubly-stochastic battery: what it visits and the defects it catches.

Each fake builder below injects its defect into the construction before
the construction's own checks (``qmat._finish``) run, where a defect in a
real builder would sit, and at one (n, r) of the battery only.
"""

import pytest

from permball import qmat, verify

LOW, HIGH = (31, 10), (31, 20)  # both in _battery_radii(31)


def cell(q, i, j):
    """Where the zero-based cell (i, j), and its mirror (j, i), is stored:
    on diagonal |i-j| at position min(i, j)."""
    return abs(j - i), min(i, j)


def at(target, build, defect):
    """``build``, with ``defect(q)`` giving (values, numerators,
    denominator) at ``target``."""

    def fake(spec):
        q = build(spec)
        if (spec.n, spec.r) != target:
            return q
        values, numerators, denominator = defect(q)
        return qmat._finish(
            spec, values, numerators=numerators, denominator=denominator
        )

    return fake


def changed_numerator(q):
    num = q.exact_numerators.copy()
    num[cell(q, 3, 4)] += 1
    return num / q.exact_denominator, num, q.exact_denominator


def padding_value(q):
    # A numerator in the last padding cell, which no row sum reads: the
    # sums stay exact and only the support check sees it.
    num = q.exact_numerators.copy()
    num[-1, -1] = 1
    return num / q.exact_denominator, num, q.exact_denominator


def zero_cell(q):
    # Move the value of (10, 20) around a 2 x 2 cycle so that every line
    # sum keeps its value and only the support changes; each stored cell
    # moves its mirror with it, and the mirrored cycle keeps the sums too.
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
        ("q_first_class", HIGH, padding_value, "support differs from the band"),
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


def test_battery_builds_each_specs_row_windows_at_most_once(monkeypatch):
    # The builders evaluate their formulas on the stored (d, t) grid, so
    # they build neither row windows nor a cell list, for any spec.
    from permball.core import BandMatrix

    calls = []
    for name in ("windows", "cells"):
        monkeypatch.setattr(BandMatrix, name, lambda self, name=name: calls.append(name))
    assert verify._double_stochasticity(40) is None
    assert calls == []
