"""The closed bounds and figure tables against the benchmark's references.

``perfbench/references/closed_figures.json`` holds fig1, fig2 and fig3
as sorted (curve, x, y) rows on the CLI's default grids, the closed
families' bits and finite-n exponents at 1,024 cells with n up to 10^6
("cells"), and the vdW value of each doubly-stochastic construction at
256 cells with n up to 300 ("qmat").  The benchmark checks its runs
against them to a relative 1e-9, so a change that moves a value past
that fails here, before a benchmark run.  The file is only read.
"""

import json
from pathlib import Path

import pytest

from permball import qmat
from permball.asym import empirical_exponent, gap_curve_table, step_grid
from permball.bounds import CLOSED_FAMILIES, finite_bound, vdw_sinkhorn_bound
from permball.cli import FIGURES, build_parser
from permball.core import BallSpec, BandMatrix
from permball.rates import rate_table

REFERENCE = (
    Path(__file__).resolve().parents[1]
    / "perfbench" / "references" / "closed_figures.json"
)
FLOAT_RTOL = 1e-9  # the benchmark's relative tolerance on float references
# The families whose finite-n exponents the "cells" section records.
EXPONENT_FAMILIES = ("phi1", "Phi1", "phi2", "phi3")


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("which", sorted(FIGURES))
def test_figure_matches_its_recorded_reference(reference, which):
    step = build_parser().parse_args(["figures", which]).grid_step
    curves, *_, first = FIGURES[which]
    if which == "fig1":
        points = gap_curve_table(curves, step=step)
        rows = [(p.pair, p.rho, p.gap_bits) for p in points]
    else:
        points = rate_table(curves, step_grid(step, first))
        rows = [(p.kind, p.x, p.rate_bits) for p in points]
    recorded = {(curve, x): y for curve, x, y in reference[which]}
    assert_close(which, {(curve, x): y for curve, x, y in rows}, recorded)


def assert_close(section, got, recorded):
    """Every value within FLOAT_RTOL of its reference; None (an invalid
    bound) only where the reference has None."""
    assert sorted(got) == sorted(recorded)
    invalid = {key for key, y in recorded.items() if y is None}
    assert {key for key, y in got.items() if y is None} == invalid, section
    drift = {
        key: abs(got[key] - y) / abs(y)
        for key, y in recorded.items()
        if key not in invalid
    }
    worst = max(drift, key=drift.get)
    assert drift[worst] <= FLOAT_RTOL, f"{section} drifts {drift[worst]:g} at {worst}"


def test_closed_cells_match_their_recorded_reference(reference):
    got, recorded = {}, {}
    for cell in reference["cells"]:
        n, r = cell["n"], cell["r"]
        spec = BallSpec(n, r)
        for family in CLOSED_FAMILIES:
            bv = finite_bound(family, spec)
            got["bits", family, n, r] = bv.bits if bv.valid else None
            recorded["bits", family, n, r] = cell["bits"][family]
        assert sorted(cell["exponent"]) == sorted(EXPONENT_FAMILIES)
        for family in EXPONENT_FAMILIES:
            estimate, _ = empirical_exponent(family, n, r / (n - 1))
            got["exponent", family, n, r] = estimate
            recorded["exponent", family, n, r] = cell["exponent"][family]
    assert_close("cells", got, recorded)


def test_constructions_match_their_recorded_vdw(reference):
    got, recorded = {}, {}
    for cell in reference["qmat"]:
        spec = BallSpec(cell["n"], cell["r"])
        builders = {"first": qmat.q_first_class}
        if spec.second_low_range:
            builders["second_low"] = qmat.q_second_low
        if spec.second_high_range:
            builders["second_high"] = qmat.q_second_high
        band = BandMatrix(spec)
        for name, build in builders.items():
            got[name, spec.n, spec.r] = vdw_sinkhorn_bound(band, build(spec))
        for name, value in cell["vdw"].items():
            recorded[name, spec.n, spec.r] = value
    assert_close("qmat", got, recorded)
