"""The figure tables against the benchmark's recorded references.

``perfbench/references/closed_figures.json`` holds fig1, fig2 and fig3
as sorted (curve, x, y) rows on the CLI's default grids.  The benchmark
checks its runs against them to a relative 1e-9, so a change that moves
a curve past that fails here, before a benchmark run.  The file is only
read.
"""

import json
from pathlib import Path

import pytest

from permball.asym import gap_curve_table, step_grid
from permball.cli import FIGURES, build_parser
from permball.rates import rate_table

REFERENCE = (
    Path(__file__).resolve().parents[1]
    / "perfbench" / "references" / "closed_figures.json"
)
FLOAT_RTOL = 1e-9  # the benchmark's relative tolerance on float references


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
    assert sorted((curve, x) for curve, x, _ in rows) == sorted(recorded)
    drift = {
        (curve, x): abs(y - recorded[curve, x]) / abs(recorded[curve, x])
        for curve, x, y in rows
    }
    worst = max(drift, key=drift.get)
    assert drift[worst] <= FLOAT_RTOL, f"{which} drifts {drift[worst]:g} at {worst}"
