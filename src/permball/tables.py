"""CSV schemas for every table the CLI emits, with round-trip parsers.

All files are UTF-8, comma-separated, decimal points, one header row.
Lines starting with '#' are metadata comments and sit above the header;
the data section below the header is deterministic for a given config so
reruns can be compared byte for byte.  Counts are unquoted decimal
strings of arbitrary length; missing values are empty cells.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .asym import GapCurvePoint
from .bounds import BoundValue
from .core import BallSpec
from .errors import ValidationError
from .qmat import StochasticMatrix
from .rates import RatePoint

SWEEP_HEADER = ("family", "direction", "n", "r", "bits", "valid", "exact_count")
GAP_LONG_HEADER = ("pair", "rho", "gap_bits")
RATE_HEADER = ("kind", "x", "rate_bits", "mode", "n")
TRIPLET_HEADER = ("i", "j", "value")


def format_float(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def _parse_float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def render_csv(
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    comments: Sequence[str] = (),
) -> str:
    buffer = io.StringIO()
    for comment in comments:
        buffer.write(f"# {comment}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def read_csv(text: str, expected_header: Sequence[str]) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty CSV") from None
    if tuple(header) != tuple(expected_header):
        raise ValidationError(
            f"unexpected CSV header {header!r}; expected {list(expected_header)!r}"
        )
    return [dict(zip(header, row)) for row in reader]


def data_section(text: str) -> str:
    """The CSV minus its comment lines (the deterministic part)."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def render_wide_csv(
    series: Iterable[tuple[str, float, float]],
    curves: Sequence[str],
    x_name: str,
    reserved: Sequence[str] = (),
    comments: Sequence[str] = (),
) -> str:
    """Figure-style table of (curve, x, y) points: one x column, the
    ``reserved`` columns, left empty (bounds whose formulas come from
    elsewhere and are out of scope here), then one column per curve."""
    by_x: dict[float, dict[str, float]] = {}
    for curve, x, y in series:
        by_x.setdefault(x, {})[curve] = y
    blanks = ("",) * len(reserved)
    rows = [
        (format_float(x), *blanks, *[format_float(by_x[x].get(c)) for c in curves])
        for x in sorted(by_x)
    ]
    return render_csv((x_name, *reserved, *curves), rows, comments)


def _parse_wide_csv(
    text: str, curves: Sequence[str], x_name: str, reserved: Sequence[str] = ()
) -> list[tuple[str, float, float]]:
    """``render_wide_csv``'s (curve, x, y) points, skipping empty cells."""
    points = []
    for raw in read_csv(text, (x_name, *reserved, *curves)):
        x = float(raw[x_name])
        for curve in curves:
            value = _parse_float(raw[curve])
            if value is not None:
                points.append((curve, x, value))
    return points


# -- sweep rows ---------------------------------------------------------


def sweep_row(bv: BoundValue, exact_count: int | None) -> tuple:
    return (
        bv.family,
        bv.direction,
        bv.spec.n,
        bv.spec.r,
        format_float(bv.bits),
        "true" if bv.valid else "false",
        "" if exact_count is None else str(exact_count),
    )


def sweep_json_row(bv: BoundValue, exact_count: int | None) -> dict:
    """``sweep_row`` as a JSON object: null for a missing value, a boolean
    and numbers where the CSV has text; the count stays a decimal string.
    It adds the ``reason`` an invalid value carries ("" for a valid one)."""
    bits = None if math.isnan(bv.bits) else float(bv.bits)
    count = None if exact_count is None else str(exact_count)
    values = (bv.family, bv.direction, bv.spec.n, bv.spec.r, bits, bv.valid, count)
    return {**dict(zip(SWEEP_HEADER, values)), "reason": bv.reason}


def render_sweep_csv(rows: Iterable[tuple], comments: Sequence[str] = ()) -> str:
    return render_csv(SWEEP_HEADER, rows, comments)


def parse_sweep_csv(text: str) -> list[dict]:
    out = []
    for raw in read_csv(text, SWEEP_HEADER):
        out.append(
            {
                "family": raw["family"],
                "direction": raw["direction"],
                "spec": BallSpec(int(raw["n"]), int(raw["r"])),
                "bits": _parse_float(raw["bits"]),
                "valid": raw["valid"] == "true",
                "exact_count": int(raw["exact_count"]) if raw["exact_count"] else None,
            }
        )
    return out


# -- gap curves ---------------------------------------------------------


def render_gap_long_csv(points: Iterable[GapCurvePoint]) -> str:
    rows = [(p.pair, format_float(p.rho), format_float(p.gap_bits)) for p in points]
    return render_csv(GAP_LONG_HEADER, rows)


def parse_gap_long_csv(text: str) -> list[GapCurvePoint]:
    return [
        GapCurvePoint(raw["pair"], float(raw["rho"]), float(raw["gap_bits"]))
        for raw in read_csv(text, GAP_LONG_HEADER)
    ]


def render_gap_wide_csv(
    points: Iterable[GapCurvePoint],
    pairs: Sequence[str],
    comments: Sequence[str] = (),
) -> str:
    series = ((p.pair, p.rho, p.gap_bits) for p in points)
    return render_wide_csv(series, pairs, "rho", comments=comments)


def parse_gap_wide_csv(text: str, pairs: Sequence[str]) -> list[GapCurvePoint]:
    return [GapCurvePoint(*point) for point in _parse_wide_csv(text, pairs, "rho")]


# -- rate tables --------------------------------------------------------


def render_rate_csv(points: Iterable[RatePoint]) -> str:
    rows = [
        (
            p.kind,
            format_float(p.x),
            format_float(p.rate_bits),
            p.mode,
            "" if p.n is None else str(p.n),
        )
        for p in points
    ]
    return render_csv(RATE_HEADER, rows)


def parse_rate_csv(text: str) -> list[RatePoint]:
    return [
        RatePoint(
            raw["kind"],
            float(raw["x"]),
            float(raw["rate_bits"]),
            raw["mode"],
            int(raw["n"]) if raw["n"] else None,
        )
        for raw in read_csv(text, RATE_HEADER)
    ]


def parse_rate_wide_csv(
    text: str,
    columns: Sequence[str],
    x_name: str,
    unavailable: Sequence[str] = (),
) -> list[RatePoint]:
    return [
        RatePoint(*point, "asymptotic")
        for point in _parse_wide_csv(text, columns, x_name, unavailable)
    ]


def render_rate_wide_csv(
    points: Iterable[RatePoint],
    columns: Sequence[str],
    x_name: str,
    unavailable: Sequence[str] = (),
    comments: Sequence[str] = (),
) -> str:
    series = ((p.kind, p.x, p.rate_bits) for p in points)
    return render_wide_csv(series, columns, x_name, unavailable, comments)


# -- matrices -----------------------------------------------------------


def _cell_texts(sm: StochasticMatrix) -> list[str]:
    """Each band cell's value as exported: exact fractions when built exact."""
    if sm.is_exact:
        d = sm.exact_denominator
        return [str(Fraction(int(x), d)) for x in sm.exact_numerators]
    return [format_float(x) for x in sm.values]


def render_matrix_dense_csv(sm: StochasticMatrix, comments: Sequence[str] = ()) -> str:
    header = tuple(f"c{j}" for j in range(1, sm.n + 1))
    zero = "0" if sm.is_exact else format_float(0.0)
    grid = [[zero] * sm.n for _ in range(sm.n)]
    for i, j, text in zip(*sm.cells, _cell_texts(sm)):
        grid[i][j] = text
    return render_csv(header, grid, comments)


def parse_matrix_dense_csv(text: str) -> list[list[Fraction]]:
    """Dense grid back to exact rationals (floats parse exactly too)."""
    lines = data_section(text).splitlines()
    if not lines:
        raise ValidationError("empty CSV")
    n = len(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != n:
            raise ValidationError("ragged dense matrix CSV")
        rows.append([Fraction(cell) for cell in cells])
    if len(rows) != n:
        raise ValidationError(f"dense matrix CSV is {len(rows)}x{n}, not square")
    return rows


def render_matrix_triplets_csv(
    sm: StochasticMatrix, comments: Sequence[str] = ()
) -> str:
    """One (i, j, value) row per positive cell, in row-major order."""
    rows = [
        (str(i + 1), str(j + 1), text)
        for i, j, x, text in zip(*sm.cells, sm.values, _cell_texts(sm))
        if x > 0
    ]
    return render_csv(TRIPLET_HEADER, rows, comments)


def parse_matrix_triplets_csv(text: str) -> list[tuple[int, int, str]]:
    return [
        (int(raw["i"]), int(raw["j"]), raw["value"])
        for raw in read_csv(text, TRIPLET_HEADER)
    ]

