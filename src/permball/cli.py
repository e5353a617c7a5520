"""Command-line surface: exact counts, bound sweeps, figure data, matrix
export, and the self-verification entry point.

Exit codes: 0 success, 1 usage/validation, 2 capacity, 3 no sweep row
succeeded, 4 verification failure.  Figure commands write the CSV data
and, when matplotlib is importable, render a PNG next to it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__
from .asym import GAP_PAIRS, gap_curve_table, step_grid
from .bounds import (
    ALL_FAMILIES,
    CLOSED_FAMILIES,
    DIRECTIONS,
    GENERIC_FAMILIES,
    BoundValue,
    finite_bound,
)
from .cache import ResultCache, default_cache_dir
from .core import BallSpec, BandMatrix, parse_rho, radius_from_rho
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    PermballError,
    ValidationError,
    VerificationError,
)
from .oracle import ball_size_exact_detailed
from .qmat import q_first_class, q_second_high, q_second_low, sinkhorn_balance
from .rates import rate_table
from .tables import (
    render_gap_long_csv,
    render_matrix_dense_csv,
    render_matrix_triplets_csv,
    render_rate_csv,
    render_sweep_csv,
    render_wide_csv,
    sweep_json_row,
    sweep_row,
)
from .verify import full_checks, quick_checks

logger = logging.getLogger("permball")

# The generic sweep families stop here: they hold O(n r) cell arrays, and the
# Sinkhorn window sums lose relative accuracy in proportion to n/(2r+1).
GENERIC_FAMILY_MAX_N = 500

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_SWEEP_EMPTY = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _parse_int_list(text: str) -> list[int]:
    """Accept "4,6,9" and inclusive ranges "4..8" (mixable)."""
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo_text, dots, hi_text = part.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError:
            raise ValidationError(f"cannot parse integer list {text!r}") from None
        if hi < lo:
            raise ValidationError(f"empty range {part!r}")
        out.update(range(lo, hi + 1))
    if not out:
        raise ValidationError(f"no values in {text!r}")
    return sorted(out)


def _resolve_cache(args) -> ResultCache:
    return ResultCache(args.cache_dir or default_cache_dir())


def _specs_for(n: int, args) -> list[BallSpec]:
    if args.rho is not None:
        return [radius_from_rho(parse_rho(text), n) for text in args.rho.split(",")]
    if args.r is None or args.r == "all":
        return [BallSpec(n, r) for r in range(n)]
    return [BallSpec(n, r) for r in _parse_int_list(args.r)]


# -- exact --------------------------------------------------------------


def cmd_exact(args) -> int:
    if (args.r is None) == (args.rho is None):
        raise ValidationError("give exactly one of --r and --rho")
    if args.rho is not None:
        spec = radius_from_rho(parse_rho(args.rho), args.n)
    else:
        spec = BallSpec(args.n, args.r)
    cache = _resolve_cache(args)
    result = ball_size_exact_detailed(spec, verify=args.verify, cache=cache)
    print(result.value)
    print(f"backend: {result.backend}", file=sys.stderr)
    return EXIT_OK


# -- sweep --------------------------------------------------------------


def _sweep_cell(families, cache_dir, n: int, r: int) -> list:
    """The (BoundValue, exact count or None) pair of each family at (n, r),
    sorted by family.  ``cmd_sweep`` binds the leading settings once."""
    spec = BallSpec(n, r)
    cache = ResultCache(cache_dir) if cache_dir else None
    exact_count = None
    try:
        exact_count = ball_size_exact_detailed(spec, cache=cache).value
    except CapacityError:
        pass
    band = BandMatrix(spec)
    balanced = None
    failure = f"generic families capped at n={GENERIC_FAMILY_MAX_N}"
    if spec.n <= GENERIC_FAMILY_MAX_N and any(f in GENERIC_FAMILIES for f in families):
        try:
            balanced, _ = sinkhorn_balance(band, tol=1e-10)
        except ConvergenceError as exc:
            failure = str(exc)
    rows: list[BoundValue] = []
    for family in families:
        if family in CLOSED_FAMILIES:
            rows.append(finite_bound(family, spec))
            continue
        direction = DIRECTIONS[family]
        if balanced is None:
            rows.append(BoundValue(family, direction, float("nan"), spec, False, failure))
        else:
            bits = GENERIC_FAMILIES[family](band, balanced)
            rows.append(BoundValue(family, direction, bits, spec, True))
    return [(bv, exact_count) for bv in sorted(rows, key=lambda b: b.family)]


def cmd_sweep(args) -> int:
    if args.r is not None and args.rho is not None:
        raise ValidationError("give at most one of --r and --rho")
    if args.jobs is not None and args.jobs < 0:
        raise ValidationError(f"--jobs must be >= 0, got {args.jobs}")
    n_values = _parse_int_list(args.n)
    if args.families == "all":
        families = list(CLOSED_FAMILIES)
    else:
        families = [f.strip() for f in args.families.split(",") if f.strip()]
        if not families:
            raise ValidationError(f"no family names in --families {args.families!r}")
        unknown = [f for f in families if f not in ALL_FAMILIES]
        if unknown:
            raise ValidationError(
                f"unknown families {unknown}; choose from {list(ALL_FAMILIES)}"
            )
    cells = sorted({(spec.n, spec.r) for n in n_values for spec in _specs_for(n, args)})
    if not cells:
        raise ValidationError(f"no (n, r) cells in the selection --n {args.n}")
    cache = _resolve_cache(args)
    ns, rs = zip(*cells)
    cell = partial(_sweep_cell, tuple(families), str(cache.directory))
    # The pool forks all its workers at the first submit, so it gets no
    # more of them than there are cells.
    jobs = min(args.jobs or os.cpu_count() or 1, len(cells))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(cell, ns, rs))
    else:
        results = list(map(cell, ns, rs))
    pairs = [pair for result in results for pair in result]
    succeeded = sum(bv.valid or exact is not None for bv, exact in pairs)
    comments = (
        f"permball {__version__} sweep",
        f"config: n={args.n} r={args.r} rho={args.rho} families={','.join(families)}",
        f"timestamp: {datetime.now(timezone.utc).isoformat()}",
    )
    if args.format == "json":
        payload = {
            "meta": {"tool_version": __version__, "families": families},
            "rows": [sweep_json_row(bv, exact) for bv, exact in pairs],
        }
        text = json.dumps(payload, indent=1) + "\n"
    else:
        text = render_sweep_csv([sweep_row(bv, exact) for bv, exact in pairs], comments)
    _emit(args.out, text)
    return EXIT_OK if succeeded else EXIT_SWEEP_EMPTY


# -- figures ------------------------------------------------------------


_RATE_UNIT = "rates in bits per symbol, no standalone log2(n) term"

# Per figure: curves, x column, the reserved empty columns with why each is
# empty, title, unit comment, and step_grid's first index (2 keeps
# delta = 1 in fig2; fig1's gap table starts at 1).
FIGURES = {
    "fig1": (GAP_PAIRS, "rho", {}, "gap curves",
             "gap in bits per symbol against the factorial-product upper bound", 1),
    "fig2": (("ecc_old", "ecc_new"), "delta",
             {"anticode": "bound formula out of scope"},
             "ball-packing rate bounds", _RATE_UNIT, 2),
    "fig3": (("cover_old", "cover_new"), "rho",
             {"construction": "code construction out of scope"},
             "covering rate bounds", _RATE_UNIT, 1),
}


def _plot_curves(path: Path, x_label: str, y_label: str, curves, series) -> bool:
    """Plot each curve's (x, y) points out of the (curve, x, y) ``series``."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        logger.warning("matplotlib unavailable; skipping figure rendering")
        return False
    fig, ax = plt.subplots(figsize=(6.4, 4.2))
    for curve in curves:
        points = [(x, y) for c, x, y in series if c == curve]
        ax.plot([x for x, _ in points], [y for _, y in points], label=curve)
    ax.set_xlabel(x_label)
    ax.set_ylabel(y_label)
    ax.grid(True, alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)
    return True


def cmd_figures(args) -> int:
    step = args.grid_step
    out = Path(args.out) if args.out else Path(f"{args.which}.csv")
    curves, x_name, reserved, title, unit, first = FIGURES[args.which]
    if args.which == "fig1":
        points = gap_curve_table(curves, step=step)
        series = [(p.pair, p.rho, p.gap_bits) for p in points]
        render_long, y_label = render_gap_long_csv, "gap (bits/symbol)"
    else:
        points = rate_table(curves, step_grid(step, first))
        series = [(p.kind, p.x, p.rate_bits) for p in points]
        render_long, y_label = render_rate_csv, "rate (bits/symbol)"
    if args.format == "long":
        text = render_long(points)
    else:
        comments = (
            f"permball {__version__} {title}, grid step {step}",
            unit,
            *(f"column {c}: unavailable ({why})" for c, why in reserved.items()),
        )
        text = render_wide_csv(series, curves, x_name, tuple(reserved), comments)
    _emit(out, text)
    if not args.no_plot and str(out) != "-":
        png = out.with_suffix(".png")
        if _plot_curves(png, x_name, y_label, curves, series):
            print(f"wrote {png}", file=sys.stderr)
    return EXIT_OK


# -- qmatrix ------------------------------------------------------------


QMATRIX_FAMILIES = {
    "first": q_first_class,
    "second-low": q_second_low,
    "second-high": q_second_high,
    "balanced": lambda spec: sinkhorn_balance(BandMatrix(spec), tol=1e-10)[0],
}
QMATRIX_FORMATS = {"dense": render_matrix_dense_csv,
                   "triplets": render_matrix_triplets_csv}


def cmd_qmatrix(args) -> int:
    spec = BallSpec(args.n, args.r)
    sm = QMATRIX_FAMILIES[args.family](spec)
    comments = (
        f"permball {__version__} qmatrix family={args.family} n={spec.n} r={spec.r}",
    )
    _emit(args.out, QMATRIX_FORMATS[args.format](sm, comments))
    return EXIT_OK


# -- verify -------------------------------------------------------------


def cmd_verify(args) -> int:
    cache_dir = args.cache_dir
    if cache_dir is None:
        candidate = default_cache_dir()
        cache_dir = candidate if candidate.exists() else None
    checks = quick_checks(cache_dir) if args.level == "quick" else full_checks(cache_dir)
    width = max(len(c.name) for c in checks)
    failed = [c for c in checks if not c.passed]
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        # A passing check may carry a note, such as records it skipped.
        note = f"  {check.detail}" if check.passed and check.detail != "ok" else ""
        print(f"{status}  {check.name:<{width}}  {check.seconds:7.2f}s{note}")
    if failed:
        print(f"\n{len(failed)} of {len(checks)} checks failed:", file=sys.stderr)
        for check in failed:
            print(f"  {check.name}: {check.detail}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"\nall {len(checks)} checks passed")
    return EXIT_OK


# -- plumbing -----------------------------------------------------------


def _emit(out, text: str) -> None:
    if out is None or str(out) == "-":
        sys.stdout.write(text)
        return
    path = Path(out)
    if path.parent and not path.parent.exists():
        raise ValidationError(f"output directory {path.parent} does not exist")
    if path.is_dir():
        raise ValidationError(f"output path {path} is a directory")
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="permball", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact ball size |B_{r,n}|")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--rho", type=str)
    p.add_argument("--verify", action="store_true",
                   help="run all applicable backends and insist they agree")
    p.add_argument("--cache-dir", type=Path)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("sweep", help="bounds and exact counts over (n, r) grids")
    p.add_argument("--n", type=str, required=True, help='e.g. "4..8" or "4,6,9"')
    p.add_argument("--r", type=str, help='"all" (default), a list, or a range')
    p.add_argument("--rho", type=str, help="comma-separated exact rationals")
    p.add_argument("--families", type=str, default="all")
    p.add_argument("--out", type=str, default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache-dir", type=Path)
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="CSV data (and PNG) behind the report figures")
    p.add_argument("which", choices=FIGURES)
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--out", type=str)
    p.add_argument("--format", choices=("wide", "long"), default="wide")
    p.add_argument("--no-plot", action="store_true")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("qmatrix", help="export a doubly-stochastic matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--family", choices=QMATRIX_FAMILIES, default="first")
    p.add_argument("--format", choices=QMATRIX_FORMATS, default="dense")
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_qmatrix)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--cache-dir", type=Path)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # Exact counts are printed and cached as decimals of any length (2000!
    # has 5,736 digits); sweep workers fork and inherit this.
    sys.set_int_max_str_digits(0)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except PermballError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
