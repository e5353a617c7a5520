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
    GENERIC_FAMILIES,
    BoundValue,
    bethe_bound,
    finite_bound,
    vdw_sinkhorn_bound,
)
from .cache import ResultCache, default_cache_dir
from .core import BallSpec, BandMatrix, NormalizedRadius, radius_from_rho
from .errors import (
    CapacityError,
    ConvergenceError,
    DimensionError,
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
    render_gap_wide_csv,
    render_rate_csv,
    render_matrix_dense_csv,
    render_matrix_triplets_csv,
    render_rate_wide_csv,
    render_sweep_csv,
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


def _resolve_cache(args) -> ResultCache | None:
    directory = getattr(args, "cache_dir", None)
    if directory is None:
        directory = default_cache_dir()
    return ResultCache(directory)


def _specs_for(n: int, args) -> list[BallSpec]:
    if args.rho is not None:
        specs = []
        for text in args.rho.split(","):
            rho = NormalizedRadius.parse(text)
            specs.append(radius_from_rho(rho, n))
        return specs
    if args.r is None or args.r == "all":
        return [BallSpec(n, r) for r in range(n)]
    return [BallSpec(n, r) for r in _parse_int_list(args.r)]


# -- exact --------------------------------------------------------------


def cmd_exact(args) -> int:
    if (args.r is None) == (args.rho is None):
        raise ValidationError("give exactly one of --r and --rho")
    if args.rho is not None:
        spec = radius_from_rho(NormalizedRadius.parse(args.rho), args.n)
    else:
        spec = BallSpec(args.n, args.r)
    cache = _resolve_cache(args)
    result = ball_size_exact_detailed(
        spec,
        verify=args.verify,
        cache=cache,
        override_capacity=args.override_capacity,
    )
    print(result.value)
    print(f"backend: {result.backend}", file=sys.stderr)
    return EXIT_OK


# -- sweep --------------------------------------------------------------


def _sweep_cell(families, cache_dir, override, backends, n: int, r: int) -> list:
    """The (BoundValue, exact count or None) pair of each family at (n, r),
    sorted by family.  ``cmd_sweep`` binds the leading settings once."""
    spec = BallSpec(n, r)
    cache = ResultCache(cache_dir) if cache_dir else None
    exact_count = None
    try:
        exact_count = ball_size_exact_detailed(
            spec, cache=cache, override_capacity=override, backends=backends
        ).value
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
        elif balanced is None:
            rows.append(BoundValue(family, "lower", float("nan"), spec, False, failure))
        else:
            functional = (
                vdw_sinkhorn_bound if family == "vdw_generic" else bethe_bound
            )
            rows.append(
                BoundValue(family, "lower", functional(band, balanced), spec, True)
            )
    return [(bv, exact_count) for bv in sorted(rows, key=lambda b: b.family)]


def cmd_sweep(args) -> int:
    if args.r is not None and args.rho is not None:
        raise ValidationError("give at most one of --r and --rho")
    n_values = _parse_int_list(args.n)
    if args.families == "all":
        families = list(CLOSED_FAMILIES)
    else:
        families = [f.strip() for f in args.families.split(",") if f.strip()]
        unknown = [f for f in families if f not in ALL_FAMILIES]
        if unknown:
            raise ValidationError(
                f"unknown families {unknown}; choose from {list(ALL_FAMILIES)}"
            )
    backends = None
    if args.backends and args.backends != "auto":
        backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    cache = _resolve_cache(args)
    cells = sorted({(spec.n, spec.r) for n in n_values for spec in _specs_for(n, args)})
    ns, rs = zip(*cells)
    cell = partial(
        _sweep_cell, tuple(families), str(cache.directory), args.override_capacity,
        backends,
    )
    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(cells) > 1:
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


# Per rate figure: curves, x column, the reserved empty column and why it
# is empty, title, and step_grid's first index (2 keeps delta = 1 in fig2).
RATE_FIGURES = {
    "fig2": (("ecc_old", "ecc_new"), "delta", "anticode",
             "bound formula out of scope", "ball-packing rate bounds", 2),
    "fig3": (("cover_old", "cover_new"), "rho", "construction",
             "code construction out of scope", "covering rate bounds", 1),
}


def _plot_curves(path: Path, x_label: str, y_label: str, curves: dict) -> bool:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        logger.warning("matplotlib unavailable; skipping figure rendering")
        return False
    fig, ax = plt.subplots(figsize=(6.4, 4.2))
    for label, (xs, ys) in curves.items():
        ax.plot(xs, ys, label=label)
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
    if args.which == "fig1":
        points = gap_curve_table(GAP_PAIRS, step=step)
        if args.format == "long":
            text = render_gap_long_csv(points)
        else:
            text = render_gap_wide_csv(
                points,
                GAP_PAIRS,
                comments=(
                    f"permball {__version__} gap curves, grid step {step}",
                    "gap in bits per symbol against the factorial-product upper bound",
                ),
            )
        curves = {
            pair: (
                [p.rho for p in points if p.pair == pair],
                [p.gap_bits for p in points if p.pair == pair],
            )
            for pair in GAP_PAIRS
        }
        x_label, y_label = "rho", "gap (bits/symbol)"
    elif args.which in RATE_FIGURES:
        kinds, x_name, unavailable, why, title, first = RATE_FIGURES[args.which]
        points = rate_table(kinds, step_grid(step, first))
        if args.format == "long":
            text = render_rate_csv(points)
        else:
            text = render_rate_wide_csv(
                points,
                kinds,
                x_name,
                unavailable=(unavailable,),
                comments=(
                    f"permball {__version__} {title}, grid step {step}",
                    "rates in bits per symbol, no standalone log2(n) term",
                    f"column {unavailable}: unavailable ({why})",
                ),
            )
        curves = {
            kind: (
                [p.x for p in points if p.kind == kind],
                [p.rate_bits for p in points if p.kind == kind],
            )
            for kind in kinds
        }
        x_label, y_label = x_name, "rate (bits/symbol)"
    else:
        raise ValidationError(f"unknown figure {args.which!r}")
    _emit(out, text)
    if not args.no_plot and str(out) != "-":
        png = out.with_suffix(".png")
        if _plot_curves(png, x_label, y_label, curves):
            print(f"wrote {png}", file=sys.stderr)
    return EXIT_OK


# -- qmatrix ------------------------------------------------------------


def cmd_qmatrix(args) -> int:
    spec = BallSpec(args.n, args.r)
    if args.family == "first":
        sm = q_first_class(spec)
    elif args.family == "second-low":
        sm = q_second_low(spec)
    elif args.family == "second-high":
        sm = q_second_high(spec)
    elif args.family == "balanced":
        sm, _ = sinkhorn_balance(BandMatrix(spec), tol=1e-10)
    else:
        raise ValidationError(f"unknown family {args.family!r}")
    comments = (
        f"permball {__version__} qmatrix family={args.family} n={spec.n} r={spec.r}",
    )
    if args.format == "triplets":
        text = render_matrix_triplets_csv(sm, comments)
    else:
        text = render_matrix_dense_csv(sm, comments)
    _emit(args.out, text)
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
        print(f"{status}  {check.name:<{width}}  {check.seconds:7.2f}s")
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
    p.add_argument("--override-capacity", action="store_true")
    p.add_argument("--cache-dir", type=Path)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("sweep", help="bounds and exact counts over (n, r) grids")
    p.add_argument("--n", type=str, required=True, help='e.g. "4..8" or "4,6,9"')
    p.add_argument("--r", type=str, help='"all" (default), a list, or a range')
    p.add_argument("--rho", type=str, help="comma-separated exact rationals")
    p.add_argument("--families", type=str, default="all")
    p.add_argument("--backends", type=str, default="auto",
                   help='"auto" or a comma list of exact-count backends')
    p.add_argument("--out", type=str, default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache-dir", type=Path)
    p.add_argument("--jobs", type=int)
    p.add_argument("--override-capacity", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="CSV data (and PNG) behind the report figures")
    p.add_argument("which", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--out", type=str)
    p.add_argument("--format", choices=("wide", "long"), default="wide")
    p.add_argument("--no-plot", action="store_true")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("qmatrix", help="export a doubly-stochastic matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--family",
        choices=("first", "second-low", "second-high", "balanced"),
        default="first",
    )
    p.add_argument("--format", choices=("dense", "triplets"), default="dense")
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_qmatrix)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--cache-dir", type=Path)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, DomainError, DimensionError) as exc:
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
