"""The three benchmark workloads: item streams, execution and reference checks.

Each workload hands out items in blocks.  A block is a stratified sample:
every stratum of the workload's parameter space gives the same number of
items to every block, and the seed decides only where inside each stratum
an item falls and the order of the items.  A run is made of whole blocks,
so its mix of cheap and expensive items is the same for every seed.

Items call the library's public functions directly, one after another in a
single process (a closed loop with one caller).  ``setup`` is the timed
set-up (``setup_s``); ``prepare`` builds untimed fixtures on disk, which
stand for the state a user's earlier runs leave.  ``run_item`` returns
None when the item's output matches its reference and a description
otherwise.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from permball import asym, bounds, oracle, qmat, rates, tables, verify
from permball.bounds import CLOSED_FAMILIES, BoundValue
from permball.core import BallSpec, BandMatrix
from permball.errors import CapacityError
from permball.scalar import LOG2_FACTORIAL_EXACT_MAX, log2_factorial

from spans import TimingCache, Tracer

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
EXACT_REFERENCE = REFERENCE_DIR / "exact_counts.json"
CLOSED_REFERENCE = REFERENCE_DIR / "closed_figures.json"

BOUND_TOL = 1e-9  # slack on every bound inequality, in bits
FLOAT_RTOL = 1e-9  # relative agreement with the recorded float references
SINKHORN_TOL = 1e-10


class Draws:
    """The random numbers of one block.

    Blocks come in antithetic pairs: where block 2k draws u in [0, 1),
    block 2k+1 draws 1 - u.  Cost rises steeply inside some strata (with n
    for the DP, with 1/rho for Sinkhorn), and a pair then holds one cheap
    and one dear item per stratum instead of two of either.  ``order``
    shuffles each block on its own.
    """

    def __init__(self, workload: str, seed: int, block: int):
        self._pair = random.Random(f"{workload}/{seed}/pair{block // 2}")
        self._flip = block % 2 == 1
        self.order = random.Random(f"{workload}/{seed}/{block}")

    def uniform(self) -> float:
        u = self._pair.random()
        return 1.0 - u if self._flip else u

    def index(self, size: int) -> int:
        return min(int(self.uniform() * size), size - 1)

    def stratum_int(self, lo: int, hi: int, i: int, k: int) -> int:
        """An integer in the i-th of k disjoint, near-equal slices of [lo, hi]."""
        first = i * (hi - lo + 1) // k
        last = (i + 1) * (hi - lo + 1) // k
        return lo + first + self.index(last - first)


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= FLOAT_RTOL * abs(reference)


def load_exact_references() -> dict[tuple[int, int], str]:
    data = json.loads(EXACT_REFERENCE.read_text())
    return {
        tuple(int(part) for part in key.split(",")): count
        for key, count in data["counts"].items()
    }


# -- exact-cold -----------------------------------------------------------

DP_N_RANGE = (20, 100)
DP_ITEMS_PER_RADIUS = {3: 8, 4: 8, 5: 8, 6: 5, 7: 3}
# Every cell the dispatcher sends to Ryser: 15 <= n <= 17 and 2r+1 > 26.
RYSER_CELLS = ((15, 13), (16, 13), (16, 14), (17, 13), (17, 14), (17, 15))
ZERO_RADIUS_N = (2, 400)  # r = 0, closed form 1
FULL_RADIUS_N = (4, 60)  # r = n-1, closed form n!
SMALL_DP_N = (5, 12)  # r in {1, 2}, DP in well under a millisecond


def exact_cold_cells() -> set[tuple[int, int]]:
    """Every (n, r) an exact-cold block can draw."""
    lo, hi = DP_N_RANGE
    cells = {(n, r) for r in DP_ITEMS_PER_RADIUS for n in range(lo, hi + 1)}
    cells.update(RYSER_CELLS)
    cells.update((n, 0) for n in range(ZERO_RADIUS_N[0], ZERO_RADIUS_N[1] + 1))
    cells.update((n, n - 1) for n in range(FULL_RADIUS_N[0], FULL_RADIUS_N[1] + 1))
    cells.update(
        (n, r) for n in range(SMALL_DP_N[0], SMALL_DP_N[1] + 1) for r in (1, 2)
    )
    return cells


class ExactCold:
    """Cold ``ball_size_exact_detailed`` calls, each writing one record."""

    name = "exact-cold"
    calibration_kernels = ("interpreter",)

    def __init__(self, workdir: Path, tracer: Tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.blocks_begun = 0
        self.cache: TimingCache | None = None
        self.references: dict[tuple[int, int], str] = {}

    def setup(self) -> None:
        self.references = load_exact_references()

    def prepare(self) -> None:
        pass

    def begin_block(self) -> None:
        # A fresh, empty cache per block: every call misses and writes.
        self.cache = TimingCache(self.workdir / f"cache-{self.blocks_begun}", self.tracer)
        self.blocks_begun += 1

    def block(self, seed: int, index: int, tiny: bool = False) -> list[tuple]:
        draws = Draws(self.name, seed, index)
        lo, hi = (20, 30) if tiny else DP_N_RANGE
        per_radius = {3: 2} if tiny else DP_ITEMS_PER_RADIUS
        items = [
            ("band-dp", draws.stratum_int(lo, hi, i, k), r)
            for r, k in per_radius.items()
            for i in range(k)
        ]
        if not tiny:
            # One cell with n <= 16 (0.09-0.2 s) and one with n = 17 (0.4 s).
            for group in (RYSER_CELLS[:3], RYSER_CELLS[3:]):
                items.append(("ryser", *group[draws.index(len(group))]))
        for i in range(2):
            items.append(("closed", draws.stratum_int(*ZERO_RADIUS_N, i, 2), 0))
            n = draws.stratum_int(*FULL_RADIUS_N, i, 2)
            items.append(("closed", n, n - 1))
            n = draws.stratum_int(*SMALL_DP_N, i, 2)
            items.append(("small", n, 1 + draws.index(2)))
        draws.order.shuffle(items)
        return items

    def run_item(self, item: tuple) -> str | None:
        _, n, r = item
        with self.tracer.span("oracle") as span:
            result = oracle.ball_size_exact_detailed(BallSpec(n, r), cache=self.cache)
            span.set("backend", result.backend)
        if result.backend == "cache":
            return "served from the cache on a cold run"
        expected = self.references[(n, r)]
        if str(result.value) != expected:
            return f"count {result.value} differs from the reference {expected}"
        return None


# -- sweep-warm -----------------------------------------------------------

SWEEP_N_RANGE = (30, 500)
SWEEP_RHO_RANGE = (0.02, 0.98)
SWEEP_RHO_STRATA = 48
SWEEP_N_STRATA = 3
# Cells with r up to this are pre-filled in the cache; larger radii are
# refused, because the sweep pins the exact route to the cache.
SWEEP_CACHED_MAX_R = 6


def sweep_cached_cells() -> set[tuple[int, int]]:
    """Every sweep-warm cell with r <= SWEEP_CACHED_MAX_R."""
    lo, hi = SWEEP_N_RANGE
    cells = set()
    for n in range(lo, hi + 1):
        r_min = max(1, math.floor(SWEEP_RHO_RANGE[0] * (n - 1)))
        cells.update((n, r) for r in range(r_min, SWEEP_CACHED_MAX_R + 1))
    return cells


class SweepWarm:
    """One sweep cell per item: cached exact count, all bound families,
    Sinkhorn-based generic bounds and the CSV row round trip."""

    name = "sweep-warm"
    calibration_kernels = ("dense",)

    def __init__(self, workdir: Path, tracer: Tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.cache: TimingCache | None = None
        self.references: dict[tuple[int, int], str] = {}

    def setup(self) -> None:
        log2_factorial(LOG2_FACTORIAL_EXACT_MAX)
        every = load_exact_references()
        self.references = {cell: every[cell] for cell in sweep_cached_cells()}

    def prepare(self) -> None:
        # The records earlier ``permball exact`` runs would have left.
        self.cache = TimingCache(self.workdir / "cache", self.tracer)
        for (n, r), count in sorted(self.references.items()):
            self.cache.put(BallSpec(n, r), int(count), oracle.BACKEND_DP)

    def begin_block(self) -> None:
        pass

    def block(self, seed: int, index: int, tiny: bool = False) -> list[tuple]:
        draws = Draws(self.name, seed, index)
        if tiny:
            n_lo, n_hi, rho_lo, rho_hi, g_rho, g_n = 30, 60, 0.05, 0.98, 4, 2
        else:
            n_lo, n_hi = SWEEP_N_RANGE
            rho_lo, rho_hi = SWEEP_RHO_RANGE
            g_rho, g_n = SWEEP_RHO_STRATA, SWEEP_N_STRATA
        items = []
        for i in range(g_rho):
            for j in range(g_n):
                rho = rho_lo + (rho_hi - rho_lo) * (i + draws.uniform()) / g_rho
                n = draws.stratum_int(n_lo, n_hi, j, g_n)
                items.append(("cell", n, round(rho * (n - 1))))
        draws.order.shuffle(items)
        return items

    def run_item(self, item: tuple) -> str | None:
        _, n, r = item
        tracer = self.tracer
        spec = BallSpec(n, r)
        exact = None
        with tracer.span("oracle") as span:
            try:
                exact = oracle.ball_size_exact_detailed(
                    spec, cache=self.cache, backends=()
                ).value
                span.set("backend", "cache")
            except CapacityError:
                span.set("backend", "refused")
                tracer.count("oracle.capacity_refusals")
        rows = []
        for family in CLOSED_FAMILIES:
            with tracer.span(f"bounds.closed.{family}"):
                rows.append(bounds.finite_bound(family, spec))
        band = BandMatrix(spec)
        with tracer.span("qmat.sinkhorn") as span:
            balanced, scaling = qmat.sinkhorn_balance(band, tol=SINKHORN_TOL)
            span.set("n", n)
            span.set("iterations", scaling.iterations)
            span.set("residual", scaling.residual)
        with tracer.span("bounds.generic.vdw"):
            vdw = bounds.vdw_sinkhorn_bound(band, balanced)
        with tracer.span("bounds.generic.bethe"):
            bethe = bounds.bethe_bound(band, balanced)
        rows.append(BoundValue("vdw_generic", "lower", vdw, spec, True))
        rows.append(BoundValue("bethe_generic", "lower", bethe, spec, True))
        rows.sort(key=lambda bv: bv.family)
        tracer.count("bounds.invalid", sum(not bv.valid for bv in rows))
        with tracer.span("tables.render"):
            text = tables.render_sweep_csv([tables.sweep_row(bv, exact) for bv in rows])
        with tracer.span("tables.parse"):
            parsed = tables.parse_sweep_csv(text)
        return self._check(spec, exact, rows, parsed, scaling.residual)

    def _check(self, spec, exact, rows, parsed, residual) -> str | None:
        expected = self.references.get((spec.n, spec.r))
        if expected is None and exact is not None:
            return "a cell outside the pre-filled cache was counted"
        if expected is not None and str(exact) != expected:
            return f"count {exact} differs from the reference {expected}"
        family = {bv.family: bv for bv in rows}
        upper = family["Phi1"].bits
        exact_bits = None if exact is None else math.log2(exact)
        if exact_bits is not None and exact_bits > upper + BOUND_TOL:
            return f"Phi1 {upper} below log2(exact) {exact_bits}"
        for bv in rows:
            if bv.direction != "lower" or not bv.valid:
                continue
            if bv.bits > upper + BOUND_TOL:
                return f"{bv.family} {bv.bits} above Phi1 {upper}"
            if exact_bits is not None and bv.bits > exact_bits + BOUND_TOL:
                return f"{bv.family} {bv.bits} above log2(exact) {exact_bits}"
        phi3 = family["phi3"]
        if phi3.valid and family["vdw_generic"].bits < phi3.bits - BOUND_TOL:
            return f"vdw_generic {family['vdw_generic'].bits} below phi3 {phi3.bits}"
        if residual > SINKHORN_TOL:
            return f"Sinkhorn residual {residual:g} above {SINKHORN_TOL:g}"
        if len(parsed) != len(rows):
            return f"CSV round trip gave {len(parsed)} rows, not {len(rows)}"
        for bv, row in zip(rows, parsed):
            wanted = {
                "family": bv.family,
                "direction": bv.direction,
                "spec": bv.spec,
                "bits": bv.bits if bv.valid else None,
                "valid": bv.valid,
                "exact_count": exact,
            }
            if row != wanted:
                return f"CSV round trip changed {wanted} into {row}"
        return None


# -- closed-figures -------------------------------------------------------

# Each verify.full_checks check, with its documented outcome.  Criterion
# 04b (Sinkhorn fixed points at the even-n low boundary) is documented to
# fail: the construction it compares against is not a Sinkhorn limit.
VERIFY_CHECKS = (
    ("oracle_agreement", "check_oracle_agreement", True),
    ("sandwich", "check_sandwich", True),
    ("double_stochasticity", "check_double_stochasticity", True),
    ("sinkhorn_high", "check_sinkhorn_fixed_points_high", True),
    ("sinkhorn_low_boundary", "check_sinkhorn_fixed_points_low_boundary", False),
    ("closed_constants", "check_closed_constants", True),
    ("convergence", "check_convergence", True),
    ("bound_identities", "check_bound_identities", True),
    ("root_quality", "check_root_quality", True),
    ("rate_improvements", "check_rate_improvements", True),
    ("bethe_vdw_trend", "check_bethe_vdw_agreement", True),
)
# Checks that take well under 50 ms; the tiny smoke run uses only these.
CHEAP_VERIFY_CHECKS = ("sandwich", "closed_constants", "root_quality", "rate_improvements")
FIGURES = ("fig1", "fig2", "fig3")
EXPONENT_FAMILIES = ("phi1", "Phi1", "phi2", "phi3")

CLOSED_POOL_SEED = "closed-figures/cells"
CLOSED_POOL_SIZE = 1024
CLOSED_N_DECADES = (3.0, 6.0)  # n log-uniform in [10^3, 10^6]
# phi1_prime sums binom(r, m)(m+1)^r in exact integers up to
# OMEGA_EXACT_MAX_R = 10^4: about 1 s at r = 3000 and 38 s at r = 10^4.
# Cells where that sum runs with r in this window are left out.
OMEGA_SKIPPED_R = (3000, 10**4)
CLOSED_CELLS_PER_BLOCK = 24
QMAT_POOL_SEED = "closed-figures/qmat"
QMAT_POOL_SIZE = 256
QMAT_N_RANGE = (30, 300)
QMAT_CELLS_PER_BLOCK = 8


def closed_pool_cells() -> list[tuple[int, int]]:
    rng = random.Random(CLOSED_POOL_SEED)
    cells = []
    while len(cells) < CLOSED_POOL_SIZE:
        n = round(10 ** rng.uniform(*CLOSED_N_DECADES))
        r = min(max(round(rng.random() * (n - 1)), 1), n - 2)
        if 2 * r <= n - 1 and OMEGA_SKIPPED_R[0] < r <= OMEGA_SKIPPED_R[1]:
            continue
        cells.append((n, r))
    return cells


def qmat_pool_cells() -> list[tuple[int, int]]:
    rng = random.Random(QMAT_POOL_SEED)
    cells = []
    for _ in range(QMAT_POOL_SIZE):
        n = rng.randint(*QMAT_N_RANGE)
        cells.append((n, min(max(round(rng.random() * (n - 1)), 1), n - 2)))
    return cells


def closed_cell_values(n: int, r: int, tracer: Tracer) -> dict:
    """All five closed families and the finite-n exponent estimates."""
    spec = BallSpec(n, r)
    bits = {}
    for family in CLOSED_FAMILIES:
        with tracer.span(f"bounds.closed.{family}"):
            bv = bounds.finite_bound(family, spec)
        if not bv.valid:
            tracer.count("bounds.invalid")
        bits[family] = bv.bits if bv.valid else None
    exponents = {}
    for family in EXPONENT_FAMILIES:
        if bits[family] is None:
            continue
        with tracer.span("asym"):
            exponents[family], _ = asym.empirical_exponent(family, n, r / (n - 1))
    return {"bits": bits, "exponent": exponents}


def qmat_values(n: int, r: int, tracer: Tracer) -> dict:
    """vdW functional of every doubly-stochastic construction valid at (n, r)."""
    spec = BallSpec(n, r)
    builders = [("first", qmat.q_first_class)]
    if 2 * r <= n - 2:
        builders.append(("second_low", qmat.q_second_low))
    if 2 * r > n - 1:
        builders.append(("second_high", qmat.q_second_high))
    band = BandMatrix(spec)
    values = {}
    for name, build in builders:
        with tracer.span("qmat.construct"):
            q = build(spec)
        with tracer.span("bounds.generic.vdw"):
            values[name] = bounds.vdw_sinkhorn_bound(band, q)
    return values


def figure_rows(which: str, tracer: Tracer) -> tuple[list, list]:
    """The figure's table as computed and as parsed back from its CSV,
    both as sorted (curve, x, y) triples.  Grids match the CLI defaults."""
    if which == "fig1":
        with tracer.span("asym"):
            points = asym.gap_curve_table(asym.GAP_PAIRS, step=0.01)
        with tracer.span("tables.render"):
            text = tables.render_gap_wide_csv(points, asym.GAP_PAIRS)
        with tracer.span("tables.parse"):
            back = tables.parse_gap_wide_csv(text, asym.GAP_PAIRS)
        rows = [(p.pair, p.rho, p.gap_bits) for p in points]
        parsed = [(p.pair, p.rho, p.gap_bits) for p in back]
        return sorted(rows), sorted(parsed)
    if which == "fig2":
        kinds, x_name, unavailable = ("ecc_old", "ecc_new"), "delta", ("anticode",)
        grid = [0.01 * k for k in range(2, 101)]
    else:
        kinds, x_name, unavailable = ("cover_old", "cover_new"), "rho", ("construction",)
        grid = [0.01 * k for k in range(1, 100)]
    with tracer.span("rates"):
        points = rates.rate_table(kinds, grid)
    with tracer.span("tables.render"):
        text = tables.render_rate_wide_csv(points, kinds, x_name, unavailable=unavailable)
    with tracer.span("tables.parse"):
        back = tables.parse_rate_wide_csv(text, kinds, x_name, unavailable=unavailable)
    rows = [(p.kind, p.x, p.rate_bits) for p in points]
    parsed = [(p.kind, p.x, p.rate_bits) for p in back]
    return sorted(rows), sorted(parsed)


def _strata(pool: list, key, k: int) -> list[list[int]]:
    """Indices of ``pool`` ranked by ``key`` and cut into k near-equal strata."""
    order = sorted(range(len(pool)), key=lambda i: key(pool[i]))
    n = len(order)
    return [order[i * n // k:(i + 1) * n // k] for i in range(k)]


class ClosedFigures:
    """The cheap path: closed-form cells at large n, figure tables,
    doubly-stochastic constructions and the verify checks."""

    name = "closed-figures"
    calibration_kernels = ("interpreter", "dense")

    def __init__(self, workdir: Path, tracer: Tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.references: dict = {}
        self.largest_omega_cell = 0

    def setup(self) -> None:
        log2_factorial(LOG2_FACTORIAL_EXACT_MAX)
        self.references = json.loads(CLOSED_REFERENCE.read_text())
        # The log-domain omega sum allocates several arrays of r floats, so
        # the phi1_prime cell with the largest r sets the peak memory.  Every
        # block holds it, which keeps peak_rss_mb the same from seed to seed.
        cells = self.references["cells"]
        self.largest_omega_cell = max(
            (i for i, c in enumerate(cells) if 2 * c["r"] <= c["n"] - 1),
            key=lambda i: cells[i]["r"],
        )

    def prepare(self) -> None:
        pass

    def begin_block(self) -> None:
        pass

    def block(self, seed: int, index: int, tiny: bool = False) -> list[tuple]:
        draws = Draws(self.name, seed, index)
        cells = self.references["cells"]
        qmats = self.references["qmat"]
        checks = [c for c in VERIFY_CHECKS if not tiny or c[0] in CHEAP_VERIFY_CHECKS]
        items = [("verify", slug) for slug, _, _ in checks]
        items += [("figure", which) for which in FIGURES]
        # Strata of cells with similar cost (as timed when the references
        # were made), so each block holds the same spread of expensive cells.
        cell_strata = _strata(cells, lambda c: c["cost_s"], CLOSED_CELLS_PER_BLOCK)
        qmat_strata = _strata(qmats, lambda c: c["n"], QMAT_CELLS_PER_BLOCK)
        if tiny:
            cell_strata, qmat_strata = cell_strata[:4], qmat_strata[:2]
        items += [("cell", stratum[draws.index(len(stratum))]) for stratum in cell_strata]
        if not tiny:
            items.append(("cell", self.largest_omega_cell))
        items += [("qmat", stratum[draws.index(len(stratum))]) for stratum in qmat_strata]
        draws.order.shuffle(items)
        return items

    def run_item(self, item: tuple) -> str | None:
        kind, key = item
        if kind == "verify":
            return self._verify(key)
        if kind == "figure":
            rows, parsed = figure_rows(key, self.tracer)
            if rows != parsed:
                return "CSV round trip changed the table"
            return _compare_rows(rows, self.references[key])
        if kind == "cell":
            reference = self.references["cells"][key]
            got = closed_cell_values(reference["n"], reference["r"], self.tracer)
            return _compare_tree(got, {"bits": reference["bits"], "exponent": reference["exponent"]})
        reference = self.references["qmat"][key]
        got = qmat_values(reference["n"], reference["r"], self.tracer)
        return _compare_tree(got, reference["vdw"])

    def _verify(self, slug: str) -> str | None:
        _, function, expected = next(c for c in VERIFY_CHECKS if c[0] == slug)
        with self.tracer.span(f"verify.{slug}"):
            result = getattr(verify, function)()
        self.tracer.count(f"verify.{slug}.s", result.seconds)
        if result.passed != expected:
            return f"passed={result.passed}, documented {expected}: {result.detail}"
        return None


def _compare_tree(got, reference) -> str | None:
    """Compare nested dicts of floats (None marks an invalid bound)."""
    if isinstance(reference, dict):
        if not isinstance(got, dict) or set(got) != set(reference):
            return f"keys {sorted(got)} differ from the reference {sorted(reference)}"
        for key in reference:
            problem = _compare_tree(got[key], reference[key])
            if problem:
                return f"{key}: {problem}"
        return None
    if reference is None or got is None:
        return None if got is reference else f"{got} differs from the reference {reference}"
    return None if _close(got, reference) else f"{got!r} differs from the reference {reference!r}"


def _compare_rows(rows: list, reference: list) -> str | None:
    if len(rows) != len(reference):
        return f"{len(rows)} rows, the reference has {len(reference)}"
    for row, ref in zip(rows, reference):
        if row[0] != ref[0] or not (_close(row[1], ref[1]) and _close(row[2], ref[2])):
            return f"row {row} differs from the reference {ref}"
    return None


WORKLOADS = {w.name: w for w in (ExactCold, SweepWarm, ClosedFigures)}
