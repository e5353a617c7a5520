"""Measurement loop, metric computation and the traced-run report."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from permball.bounds import CLOSED_FAMILIES

import hostspeed
from spans import Tracer
from workloads import VERIFY_CHECKS

# item_tail_ms is this percentile, and a run goes on until at least ten
# samples lie beyond it.  Higher percentiles land on sweep-warm items that
# run for seconds, during which the host's speed changes unseen, and p98
# there moved by 20% from seed to seed.
TAIL_PERCENTILE = 95.0
MIN_ITEMS = 200
HD_GRID = 64  # integration cells per order statistic in ``percentile``
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Dense sinkhorn_balance, rows first, per iteration on an n x n matrix:
# two matrix-vector products (2n^2 each), the scaled matrix (2n^2) and
# its row and column sums (2n^2).
SINKHORN_FLOPS_PER_ITERATION_N2 = 8


@dataclass
class Pass:
    raw_s: list[float] = field(default_factory=list)  # item times as measured
    scaled_s: list[float] = field(default_factory=list)  # at nominal host speed
    failed: int = 0
    blocks: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        """Items per second of item time at nominal host speed."""
        return len(self.scaled_s) / sum(self.scaled_s)


def run_pass(
    workload,
    seed: int,
    *,
    seconds: float = 0.0,
    max_blocks: int | None = None,
    tiny: bool = False,
) -> Pass:
    """Run whole blocks until ``max_blocks`` are done or, without a block
    limit, until the items have taken ``seconds`` at nominal host speed,
    the blocks make whole pairs and MIN_ITEMS items are done.  Counting
    scaled time keeps the number of blocks the same whatever phase the
    host is in, and with it the items near each percentile."""
    result = Pass()
    tracer = workload.tracer
    speed = hostspeed.SpeedLog(hostspeed.Calibration(workload.calibration_kernels))
    windows = []
    scaled_total = 0.0  # estimated from the samples before each item
    cpu_start = time.process_time()
    start = time.perf_counter()
    speed.record()
    while True:
        workload.begin_block()
        for item in workload.block(seed, result.blocks, tiny):
            speed.record_if_due()
            tracer.item = len(windows)
            item_start = time.perf_counter()
            try:
                with tracer.span("item") as span:
                    span.set("kind", item[0])
                    problem = workload.run_item(item)
            except Exception as exc:  # an item that raises counts as failed
                problem = f"{type(exc).__name__}: {exc}"
            windows.append((item_start, time.perf_counter()))
            scaled_total += (windows[-1][1] - item_start) * speed.recent_factor()
            if problem:
                result.failed += 1
                if len(result.problems) < 5:
                    result.problems.append(f"{item}: {problem}")
        result.blocks += 1
        if max_blocks is not None:
            if result.blocks >= max_blocks:
                break
        elif (
            result.blocks % 2 == 0  # whole antithetic pairs
            and scaled_total >= seconds
            and len(windows) >= MIN_ITEMS
        ):
            break
    speed.record()
    result.wall_s = time.perf_counter() - start
    result.cpu_s = time.process_time() - cpu_start
    result.raw_s = [end - begin for begin, end in windows]
    result.scaled_s = [
        (end - begin) * speed.factor(begin, end) for begin, end in windows
    ]
    return result


def percentile(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A mean of all order statistics, weighted by how much of the
    Beta(q (n+1), (1-q) (n+1)) distribution, q = p/100, falls between
    (i-1)/n and i/n.  Near p95 a run holds a mix of a few item kinds of
    different cost, and a single order statistic jumps from one kind to
    another between seeds; the weighted mean moves smoothly.
    """
    n = len(sorted_values)
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cells = HD_GRID * n  # grid cells per unit interval; node HD_GRID * i is i/n
    mid = (np.arange(cells) + 0.5) / cells
    log_density = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    mass = np.exp(log_density - log_density.max())
    cdf = np.concatenate(([0.0], np.cumsum(mass)))[::HD_GRID] / mass.sum()
    return float(np.dot(np.diff(cdf), sorted_values))


def probe_setup(workload: str, count: int) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds of ``count`` fresh processes in turn."""
    command = [
        sys.executable, str(Path(__file__).resolve().parent / "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0",
        "--probe-setup",
    ]
    samples = []
    for _ in range(count):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        raw, scaled = done.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _summary(times_s: list[float]) -> tuple[float, float, float]:
    ordered = sorted(times_s)
    return (
        len(ordered) / sum(ordered),
        percentile(ordered, 50.0) * 1e3,
        percentile(ordered, TAIL_PERCENTILE) * 1e3,
    )


def end_to_end_metrics(
    run: Pass, setup_samples: list[tuple[float, float]]
) -> tuple[dict, dict]:
    """Metrics from scaled times; the info dict adds the raw ones."""
    items_per_s, p50_ms, tail_ms = _summary(run.scaled_s)
    metrics = {
        "setup_s": _metric(statistics.median(s for _, s in setup_samples), "s"),
        "items_per_s": _metric(items_per_s, "1/s"),
        "item_p50_ms": _metric(p50_ms, "ms"),
        "item_tail_ms": _metric(tail_ms, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_items_per_s, raw_p50_ms, raw_tail_ms = _summary(run.raw_s)
    info = {
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": sum(v * 1e3 > tail_ms for v in run.scaled_s),
        "raw": {
            "setup_s": statistics.median(r for r, _ in setup_samples),
            "items_per_s": raw_items_per_s,
            "item_p50_ms": raw_p50_ms,
            "item_tail_ms": raw_tail_ms,
            "wall_items_per_s": len(run.raw_s) / run.wall_s,
        },
        "setup_samples_s": setup_samples,
    }
    return metrics, info


def layer_metrics(
    tracer: Tracer, traced: Pass, untraced: Pass, prepare_s: float
) -> dict:
    busy: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in tracer.spans:
        busy[span.name] += span.seconds
        calls[span.name] += 1
        if span.parent is not None:
            children[span.parent] += span.seconds
    oracle = [s for s in tracer.spans if s.name == "oracle"]
    sinkhorn = [s for s in tracer.spans if s.name == "qmat.sinkhorn"]
    counts = tracer.counts

    def backend_busy(backend: str) -> float:
        return sum(s.seconds for s in oracle if s.attrs.get("backend") == backend)

    metrics = {
        "oracle.calls": _metric(calls["oracle"], "count"),
        "oracle.busy_s": _metric(busy["oracle"], "s"),
        "oracle.self_s": _metric(sum(s.seconds - children[s.id] for s in oracle), "s"),
        "oracle.band-dp.busy_s": _metric(backend_busy("band-dp"), "s"),
        "oracle.ryser.busy_s": _metric(backend_busy("ryser"), "s"),
        "oracle.capacity_refusals": _metric(counts["oracle.capacity_refusals"], "count"),
        "cache.get.busy_s": _metric(busy["cache.get"], "s"),
        "cache.hits": _metric(counts["cache.hits"], "count"),
        "cache.hit_ratio": _metric(
            counts["cache.hits"] / counts["cache.gets"] if counts["cache.gets"] else 0.0,
            "ratio",
        ),
        "cache.put.busy_s": _metric(busy["cache.put"], "s"),
        "cache.bytes_written": _metric(counts["cache.bytes_written"], "B"),
        # Untimed fixture writes: the sweep-warm cache pre-fill.
        "cache.prefill_s": _metric(prepare_s, "s"),
        "qmat.sinkhorn.busy_s": _metric(busy["qmat.sinkhorn"], "s"),
        "qmat.sinkhorn.iterations": _metric(
            sum(s.attrs["iterations"] for s in sinkhorn), "count"
        ),
        "qmat.sinkhorn.max_residual": _metric(
            max((s.attrs["residual"] for s in sinkhorn), default=0.0), "1"
        ),
        "qmat.sinkhorn.flops_computed": _metric(
            sum(
                SINKHORN_FLOPS_PER_ITERATION_N2 * s.attrs["n"] ** 2 * s.attrs["iterations"]
                for s in sinkhorn
            ),
            "flop",
        ),
        "qmat.construct.busy_s": _metric(busy["qmat.construct"], "s"),
    }
    for family in CLOSED_FAMILIES:
        name = f"bounds.closed.{family}"
        metrics[f"{name}.busy_s"] = _metric(busy[name], "s")
    metrics["bounds.generic.vdw.busy_s"] = _metric(busy["bounds.generic.vdw"], "s")
    metrics["bounds.generic.bethe.busy_s"] = _metric(busy["bounds.generic.bethe"], "s")
    metrics["bounds.invalid"] = _metric(counts["bounds.invalid"], "count")
    for layer in ("asym", "rates", "tables.render", "tables.parse"):
        metrics[f"{layer}.busy_s"] = _metric(busy[layer], "s")
    for slug, _, _ in VERIFY_CHECKS:
        metrics[f"verify.{slug}.s"] = _metric(counts[f"verify.{slug}.s"], "s")
    metrics["run.cpu_s"] = _metric(traced.cpu_s, "s")
    metrics["run.offcpu_share"] = _metric(1.0 - traced.cpu_s / traced.wall_s, "ratio")
    metrics["trace.overhead_share"] = _metric(
        1.0 - traced.items_per_s / untraced.items_per_s, "ratio"
    )
    return metrics


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "machine": platform.machine(),
    }


def run(
    args, workload, setup_s: tuple[float, float], prepare_s: float, out_dir: Path
) -> int:
    tracer = workload.tracer
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "prepare_s": prepare_s,
    }
    if args.trace:
        # The traced pass replays the untraced pass's blocks, so the
        # overhead is measured on identical work.
        untraced = run_pass(workload, args.seed, seconds=args.seconds / 2)
        tracer.enabled = True
        traced = run_pass(workload, args.seed, max_blocks=untraced.blocks)
        tracer.enabled = False
        passes = [untraced, traced]
        metrics = layer_metrics(tracer, traced, untraced, prepare_s)
    else:
        setup_samples = [setup_s] + probe_setup(workload.name, SETUP_PROBES)
        measured = run_pass(workload, args.seed, seconds=args.seconds)
        passes = [measured]
        metrics, extra = end_to_end_metrics(measured, setup_samples)
        info.update(extra)
    attempted = sum(len(p.raw_s) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [problem for p in passes for problem in p.problems]
    info.update(
        items=[len(p.raw_s) for p in passes],
        blocks=[p.blocks for p in passes],
        wall_s=[p.wall_s for p in passes],
        problems=problems,
        env=environment(),
    )
    for problem in problems:
        print(f"failed item {problem}", file=sys.stderr)
    if args.trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "info": info,
                    "metrics": metrics,
                    "counts": dict(tracer.counts),
                    "span_fields": ["name", "start", "end", "parent", "item", "attrs"],
                    "spans": [span.as_list() for span in tracer.spans],
                }
            )
        )
        info["trace_file"] = os.path.relpath(trace_path)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0
