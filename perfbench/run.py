"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 20 --trace 0

Workloads: exact-cold, sweep-warm, closed-figures (see README.md here).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds run details (tail percentile, sample counts, environment).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run, whose spans are written to
``perfbench/out/``.  The library is imported from ``src/`` of the checkout
this script sits in.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("exact-cold", "sweep-warm", "closed-figures")
# Pinned before numpy is imported: one BLAS thread, so that runs on a
# small shared machine do not contend with themselves.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="only set up, then print the set-up seconds (used for setup_s)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = HERE.parent / "src"
    if not (source / "permball" / "__init__.py").is_file():
        print(f"error: no permball sources under {source}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    # Every cache this benchmark touches is a fresh directory passed in
    # explicitly; the user's cache is never read or written.
    os.environ.pop("PERMBALL_CACHE", None)
    sys.path.insert(0, str(source))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        start = time.perf_counter()
        import harness  # imports numpy and the library
        import hostspeed
        from spans import Tracer
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](workdir, Tracer())
        workload.setup()
        raw = time.perf_counter() - start
        # Set-up is imports, tables and JSON: interpreter work.
        calibration = hostspeed.Calibration(("interpreter",))
        setup_s = (raw, raw * calibration.factor_now())
        if args.probe_setup:
            print(*setup_s)
            return 0
        # Fixture writes are left out of setup_s: on a shared disk the
        # time to write a thousand small files drifted threefold within
        # minutes, and no host-speed kernel follows it.
        start = time.perf_counter()
        workload.prepare()
        prepare_s = time.perf_counter() - start
        # The benchmark's own reference data would otherwise be scanned by
        # every full garbage collection the library's calls trigger.
        gc.collect()
        gc.freeze()
        return harness.run(args, workload, setup_s, prepare_s, OUT_DIR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
