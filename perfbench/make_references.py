"""Regenerate the reference outputs that the benchmark checks against.

    python3 perfbench/make_references.py

Writes ``references/exact_counts.json`` (exact counts for every cell that
exact-cold can draw and every cell that sweep-warm pre-fills) and
``references/closed_figures.json`` (closed-figures cell pools and the
floats the library gives for them).  Run it only on a commit whose
outputs are trusted.  A later commit is checked against these files, not
against itself.

Every exact count comes from ``ball_size_exact_detailed(verify=True)``.
Verify mode runs every applicable backend plus the second DP encoding and
raises unless all of them agree.  Ryser's permanent takes 2^n steps, so it
takes part only up to n = 20.  Above that the two DP encodings (and the
closed form at r = 0 or r = n-1) check each other.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

RYSER_REFERENCE_MAX_N = 20
JOBS = 2  # worker processes for the exact counts


def exact_count(cell: tuple[int, int]) -> tuple[int, int, str]:
    from permball import oracle
    from permball.core import BallSpec

    n, r = cell
    backends = None
    if n > RYSER_REFERENCE_MAX_N:
        backends = (oracle.BACKEND_CLOSED, oracle.BACKEND_DP, oracle.BACKEND_ENUMERATE)
    result = oracle.ball_size_exact_detailed(
        BallSpec(n, r), verify=True, backends=backends
    )
    return n, r, str(result.value)


def make_exact(jobs: int) -> dict:
    import workloads

    cells = workloads.exact_cold_cells() | workloads.sweep_cached_cells()
    # Longest first, for an even split over the workers.
    ordered = sorted(cells, key=lambda c: (c[1] if c[1] < c[0] - 1 else 0, c[0]), reverse=True)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        results = list(pool.map(exact_count, ordered, chunksize=4))
    counts = {f"{n},{r}": value for n, r, value in sorted(results)}
    return {"made_with": "ball_size_exact_detailed(verify=True)", "counts": counts}


def make_closed() -> dict:
    import workloads
    from spans import Tracer

    tracer = Tracer()
    cells = []
    for n, r in workloads.closed_pool_cells():
        start = time.perf_counter()
        values = workloads.closed_cell_values(n, r, tracer)
        cells.append({"n": n, "r": r, "cost_s": time.perf_counter() - start, **values})
    qmats = [
        {"n": n, "r": r, "vdw": workloads.qmat_values(n, r, tracer)}
        for n, r in workloads.qmat_pool_cells()
    ]
    out = {"cells": cells, "qmat": qmats}
    for which in workloads.FIGURES:
        rows, _ = workloads.figure_rows(which, tracer)
        out[which] = [list(row) for row in rows]
    return out


def main() -> int:
    out_dir = HERE / "references"
    out_dir.mkdir(exist_ok=True)
    start = time.perf_counter()
    data = make_exact(JOBS)
    (out_dir / "exact_counts.json").write_text(json.dumps(data, indent=0) + "\n")
    print(f"{len(data['counts'])} exact counts in {time.perf_counter() - start:.0f} s")
    start = time.perf_counter()
    data = make_closed()
    (out_dir / "closed_figures.json").write_text(json.dumps(data) + "\n")
    print(f"closed-figures references in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
