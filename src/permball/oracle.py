"""Exact ball sizes |B_{r,n}| by mutually checking counting backends.

Four routes to the same integer: brute-force enumeration of S_n, Ryser's
inclusion-exclusion permanent on the dense band matrix, a column-sweep
transfer DP over the band window, and closed forms at the r = 0 and
r = n-1 boundaries.  ``ball_size_exact`` dispatches to the cheapest
applicable one, or runs all of them and insists they agree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import BallSpec, BandMatrix
from .errors import CapacityError, DimensionError, VerificationError

if TYPE_CHECKING:
    from .cache import ResultCache

# Documented capacity limits.  The dispatcher always applies them; each
# backend function accepts override_capacity=True for direct expert calls
# (runtimes grow factorially / exponentially past these).
ENUMERATE_MAX_N = 10
RYSER_MAX_N = 30
DP_MAX_WINDOW = 26

BACKEND_CLOSED = "closed-form"
BACKEND_DP = "band-dp"
BACKEND_RYSER = "ryser"
BACKEND_ENUMERATE = "enumerate"


@dataclass(frozen=True)
class ExactResult:
    value: int
    backend: str


def ball_size_enumerate(spec: BallSpec, *, override_capacity: bool = False) -> int:
    """Count permutations within distance r of the identity by generation."""
    if spec.n > ENUMERATE_MAX_N and not override_capacity:
        raise CapacityError(
            f"enumeration capped at n={ENUMERATE_MAX_N} (n! blowup); "
            "use the band DP instead"
        )
    n, r = spec.n, spec.r
    count = 0
    for p in itertools.permutations(range(1, n + 1)):
        if all(abs(p[i] - i - 1) <= r for i in range(n)):
            count += 1
    return count


def permanent_ryser(
    m: Sequence[Sequence[int]] | np.ndarray, *, override_capacity: bool = False
) -> int:
    """Exact permanent of a non-negative integer matrix by Ryser's formula.

    Gray-code iteration over column subsets keeps the work at O(2^n * n)
    arbitrary-precision operations.
    """
    rows = []
    for row in m:
        converted = []
        for x in row:
            value = int(x)
            if value != x:
                raise DimensionError(f"non-integer entry {x!r} in permanent input")
            converted.append(value)
        rows.append(converted)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("permanent requires a square matrix")
    if any(x < 0 for row in rows for x in row):
        raise DimensionError("permanent backend requires non-negative entries")
    if n > RYSER_MAX_N and not override_capacity:
        raise CapacityError(f"Ryser capped at n={RYSER_MAX_N} (2^n work)")
    if n == 0:
        return 1
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    row_sums = [0] * n
    total = 0
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ prev_gray
        prev_gray = gray
        j = changed.bit_length() - 1
        col = cols[j]
        if gray & changed:
            for i in range(n):
                row_sums[i] += col[i]
        else:
            for i in range(n):
                row_sums[i] -= col[i]
        prod = 1
        for s in row_sums:
            prod *= s
            if not prod:
                break
        if prod:
            if (n - gray.bit_count()) % 2:
                total -= prod
            else:
                total += prod
    return total


def ball_size_band_dp(
    spec: BallSpec, *, vacant_encoding: bool = False, override_capacity: bool = False
) -> int:
    """Permanent of the band matrix by a column sweep over the 2r+1 window.

    The state is the set of window rows already matched (or, with
    vacant_encoding, the set still free; an arithmetically distinct
    formulation used as a self-check).  Rows outside 1..n are virtual and
    treated as pre-matched.  Row j-r must be matched before the window
    slides past it, which is what makes the state finite.
    """
    n, r = spec.n, spec.r
    width = 2 * r + 1
    if width > DP_MAX_WINDOW and not override_capacity:
        raise CapacityError(
            f"band DP window 2r+1={width} exceeds {DP_MAX_WINDOW}; "
            "use Ryser for small n"
        )
    top_bit = 1 << (width - 1)
    if not vacant_encoding:
        # Bit k of a state = row (j - r + k) is matched.
        states = {(1 << r) - 1: 1}
        for j in range(1, n + 1):
            nxt: dict[int, int] = {}
            lo = max(1, j - r)
            hi = min(n, j + r)
            base = j - r
            enter_virtual = j + 1 + r > n
            for mask, ways in states.items():
                for row in range(lo, hi + 1):
                    bit = 1 << (row - base)
                    if mask & bit:
                        continue
                    m2 = mask | bit
                    if not m2 & 1:
                        continue
                    m2 >>= 1
                    if enter_virtual:
                        m2 |= top_bit
                    nxt[m2] = nxt.get(m2, 0) + ways
            states = nxt
        return states.get((1 << width) - 1, 0)
    # Bit k of a state = row (j - r + k) is still free.
    init = 0
    for row in range(1, min(n, 1 + r) + 1):
        init |= 1 << (row - (1 - r))
    states = {init: 1}
    for j in range(1, n + 1):
        nxt = {}
        lo = max(1, j - r)
        hi = min(n, j + r)
        base = j - r
        enter_real = j + 1 + r <= n
        for mask, ways in states.items():
            for row in range(lo, hi + 1):
                bit = 1 << (row - base)
                if not mask & bit:
                    continue
                m2 = mask & ~bit
                if m2 & 1:
                    continue
                m2 >>= 1
                if enter_real:
                    m2 |= top_bit
                nxt[m2] = nxt.get(m2, 0) + ways
        states = nxt
    return states.get(0, 0)


def _closed_form(spec: BallSpec) -> int | None:
    if spec.r == 0:
        return 1
    if spec.r == spec.n - 1:
        return math.factorial(spec.n)
    return None


def applicable_backends(spec: BallSpec) -> list[str]:
    """Backends whose capacity limits admit this spec, cheapest first."""
    out = []
    if _closed_form(spec) is not None:
        out.append(BACKEND_CLOSED)
    if 2 * spec.r + 1 <= DP_MAX_WINDOW:
        out.append(BACKEND_DP)
    if spec.n <= RYSER_MAX_N:
        out.append(BACKEND_RYSER)
    if spec.n <= ENUMERATE_MAX_N:
        out.append(BACKEND_ENUMERATE)
    return out


def _run_backend(spec: BallSpec, backend: str) -> int:
    if backend == BACKEND_CLOSED:
        value = _closed_form(spec)
        if value is None:
            raise CapacityError("closed form only at r=0 and r=n-1")
        return value
    if backend == BACKEND_DP:
        return ball_size_band_dp(spec)
    if backend == BACKEND_RYSER:
        return permanent_ryser([row for row in BandMatrix(spec).rows()])
    if backend == BACKEND_ENUMERATE:
        return ball_size_enumerate(spec)
    raise DimensionError(f"unknown backend {backend!r}")


def ball_size_exact_detailed(
    spec: BallSpec,
    *,
    verify: bool = False,
    cache: "ResultCache | None" = None,
    backends: Sequence[str] | None = None,
) -> ExactResult:
    """Exact |B_{r,n}| with the backend that produced it.

    Normal mode dispatches to the cheapest applicable backend (or returns
    the cached count).  Verification mode runs every applicable backend,
    both DP window encodings, and the cache record, and raises
    VerificationError on any disagreement.  ``backends`` restricts the
    candidates (sweep configs use it to pin the computation route).
    """
    known = (BACKEND_CLOSED, BACKEND_DP, BACKEND_RYSER, BACKEND_ENUMERATE)
    if backends is not None:
        unknown = [b for b in backends if b not in known]
        if unknown:
            raise DimensionError(f"unknown backends {unknown}; expected {known}")
    candidates = applicable_backends(spec)
    if backends is not None:
        candidates = [b for b in candidates if b in backends]
    return _dispatch(spec, candidates, verify=verify, cache=cache)


def _dispatch(
    spec: BallSpec,
    backends: list[str],
    *,
    verify: bool,
    cache: "ResultCache | None",
) -> ExactResult:
    record = cache.get(spec) if cache is not None else None
    if not verify:
        if record is not None:
            return ExactResult(int(record.exact_count), "cache")
        if not backends:
            raise CapacityError(
                f"no exact backend can handle n={spec.n}, r={spec.r} "
                f"(2r+1={2 * spec.r + 1} > {DP_MAX_WINDOW} and n > {RYSER_MAX_N})"
            )
        backend = backends[0]
        value = _run_backend(spec, backend)
        if cache is not None:
            cache.put(spec, value, backend)
        return ExactResult(value, backend)
    if not backends:
        raise CapacityError(f"no exact backend can handle n={spec.n}, r={spec.r}")
    results = {b: _run_backend(spec, b) for b in backends}
    if BACKEND_DP in results:
        results["band-dp/vacant"] = ball_size_band_dp(spec, vacant_encoding=True)
    if record is not None:
        results["cache"] = int(record.exact_count)
    distinct = set(results.values())
    if len(distinct) != 1:
        raise VerificationError(
            f"backend disagreement at n={spec.n}, r={spec.r}: {results}"
        )
    value = distinct.pop()
    if cache is not None and record is None:
        cache.put(spec, value, backends[0])
    return ExactResult(value, "+".join(sorted(results)))


def ball_size_exact(
    spec: BallSpec,
    *,
    verify: bool = False,
    cache: "ResultCache | None" = None,
) -> int:
    return ball_size_exact_detailed(spec, verify=verify, cache=cache).value

