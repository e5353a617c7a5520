"""Exact ball sizes |B_{r,n}| by mutually checking counting backends.

Four routes to the same integer: closed forms at the r = 0 and r = n-1
boundaries, a column-sweep transfer DP over the band window, Ryser's
inclusion-exclusion permanent on the dense band matrix, and brute-force
enumeration of S_n.  ``ball_size_exact`` dispatches to the cheapest
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
# backend function accepts override_capacity=True for direct expert calls.
# One work unit is one inner-loop step: Ryser does 2^n * n of them, the
# band DP at most n * C(2r, r) * (2r+1).  Both took 1-2e-7 s per unit on
# a 2-vCPU Xeon host, so the budget is a few seconds per count.
ENUMERATE_MAX_N = 10
EXACT_MAX_WORK = 2 * 10**7

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
    if _ryser_work(n) > EXACT_MAX_WORK and not override_capacity:
        raise CapacityError(
            f"Ryser at n={n} exceeds the work budget of {EXACT_MAX_WORK} units"
        )
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


def ball_size_band_dp(spec: BallSpec, *, override_capacity: bool = False) -> int:
    """Permanent of the band matrix by a column sweep over the 2r+1 window.

    The state is the set of window rows already matched.  Rows outside
    1..n are virtual and treated as pre-matched.  Row j-r must be matched
    before the window slides past it, which is what makes the state finite.
    """
    n, r = spec.n, spec.r
    if _dp_work(spec) > EXACT_MAX_WORK and not override_capacity:
        raise CapacityError(
            f"band DP at n={n}, r={r} exceeds the work budget of "
            f"{EXACT_MAX_WORK} units; use Ryser for small n"
        )
    width = 2 * r + 1
    top_bit = 1 << (width - 1)
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


def _ryser_work(n: int) -> int:
    return n << n


def _dp_work(spec: BallSpec) -> int:
    # C(2r, r) >= 2^r, so a radius past the budget's bit length is over it
    # anyway; clamping it keeps the binomial small at large r.
    r = min(spec.r, EXACT_MAX_WORK.bit_length())
    return spec.n * math.comb(2 * r, r) * (2 * r + 1)


def _closed_form(spec: BallSpec) -> int:
    return 1 if spec.r == 0 else math.factorial(spec.n)


# name -> (admits the spec within its capacity, counts it), cheapest first.
_BACKENDS = {
    BACKEND_CLOSED: (lambda spec: spec.r in (0, spec.n - 1), _closed_form),
    BACKEND_DP: (lambda spec: _dp_work(spec) <= EXACT_MAX_WORK, ball_size_band_dp),
    BACKEND_RYSER: (
        lambda spec: _ryser_work(spec.n) <= EXACT_MAX_WORK,
        lambda spec: permanent_ryser(list(BandMatrix(spec).rows())),
    ),
    BACKEND_ENUMERATE: (lambda spec: spec.n <= ENUMERATE_MAX_N, ball_size_enumerate),
}


def applicable_backends(spec: BallSpec) -> list[str]:
    """Backends whose capacity limits admit this spec, cheapest first."""
    return [name for name, (admits, _) in _BACKENDS.items() if admits(spec)]


def ball_size_exact_detailed(
    spec: BallSpec,
    *,
    verify: bool = False,
    cache: "ResultCache | None" = None,
    backends: Sequence[str] | None = None,
) -> ExactResult:
    """Exact |B_{r,n}| with the backend that produced it.

    Normal mode returns the cached count, or runs the cheapest applicable
    backend.  Verification mode runs every applicable backend and the
    cache record, and raises VerificationError on any disagreement.
    ``backends`` restricts the candidates (``()`` reads only the cache).
    """
    if backends is not None:
        unknown = [b for b in backends if b not in _BACKENDS]
        if unknown:
            raise DimensionError(
                f"unknown backends {unknown}; expected {list(_BACKENDS)}"
            )
    record = cache.get(spec) if cache is not None else None
    if record is not None and not verify:
        return ExactResult(int(record.exact_count), "cache")
    candidates = [
        b for b in applicable_backends(spec) if backends is None or b in backends
    ]
    if not candidates:
        raise CapacityError(
            f"no exact backend can handle n={spec.n}, r={spec.r} "
            f"within the work budget of {EXACT_MAX_WORK} units"
        )
    run = candidates if verify else candidates[:1]
    results = {b: _BACKENDS[b][1](spec) for b in run}
    if record is not None:
        results["cache"] = int(record.exact_count)
    distinct = set(results.values())
    if len(distinct) != 1:
        raise VerificationError(
            f"backend disagreement at n={spec.n}, r={spec.r}: {results}"
        )
    value = distinct.pop()
    if cache is not None and record is None:
        cache.put(spec, value, candidates[0])
    return ExactResult(value, "+".join(sorted(results)))


def ball_size_exact(
    spec: BallSpec,
    *,
    verify: bool = False,
    cache: "ResultCache | None" = None,
) -> int:
    return ball_size_exact_detailed(spec, verify=verify, cache=cache).value
