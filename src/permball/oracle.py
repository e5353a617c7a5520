"""Exact ball sizes |B_{r,n}| by mutually checking counting backends.

Five routes to the same integer: a closed form at r = 0 and wherever
n <= 2r+2 (a rook-polynomial sum over the cells outside the band, n! at
r = n-1), a column-sweep transfer DP over the band window in Python
integers, the same DP in numpy residues modulo several coprime moduli,
swept only to the middle column and joined with its mirror image,
Ryser's inclusion-exclusion permanent over the band's column windows, and
a depth-first enumeration of the permutations inside the band.
``ball_size_exact`` runs the closed form where it applies, else the
faster band DP; verifying, it runs every admitted backend and
insists they agree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import finite_bound
from .cache import ResultCache, count_text, parse_count
from .core import BallSpec
from .errors import CapacityError, ValidationError, VerificationError

# One documented capacity limit: the dispatcher admits a backend only
# where it should count the spec within EXACT_MAX_SECONDS; the backends
# themselves count whatever they are given.  Each band DP's admitted cells
# are a prefix in n at every r, so its limit is the largest n, by r, that
# it counts within the budget (the frontiers of a time model fitted to
# times measured on a 2-vCPU Intel Xeon host); a radius past the end of a
# tuple is refused.  An engine change re-derives an entry by timing (n, r)
# and (n+1, r), best of 3, on either side of the budget, in two phases at
# least 10 minutes apart, keeping the lower.
EXACT_MAX_SECONDS = 3.0
BAND_DP_MAX_N = (
    15_789_473, 283_584, 99_854, 38_024, 13_858, 4_446, 1_223, 311, 85, 32, 21, 20,
    19, 19, 19, 19, 19, 19, 19,
)
MODULAR_DP_MAX_N = (
    982_282, 93_050, 52_148, 29_146, 14_363, 6_566, 2_938, 1_320, 590, 265, 116,
    50, 24, 22, 22, 22, 22, 22, 22, 22, 22, 22,
)
# The other backends are admitted by n alone.  There Ryser takes 0.9 s at
# n = 19 and 1.2-1.9 s at n = 20; enumeration 0.29 s at (10, 9) and,
# best of 3 in two phases of the host, 2.8 and 3.2 s at (11, 10).
RYSER_MAX_N = 19
ENUMERATE_MAX_N = 10
# The closed form holds at r = 0 and wherever n <= 2r+2.  There it costs
# a Stirling row, O(m^2) integer operations in m = n-r-1, and at large n
# the decimal conversion of the count, quadratic in the digits, which the
# CLI makes once, for the cache record it then prints.  It is admitted at
# n <= FACTORIAL_MAX_N with m <= CLOSED_MAX_M, whose costliest cells are
# two corners: a cold `exact` at (2M, M-1), M = CLOSED_MAX_M, is given a
# third of the budget, and one at (N, N-1-M), N = FACTORIAL_MAX_N, all of
# it.  Each cap is re-derived like a DP entry, best of 3 in two phases.
FACTORIAL_MAX_N = 73_000
CLOSED_MAX_M = 1_500

# Residues stay below 2^56, so the at most 2r+1 of them added into one
# count before the next reduction fit in int64 for every r <= 63; the
# uint64 state masks (2r+1 bits) end first, at r = 31.
RESIDUE_BITS = 56

BACKEND_CLOSED = "closed-form"
BACKEND_DP = "band-dp"
BACKEND_MODULAR = "modular-dp"
BACKEND_RYSER = "ryser"
BACKEND_ENUMERATE = "enumerate"


@dataclass(frozen=True, init=False)
class ExactResult:
    """An exact count and the backend that produced it.

    The count comes as an int (``count``), as a cache record's decimal
    text (``digits``) or as both.  Each form is converted to the other
    only when read (``value`` and ``text``), so a warm ``exact`` prints
    the cached digits and never parses them: both conversions are
    quadratic in the digits.  A new count needs new digits: the keyword
    ``value`` sets the count and drops the digits, so
    ``dataclasses.replace(result, value=v)`` reads v in both forms, and a
    replaced ``count`` takes ``digits=None`` with it.
    """

    backend: str
    count: int | None
    digits: str | None

    def __init__(
        self,
        backend: str,
        count: int | None = None,
        digits: str | None = None,
        *,
        value: int | None = None,
    ) -> None:
        if value is not None:
            count, digits = value, None
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "digits", digits)

    @functools.cached_property
    def value(self) -> int:
        """The count."""
        return parse_count(self.digits) if self.count is None else self.count

    @functools.cached_property
    def text(self) -> str:
        """The count in decimal."""
        return count_text(self.count) if self.digits is None else self.digits


def _closed_form_holds(spec: BallSpec) -> bool:
    """Whether the closed form counts the spec: r = 0 or n <= 2r+2."""
    return spec.r == 0 or spec.n <= 2 * spec.r + 2


def ball_size_closed_form(spec: BallSpec) -> int:
    """|B_{r,n}| in closed form at r = 0 and wherever n <= 2r+2.

    Let m = n-r-1.  For i = 1..m, row i must take a column <= i+r and row
    r+1+i one >= i+1; the n-2m rows between take any column.  At
    n <= 2r+2 the columns 1..m lie inside every upper row's window.
    Inclusion-exclusion over rook placements on the cells the lower rows
    refuse, a staircase of 1, 2, ..., m cells whose k-rook numbers are
    s_k = S(m+1, m+1-k) (Stirling numbers of the second kind), leaves each
    upper row, in order, r+1-k columns and the other n-m-k rows the rest:
    the count is the sum over k of (-1)^k s_k (r+1-k)^m (n-m-k)!.  It is
    Kaplansky and Riordan's rook sum over both staircases (Duke Math. J.
    1946) with the upper staircase's placements counted as a product.  A
    Horner pass over k takes one factorial, (n-2m)!; at m = 0 it is n!.
    """
    n, r = spec.n, spec.r
    if not _closed_form_holds(spec):
        raise ValidationError(
            f"the closed form needs r = 0 or n <= 2r+2, got n={n}, r={r}"
        )
    if r == 0:
        return 1
    m = n - r - 1
    # S(j, i) for i = 0..j, row by row up to j = m+1.
    stirling = [1]
    for j in range(1, m + 2):
        stirling = [0] + [
            i * a + b for i, a, b in zip(range(1, j + 1), stirling[1:] + [0], stirling)
        ]
    count = 0
    for k in range(m + 1):
        term = stirling[m + 1 - k] * (r + 1 - k) ** m
        count = count * (n - m - k + 1) + (-term if k % 2 else term)
    return count * math.factorial(n - 2 * m)


def ball_size_enumerate(spec: BallSpec) -> int:
    """Count permutations within distance r of the identity one by one.

    A depth-first search places column i in each free row of its window
    |p(i) - i| <= r, one bit at a time (``avail & -avail``), with no state
    beyond the rows still free.  The last three columns, with A, B and C
    the free rows of their windows, take |A||B||C| - |A&B||C| - |A&C||B|
    - |B&C||A| + 2|A&B&C| triples of distinct rows (one row thrice is
    taken off three times), counted from seven popcounts.
    """
    n, r = spec.n, spec.r
    if n < 3:
        return r + 1  # the identity, and at (2, 1) the swap
    windows = [(1 << min(n, i + r + 1)) - (1 << max(0, i - r)) for i in range(n)]
    a, b, c = windows[-3:]
    ab, ac, bc, abc = a & b, a & c, b & c, a & b & c

    def place(i: int, free: int) -> int:
        if i == n - 3:
            na, nb = (a & free).bit_count(), (b & free).bit_count()
            nc = (c & free).bit_count()
            pairs = (ab & free).bit_count() * nc + (ac & free).bit_count() * nb
            pairs += (bc & free).bit_count() * na
            return na * nb * nc - pairs + 2 * (abc & free).bit_count()
        count = 0
        avail = windows[i] & free
        while avail:
            bit = avail & -avail
            count += place(i + 1, free ^ bit)
            avail ^= bit
        return count

    return place(0, (1 << n) - 1)


def ball_size_ryser(spec: BallSpec) -> int:
    """Permanent of the band matrix by Ryser's inclusion-exclusion formula.

    Gray-code iteration over column subsets keeps the work at O(2^n * n)
    arbitrary-precision operations.  Adding or dropping column j moves
    the row sums by 1 over its window of rows |i-j| <= r.
    """
    n, r = spec.n, spec.r
    windows = [range(max(0, j - r), min(n, j + r + 1)) for j in range(n)]
    sums = [0] * n
    total = 0
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ prev_gray
        prev_gray = gray
        window = windows[changed.bit_length() - 1]
        if gray & changed:
            for i in window:
                sums[i] += 1
        else:
            for i in window:
                sums[i] -= 1
        prod = 1
        for s in sums:
            prod *= s
            if not prod:
                break
        if prod:
            if (n - gray.bit_count()) % 2:
                total -= prod
            else:
                total += prod
    return total


def ball_size_band_dp(spec: BallSpec) -> int:
    """Permanent of the band matrix by a column sweep over the 2r+1 window.

    The state is the set of window rows already matched.  Rows outside
    1..n are virtual and treated as pre-matched.  Row j-r must be matched
    before the window slides past it, which is what makes the state finite.
    """
    n, r = spec.n, spec.r
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


def ball_size_modular_dp(spec: BallSpec) -> int:
    """The band DP of ``ball_size_band_dp`` in numpy residues, swept to
    the middle column and joined with its mirror image.

    States are a sorted array of the same window masks, uint32 where their
    2r+1 bits fit and uint64 otherwise.  Counts are an int64 (states, k)
    array, one column per modulus, reduced once per column; each row
    choice of a column adds its source rows to their next states' rows.
    The band is symmetric under i -> n+1-i, so columns h+1..n, read
    backwards, are columns 1..n-h of the same band: with h = ceil(n/2),
    the count is the sum over the states S after column h of
    F_h(S) * F_{n-h}(mirror(S)) (``_mirror``), one sweep giving both F,
    whose residue products ``_residue_dot`` sums in 28-bit limbs.
    The Chinese remainder theorem rebuilds the integer from its residues.
    The k moduli multiply past a power of two above Bregman's bound on
    the permanent, the paper's Phi1 (``_moduli_bound``), so the rebuilt
    integer is the exact count.
    """
    n, r = spec.n, spec.r
    if 2 * r + 1 > 64:
        raise CapacityError(
            f"modular band DP at r={r} needs {2 * r + 1}-bit state masks; "
            "its uint64 masks hold 64 bits (r <= 31)"
        )
    moduli = _moduli(_moduli_bound(spec))
    divisors = np.array(moduli, dtype=np.int64)
    mask_type = np.uint32 if 2 * r + 1 <= 32 else np.uint64
    states = np.array([(1 << r) - 1], dtype=mask_type)
    counts = np.ones((1, len(moduli)), dtype=np.int64)
    half = (n + 1) // 2
    # The vector after column n - half, which is column 0 at n = 1.
    mirrored = states, counts
    bulk = None
    for j in range(1, half + 1):
        if r < j < n - r:
            # Bulk columns share one transfer map.  Their state set is
            # every r-subset of the lower 2r window bits, which the left
            # boundary columns reach in full and each bulk column maps
            # onto itself, so one map serves them all.
            if bulk is None:
                bulk = _modular_column(states, n, r, j)
            states, moves = bulk
        else:
            # Free the last column's map before building this one.
            bulk = moves = None
            states, moves = _modular_column(states, n, r, j)
        out = np.zeros((states.size, len(moduli)), dtype=np.int64)
        for src, dst in moves:
            # Each row choice maps states one-to-one, so dst has no repeats
            # and one assignment adds the rows; take gathers rows 1.3-2x
            # as fast as fancy indexing.
            add = counts.take(src, axis=0)
            add += out.take(dst, axis=0)
            out[dst] = add
        # Free the last gather before the next map is built.
        del add
        out %= divisors
        counts = out
        if j == n - half:
            mirrored = states, counts
    # Free the last maps before the join.
    bulk = moves = None
    value, modulus = 0, 1
    for m, total in zip(moduli, _join((states, counts), mirrored, n, r)):
        value += modulus * ((total - value) * pow(modulus, -1, m) % m)
        modulus *= m
    return value


# The join multiplies residues below 2^RESIDUE_BITS in two limbs of
# LIMB_BITS each, whose products stay below 2^RESIDUE_BITS too, so
# JOIN_TERMS = 127 of them sum in int64; the block sums are folded as
# Python integers.  It gathers JOIN_CHUNK states at a time, which keeps
# its temporaries (two gathers, two high limbs and a product, each
# JOIN_CHUNK * k int64) under the sweep's own.
LIMB_BITS = RESIDUE_BITS // 2
JOIN_TERMS = (1 << 63 - 2 * LIMB_BITS) - 1
JOIN_CHUNK = 8 * JOIN_TERMS
_REVERSED_BYTES = np.array(
    [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8
)


def _mirror(states: np.ndarray, n: int, r: int, j: int) -> np.ndarray:
    """The states after column j that complete each of ``states``, the
    states after column n - j, to a permutation.

    Bit k < 2r of a state after column n-j is row n-j+1-r+k, which the
    mirror i -> n+1-i sends to row j+r-k, bit 2r-1-k of a state after
    column j; a row one side has matched is the other side's to match.
    So the low 2r bits are reversed and complemented, and the bits of the
    rows outside 1..n that the window holds after column j, bit 2r
    included, are set.
    """
    width = 8 * states.itemsize
    reversed_ = _REVERSED_BYTES[states.view(np.uint8)].view(states.dtype)
    low = ~(reversed_.byteswap() >> (width - 2 * r)) & ((1 << 2 * r) - 1)
    virtual = sum(1 << k for k in range(2 * r + 1) if not 0 < j + 1 - r + k <= n)
    return low | virtual


def _join(
    middle: tuple[np.ndarray, np.ndarray],
    mirrored: tuple[np.ndarray, np.ndarray],
    n: int,
    r: int,
) -> list[int]:
    """Per modulus, the sum of F_h(S) * F_{n-h}(mirror(S)) over the states
    S after column h = ceil(n/2), as a Python integer, given the (states,
    counts) after columns h and n-h.  States whose mirror the DP never
    reaches add nothing."""
    (states, counts), (mirrored_states, mirrored_counts) = middle, mirrored
    keys = _mirror(states, n, r, n - (n + 1) // 2)
    # Searched in order, the keys walk the mirrored states once.
    order = keys.argsort()
    keys = keys[order]
    at = np.minimum(mirrored_states.searchsorted(keys), mirrored_states.size - 1)
    hit = (mirrored_states[at] == keys).nonzero()[0]
    order, at = order[hit], at[hit]
    totals = [0] * counts.shape[1]
    for start in range(0, hit.size, JOIN_CHUNK):
        left = counts[order[start : start + JOIN_CHUNK]]
        right = mirrored_counts[at[start : start + JOIN_CHUNK]]
        totals = [a + b for a, b in zip(totals, _residue_dot(left, right))]
    return totals


def _residue_dot(left: np.ndarray, right: np.ndarray) -> list[int]:
    """Per column, the sum of ``left * right`` as a Python integer, for
    int64 arrays of residues below 2^RESIDUE_BITS.  Overwrites both with
    their low limbs."""
    blocks = np.arange(0, left.shape[0], JOIN_TERMS)
    left_high, right_high = left >> LIMB_BITS, right >> LIMB_BITS
    left &= (1 << LIMB_BITS) - 1
    right &= (1 << LIMB_BITS) - 1
    totals = [0] * left.shape[1]
    for a, b, shift in (
        (left_high, right_high, 2 * LIMB_BITS),
        (left_high, right, LIMB_BITS),
        (left, right_high, LIMB_BITS),
        (left, right, 0),
    ):
        sums = np.add.reduceat(a * b, blocks, axis=0).sum(axis=0, dtype=object)
        totals = [total + (int(s) << shift) for total, s in zip(totals, sums)]
    return totals


def _modular_column(
    states: np.ndarray, n: int, r: int, j: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Column j of the band DP on sorted masks: the sorted next states and,
    per row choice, the source and destination indices it moves."""
    base = j - r
    top = 1 << (2 * r) if j + 1 + r > n else 0
    odd = (states & 1).astype(bool)
    sources, targets = [], []
    for bit in range(max(1, base) - base, min(n, j + r) - base + 1):
        free = (states & (1 << bit)) == 0
        src = (free if bit == 0 else free & odd).nonzero()[0]
        sources.append(src.astype(np.int32))
        targets.append(((states[src] | (1 << bit)) >> 1) | top)
    # Sort and drop neighbour repeats (np.unique would import numpy.ma).
    merged = np.concatenate(targets)
    merged.sort()
    keep = np.ones(merged.size, dtype=bool)
    keep[1:] = merged[1:] != merged[:-1]
    nxt = merged[keep]
    del merged, keep
    # int32 indices and dropping each choice's masks once it is ranked
    # keep the peak memory near 17 bytes per move with uint32 masks (26
    # with uint64).
    moves = []
    for i, src in enumerate(sources):
        moves.append((src, nxt.searchsorted(targets[i]).astype(np.int32)))
        targets[i] = None
    return nxt, moves


# The moduli are the integers in [2^RESIDUE_BITS - S, 2^RESIDUE_BITS)
# that no prime below S divides, largest first.  Two of them differ by
# less than S, so a prime dividing both is below S, and the sieve removed
# every multiple of those: they are pairwise coprime with no primality
# test.  S starts at SIEVE_SPAN, whose window holds 6,179 moduli, and
# grows fourfold for a bound that needs more.
SIEVE_SPAN = 1 << 17


@functools.cache
def _coprime_window(span: int) -> list[int]:
    """The integers in [2^RESIDUE_BITS - span, 2^RESIDUE_BITS) that no
    prime below ``span`` divides, largest first."""
    prime = np.ones(span, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(span) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    base = (1 << RESIDUE_BITS) - span
    keep = np.ones(span, dtype=bool)
    for p in np.flatnonzero(prime).tolist():
        keep[-base % p :: p] = False
    return (base + np.flatnonzero(keep)[::-1]).tolist()


def _moduli(bound: int) -> list[int]:
    """The shortest prefix of the smallest window's moduli whose product
    exceeds ``bound``."""
    span = SIEVE_SPAN
    while True:
        window, product = _coprime_window(span), 1
        for k, m in enumerate(window, 1):
            product *= m
            if product > bound:
                return window[:k]
        span *= 4


def _moduli_bound(spec: BallSpec) -> int:
    """A power of two above the permanent: Bregman's bound, the paper's
    Phi1, rounded up to a whole bit plus one bit.  The added bit keeps the
    power above Bregman's bound while Phi1's float sum errs by less than
    a bit.  At the residue DP's r <= 31 that sum takes a few hundred
    roundings, a relative error below 1e-13, or 5e-6 bits of the 4.6e7
    at (10^7, 31); against 60-digit decimal sums it was within 1.5e-8
    bits at every r <= 31, on n <= 129 and five n up to 10^7."""
    return 1 << math.ceil(finite_bound("Phi1", spec).bits) + 1


_BACKENDS = {
    BACKEND_CLOSED: ball_size_closed_form,
    BACKEND_DP: ball_size_band_dp,
    BACKEND_MODULAR: ball_size_modular_dp,
    BACKEND_RYSER: ball_size_ryser,
    BACKEND_ENUMERATE: ball_size_enumerate,
}


def applicable_backends(spec: BallSpec) -> list[str]:
    """The admitted backends in the dispatcher's order: the closed form,
    the faster band DP first, Ryser and enumeration."""
    n, r = spec.n, spec.r
    # Where both are admitted and the closed form is not, band-dp is the
    # faster at r <= 2 and at r = 3 up to n = 43, at n = 45 (the half
    # sweep's cost steps every other n) and from n = 9,400 (the residue
    # DP's moduli grow with n).  modular-dp is the faster elsewhere.
    band_first = r < 3 or (r == 3 and (n <= 43 or n == 45 or n >= 9_400))
    caps = {BACKEND_DP: BAND_DP_MAX_N, BACKEND_MODULAR: MODULAR_DP_MAX_N}
    dps = list(caps) if band_first else list(reversed(caps))
    admitted = {
        BACKEND_CLOSED: _closed_form_holds(spec)
        and (r == 0 or (n - r - 1 <= CLOSED_MAX_M and n <= FACTORIAL_MAX_N)),
        **{dp: r < len(caps[dp]) and n <= caps[dp][r] for dp in dps},
        BACKEND_RYSER: n <= RYSER_MAX_N,
        BACKEND_ENUMERATE: n <= ENUMERATE_MAX_N,
    }
    return [name for name, ok in admitted.items() if ok]


def ball_size_exact_detailed(
    spec: BallSpec,
    *,
    verify: bool = False,
    cache: "ResultCache | None" = None,
    backends: Sequence[str] | None = None,
) -> ExactResult:
    """Exact |B_{r,n}| with the backend that produced it.

    Normal mode returns the cached count or runs the first applicable
    backend; verification mode runs every applicable backend and the cache
    record, and raises VerificationError on any disagreement.
    ``backends`` restricts the candidates (``()`` reads only the cache).
    """
    if backends is not None:
        unknown = [b for b in backends if b not in _BACKENDS]
        if unknown:
            raise ValidationError(
                f"unknown backends {unknown}; expected {list(_BACKENDS)}"
            )
    record = cache.get(spec) if cache is not None else None
    if record is not None and not verify:
        return ExactResult("cache", digits=record.exact_count)
    candidates = [
        b for b in applicable_backends(spec) if backends is None or b in backends
    ]
    if not candidates:
        raise CapacityError(
            f"no exact backend can handle n={spec.n}, r={spec.r} "
            f"within the work budget of {EXACT_MAX_SECONDS:g} s"
        )
    run = candidates if verify else candidates[:1]
    results = {b: _BACKENDS[b](spec) for b in run}
    if record is not None:
        results["cache"] = parse_count(record.exact_count)
    distinct = set(results.values())
    if len(distinct) != 1:
        shown = ", ".join(f"{b!r}: {count_text(v)}" for b, v in results.items())
        raise VerificationError(
            f"backend disagreement at n={spec.n}, r={spec.r}: {{{shown}}}"
        )
    value = distinct.pop()
    digits = None
    if cache is not None and record is None:
        digits = cache.put(spec, value, candidates[0]).exact_count
    return ExactResult("+".join(sorted(results)), value, digits)


def ball_size_exact(
    spec: BallSpec,
    *,
    verify: bool = False,
    cache: "ResultCache | None" = None,
) -> int:
    return ball_size_exact_detailed(spec, verify=verify, cache=cache).value
