"""Counting backends against each other and against closed boundaries."""

import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from permball import oracle
from permball.bounds import finite_bound
from permball.core import BallSpec
from permball.errors import CapacityError, ValidationError, VerificationError
from permball.oracle import (
    applicable_backends,
    ball_size_band_dp,
    ball_size_closed_form,
    ball_size_enumerate,
    ball_size_exact,
    ball_size_exact_detailed,
    ball_size_modular_dp,
    ball_size_ryser,
)


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@functools.cache
def primorial(below):
    """The product of the primes below ``below``."""
    sieve = bytearray([1]) * below
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(below) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, below, p)))
    factors = [p for p in range(below) if sieve[p]]
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def closed_domain(n, r):
    """The cells the closed form counts: r = 0, or n <= 2r+2."""
    return r == 0 or n <= 2 * r + 2


def reference_counts():
    path = Path(__file__).parents[1] / "perfbench/references/exact_counts.json"
    return {
        BallSpec(*map(int, key.split(","))): int(count)
        for key, count in json.loads(path.read_text())["counts"].items()
    }


class TestClosedForm:
    def test_examples(self):
        assert ball_size_closed_form(BallSpec(1, 0)) == 1
        assert ball_size_closed_form(BallSpec(400, 0)) == 1
        assert ball_size_closed_form(BallSpec(4, 1)) == 5
        assert ball_size_closed_form(BallSpec(4, 2)) == 14
        assert ball_size_closed_form(BallSpec(9, 8)) == math.factorial(9)

    def test_equals_ryser_and_the_band_dp_up_to_n14(self):
        for n in range(1, 15):
            for r in range(n):
                if closed_domain(n, r):
                    spec = BallSpec(n, r)
                    count = ball_size_closed_form(spec)
                    assert count == ball_size_band_dp(spec), spec
                    assert count == ball_size_ryser(spec), spec

    def test_equals_the_rook_sum_over_both_staircases(self):
        # Kaplansky and Riordan's form: sum_k (-1)^k h_k (n-k)!, h the
        # convolution of s_k = S(m+1, m+1-k) with itself, the Stirling
        # numbers here from their explicit sum.
        def stirling(j, i):
            total = sum((-1) ** (i - t) * math.comb(i, t) * t**j for t in range(i + 1))
            return total // math.factorial(i)

        for n in range(2, 61):
            for r in range(1, n):
                if not closed_domain(n, r):
                    continue
                m = n - r - 1
                s = [stirling(m + 1, m + 1 - k) for k in range(m + 1)]
                h = [
                    sum(s[i] * s[k - i] for i in range(max(0, k - m), min(k, m) + 1))
                    for k in range(2 * m + 1)
                ]
                expected = sum(
                    (-1) ** k * h[k] * math.factorial(n - k) for k in range(2 * m + 1)
                )
                assert ball_size_closed_form(BallSpec(n, r)) == expected, (n, r)

    def test_equals_every_reference_count_in_its_domain(self):
        counts = {
            spec: count
            for spec, count in reference_counts().items()
            if closed_domain(spec.n, spec.r)
        }
        assert len(counts) > 400
        for spec, count in counts.items():
            assert ball_size_closed_form(spec) == count, spec

    def test_refuses_cells_outside_its_domain(self):
        with pytest.raises(ValidationError, match=r"n <= 2r\+2"):
            ball_size_closed_form(BallSpec(7, 2))

    def test_admits_the_corners_of_its_caps(self):
        # The factorial's own edge, r = n-1, is TestWorkBudget's.
        m, last = oracle.CLOSED_MAX_M, oracle.FACTORIAL_MAX_N
        for n, r in ((2 * m, m - 1), (last, last - 1 - m)):
            assert applicable_backends(BallSpec(n, r))[0] == "closed-form", (n, r)
        assert "closed-form" not in applicable_backends(BallSpec(2 * m + 2, m))

    def test_refuses_one_row_past_its_m_cap_at_once(self):
        n = oracle.FACTORIAL_MAX_N
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="work budget"):
            ball_size_exact(BallSpec(n, n - 2 - oracle.CLOSED_MAX_M))
        assert time.perf_counter() - start < 1.0


class TestEnumerate:
    def test_examples(self):
        assert ball_size_enumerate(BallSpec(3, 1)) == 3
        assert ball_size_enumerate(BallSpec(4, 3)) == 24
        assert ball_size_enumerate(BallSpec(5, 0)) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_one_pass_over_all_permutations(self, n):
        # An independent reference: a permutation lies in the ball of
        # radius r exactly when max |p(i) - i| <= r.
        by_distance = [0] * n
        for p in itertools.permutations(range(n)):
            by_distance[max(abs(row - i) for i, row in enumerate(p))] += 1
        counts = [ball_size_enumerate(BallSpec(n, r)) for r in range(n)]
        assert counts == list(itertools.accumulate(by_distance))

    @pytest.mark.parametrize("n", range(9, oracle.ENUMERATE_MAX_N + 1))
    def test_matches_the_band_dp_up_to_its_cap(self, n):
        # Past the permutation pass, every radius the dispatcher admits it at.
        for r in range(n):
            spec = BallSpec(n, r)
            assert ball_size_enumerate(spec) == ball_size_band_dp(spec), spec


class TestRyser:
    def test_all_ones_and_identity(self):
        # The bands of radius n-1 and 0.
        assert ball_size_ryser(BallSpec(3, 2)) == 6
        assert ball_size_ryser(BallSpec(3, 0)) == 1

    def test_band_example(self):
        assert ball_size_ryser(BallSpec(4, 1)) == 5


class TestBandDP:
    def test_examples(self):
        assert ball_size_band_dp(BallSpec(4, 2)) == 14
        assert ball_size_band_dp(BallSpec(6, 1)) == 13
        assert ball_size_band_dp(BallSpec(5, 2)) == ball_size_enumerate(BallSpec(5, 2)) == 31

    def test_r1_is_fibonacci(self):
        for n in (1, 2, 3, 4, 5, 6, 50, 100):
            assert ball_size_band_dp(BallSpec(n, 1 if n > 1 else 0)) == (
                fibonacci(n + 1) if n > 1 else 1
            )

    def test_r2_follows_its_linear_recurrence(self):
        # a(n) = 2a(n-1) + 2a(n-3) - a(n-5) for r = 2 (OEIS A002524; Kløve,
        # Univ. Bergen report 376, 2008): an independent reference at large n.
        a = [None] + [
            ball_size_band_dp(BallSpec(n, min(2, n - 1))) for n in range(1, 201)
        ]
        for n in range(6, 201):
            assert a[n] == 2 * a[n - 1] + 2 * a[n - 3] - a[n - 5]

    def test_pinned_count_at_n64_r3(self):
        assert ball_size_band_dp(BallSpec(64, 3)) == 3432242028000180842764778779397


class TestModularDP:
    def test_r1_is_fibonacci_up_to_300(self):
        for n in range(2, 301):
            assert ball_size_modular_dp(BallSpec(n, 1)) == fibonacci(n + 1), n

    def test_r2_follows_its_linear_recurrence_up_to_200(self):
        a = [None] + [
            ball_size_modular_dp(BallSpec(n, min(2, n - 1))) for n in range(1, 201)
        ]
        for n in range(6, 201):
            assert a[n] == 2 * a[n - 1] + 2 * a[n - 3] - a[n - 5]

    def test_pinned_count_at_n64_r3(self):
        assert ball_size_modular_dp(BallSpec(64, 3)) == 3432242028000180842764778779397

    def test_equals_the_dict_dp_on_every_small_cell(self):
        # Every r up to n = 16, which holds both parities of n and windows
        # with 2r+1 > n, so virtual rows on both sides of the middle; r <= 6
        # up to n = 18 and r <= 5 up to n = 25, which the dict DP counts in
        # about 20 ms each.
        for n in range(1, 26):
            for r in range(n if n <= 16 else 7 if n <= 18 else 6):
                spec = BallSpec(n, r)
                assert ball_size_modular_dp(spec) == ball_size_band_dp(spec), (n, r)

    @pytest.mark.parametrize("n", range(3, 19))
    def test_wide_windows_match_inclusion_exclusion(self, n):
        # r = n-1 is every permutation; r = n-2 excludes p(1) = n and
        # p(n) = 1: n! - 2(n-1)! + (n-2)!.
        f = math.factorial
        assert ball_size_modular_dp(BallSpec(n, n - 1)) == f(n)
        wide = f(n) - 2 * f(n - 1) + f(n - 2)
        assert ball_size_modular_dp(BallSpec(n, n - 2)) == wide

    @pytest.mark.parametrize("n, r", [(40, 8), (30, 9)])
    def test_equals_the_dict_dp_on_wide_windows(self, n, r):
        spec = BallSpec(n, r)
        assert ball_size_modular_dp(spec) == ball_size_band_dp(spec)

    @pytest.mark.parametrize("spec", [BallSpec(100, 5), BallSpec(7, 6), BallSpec(1, 0)])
    def test_moduli_cover_the_degree_product(self, spec):
        # Bregman's product over the row degrees d of (d!)^(1/d), rounded up
        # to a power of two.
        bound = oracle._moduli_bound(spec)
        moduli = oracle._moduli(bound)
        assert math.prod(moduli) > bound >= ball_size_modular_dp(spec)
        assert math.prod(moduli[:-1]) <= bound
        assert all(0 < m < 1 << oracle.RESIDUE_BITS for m in moduli)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))

    @staticmethod
    def greedy_moduli(bound):
        # The largest integers coprime to the ones already taken.
        moduli, product, m = [], 1, (1 << oracle.RESIDUE_BITS) - 1
        while product <= bound:
            if all(math.gcd(m, q) == 1 for q in moduli):
                moduli.append(m)
                product *= m
            m -= 1
        return moduli

    @staticmethod
    def check_moduli(bound, moduli, span=oracle.SIEVE_SPAN):
        # Within span of 2^56 and free of the primes below span, so two of
        # them differ by less than span and share no prime: pairwise coprime.
        top = 1 << oracle.RESIDUE_BITS
        assert moduli == sorted(set(moduli), reverse=True)
        assert top - span <= moduli[-1] and moduli[0] < top
        assert math.gcd(math.prod(moduli), primorial(span)) == 1
        assert math.prod(moduli) > bound >= math.prod(moduli[:-1])

    def test_moduli_are_sieved_coprime_and_no_more_than_greedy_ones(self):
        cells = [(n, r) for n in range(1, 121) for r in range(min(n, 40))]
        cells += [(n, r) for r, n in enumerate(oracle.MODULAR_DP_MAX_N) if r >= 4]
        for n, r in cells:
            bound = oracle._moduli_bound(BallSpec(n, r))
            moduli = oracle._moduli(bound)
            self.check_moduli(bound, moduli)
            assert len(moduli) <= len(self.greedy_moduli(bound)), (n, r)

    @pytest.mark.parametrize(
        "n, r, k",
        [
            (93000, 1, 1431), (93050, 1, 1432), (52148, 2, 1287), (29146, 3, 915),
            (14363, 4, 527), (1320, 7, 64), (100, 7, 5), (22, 13, 2),
        ],
    )
    def test_modulus_count_at_the_frontier(self, n, r, k):
        bound = oracle._moduli_bound(BallSpec(n, r))
        moduli = oracle._moduli(bound)
        assert len(moduli) == k
        self.check_moduli(bound, moduli)

    def test_moduli_continue_past_the_first_sieve_window(self):
        # The first window holds 6,179 moduli; (500000, 1) needs 7,694, from
        # the window four times as wide.
        assert len(oracle._coprime_window(oracle.SIEVE_SPAN)) == 6179
        bound = oracle._moduli_bound(BallSpec(500000, 1))
        moduli = oracle._moduli(bound)
        assert len(moduli) == 7694
        self.check_moduli(bound, moduli, 4 * oracle.SIEVE_SPAN)

    def test_an_interrupted_first_call_caches_nothing(self, monkeypatch):
        bound = oracle._moduli_bound(BallSpec(300, 5))
        expected = oracle._moduli(bound)
        sieve, calls = oracle._coprime_window.__wrapped__, []

        def interrupted(span):
            calls.append(span)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return sieve(span)

        fresh = functools.cache(interrupted)
        monkeypatch.setattr(oracle, "_coprime_window", fresh)
        with pytest.raises(KeyboardInterrupt):
            oracle._moduli(bound)
        assert fresh.cache_info().currsize == 0
        assert oracle._moduli(bound) == expected
        # The second call kept its window, which a third call reads.
        assert oracle._moduli(bound) == expected
        assert calls == [oracle.SIEVE_SPAN] * 2

    def test_moduli_multiply_past_phi1_plus_one_bit(self):
        # Bregman's bound on the permanent is the paper's Phi1; the moduli
        # multiply past it with a bit to spare, and without their last one
        # stay within the power of two the bound rounds it up to.
        for n in range(1, 121):
            for r in range(min(n, 32)):
                spec = BallSpec(n, r)
                phi1 = finite_bound("Phi1", spec).bits
                moduli = oracle._moduli(oracle._moduli_bound(spec))
                assert math.log2(math.prod(moduli)) > phi1 + 1, (n, r)
                assert math.prod(moduli[:-1]) <= 1 << math.ceil(phi1) + 1, (n, r)

    def test_moduli_exceed_every_reference_count(self):
        counts = reference_counts()
        counts.update((BallSpec(n, n - 1), math.factorial(n)) for n in range(1, 61))
        for spec, count in counts.items():
            bound = oracle._moduli_bound(spec)
            moduli = oracle._moduli(bound)
            assert math.prod(moduli) > count, spec
            assert math.prod(moduli[:-1]) <= bound, spec

    @pytest.mark.parametrize("n, r", [(60, 6), (12, 2), (9, 4), (6, 3)])
    def test_builds_the_bulk_map_once_per_call(self, monkeypatch, n, r):
        built = []
        real = oracle._modular_column

        def counting(states, n, r, j):
            built.append(j)
            return real(states, n, r, j)

        monkeypatch.setattr(oracle, "_modular_column", counting)
        ball_size_modular_dp(BallSpec(n, r))
        # Only the columns up to the middle are swept.
        bulk = range(r + 1, n - r)
        assert built == [j for j in range(1, (n + 1) // 2 + 1) if j not in bulk[1:]]

    def test_bulk_state_set_is_closed(self):
        # Every r-subset of the lower 2r window bits, mapped onto itself.
        n, r = 30, 4
        states = np.array([(1 << r) - 1], dtype=np.uint64)
        for j in range(1, r + 1):
            states, _ = oracle._modular_column(states, n, r, j)
        subsets = sorted(
            sum(1 << b for b in bits) for bits in itertools.combinations(range(2 * r), r)
        )
        assert states.tolist() == subsets
        assert oracle._modular_column(states, n, r, r + 1)[0].tolist() == subsets

    def test_imports_no_masked_arrays(self):
        script = (
            "import sys; from permball.core import BallSpec; "
            "from permball.oracle import ball_size_modular_dp; "
            "ball_size_modular_dp(BallSpec(30, 5)); "
            "assert 'numpy.ma' not in sys.modules"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    @pytest.mark.parametrize("n, r", [(17, 15), (19, 16)])
    def test_equals_the_dict_dp_on_both_mask_widths(self, n, r):
        # 31-bit masks are held as uint32, 33-bit masks as uint64.
        spec = BallSpec(n, r)
        assert ball_size_modular_dp(spec) == ball_size_band_dp(spec)

    def test_traced_peak_memory_at_n17_r13(self):
        tracemalloc.start()
        try:
            ball_size_modular_dp(BallSpec(17, 13))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    # The peaks of the fancy-indexed sweep with the Python-integer join,
    # 1.71 and 1.17 MiB, plus 5%: the row gathers and the limb join's
    # chunked temporaries stay within them.
    @pytest.mark.parametrize("n, r, bound", [(16, 13, 1_883_000), (100, 7, 1_288_000)])
    def test_traced_peak_memory(self, n, r, bound):
        tracemalloc.start()
        try:
            ball_size_modular_dp(BallSpec(n, r))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_join_sums_limb_products_exactly(self):
        # Residues just under 2^56 and spread over [0, 2^56), over more
        # rows than one int64 block of JOIN_TERMS products holds.
        rng = np.random.default_rng(2)
        top = 1 << oracle.RESIDUE_BITS
        for low in (top - (1 << 20), 0):
            left = rng.integers(low, top, size=(1000, 3), dtype=np.int64)
            right = rng.integers(low, top, size=(1000, 3), dtype=np.int64)
            expected = [
                sum(a * b for a, b in zip(left[:, i].tolist(), right[:, i].tolist()))
                for i in range(3)
            ]
            assert oracle._residue_dot(left.copy(), right.copy()) == expected

    def test_refuses_masks_wider_than_64_bits(self):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="65-bit state masks"):
            ball_size_modular_dp(BallSpec(40, 32))
        assert time.perf_counter() - start < 0.1

    def test_matches_the_column_sweep(self):
        # At every cell 2 <= n <= 20, 1 <= r <= n-2, the states after column
        # j choose which min(j, r) of the window rows max(1, j-r+1)..
        # min(n, j+r) are matched (every row below is).
        for n in range(2, 21):
            for r in range(1, n - 1):
                states = np.array([(1 << r) - 1], dtype=np.uint64)
                for j in range(1, n + 1):
                    states, _ = oracle._modular_column(states, n, r, j)
                    window = min(n, j + r) - max(1, j - r + 1) + 1
                    assert states.size == math.comb(window, min(j, r)), (n, r, j)


class TestFrontierTables:
    def test_r1_frontier_admits_band_dp_alone(self):
        assert oracle.applicable_backends(BallSpec(250000, 1)) == ["band-dp"]
        assert oracle.applicable_backends(BallSpec(300000, 1)) == []

    def test_readme_prints_the_frontier_tables(self):
        # The second column of the README's backend table: each band DP's
        # largest n by r, "r = 0..R: A; B; ...", and the caps on n that
        # admit the other backends.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| ([a-z-]+) +\| ([^|]+)\|", readme, re.M))
        tables = {}
        for name in oracle._BACKENDS:
            printed = re.findall(r"r = 0\.\.(\d+): ([\d,; ]+)", rows[name])
            for last, values in printed:
                entries = [int(v.replace(",", "")) for v in values.split(";")]
                assert len(entries) == int(last) + 1, name
                tables[name] = tuple(entries)
        assert tables == {
            "band-dp": oracle.BAND_DP_MAX_N,
            "modular-dp": oracle.MODULAR_DP_MAX_N,
        }
        caps = {
            name: re.findall(r"n <= ([\d,]+)\b", rows[name])
            for name in ("closed-form", "ryser", "enumerate")
        }
        assert caps == {
            "closed-form": [f"{oracle.FACTORIAL_MAX_N:,}"],
            "ryser": [f"{oracle.RYSER_MAX_N:,}"],
            "enumerate": [f"{oracle.ENUMERATE_MAX_N:,}"],
        }
        m_cap = re.findall(r"n-r-1 <= ([\d,]+)", rows["closed-form"])
        assert m_cap == [f"{oracle.CLOSED_MAX_M:,}"]

    def test_readme_states_the_admission_frontier(self):
        # The README's modular-dp row states where it is admitted: "every r
        # at n <= A" and "r <= R at n = A..B" (or "at n = A").  Both DP rows
        # state "r = R to n = B" for r = 1..4, "n = " written only in the
        # first.  Each edge must hold on both sides.
        def admitted(n, r, name="modular-dp"):
            return name in applicable_backends(BallSpec(n, r))

        def number(text):
            return int(text.replace(",", ""))

        def admitted_column(name):
            return re.search(rf"^\| {name} +\|[^|]+\|([^|]+)\|", readme, re.M)[1]

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        row = admitted_column("modular-dp")
        value = r"(\d[\d,]*\d|\d)"
        (every,) = re.findall(rf"every r at n <= {value}", row)
        a = number(every)
        assert all(admitted(a, r) for r in range(a))
        assert not all(admitted(a + 1, r) for r in range(a + 1))
        bands = re.findall(rf"r <= (\d+) at n = {value}(?:\.\.{value})?", row)
        assert bands
        for radius, first, last in bands:
            r, a, b = int(radius), number(first), number(last or first)
            assert admitted(a, r) and admitted(b, r), (a, b, r)
            assert not admitted(a, r + 1) and not admitted(b, r + 1), (a, b, r)
        for name in ("band-dp", "modular-dp"):
            column = admitted_column(name)
            reaches = re.findall(rf"r = (\d+) to (?:n = )?{value}", column)
            assert sorted(int(radius) for radius, _ in reaches) == [1, 2, 3, 4], name
            for radius, last in reaches:
                r, b = int(radius), number(last)
                assert admitted(b, r, name), (name, b, r)
                assert not admitted(b + 1, r, name), (name, b, r)


class TestBackendAgreement:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_backends_all_radii(self, n):
        # Every backend in the dispatcher's table, inside the work budget
        # or not; the closed form only where it holds, at r = 0 and n <= 2r+2.
        ran = set()
        for r in range(n):
            spec = BallSpec(n, r)
            expected = ball_size_enumerate(spec)
            for name, count in oracle._BACKENDS.items():
                if name != oracle.BACKEND_CLOSED or closed_domain(n, r):
                    assert count(spec) == expected, (name, spec)
                    ran.add(name)
        assert ran == set(oracle._BACKENDS)


class TestInvariants:
    @pytest.mark.parametrize("n", [2, 4, 6, 9, 30])
    def test_strict_monotonicity_in_radius(self, n):
        previous = None
        for r in range(min(n, 8)):
            value = ball_size_exact(BallSpec(n, r))
            if previous is not None:
                assert value > previous
            previous = value

    @pytest.mark.parametrize("n", [1, 3, 5, 8, 20])
    def test_boundaries(self, n):
        assert ball_size_exact(BallSpec(n, 0)) == 1
        if n > 1:
            assert ball_size_exact(BallSpec(n, n - 1)) == math.factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_center_independence(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        for r in range(n):
            counts = set()
            for center in perms:
                counts.add(
                    sum(
                        1
                        for g in perms
                        if max(abs(a - b) for a, b in zip(center, g)) <= r
                    )
                )
            assert len(counts) == 1
            assert counts.pop() == ball_size_exact(BallSpec(n, r))

    def test_value_within_factorial_range(self):
        for n in (3, 6, 10):
            for r in range(n):
                value = ball_size_exact(BallSpec(n, r))
                assert 1 <= value <= math.factorial(n)


class TestDispatch:
    def test_cheapest_backend_choices(self):
        assert ball_size_exact_detailed(BallSpec(8, 7)).backend == "closed-form"
        assert ball_size_exact_detailed(BallSpec(8, 7)).value == 40320
        assert ball_size_exact_detailed(BallSpec(50, 3)).backend == "modular-dp"
        assert ball_size_exact_detailed(BallSpec(25, 11)).backend == "modular-dp"
        assert ball_size_exact_detailed(BallSpec(15, 13)).backend == "closed-form"

    def test_verification_mode_runs_everything(self):
        result = ball_size_exact_detailed(BallSpec(5, 1), verify=True)
        assert result.value == 8
        assert result.backend == "band-dp+enumerate+modular-dp+ryser"
        result = ball_size_exact_detailed(BallSpec(3, 1), verify=True)
        assert result.value == 3
        assert result.backend == "band-dp+closed-form+enumerate+modular-dp+ryser"
        result = ball_size_exact_detailed(BallSpec(6, 5), verify=True)
        assert result.value == 720
        assert result.backend == "band-dp+closed-form+enumerate+modular-dp+ryser"

    def test_verification_at_n17_r13_runs_both_sweeps(self):
        # The halved residue sweep against the dict DP's full one, Ryser and
        # the closed form.
        result = ball_size_exact_detailed(BallSpec(17, 13), verify=True)
        assert result.backend == "band-dp+closed-form+modular-dp+ryser"

    def test_backend_restriction(self, tmp_path):
        from permball.cache import ResultCache

        cache = ResultCache(tmp_path)
        spec = BallSpec(5, 2)
        with pytest.raises(CapacityError):
            ball_size_exact_detailed(spec, cache=cache, backends=())
        result = ball_size_exact_detailed(spec, cache=cache, backends=("enumerate",))
        assert (result.value, result.backend) == (31, "enumerate")
        result = ball_size_exact_detailed(spec, cache=cache, backends=())
        assert (result.value, result.backend) == (31, "cache")
        with pytest.raises(ValidationError, match="unknown backends"):
            ball_size_exact_detailed(spec, backends=("band-dp", "gpu"))

    def test_cached_text_reads_as_the_count(self, tmp_path):
        import dataclasses
        import json

        from permball.cache import ResultCache

        cache = ResultCache(tmp_path)
        spec = BallSpec(5, 2)
        cold = ball_size_exact_detailed(spec, cache=cache)
        assert (cold.value, cold.text) == (31, "31")
        # A record that pads its digits still prints the count's digits.
        path = cache.path_for(spec)
        record = json.loads(path.read_text())
        path.write_text(json.dumps(dict(record, exact_count="0031")))
        assert cache.get(spec).exact_count == "31"
        warm = ball_size_exact_detailed(spec, cache=cache)
        assert (warm.text, warm.value, warm.backend) == ("31", 31, "cache")
        assert (warm.value, warm.text) == (cold.value, cold.text)
        # A replaced count or digits carries no stale other form.
        for moved in (
            dataclasses.replace(warm, digits="32"),
            dataclasses.replace(cold, count=32, digits=None),
            dataclasses.replace(cold, value=32),
            dataclasses.replace(warm, value=32),
        ):
            assert (moved.value, moved.text) == (32, "32")

    def test_no_backend(self):
        with pytest.raises(CapacityError):
            ball_size_exact(BallSpec(100, 40))
        assert applicable_backends(BallSpec(100, 40)) == []

    def test_cache_poisoning_detected_in_verify_mode(self, tmp_path):
        from permball.cache import ResultCache

        cache = ResultCache(tmp_path)
        spec = BallSpec(4, 2)
        cache.put(spec, 15, "band-dp")
        assert ball_size_exact(spec, cache=cache) == 15  # trusted when not verifying
        with pytest.raises(VerificationError, match="disagreement"):
            ball_size_exact(spec, verify=True, cache=cache)

    def test_misnamed_cache_record_is_rejected(self, tmp_path):
        from permball.cache import ResultCache
        from permball.verify import check_cache

        cache = ResultCache(tmp_path)
        cache.put(BallSpec(6, 2), ball_size_exact(BallSpec(6, 2)), "band-dp")
        (tmp_path / "n5_r2.json").write_text((tmp_path / "n6_r2.json").read_text())
        with pytest.raises(ValidationError, match="holds n=6, r=2"):
            ball_size_exact(BallSpec(5, 2), cache=cache)
        result = check_cache(tmp_path)
        assert not result.passed and "n5_r2.json holds n=6, r=2" in result.detail

    def test_audit_names_the_records_over_the_budget(self, tmp_path):
        from permball.cache import ResultCache
        from permball.verify import check_cache

        cache = ResultCache(tmp_path)
        over = BallSpec(100, 11)
        assert applicable_backends(over) == []
        # No backend recomputes this count within the budget, so its value
        # goes unchecked; the audit names the record instead.
        cache.put(over, 1, "modular-dp")
        cache.put(BallSpec(6, 2), ball_size_exact(BallSpec(6, 2)), "band-dp")
        result = check_cache(tmp_path)
        assert result.passed
        assert result.detail == (
            "ok; 1 record not recomputed: n=100, r=11 over the 3 s budget"
        )


def expected_first_backend(spec):
    """The fastest backend on the benchmark cells: the closed form at r = 0
    and wherever n <= 2r+2 (n = 15..17 with r >= 13 and r = n-1), the dict
    DP up to r = 2 and at r = 3 to n = 45, and the residue DP for wider
    windows."""
    if closed_domain(spec.n, spec.r):
        return "closed-form"
    if spec.r == 3:
        # The half sweep's cost steps every other n, so the two DPs
        # alternate at n = 44, 45 before the residue DP takes over.
        return "band-dp" if spec.n <= 43 or spec.n == 45 else "modular-dp"
    return "band-dp" if spec.r <= 2 else "modular-dp"


def benchmark_exact_cells():
    """Every (n, r) the exact-cold benchmark workload draws."""
    cells = {(n, r) for r in range(3, 8) for n in range(20, 101)}
    cells.update(((15, 13), (16, 13), (16, 14), (17, 13), (17, 14), (17, 15)))
    cells.update((n, 0) for n in range(2, 401))
    cells.update((n, n - 1) for n in range(4, 61))
    cells.update((n, r) for n in range(5, 13) for r in (1, 2))
    return cells


class TestWorkBudget:
    @pytest.mark.parametrize(
        "n, r", [(100, 11), (30, 12), (27, 12), (50, 22), (300000, 299999), (500, 16)]
    )
    def test_refuses_cells_over_budget_at_once(self, n, r):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="work budget"):
            ball_size_exact(BallSpec(n, r))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "name, table",
        [("band-dp", oracle.BAND_DP_MAX_N), ("modular-dp", oracle.MODULAR_DP_MAX_N)],
    )
    def test_admits_each_dp_up_to_its_table(self, name, table):
        for r, last in enumerate(table):
            assert name in applicable_backends(BallSpec(last, r)), (last, r)
            assert name not in applicable_backends(BallSpec(last + 1, r)), (last, r)
        # A radius past the end of the table is refused at its smallest n.
        r = len(table)
        assert name not in applicable_backends(BallSpec(r + 1, r))
        assert all(a >= b for a, b in zip(table, table[1:]))

    def test_keeps_the_first_backend_on_benchmark_cells(self):
        for n, r in sorted(benchmark_exact_cells()):
            spec = BallSpec(n, r)
            assert applicable_backends(spec)[0] == expected_first_backend(spec), (n, r)

    def test_admits_the_wide_windows_at_n100(self):
        assert applicable_backends(BallSpec(100, 9)) == ["modular-dp"]
        # Pinned from ball_size_band_dp, 4 s.
        result = ball_size_exact_detailed(BallSpec(100, 8))
        assert result.backend == "modular-dp"
        assert result.value == int(
            "97727225401936926746149796121773313671126300813104862172692569253"
            "7513205495880292"
        )

    def test_narrow_bands_go_to_the_residue_dp_with_the_same_count(self):
        # Where 2r+1 nears n the columns hold fewer than C(2r, r) states.
        spec = BallSpec(21, 9)
        assert applicable_backends(spec) == ["modular-dp", "band-dp"]
        assert ball_size_exact(spec) == ball_size_band_dp(spec)

    def test_refuses_the_factorial_of_300000_at_once(self):
        # n! is admitted only up to FACTORIAL_MAX_N, for its decimal digits.
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="work budget"):
            ball_size_exact(BallSpec(300000, 299999))
        assert time.perf_counter() - start < 1.0

    def test_admits_the_factorial_up_to_its_cap(self):
        cap = oracle.FACTORIAL_MAX_N
        assert applicable_backends(BallSpec(cap, cap - 1)) == ["closed-form"]
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="work budget"):
            ball_size_exact(BallSpec(cap + 1, cap))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name, last", [("ryser", 19), ("enumerate", 10)])
    def test_admits_the_cross_checks_up_to_their_caps(self, name, last):
        assert all(name in applicable_backends(BallSpec(last, r)) for r in range(last))
        assert not any(
            name in applicable_backends(BallSpec(last + 1, r)) for r in range(last + 1)
        )

    def test_r3_goes_to_the_dict_dp_from_the_crossover(self):
        # Past n = 45 the residue DP leads at r = 3 until its moduli, which
        # grow with n, make it the slower (timed: equal near n = 9,000-10,000).
        assert applicable_backends(BallSpec(9399, 3)) == ["modular-dp", "band-dp"]
        assert applicable_backends(BallSpec(9400, 3)) == ["band-dp", "modular-dp"]

    def test_runs_the_closed_form_or_a_band_dp_first(self):
        # Ryser and enumeration only cross-check, and the closed form runs
        # first wherever it is admitted, so the DP ranking decides only
        # outside its domain.  Every cell up to n = 26 is admitted; at
        # n = 27 and 28 no backend counts r = 12 in the budget (the closed
        # form holds from n <= 2r+2, the residue DP's r = 12 entry ends at
        # n = 24).
        dps = {"band-dp", "modular-dp"}
        for n in range(1, 401):
            for r in range(n):
                backends = applicable_backends(BallSpec(n, r))
                assert backends or n > 28 or (n in (27, 28) and r == 12), (n, r)
                if "closed-form" in backends:
                    assert backends[0] == "closed-form", (n, r, backends)
                else:
                    assert not backends or backends[0] in dps, (n, r, backends)

    @pytest.mark.parametrize("n", [60, 2000])
    def test_counts_the_factorial_of_small_n(self, n):
        result = ball_size_exact_detailed(BallSpec(n, n - 1))
        assert (result.value, result.backend) == (math.factorial(n), "closed-form")
