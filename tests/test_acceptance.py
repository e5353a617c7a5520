"""Acceptance suite: every headline property at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to watch them stream).
The checks are shared with the `permball verify --level full` command.
"""

from permball import verify


def report(result: verify.CheckResult):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.name}  [{result.seconds:.2f}s]  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_01_oracle_agreement():
    # Exact integer equality of all counting backends for n <= 8, all radii.
    result = verify.check_oracle_agreement(max_n=8)
    assert result.seconds < 60
    report(result)


def test_criterion_02_sandwich_property():
    # Every valid lower family <= log2(exact) <= the factorial-product
    # upper family for n <= 10, with the binomial-sum family strict.
    report(verify.check_sandwich())


def test_criterion_03_double_stochasticity():
    # First class: exact rational sums for every n <= 200 over a radius
    # battery spanning both regimes; second class within 1e-9; support
    # equality everywhere.
    result = verify.check_double_stochasticity(max_n=200)
    assert result.seconds < 60
    report(result)


def test_criterion_04a_sinkhorn_fixed_points_high_range():
    # Balancing the band matrix reproduces the separable construction to
    # 1e-6 at (4,2), (6,4), (8,5), (10,7).
    report(verify.check_sinkhorn_fixed_points_high())


def test_criterion_04b_sinkhorn_fixed_points_low_boundary():
    # As stated, the balanced band matrix at n even, r=(n-2)/2 should match
    # the corner-block construction at (6,2), (8,3), (10,4) within 1e-6.
    # It provably does not: the balanced limit must be separable (d_i*d_j
    # on the band), the corner-block family is not, and the measured
    # deviation is 1e-2 scale.  Kept as stated; the matrix the balancing
    # actually converges to is pinned to 1e-9 by
    # tests/test_qmat.py::TestSinkhorn::test_even_boundary_fixed_point_is_v_shaped_geometric.
    # The benchmark (perfbench/workloads.py, VERIFY_CHECKS) records this
    # check as failing, so restating it changes the benchmark's references.
    report(verify.check_sinkhorn_fixed_points_low_boundary())


def test_criterion_05_closed_constants():
    # mu* = 0.782 +- 1e-3, xi = 0.249 +- 1e-3, the flat gap value
    # 0.02854 +- 1e-4 with grid max <= 0.029, and the two spot gaps at
    # rho = 1/2 to 1e-9.
    report(verify.check_closed_constants())


def test_criterion_06_finite_to_asymptotic_convergence():
    # |(n log2 n - bits)/n - E(rho)| non-increasing over n in {1e2,1e3,1e4}
    # and <= 0.02 at n = 1e4, for the four closed families at
    # rho in {1/4, 1/2, 3/4}.
    result = verify.check_convergence()
    assert result.seconds < 300
    report(result)


def test_criterion_07_bound_identities():
    # Closed forms equal the generic entropy functional to 1e-9, and the
    # five-block decomposition of the low-range entropy sum matches direct
    # region summation to 1e-9 at (8,2), (12,3), (20,6).
    report(verify.check_bound_identities())


def test_criterion_08_root_quality():
    # Residuals <= 1e-12 * max(1, leading power); r*(alpha_r - 1) within
    # 0.01 of ln 2 at r=1000; the limit constant solves its root equation
    # to 1e-9 at rho in {0.6, 0.75, 0.9}.
    report(verify.check_root_quality())


def test_criterion_09_rate_improvements():
    # New rate bounds below old ones pointwise on the 99-point grids;
    # largest covering gain at rho = 0.5, largest packing gain at delta = 1.
    report(verify.check_rate_improvements())


def test_criterion_10_bethe_vdw_trend():
    # Per-symbol difference of the two generic lower bounds with the
    # separable Q decreasing over n in {20, 40, 80} at rho = 0.75.
    report(verify.check_bethe_vdw_agreement())
