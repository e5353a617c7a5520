"""Exact sizes, bounds, and gap curves for balls of permutations under the
infinity metric, via permanents of banded Toeplitz matrices."""

__version__ = "1.0.0"

from .asym import crossover_xi, exponent, gap, gap_curve_table
from .bounds import (
    BoundValue,
    bethe_bound,
    finite_bound,
    vdw_sinkhorn_bound,
)
from .core import (
    BallSpec,
    BandMatrix,
    parse_rho,
    radius_from_rho,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    PermballError,
    ValidationError,
    VerificationError,
)
from .oracle import (
    ball_size_band_dp,
    ball_size_enumerate,
    ball_size_exact,
    ball_size_ryser,
)
from .qmat import (
    ScalingVectors,
    StochasticMatrix,
    q_first_class,
    q_second_high,
    q_second_low,
    sinkhorn_balance,
)
from .rates import RatePoint, covering_rate_upper, ecc_rate_upper, rate_table
from .scalar import (
    alpha_high_root,
    alpha_low_root,
    binary_entropy,
    lambert_w,
    log2_factorial,
    mu_star,
    sr_sums,
    t_hat,
)

__all__ = [
    # asym
    "crossover_xi", "exponent", "gap", "gap_curve_table",
    # bounds
    "BoundValue", "bethe_bound", "finite_bound", "vdw_sinkhorn_bound",
    # core
    "BallSpec", "BandMatrix", "parse_rho", "radius_from_rho",
    # errors
    "CapacityError", "ConvergenceError", "DomainError",
    "PermballError", "ValidationError", "VerificationError",
    # oracle
    "ball_size_band_dp", "ball_size_enumerate", "ball_size_exact", "ball_size_ryser",
    # qmat
    "ScalingVectors", "StochasticMatrix", "q_first_class", "q_second_high",
    "q_second_low", "sinkhorn_balance",
    # rates
    "RatePoint", "covering_rate_upper", "ecc_rate_upper", "rate_table",
    # scalar
    "alpha_high_root", "alpha_low_root", "binary_entropy", "lambert_w",
    "log2_factorial", "mu_star", "sr_sums", "t_hat",
]
