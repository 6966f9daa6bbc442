"""Double-exponential Ornstein-Uhlenbeck process: exact simulation, ergodic
moment calibration, and delta-method uncertainty."""

from .errors import (
    DiscriminantNonpositive,
    DiscriminantOverflow,
    EstimationError,
    MomentOverflow,
    NonPositiveAutocov,
    NonPositiveRate,
    NonPositiveTheta,
    NonPositiveVariance,
    NoRoot,
    SingularJacobian,
)
from .model import (
    ModelParams,
    Moments,
    analytic_moments,
    h_map,
    jacobian_h,
    jacobian_tilde_h,
    joint_char_fn,
    model_long_run_cov,
    observable_autocov,
    stationary_char_fn,
    stationary_cumulants,
    tilde_h_map,
)
from .simulate import (
    SamplePath,
    default_burn_in,
    draw_transition_jump_sum,
    make_rng,
    simulate_path,
)
from .estimate import (
    EstimationResult,
    FVector,
    compute_f,
    empirical_moments,
    estimate_all,
    estimate_from_moments,
    estimate_theta,
    recover_rho_xi,
    solve_p,
)
from .asymptotics import (
    ConfidenceIntervals,
    CovarianceEstimate,
    confidence_intervals,
    covariance_estimate,
    long_run_cov,
    observable_series,
    sigma_matrix,
)
from .pathio import read_path_csv, write_metadata, write_path_csv

__version__ = "0.1.0"
