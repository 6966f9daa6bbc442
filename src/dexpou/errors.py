"""Typed failures of the calibration pipeline.

Every exception names the inequality or condition that failed and carries a
``stage`` label so callers (and the CLI) can report where the pipeline broke.
These are estimation-stage errors; plain input-contract violations (bad
lengths, out-of-range arguments) raise ``ValueError`` as usual.
"""

from __future__ import annotations


class EstimationError(Exception):
    """Base class for estimation-stage failures."""

    stage = "estimate"


class NonPositiveVariance(EstimationError):
    """mu2 - mu1^2 <= 0: no variation in the observed path."""

    stage = "theta"


class NonPositiveAutocov(EstimationError):
    """mu4 - mu1^2 <= 0: lag-h autocovariance not positive (signal too weak
    or observation spacing too large)."""

    stage = "theta"


class MomentOverflow(EstimationError):
    """A moment mu1..mu4 is not finite, or mu1^2 exceeds float64's range:
    the path's values are too large for the moment equations (a sum
    overflowed to inf, or infinities of both signs gave nan), or the path
    holds a non-finite value."""

    stage = "theta"


class NonPositiveTheta(EstimationError):
    """Variance ratio <= 1, i.e. theta estimate <= 0: sampling noise
    dominates mean reversion. Reported, never clamped."""

    stage = "theta"


class DiscriminantNonpositive(EstimationError):
    """f2 - f1^2 <= 0: the root equation's discriminant is not positive."""

    stage = "f"


class DiscriminantOverflow(EstimationError):
    """f1^2 = (theta mu1)^2 exceeds float64's range: theta (about 1/h) or
    the path's values are too large."""

    stage = "f"


class NoRoot(EstimationError):
    """The root p of g lies outside [1e-6, 1 - 1e-6], the estimator's
    domain (model misfit or too-small sample), or cannot be formed because
    (f2 - f1^2)^{3/2} underflows (the path's values are too small)."""

    stage = "solve_p"


class NonPositiveRate(EstimationError):
    """Recovered rho or xi is not strictly positive: at the root this
    happens exactly when f1 f3 >= f2^2 (the two atoms share a sign)."""

    stage = "recover"


class SingularJacobian(EstimationError):
    """Parameter Jacobian too ill-conditioned to invert."""

    stage = "sigma"

    def __init__(self, condition_number):
        self.condition_number = float(condition_number)
        super().__init__(
            f"parameter Jacobian condition number {self.condition_number:.3e} "
            "exceeds 1e12"
        )
