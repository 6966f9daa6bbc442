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
    """The scan found no sign change of g on (0, 1) (model misfit or
    too-small sample), or the refine of a bracket did not converge."""

    stage = "solve_p"


class MultipleRoots(EstimationError):
    """More than one sign change of g on (0, 1). All refined roots are
    attached; no root is silently chosen."""

    stage = "solve_p"

    def __init__(self, roots):
        self.roots = tuple(sorted(float(r) for r in roots))
        self.count = len(self.roots)
        super().__init__(
            f"g(p) has {self.count} roots on (0, 1): {self.roots}; "
            "refusing to choose one"
        )


class NonPositiveRate(EstimationError):
    """Recovered rho or xi is not strictly positive."""

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
