"""Exception types shared across the package."""


class DomainError(ValueError):
    """A requested quantity is mathematically undefined for the inputs
    (e.g. the tilt angle xi when |q| >= kappa)."""


class SupportRegionError(ValueError):
    """The configuration lies outside the kinematically allowed region
    (no momentum-conservation solution exists)."""


class DegenerateSupportError(ArithmeticError):
    """The configuration sits on (or numerically too close to) a support
    boundary where the closed-form amplitude diverges."""


class DegenerateJacobianError(ArithmeticError):
    """A constraint solution has a (numerically) singular Jacobian, so its
    inverse-Jacobian weight is unusable."""


class ConvergenceError(RuntimeError):
    """Quadrature refinement did not reach the requested tolerance.

    Carries the last two doubling estimates, coarser first, in ``estimates``;
    an extra coarser estimate that only measured the convergence rate is
    never among them.
    """

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates
