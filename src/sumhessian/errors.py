"""Exception types shared across the package."""


class ConeViolationError(ValueError):
    """A cone precondition failed (fractional power of a nonpositive value,
    inadmissible Hessian, ...)."""


class SamplingExhaustedError(RuntimeError):
    """Rejection sampling hit its draw budget with too low an acceptance rate."""


class InstanceError(ValueError):
    """A PDE instance is ill-posed on the solve trajectory (nonpositive or
    non-finite right-hand side)."""


class LinearSolveError(RuntimeError):
    """The inner linear solver failed to reach its required relative residual.

    ``required`` and ``achieved`` are relative residuals ||A x - b|| / ||b||;
    ``iterations`` counts Krylov iterations, ``unknowns`` the system size.
    ``trace``, set by ``newton_solve``, holds the iterates accepted before a
    failed Newton step (empty when the initial guess's solve fails).
    """

    def __init__(self, required, achieved, iterations, unknowns):
        super().__init__(
            f"linear solve reached relative residual {achieved:.2e} (required {required:.2e}) "
            f"after {iterations} Krylov iterations on {unknowns} unknowns"
        )
        self.required = required
        self.achieved = achieved
        self.iterations = iterations
        self.unknowns = unknowns
        self.trace = []


class NonConvergenceError(RuntimeError):
    """Damped Newton stalled or ran out of iterations; carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class MaxPrincipleError(ValueError):
    """A field violates the sign expected from the maximum principle."""


class NonFiniteFieldError(ValueError):
    """A field holds a NaN or infinite value; ``point`` is the grid
    multi-index of the first one in row-major order, ``value`` its value."""

    def __init__(self, point, value):
        self.point = tuple(int(i) for i in point)
        self.value = float(value)
        super().__init__(f"field value {self.value!r} at grid point {self.point} is not finite")


class DegenerateFieldError(ValueError):
    """Every interior point was excluded from a diagnostic."""


class ConfigError(ValueError):
    """A run configuration file is malformed or inconsistent."""
