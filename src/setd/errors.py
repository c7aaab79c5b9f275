"""Exception types shared across the package."""


class SETDError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(SETDError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(SETDError, ValueError):
    """A config file is malformed or contains unknown keys/sections."""


class KrylovConvergenceError(SETDError, RuntimeError):
    """A phi action needs more sparse products than the fixed product
    ceiling, or its value overflows float64.

    The ceiling is checked before any product is taken; the error carries
    the action's truncation bound at the ceiling so callers can report how
    far off it would be. An overflowing action carries an infinite bound.
    """

    def __init__(self, message, est_error):
        super().__init__(message)
        self.est_error = float(est_error)


class DivergenceError(SETDError, RuntimeError):
    """A trajectory left the finite/bounded regime.

    Parameters
    ----------
    step : int
        Index of the step after which the state was non-finite or exceeded
        the magnitude guard.
    """

    def __init__(self, message, step):
        super().__init__(message)
        self.step = int(step)


class SolverError(SETDError, RuntimeError):
    """A linear solve did not meet its residual contract."""


class DegenerateFitError(SETDError, ValueError):
    """Order fitting was requested on unusable data (too few points, zeros)."""
