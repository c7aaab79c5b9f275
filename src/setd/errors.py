"""Exception types shared across the package, and the two argument checks
every public entry point applies to its scalar arguments:
:func:`check_int` (a ``numbers.Integral`` that is not a bool, optionally in
``range(start, stop)``) and :func:`check_real` (a finite ``numbers.Real``
that is not a bool, optionally bounded). Nothing is truncated or parsed:
2.5, 2.0 and "2" are not integers, "0.1" is not a number. A rejection is an
:class:`InvalidArgumentError` naming the argument and its value.
"""

import math
import numbers


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



def check_int(value, name, start=None, stop=None):
    """``value`` as an int, if it is an integer (not a bool) in range(start, stop)."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidArgumentError(
                f"{name} must be an integer (bools and floats are not integers), got {value!r}")
        value = int(value)
    if stop is not None and not start <= value < stop:
        shown = "2**64" if stop == 2 ** 64 else stop  # the Philox word size
        raise InvalidArgumentError(f"{name} must be in [{start}, {shown}), got {value!r}")
    if start is not None and value < start:
        what = "a positive integer" if start == 1 else f"an integer >= {start}"
        raise InvalidArgumentError(f"{name} must be {what}, got {value!r}")
    return value


def check_real(value, name, lo=None, hi=None, open_lo=False):
    """``value`` as a float, if it is a finite real number (not a bool)
    above ``lo`` (at least ``lo`` unless ``open_lo``) and at most ``hi``."""
    x = value
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise InvalidArgumentError(f"{name} must be a finite number, got {value!r}")
        try:
            x = float(x)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
    if not (math.isfinite(x) and (lo is None or x > lo or (x == lo and not open_lo))
            and (hi is None or x <= hi)):
        bounds = "" if lo is None else f" {'>' if open_lo else '>='} {lo}"
        bounds += "" if hi is None else f" <= {hi}" if lo is None else f" and <= {hi}"
        raise InvalidArgumentError(f"{name} must be a finite number{bounds}, got {value!r}")
    return x
