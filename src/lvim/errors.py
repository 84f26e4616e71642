"""Exception types shared across the solver stack, and :func:`checked`,
the one range check every scalar the program takes in goes through."""

import math
import numbers


def checked(name, value, low=-math.inf, high=math.inf, strict=False, integer=False):
    """Return ``value`` if it is finite (an integer when ``integer``), ``>= low``
    (``> low`` when ``strict``) and ``<= high``; else raise ``ValueError`` naming ``name``."""
    # an int is finite even when too large for math.isfinite's float
    kind_ok = isinstance(value, numbers.Integral) if integer else (
        isinstance(value, int) or math.isfinite(value))
    if kind_ok and (value > low if strict else value >= low) and value <= high:
        return value
    rule = "an integer" if integer else "finite"
    if high < math.inf:
        rule += f" and in {'(' if strict else '['}{low:g}, {high:g}]"
    elif low == 0:
        rule += " and positive" if strict else " and nonnegative"
    elif low > -math.inf:
        rule += f" and {'>' if strict else '>='} {low:g}"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


class LvimError(Exception):
    """Base class for all solver-specific errors."""


class DomainViolationError(LvimError):
    """A right-hand side was evaluated outside its domain of validity.

    Carries the offending time and state when they are known so callers
    can report where an integration left the valid region.
    """

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class ConvergenceError(LvimError):
    """An iterative process exhausted its iteration budget."""
