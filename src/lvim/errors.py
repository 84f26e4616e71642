"""Exception types shared across the solver stack, and :func:`checked`,
the one range check every scalar the program takes in goes through."""

import math


def checked(name, value, low=-math.inf, strict=False):
    """Return ``value`` if it is finite and ``>= low`` (``> low`` when
    ``strict``); otherwise raise ``ValueError`` naming ``name``."""
    # an int is finite even when too large for math.isfinite's float
    if (isinstance(value, int) or math.isfinite(value)) and (
            value > low if strict else value >= low):
        return value
    if low == -math.inf:
        rule = "finite"
    elif low == 0:
        rule = "finite and " + ("positive" if strict else "nonnegative")
    else:
        rule = f"finite and {'>' if strict else '>='} {low}"
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
