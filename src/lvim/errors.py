"""Exception types shared across the solver stack."""


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
