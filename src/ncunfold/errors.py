"""Exception types shared across the library, and the work budget."""

import contextlib
import contextvars


class UnfoldError(Exception):
    """Base class for all library errors."""


class ContextMismatch(UnfoldError):
    """Operands belong to different polynomial rings."""


class ParseError(UnfoldError):
    """Syntax or semantic error in expression text; carries a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position
        self.reason = message

    def __reduce__(self):
        return type(self), (self.reason, self.position)


class DegreeGuardExceeded(UnfoldError):
    """A Groebner computation exceeded the configured degree limit."""


class BudgetExceeded(UnfoldError):
    """Work or input past a fixed limit: under an open `budget`, the first
    charge past it, naming the stage and the steps charged, after at most
    the limit's worth of work; or an input read past a size limit."""


# the charge(steps) of the budget open in this context, a no-op with none
# open: a loop looks it up once, by charger(), and charges each piece first
_CHARGE = contextvars.ContextVar("charge", default=lambda steps: None)
charger = _CHARGE.get


@contextlib.contextmanager
def budget(limit: int, stage: str):
    """Open a budget of limit steps for the block, yielding [steps charged]:
    the first charge past limit raises BudgetExceeded, starting with stage."""
    spent = [0]

    def charge(steps: int) -> None:
        spent[0] += steps
        if spent[0] > limit:
            raise BudgetExceeded(f"{stage} may take {spent[0]} or more steps, "
                                 f"over the budget of {limit}")

    token = _CHARGE.set(charge)
    try:
        yield spent
    finally:
        _CHARGE.reset(token)


class NotIsolated(UnfoldError):
    """The singularity is not isolated (infinite Milnor number)."""


class NotACycle(UnfoldError):
    """The element z is not closed under the Koszul differential; image
    holds the nonzero [f, z]."""

    def __init__(self, message: str, image=None):
        super().__init__(message)
        self.image = image


class QCInvalid(UnfoldError):
    """Quasiclassical datum validation failed; carries the violation list."""

    def __init__(self, violations):
        super().__init__("; ".join(v.message for v in violations))
        self.violations = list(violations)

    def __reduce__(self):
        return type(self), (self.violations,)
