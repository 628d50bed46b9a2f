"""Exception types shared across the library."""


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


class DegreeGuardExceeded(UnfoldError):
    """A Groebner computation exceeded the configured degree limit."""


class BudgetExceeded(UnfoldError):
    """A stage would build more output than its fixed budget allows; raised
    before the work starts, naming the stage and the count."""


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
