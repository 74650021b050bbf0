"""Exception types shared across the package."""


class FreeProjError(Exception):
    """Base class for all computation errors raised by freeproj."""


class ParseError(FreeProjError):
    """Raised on malformed input text; carries an optional line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotExpressibleAtTwist(FreeProjError):
    """The class of the object is not a nonnegative integer at the requested twist."""


class RankNotStabilized(FreeProjError):
    """normalized rank requested below the certified stabilization index."""


class LevelDecrease(FreeProjError):
    """A level-raising operation was asked to lower the level."""


class NotIdempotent(FreeProjError):
    pass


class ZeroElement(FreeProjError):
    pass


class NotDegreeZero(FreeProjError):
    pass


class NotInFiltrationLevel(FreeProjError):
    """The element does not lie in the requested filtration piece."""


class CertificateMismatch(FreeProjError):
    """Two independent certification routes disagreed; indicates an internal bug."""


class NotExactInput(FreeProjError):
    """The given pair of maps is not a short exact sequence degreewise."""


class TruncationNotFree(FreeProjError):
    """Splitting was requested below the index where the quotient's tail is free."""


class BudgetExceeded(FreeProjError):
    """The work an operation would do, counted before it starts, is over a fixed bound."""
