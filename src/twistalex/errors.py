"""Exception hierarchy shared across the package."""


class TwistError(Exception):
    """Base class for all package-specific errors."""


class ParseError(TwistError):
    """Malformed input text; carries the offending position when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class UnknownFixtureError(TwistError):
    """Requested fixture name is not built in."""


class InvariantError(TwistError):
    """An input violates a structural invariant (e.g. det(S - S^T) != +-1)."""


class InternalError(TwistError):
    """An invariant broke inside a computation: a fault in the program, not
    in its input."""


class SizeLimitError(TwistError):
    """A computation exceeded a configured desk-scale bound."""


class WordLengthError(SizeLimitError):
    """A free-group word, as parsed, has more letters than the cap."""


class LiftSizeError(SizeLimitError):
    """The chain-map product lifting a monodromy power passed its work cap
    (a huge power, or entries whose bit length keeps growing)."""


class MinorLimitError(SizeLimitError):
    """Maximal-minor enumeration would exceed the combination cap."""


class NonSurjectiveError(TwistError):
    """The given homomorphism does not surject onto its target group."""


class CompatibilityError(TwistError):
    """The endomorphism does not descend to the cover (alpha . f != alpha)."""
