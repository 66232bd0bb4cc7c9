"""Exception hierarchy shared across the package.

The class of an exception alone says whose fault it is.  A TwistError
means the input is at fault: ``twist`` exits 65 for a SizeLimitError and
64 for any other.  Every other exception, InternalError and a builtin
ValueError included, is a fault in the program, and ``twist`` exits 70.
"""


class TwistError(Exception):
    """Base class for the errors that an input causes."""


class ParseError(TwistError):
    """Malformed input text; the message names the position when known."""

    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class InvariantError(TwistError, ValueError):
    """An input violates a structural invariant (e.g. det(S - S^T) != +-1,
    or an alpha that is not onto or that f^d does not preserve) or an
    argument check (e.g. a covering degree d < 1).  It is a
    ValueError too, so callers that catch ValueError keep catching it."""


class InternalError(Exception):
    """An invariant broke inside a computation: a fault in the program, not
    in its input, so not a TwistError."""


class SizeLimitError(TwistError):
    """A computation exceeded a configured desk-scale bound."""


class WordLengthError(SizeLimitError):
    """A free-group word, as parsed, has more letters than the cap."""


class MinorLimitError(SizeLimitError):
    """Maximal-minor enumeration would exceed the combination cap."""


def number_text(n: int) -> str:
    """A positive n in decimal for a size-limit message, or, when it has
    more digits than Python converts to text, by its bit length k as
    ``2^(k-1) or more``."""
    try:
        return str(n)
    except ValueError:
        return f"2^{n.bit_length() - 1} or more"
