"""The domain errors of every layer, in one module that imports no layer.

Each layer re-exports its own classes (twistlab.surd.SurdError is
twistlab.errors.SurdError), so the CLI can catch all of them, and report
each by its class name, without loading a layer.
"""

import sys


def digit_limit_text() -> str:
    """The message for an int past the interpreter's digit limit for
    int/str conversion.  The ValueError's own text differs between Python
    versions; this one names the limit and reads the same on all."""
    return f"integer longer than the limit of {sys.get_int_max_str_digits()} digits"


# Most characters of an offending value that an error message quotes.
SHOWN_CHARS = 100


def clipped(value, show=str) -> str:
    """show(value), as an error message quotes an offending value: whole
    up to SHOWN_CHARS characters, else its first SHOWN_CHARS and the count
    of the rest, so that a bad input of any size gets a short message.  A
    value that no text can show gets a fixed text instead."""
    try:
        text = show(value)
    except ValueError:  # it holds an int past the interpreter's digit limit
        return f"<value with an {digit_limit_text()}>"
    except RecursionError:  # arrays nested about as deep as the recursion limit
        return "<value nested too deeply>"
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text) - SHOWN_CHARS} more characters)"


class SurdError(ValueError):
    """Base for domain errors in quadratic surds."""


class SurdParseError(SurdError):
    """Malformed surd literal; carries the offending column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class CFError(ValueError):
    """Domain error in continued-fraction operations."""


class NotPrimitiveError(CFError):
    """A period word that is a power of a shorter word."""


class TorusError(ValueError):
    """Domain error in torus classification."""


class DimGroupError(ValueError):
    """Domain error in dimension-group construction or queries."""


class NotPrimitiveMatrixError(DimGroupError):
    pass


class SingularMatrixError(DimGroupError):
    pass


class NotCFTypeError(DimGroupError):
    """Rank-2 group whose Perron eigenvalue is rational."""


class CurveError(ValueError):
    """Domain error in elliptic-curve operations."""


class SingularCurveError(CurveError):
    pass
