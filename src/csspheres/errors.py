"""Exception types shared across the package: one type per decision a caller makes.

* `CsspheresError` is the base class; catch it to handle every rejection.
* `InvalidParameters`: an input or a parameter is rejected. The message
  names the rule it broke, e.g. "enum_I requires n >= 10, got 8" (from
  `check_int`, the one check of an int parameter) or "complex has empty boundary".
* `ParseError`: a file could not be read as a complex; `line` holds the line
  number when known.
* `SearchBudgetExceeded`: an isomorphism or automorphism search stopped at
  its node budget without an answer.

The CLI maps all of them to exit code 2.
"""

from __future__ import annotations


class CsspheresError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameters(CsspheresError, ValueError):
    """An input or parameter is rejected; the message names the broken rule."""


class SearchBudgetExceeded(CsspheresError, RuntimeError):
    """Isomorphism/automorphism backtracking exceeded its node budget."""


class ParseError(CsspheresError, ValueError):
    """Complex file could not be parsed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_int(where: str, name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """Raise InvalidParameters unless `value` is an int, not a bool, in [lo, hi] (None: open)."""
    if type(value) is not int:
        raise InvalidParameters(f"{where} requires {name} to be an int, got {value!r}")
    if lo is not None and value < lo:
        raise InvalidParameters(f"{where} requires {name} >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise InvalidParameters(f"{where} requires {name} <= {hi}, got {value}")
