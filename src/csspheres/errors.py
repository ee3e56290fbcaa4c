"""Exception types shared across the package: one type per decision a caller makes.

* `CsspheresError` is the base class; catch it to handle every rejection.
* `InvalidParameters`: an input or a parameter is rejected. The message
  names the rule it broke, e.g. "index sets need n >= 10" or "complex has
  empty boundary".
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
