"""Exception types shared across the package.

Every operation that rejects its input raises one of these instead of a bare
ValueError, so callers (and the CLI) can map failures to exit codes reliably.
"""

from __future__ import annotations


class CsspheresError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameters(CsspheresError, ValueError):
    """Construction parameters outside their admissible range."""


class FaceNotPresent(CsspheresError, KeyError):
    """A face required to be in the complex is missing."""


class OverlappingVertexSets(CsspheresError, ValueError):
    """Join of complexes whose vertex sets intersect."""


class DimensionMismatch(CsspheresError, ValueError):
    """Pure complexes of different dimensions where equality is required."""


class NotPure(CsspheresError, ValueError):
    """Operation defined only for pure complexes."""


class RidgeInThreeFacets(CsspheresError, ValueError):
    """Boundary extraction hit a ridge contained in three or more facets."""


class SharedFacets(CsspheresError, ValueError):
    """A ball and its antipode share a facet where they must not."""


class NotSubcomplex(CsspheresError, ValueError):
    """The ball handed to a sewing step is not a full-dimensional subcomplex."""


class NegativeLabel(CsspheresError, ValueError):
    """Relabeling map applied to a complex with negative vertex labels."""


class OddCardinality(CsspheresError, ValueError):
    """Facet condition check requires an even number of vertices."""


class ClosedComplex(CsspheresError, ValueError):
    """Stackedness asked of a complex with empty boundary."""


class FacePresent(CsspheresError, ValueError):
    """Bistellar flip: the face to insert is already in the complex."""


class LinkMismatch(CsspheresError, ValueError):
    """Bistellar flip: the link of the removed face is not a simplex boundary."""


class IndexOutOfRange(CsspheresError, ValueError):
    """Flip index outside the admissible interval."""


class NTooSmall(CsspheresError, ValueError):
    """Family enumeration requires a larger ambient size."""


class InvalidIndexSet(CsspheresError, ValueError):
    """Index set violates the defining gap condition."""


class NotPermutation(CsspheresError, ValueError):
    """Shelling candidate order is not a permutation of the facets."""


class SearchBudgetExceeded(CsspheresError, RuntimeError):
    """Isomorphism/automorphism backtracking exceeded its node budget."""


class ParseError(CsspheresError, ValueError):
    """Complex file could not be parsed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
