"""Gaussian elimination over GF(2) on sparse 0/1 rows given by their supports.

A row comes in as the tuple of its distinct column indices; one pivot is kept
per leading index.  A row whose lead `max(support)` is still free is an
apparent pivot, kept as that tuple with no arithmetic.  A row that must be
reduced becomes an int bit vector, XORed at C speed with the mask of each
pivot it meets and kept as a mask.  Masks rebuilt from kept tuples are
dropped: nearly every boundary row is apparent, and masks as wide as the
level below would dominate the memory.
"""

from __future__ import annotations

from typing import Iterable


def gf2_pivots(rows: Iterable[tuple[int, ...]]) -> dict[int, tuple[int, ...] | int]:
    """Reduce the supports in order; map each lead to its pivot, the input tuple
    (lead `max`) or a reduced mask (lead `bit_length() - 1`); their number is the rank."""
    pivots: dict[int, tuple[int, ...] | int] = {}
    for row in rows:
        lead = max(row) if row else -1
        if lead in pivots:
            row = sum(map((1).__lshift__, row))
            while lead in pivots:
                pivot = pivots[lead]
                row ^= pivot if type(pivot) is int else sum(map((1).__lshift__, pivot))
                lead = row.bit_length() - 1
        if lead >= 0:
            pivots[lead] = row
    return pivots
