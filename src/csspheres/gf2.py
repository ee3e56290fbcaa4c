"""Gaussian elimination over GF(2) on sparse 0/1 matrices.

Rows are Python integers used as bit vectors; reduction keeps one pivot row
per leading bit.  Boundary matrices of desk-scale complexes start out sparse
(each row has `card` bits), which keeps fill-in manageable, and big-int XOR
runs at C speed.
"""

from __future__ import annotations

from typing import Iterable


def gf2_pivots(rows: Iterable[int]) -> dict[int, int]:
    """Reduce the rows in order; map each leading bit to the reduced row owning it.

    The keys are distinct and every value's highest set bit is its key; the
    number of pivots is the rank.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return pivots
