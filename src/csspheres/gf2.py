"""Gaussian elimination over GF(2) on sparse 0/1 rows given by their supports.

The rows come as one flat list of column keys, `width` to a row: row r is
the slice `keys[r * width : (r + 1) * width]`, its distinct columns.  Only
the order of the keys matters, never their size, so the keys may have gaps.
One pivot is kept per leading key.  A row whose lead `max` is still free is
an apparent pivot (as in Bauer's Ripser, 2021), kept as its row number with
no arithmetic.  A row that must be reduced becomes a set of its keys plus a
max-heap of them, negated, from which stale keys are popped lazily (the heap
columns of PHAT, Bauer, Kerber, Reininghaus & Wagner, 2017); the keys of each
pivot it meets are toggled in it one by one.  At each collision with a
reduced pivot the shorter of the two rows is kept as that lead's pivot and
the longer one reduced on, so the loop only runs over the shorter support:
the lead set depends only on the row space and the column order, not on
which of two rows of one lead is kept.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Sequence


def gf2_pivots(keys: Sequence[int], width: int) -> dict[int, int | set[int]]:
    """Reduce the rows of `width` keys each in order; map each lead to its
    pivot, a row number (an input row as it stands) or the set of keys of a
    reduced row; their number is the rank."""
    pivots: dict[int, int | set[int]] = {}
    heaps: dict[int, list[int]] = {}  # the negated-key heap of each reduced pivot
    for r, lead in enumerate(map(max, zip(*[iter(keys)] * width))):
        pivot = pivots.setdefault(lead, r)
        if pivot is r:  # a free lead: an apparent pivot
            continue
        row = keys[r * width : (r + 1) * width]
        work, heap = set(row), [-k for k in row]
        heapify(heap)
        while True:
            if type(pivot) is int:
                support = keys[pivot * width : (pivot + 1) * width]
            elif len(pivot) <= len(work):
                support = pivot
            else:  # keep the shorter row as the pivot, reduce the longer one
                pivots[lead], work = work, pivot
                heaps[lead], heap = heap, heaps[lead]
                support = pivots[lead]
            for k in support:
                if k in work:
                    work.remove(k)
                else:
                    work.add(k)
                    heappush(heap, -k)
            if not work:
                break
            while -heap[0] not in work:
                heappop(heap)
            lead = -heap[0]
            pivot = pivots.setdefault(lead, work)
            if pivot is work:
                heaps[lead] = heap
                break
    return pivots
