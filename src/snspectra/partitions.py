"""Partitions of n, Young diagram geometry, irreducible dimensions, and the
fat/tall/medium trichotomy.

A partition is a non-increasing tuple of positive integers.  The canonical
order used everywhere downstream (tables, reports, spectra) is
reverse-lexicographic: (n) first, (1,...,1) last.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Sequence

from .perms import check_degree, integer_entries

Partition = tuple[int, ...]


def _ordered(p: Partition) -> bool:
    """Whether the int tuple p has positive, non-increasing parts."""
    return not p or (p[-1] >= 1 and all(map(operator.ge, p, p[1:])))


def is_partition(parts: Sequence[int]) -> bool:
    try:
        return _ordered(integer_entries(parts, "partition", "tuple"))
    except ValueError:
        return False


def check_partition(parts: Sequence[int]) -> Partition:
    p = integer_entries(parts, "partition", "tuple")
    if not _ordered(p):
        raise ValueError(f"not a partition: {p!r}")
    return p


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order: ``gen`` yields
    the first parts in descending order, each followed by the partitions of
    the rest in that order, recursively.

    >>> partitions_of(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    check_degree(n)
    if n == 0:
        return ((),)

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def dimension(alpha: Sequence[int]) -> int:
    """Dimension f^alpha of the irreducible labelled by alpha, via the hook
    length product n! / prod(hooks).  Equals the number of standard Young
    tableaux of shape alpha; the character modules compute the same value as
    a character at the identity, through disjoint code."""
    # the memo is keyed by Python ints, so (2.0, 1.0) cannot hit (2, 1)
    return _dimension(integer_entries(alpha, "partition", "tuple"))


@lru_cache(maxsize=None)
def _dimension(alpha: Partition) -> int:
    check_partition(alpha)  # at the first call only: the memo keeps only partitions
    # heights[j] is the height of column j, counted from the bottom row up
    heights: list[int] = []
    for i in range(len(alpha) - 1, -1, -1):
        heights.extend([i + 1] * (alpha[i] - len(heights)))
    # cell (i, j) has hook (alpha_i - j - 1) + (heights_j - i - 1) + 1
    offsets = [h - j - 1 for j, h in enumerate(heights)]
    denom = 1
    for i, a in enumerate(alpha):
        denom *= math.prod([a - i + x for x in offsets[:a]])
    n = sum(alpha)
    fact = math.factorial(n)
    if fact % denom:
        raise ArithmeticError(f"hook product does not divide {n}! for {alpha}")
    return fact // denom


# ---------------------------------------------------------------------------
# k-fat / k-tall / k-medium trichotomy.

FAT = "fat"
TALL = "tall"
MEDIUM = "medium"


def classify(alpha: Sequence[int], k: int) -> str:
    """k-fat if the first row has length >= n-k, k-tall if the first column
    has height >= n-k, else k-medium.  For k < n/2 - 1 the first two cases
    exclude each other; when both hold (large k) fat wins."""
    alpha = check_partition(alpha)
    n = sum(alpha)
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if alpha[0] >= n - k:
        return FAT
    if len(alpha) >= n - k:
        return TALL
    return MEDIUM


# ---------------------------------------------------------------------------
# Text format: comma-separated parts, as the reports print them.


def format_partition(alpha: Sequence[int]) -> str:
    return ",".join(map(str, alpha)) if alpha else ""
