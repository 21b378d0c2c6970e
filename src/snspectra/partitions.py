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

Partition = tuple[int, ...]


def integer_parts(parts: Sequence[int]) -> tuple[int, ...]:
    """The parts as Python ints.  Integer types such as numpy's pass through
    ``operator.index``; any other part, 2.0 included, is a ``ValueError``."""
    try:
        return tuple(map(operator.index, parts))
    except TypeError:
        raise ValueError(f"not a partition: {tuple(parts)!r} has a non-integer part") from None


def _ordered(p: Partition) -> bool:
    """Whether the int tuple p has positive, non-increasing parts."""
    return not p or (p[-1] >= 1 and all(map(operator.ge, p, p[1:])))


def is_partition(parts: Sequence[int]) -> bool:
    try:
        return _ordered(integer_parts(parts))
    except ValueError:
        return False


def check_partition(parts: Sequence[int]) -> Partition:
    p = integer_parts(parts)
    if not _ordered(p):
        raise ValueError(f"not a partition: {p!r}")
    return p


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order.

    >>> partitions_of(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    out = tuple(gen(n, n))
    if out != tuple(sorted(out, reverse=True)):
        raise ArithmeticError(f"partitions of {n} are not in reverse-lexicographic order")
    return out


def dimension(alpha: Sequence[int]) -> int:
    """Dimension f^alpha of the irreducible labelled by alpha, via the hook
    length product n! / prod(hooks).  Equals the number of standard Young
    tableaux of shape alpha; the character modules compute the same value as
    a character at the identity, through disjoint code."""
    # the memo is keyed by Python ints, so (2.0, 1.0) cannot hit (2, 1)
    return _dimension(integer_parts(alpha))


@lru_cache(maxsize=None)
def _dimension(alpha: Partition) -> int:
    if not _ordered(alpha):
        raise ValueError(f"not a partition: {alpha!r}")
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
