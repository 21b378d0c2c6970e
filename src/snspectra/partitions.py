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


def is_partition(parts: Sequence[int]) -> bool:
    try:
        p = integer_parts(parts)
    except ValueError:
        return False
    return all(x >= 1 for x in p) and all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def check_partition(parts: Sequence[int]) -> Partition:
    p = integer_parts(parts)
    if not is_partition(p):
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


def transpose(alpha: Sequence[int]) -> Partition:
    """Transpose (conjugate) of the Young diagram: column heights.

    >>> transpose((3, 2, 2))
    (3, 3, 1)
    """
    alpha = check_partition(alpha)
    if not alpha:
        return ()
    return tuple(sum(1 for a in alpha if a >= i) for i in range(1, alpha[0] + 1))


def hook_lengths(alpha: Sequence[int]) -> list[list[int]]:
    """Hook length of every cell of the diagram of alpha."""
    alpha = check_partition(alpha)
    cols = transpose(alpha)
    return [
        [(alpha[i] - j - 1) + (cols[j] - i - 1) + 1 for j in range(alpha[i])]
        for i in range(len(alpha))
    ]


def dimension(alpha: Sequence[int]) -> int:
    """Dimension f^alpha of the irreducible labelled by alpha, via the hook
    length product n! / prod(hooks).  Equals the number of standard Young
    tableaux of shape alpha; the character modules compute the same value as
    a character at the identity, through disjoint code."""
    # the memo is keyed by Python ints, so (2.0, 1.0) cannot hit (2, 1)
    return _dimension(integer_parts(alpha))


@lru_cache(maxsize=None)
def _dimension(alpha: Partition) -> int:
    denom = math.prod(map(math.prod, hook_lengths(alpha)))  # validates alpha
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
