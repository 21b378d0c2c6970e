"""Exact integer characters of symmetric groups.

``mn_character`` removes border strips recursively (Murnaghan-Nakayama),
largest cycle first.  It validates each distinct partition and cycle type
once, then runs a memoised kernel on integers: a partition with l parts is
its beta-set bitmask sum 2^(alpha_i + l - i), and a k-strip is a bead moved
k places down to an empty place.  ``CharacterTable`` fills full tables from
it.  The independent determinantal route and the Murnaghan-Nakayama
recursion on partition tuples that cross-check it live with the test
oracles.

Everything is arbitrary-precision integer arithmetic; no floats.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Sequence

from .partitions import Partition, check_partition, dimension, partitions_of
from .perms import integer_entries

CycleType = tuple[int, ...]


def class_size(ctype: Sequence[int]) -> int:
    """Size of the conjugacy class with the given cycle type:
    n! / (prod v^m_v * m_v!)."""
    ctype = check_partition(ctype)
    n = sum(ctype)
    z = 1
    for v, m in Counter(ctype).items():
        z *= v**m * math.factorial(m)
    return math.factorial(n) // z


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama.


@lru_cache(maxsize=None)
def _partition_mask(alpha: Partition) -> tuple[int, int]:
    """(beta-set bitmask, degree) of a partition, validated once: bit
    alpha_i + l - i is set for each of the l parts.  The check returns the
    parts as Python ints, so numpy integers cannot overflow the mask."""
    alpha = check_partition(alpha)
    l = len(alpha)
    mask = 0
    for i, part in enumerate(alpha, start=1):
        mask |= 1 << (part + l - i)
    return mask, sum(alpha)


@lru_cache(maxsize=None)
def _cycle_type(ctype: CycleType) -> tuple[CycleType, int]:
    """(cycle type as a tuple, degree), validated once."""
    ctype = check_partition(ctype)
    return ctype, sum(ctype)


@lru_cache(maxsize=None)
def _mn(mask: int, ctype: CycleType) -> int:
    """chi at the remaining cycle type of the partition with beta-set
    ``mask``.  A k-strip is a bead moved from b to an empty b - k, so the
    ends b - k are the set bits of (mask >> k) & ~mask; its height is the
    number of beads strictly between.  Zero parts (the beads packed at the
    bottom) are shifted out, so each partition has one mask."""
    if not ctype:
        return 1
    k = ctype[0]
    rest = ctype[1:]
    total = 0
    ends = (mask >> k) & ~mask
    while ends:
        low = ends & -ends
        ends ^= low
        top = low << k
        moved = mask ^ top ^ low
        moved >>= (~moved & (moved + 1)).bit_length() - 1
        sub = _mn(moved, rest)
        total += -sub if (mask & (top - (low << 1))).bit_count() & 1 else sub
    return total


def mn_character(alpha: Sequence[int], ctype: Sequence[int]) -> int:
    """Character value via recursive border-strip removal: remove a strip of
    the largest remaining cycle length in every possible way, with sign
    (-1)^height, and recurse on the remaining type."""
    # The memos are keyed by Python ints, so that (2.0, 1.0) raises instead of
    # hitting the entry of (2, 1).  A part of another type (float, numpy
    # integer, Fraction) gives its sum that type, so only then are the parts
    # converted; the plain ints of the hot loops skip the conversion.
    if type(sum(alpha)) is not int or type(sum(ctype)) is not int:
        alpha, ctype = (integer_entries(p, "partition", "tuple") for p in (alpha, ctype))
    mask, degree = _partition_mask(alpha)
    ctype, ctype_degree = _cycle_type(ctype)
    if degree != ctype_degree:
        raise ValueError(f"mismatched degrees: {tuple(alpha)} vs {ctype}")
    return _mn(mask, ctype)


# the statistics and reset of the kernel memo
mn_character.cache_info = _mn.cache_info  # type: ignore[attr-defined]
mn_character.cache_clear = _mn.cache_clear  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Full tables.


class CharacterTable:
    """Exact character table of S_n: rows are partitions, columns are cycle
    types, both in canonical (reverse-lexicographic) order.

    Each instance fills every entry on construction through the memoised
    ``mn_character``; tables themselves are not cached or shared.
    """

    def __init__(self, n: int):
        self.n = n
        self.partitions = partitions_of(n)
        self.classes = partitions_of(n)
        self.class_sizes = {c: class_size(c) for c in self.classes}
        self.entries = {
            (a, c): mn_character(a, c) for a in self.partitions for c in self.classes
        }

    def verify_row_orthogonality(self) -> bool:
        fact = math.factorial(self.n)
        for i, a in enumerate(self.partitions):
            for b in self.partitions[i:]:
                s = sum(
                    self.class_sizes[c] * self.entries[(a, c)] * self.entries[(b, c)]
                    for c in self.classes
                )
                if s != (fact if a == b else 0):
                    return False
        return True

    def verify_column_orthogonality(self) -> bool:
        fact = math.factorial(self.n)
        for i, c in enumerate(self.classes):
            for c2 in self.classes[i:]:
                s = sum(
                    self.entries[(a, c)] * self.entries[(a, c2)]
                    for a in self.partitions
                )
                expected = fact // self.class_sizes[c] if c == c2 else 0
                if s != expected:
                    return False
        return True

    def verify_dimension_identity(self) -> bool:
        """sum of squared dimensions = n!, and each dimension matches the
        hook-length value."""
        ident = (1,) * self.n
        if any(self.entries[(a, ident)] != dimension(a) for a in self.partitions):
            return False
        return sum(self.entries[(a, ident)] ** 2 for a in self.partitions) == math.factorial(self.n)

    def verify_regular_character(self) -> bool:
        """sum_alpha f^alpha chi_alpha(c) vanishes off the identity."""
        ident = (1,) * self.n
        for c in self.classes:
            s = sum(dimension(a) * self.entries[(a, c)] for a in self.partitions)
            expected = math.factorial(self.n) if c == ident else 0
            if s != expected:
                return False
        return True

    def to_csv(self) -> str:
        import csv
        import io

        from .partitions import format_partition

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition"] + [format_partition(c) for c in self.classes])
        for a in self.partitions:
            writer.writerow(
                [format_partition(a)]
                + [str(self.entries[(a, c)]) for c in self.classes]
            )
        return buf.getvalue()
