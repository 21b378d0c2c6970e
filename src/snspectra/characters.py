"""Exact integer characters of symmetric groups.

``mn_character`` removes border strips recursively (Murnaghan-Nakayama),
implemented on first-column hook lengths; ``CharacterTable`` fills full
tables from it.  The independent determinantal route that cross-checks it
lives with the test oracles.

Everything is arbitrary-precision integer arithmetic; no floats.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Sequence

from .partitions import Partition, check_partition, dimension, partitions_of

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


def _beta_numbers(alpha: Partition) -> tuple[int, ...]:
    """First-column hook lengths alpha_i + l - i, strictly decreasing."""
    l = len(alpha)
    return tuple(alpha[i] + l - (i + 1) for i in range(l))


def _partition_from_betas(betas: Sequence[int]) -> Partition:
    bs = sorted(betas, reverse=True)
    l = len(bs)
    parts = tuple(b - (l - i) for i, b in enumerate(bs, start=1))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def mn_character(alpha: Partition, ctype: CycleType) -> int:
    """Character value via recursive border-strip removal: remove a strip of
    the largest remaining cycle length in every possible way, with sign
    (-1)^height, and recurse on the remaining type."""
    alpha = check_partition(alpha)
    ctype = check_partition(ctype)
    if sum(alpha) != sum(ctype):
        raise ValueError(f"mismatched degrees: {alpha} vs {ctype}")
    if not ctype:
        return 1
    k = ctype[0]
    rest = ctype[1:]
    betas = _beta_numbers(alpha)
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        sub = mn_character(_partition_from_betas([c if c != b else nb for c in betas]), rest)
        total += (-sub if height % 2 else sub)
    return total


# ---------------------------------------------------------------------------
# Full tables.


class CharacterTable:
    """Exact character table of S_n: rows are partitions, columns are cycle
    types, both in canonical (reverse-lexicographic) order.

    Tables are cached per n; values are mathematical constants so the cache
    is never invalidated.
    """

    def __init__(self, n: int):
        self.n = n
        self.partitions = partitions_of(n)
        self.classes = partitions_of(n)
        self.class_sizes = {c: class_size(c) for c in self.classes}
        self.entries = {
            (a, c): mn_character(a, c) for a in self.partitions for c in self.classes
        }

    def value(self, alpha: Partition, ctype: CycleType) -> int:
        return self.entries[(alpha, ctype)]

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


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    return CharacterTable(n)
