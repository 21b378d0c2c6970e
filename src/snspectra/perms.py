"""Permutations of {1..n} in one-line notation, their cycle notation, and
derangement combinatorics.

A permutation is a tuple ``(s(1), ..., s(n))`` of the integers 1..n.  All
functions are pure; permutations are never mutated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# Full enumeration of S_n is refused above this degree unless the caller
# raises the cap explicitly.
DEFAULT_ENUMERATION_CAP = 10


class DegreeMismatchError(ValueError):
    """Two permutations of different degree were combined."""


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def compose(s: Sequence[int], t: Sequence[int]) -> tuple[int, ...]:
    """Composition s∘t, i.e. apply t first: (s∘t)(i) = s(t(i))."""
    if len(s) != len(t):
        raise DegreeMismatchError(f"degrees differ: {len(s)} vs {len(t)}")
    return tuple(s[j - 1] for j in t)


def inverse(s: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(s)
    for i, v in enumerate(s, start=1):
        inv[v - 1] = i
    return tuple(inv)


def fixed_points(s: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(s, start=1) if v == i)


def format_cycles(s: Sequence[int]) -> str:
    """One-line permutation to cycle notation, fixed points omitted.

    >>> format_cycles((3, 4, 1, 2, 5))
    '(1 3)(2 4)'
    """
    n = len(s)
    seen = [False] * n
    out = []
    for i in range(1, n + 1):
        if seen[i - 1] or s[i - 1] == i:
            seen[i - 1] = True
            continue
        cyc = []
        j = i
        while not seen[j - 1]:
            seen[j - 1] = True
            cyc.append(j)
            j = s[j - 1]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) if out else "id"


# ---------------------------------------------------------------------------
# Derangement combinatorics.


@dataclass(frozen=True)
class DerangementCounts:
    """Exact derangement counts of S_n: total d, even e, odd o."""

    n: int
    d: int
    e: int
    o: int


@lru_cache(maxsize=None)
def derangement_count(n: int) -> int:
    """d_n by inclusion-exclusion: sum over i of (-1)^i n!/i!.

    Conventions d_0 = 1 and d_1 = 0 fall out of the formula.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    fact_n = math.factorial(n)
    return sum((-1) ** i * (fact_n // math.factorial(i)) for i in range(n + 1))


def derangement_counts(n: int) -> DerangementCounts:
    """Total/even/odd derangement counts, using d = e + o together with the
    identity e_n - o_n = (-1)^(n-1) (n-1)."""
    d = derangement_count(n)
    diff = (-1) ** (n - 1) * (n - 1) if n >= 1 else 1  # empty perm is even
    if (d + diff) % 2:
        raise ArithmeticError(f"parity identity broken at n={n}")
    e = (d + diff) // 2
    return DerangementCounts(n=n, d=d, e=e, o=d - e)


# ---------------------------------------------------------------------------
# Enumeration.


def all_perms(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[tuple[int, ...]]:
    """All of S_n in lexicographic one-line order; refuses n above the cap."""
    if n > cap:
        raise ValueError(f"refusing to enumerate S_{n} (cap {cap})")
    return itertools.permutations(range(1, n + 1))


def perms_fixing(pairs: Iterable[tuple[int, int]], n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of degree n with s(i) = j for each (i, j) pair."""
    pinned = dict(pairs)
    if len(set(pinned.values())) != len(pinned):
        raise ValueError("repeated target value")
    free_slots = [i for i in range(1, n + 1) if i not in pinned]
    free_vals = [v for v in range(1, n + 1) if v not in set(pinned.values())]
    for assign in itertools.permutations(free_vals):
        images = [0] * n
        for i, j in pinned.items():
            images[i - 1] = j
        for slot, val in zip(free_slots, assign):
            images[slot - 1] = val
        yield tuple(images)
