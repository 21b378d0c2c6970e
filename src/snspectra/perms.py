"""Permutations of {1..n} in one-line notation, their cycle notation,
derangement combinatorics, and the one enumeration of permutation sets.

A permutation is a tuple ``(s(1), ..., s(n))`` of the integers 1..n; a set of
them is an int8 array of such rows in lexicographic order.  All functions are
pure; permutations are never mutated.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple, Sequence

from .lazy import np

# Rows are int8, so they hold degrees up to 127.
ROW_DEGREE_CAP = 127

# The largest character table, and the most unpinned points of a family, that
# a command builds.  Fresh on a 2-core machine, chartable --n 10 takes 0.22 s
# (a table at n = 14, 2.1 s); families --family 2coset --n 12, 10 free points,
# takes 1.5 s and 188 MB, and an 11th free point multiplies both by about 11.
ENUMERATION_CAP = 10


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


class DerangementCounts(NamedTuple):
    """Exact derangement counts of S_n: total d, even e, odd o."""

    d: int
    e: int
    o: int


# The largest n whose derangement counts the CLI computes: with the
# interpreter's digit limit off, a fresh `derangements --n 16000` takes
# 0.69 s and prints 181 kB (0.30 s at n = 4,000; 2-core machine, Python 3.11).
DERANGEMENT_CAP = 16_000


@lru_cache(maxsize=None)
def derangement_count(n: int) -> int:
    """d_n by the recurrence d_m = m d_{m-1} + (-1)^m from d_0 = 1, which
    gives d_1 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = 1
    for m in range(1, n + 1):
        d = m * d + (-1 if m & 1 else 1)
    return d


def derangement_counts(n: int) -> DerangementCounts:
    """Total/even/odd derangement counts, using d = e + o together with the
    identity e_n - o_n = (-1)^(n-1) (n-1)."""
    d = derangement_count(n)
    diff = (-1) ** (n - 1) * (n - 1) if n >= 1 else 1  # empty perm is even
    if (d + diff) % 2:
        raise ArithmeticError(f"parity identity broken at n={n}")
    e = (d + diff) // 2
    return DerangementCounts(d=d, e=e, o=d - e)


# ---------------------------------------------------------------------------
# Enumeration.


def _integer_pin(pin: Sequence[int]) -> tuple[int, int]:
    """A pin (i, j) as Python ints.  Integer types such as numpy's pass
    through ``operator.index``; any other entry, 2.0 included, is a
    ``ValueError`` naming the pin."""
    try:
        i, j = map(operator.index, pin)
    except TypeError:
        raise ValueError(f"pin {tuple(pin)!r} is not a pair of integers") from None
    return i, j


def perm_rows(n: int, pins: Sequence[tuple[int, int]] = ()) -> np.ndarray:
    """The permutations of degree n with s(i) = j for each pinned (i, j), as
    one-line rows (int8, values 1..n) in lexicographic order.

    S_m is built from S_{m-1}: its block of rows with first value f is f
    followed by the rows of S_{m-1} with every value >= f raised by one.  The
    free points then take the free values in increasing order, which keeps
    the rows in lexicographic order.

    >>> perm_rows(3).tolist()
    [[1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1]]
    >>> perm_rows(4, [(3, 1), (1, 4)]).tolist()
    [[4, 2, 1, 3], [4, 3, 1, 2]]
    """
    pins = [_integer_pin(pin) for pin in pins]
    pinned = dict(pins)
    if len(pinned) != len(pins) or len(set(pinned.values())) != len(pins):
        raise ValueError("a source or a target point is pinned twice")
    if not all(1 <= i <= n and 1 <= j <= n for i, j in pins):
        raise ValueError(f"pinned point outside 1..{n}")
    if n > ROW_DEGREE_CAP:
        raise ValueError(f"int8 rows hold degrees up to {ROW_DEGREE_CAP} (got n={n})")
    rows = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n - len(pinned) + 1):
        prev, rows = rows, np.empty((m * len(rows), m), dtype=np.int8)
        for f in range(1, m + 1):
            block = rows[(f - 1) * len(prev) : f * len(prev)]
            block[:, 0] = f
            block[:, 1:] = prev + (prev >= f)
    free_values = np.array([v for v in range(1, n + 1) if v not in pinned.values()], dtype=np.int8)
    out = np.empty((len(rows), n), dtype=np.int8)
    out[:, [i for i in range(n) if i + 1 not in pinned]] = free_values[rows - 1]
    for i, j in pinned.items():
        out[:, i - 1] = j
    return out
