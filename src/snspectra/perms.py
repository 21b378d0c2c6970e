"""Permutations of {1..n} in one-line notation, agreement counts, and
derangement combinatorics.

A permutation is a tuple ``(s(1), ..., s(n))`` of the integers 1..n.  All
functions are pure; permutations are never mutated.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# Full enumeration of S_n is refused above this degree unless the caller
# raises the cap explicitly.
DEFAULT_ENUMERATION_CAP = 10


class DegreeMismatchError(ValueError):
    """Two permutations of different degree were combined."""


def is_permutation(images: Sequence[int]) -> bool:
    """Check that ``images`` is a bijection of {1..n}.

    >>> is_permutation((2, 1, 3)), is_permutation((2, 2, 3))
    (True, False)
    """
    n = len(images)
    return sorted(images) == list(range(1, n + 1))


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


def agree_count(s: Sequence[int], t: Sequence[int]) -> int:
    """Number of points where s and t take the same value.

    Equals the number of fixed points of ``inverse(t) ∘ s``.
    """
    if len(s) != len(t):
        raise DegreeMismatchError(f"degrees differ: {len(s)} vs {len(t)}")
    return sum(a == b for a, b in zip(s, t))


def fixed_points(s: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(s, start=1) if v == i)


def cycle_type(s: Sequence[int]) -> tuple[int, ...]:
    """Multiset of cycle lengths, non-increasing.

    >>> cycle_type((1, 2, 3, 4))
    (1, 1, 1, 1)
    >>> cycle_type((2, 1, 4, 3))
    (2, 2)
    """
    n = len(s)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = s[j] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def sign(s: Sequence[int]) -> int:
    """Sign of a permutation: (-1)^(n - number of cycles)."""
    return sign_of_type(cycle_type(s))


def sign_of_type(ctype: Sequence[int]) -> int:
    return -1 if (sum(ctype) - len(ctype)) % 2 else 1


# ---------------------------------------------------------------------------
# Cycle-notation text format: "(1 3)(2 4)", fixed points omitted, "id" for
# the identity.  The degree is supplied separately.

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Parse cycle notation into one-line notation of degree n.

    >>> parse_cycles("(1 3)(2 4)", 5)
    (3, 4, 1, 2, 5)
    >>> parse_cycles("id", 3)
    (1, 2, 3)
    """
    text = text.strip()
    images = list(range(1, n + 1))
    if text in ("id", "()", ""):
        return tuple(images)
    if _CYCLE_RE.sub("", text).strip():
        raise ValueError(f"unparsable cycle text: {text!r}")
    for group in _CYCLE_RE.findall(text):
        points = [int(tok) for tok in re.split(r"[,\s]+", group.strip()) if tok]
        if len(points) < 2:
            raise ValueError(f"cycle needs at least two points: ({group})")
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point inside cycle: ({group})")
        if any(not 1 <= p <= n for p in points):
            raise ValueError(f"point outside 1..{n}: ({group})")
        for a, b in zip(points, points[1:] + points[:1]):
            if images[a - 1] != a:
                raise ValueError(f"point {a} appears in two cycles")
            images[a - 1] = b
    return tuple(images)


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


def rencontres_count(n: int, k: int) -> int:
    """Number of permutations in S_n with exactly k fixed points."""
    if not 0 <= k <= n:
        return 0
    return math.comb(n, k) * derangement_count(n - k)


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
