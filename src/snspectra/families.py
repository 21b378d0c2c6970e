"""Named extremal families of permutations: constructors, exact size
formulas, and the pairwise independence check.

Throughout, "fixed points >= k" means fixed points that are *elements* at
least k (so (1 2)(5 6) has the fixed points 3 and 4 below 5 and none above).
Families are exact member sets built by enumeration over the relevant
stabilizer coset, never by trusting a formula; the closed-form sizes are
checked against them in the tests.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .lazy import np
from .perms import derangement_count, identity, perm_rows

PAIRWISE_CAP = 12000
AGREEMENT_BLOCK = 512  # rows per agreement_counts call: 2.6 MB against S_7


class Family:
    """``members`` holds one-line rows of degree n (int8) in strictly
    increasing lexicographic order: any rows given are sorted and their
    repeats dropped.  A family is read-only, and equal only to itself."""

    __slots__ = ("n", "label", "members")
    n: int
    label: str
    members: np.ndarray

    def __init__(self, n: int, label: str, members: Sequence[Sequence[int]] | np.ndarray) -> None:
        rows = np.asarray(members, dtype=np.int8)
        if rows.size and rows.shape[1:] != (n,):
            raise ValueError("member degree mismatch")
        rows = rows.reshape(len(rows), n)
        rows = rows[np.lexsort(rows.T[::-1])]
        repeat = np.zeros(len(rows), dtype=bool)
        repeat[1:] = (rows[1:] == rows[:-1]).all(axis=1)
        for name, value in (("n", n), ("label", label), ("members", rows[~repeat])):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Family")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a Family")

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# Cosets of point stabilizers.


def t_coset(pairs: Sequence[tuple[int, int]], n: int) -> Family:
    """All permutations with s(i_k) = j_k for the given pairs; size (n-t)!.
    For two pairs this is an independent set of the agreement-at-one-point
    graph, since members pairwise agree on at least two points."""
    label = "coset[" + ",".join(f"{i}->{j}" for i, j in pairs) + "]"
    return Family(n, label, perm_rows(n, pairs))


# ---------------------------------------------------------------------------
# The Hilton-Milner style family for the forbidden singleton agreement.


def hilton_milner_tail(n: int) -> np.ndarray:
    """The four permutations fixing {5..n} pointwise whose image of {1,2} is
    disjoint from {1,2}, as rows.  Computed from the predicate: exactly the
    elements of S_{1..4} exchanging the blocks {1,2} and {3,4}.  Note the
    4-cycle sending 1->4, 4->3, 3->2, 2->1 (sometimes quoted in this role)
    fails the predicate since it maps 2 into {1,2}."""
    if n < 4:
        raise ValueError("need n >= 4")
    rows = perm_rows(n, [(i, i) for i in range(5, n + 1)])
    tail = rows[(rows[:, :2] > 2).all(axis=1)]
    if len(tail) != 4:
        raise ArithmeticError(f"Hilton-Milner tail at n={n} has {len(tail)} members, not 4")
    return tail


def family_B_size_formula(n: int) -> int:
    """(n-2)! - |F_4| + 4: B is G_4 together with the four tail elements."""
    if n < 7:
        raise ValueError("size formula needs n >= 7")
    return math.factorial(n - 2) - family_F_size_formula(4, n) + 4


def family_B(n: int) -> Family:
    """Largest family with no singleton agreement that is not contained in a
    2-coset: permutations fixing 1 and 2 whose number of fixed points >= 5
    differs from one (that is, G_4), together with the four block-swap
    elements."""
    if n < 7:
        raise ValueError("need n >= 7")
    return Family(n, "B", np.concatenate([_stabilizer_part(4, n, False), hilton_milner_tail(n)]))


# ---------------------------------------------------------------------------
# The four excluded families F_j and their complements G_j inside the
# stabilizer of 1 and 2.


# F_j is the set of permutations fixing 1 and 2 with exactly ``count`` fixed
# points >= ``low``, as (low, count).
F_RULES = {1: (3, 1), 2: (4, 0), 3: (4, 1), 4: (5, 1)}


def _stabilizer_part(j: int, n: int, in_f: bool) -> np.ndarray:
    """The permutations fixing 1 and 2 that lie in F_j (``in_f``) or not."""
    if j not in F_RULES:
        raise ValueError(f"j must be 1..4, got {j}")
    low, count = F_RULES[j]
    rows = perm_rows(n, [(1, 1), (2, 2)])
    fixed = (rows[:, low - 1 :] == np.arange(low, n + 1)).sum(axis=1)
    return rows[(fixed == count) == in_f]


def family_F(j: int, n: int) -> Family:
    """Permutations fixing 1 and 2 that a single extra excluded element
    knocks out, in the four translation cases: exactly one fixed point >= 3
    (j=1); none >= 4 (j=2); exactly one >= 4 (j=3); exactly one >= 5 (j=4)."""
    if n < 7:
        raise ValueError("need n >= 7")
    return Family(n, f"F{j}", _stabilizer_part(j, n, True))


def family_F_size_formula(j: int, n: int) -> int:
    d = derangement_count
    if j == 1:
        return (n - 2) * d(n - 3)
    if j == 2:
        return d(n - 2) + d(n - 3)
    if j == 3:
        return (n - 3) * (d(n - 3) + d(n - 4))
    if j == 4:
        return (n - 4) * (d(n - 3) + 2 * d(n - 4) + d(n - 5))
    raise ValueError(f"j must be 1..4, got {j}")


def family_G(j: int, n: int) -> Family:
    """The complement of F_j inside the stabilizer of 1 and 2."""
    return Family(n, f"G{j}", _stabilizer_part(j, n, False))


# ---------------------------------------------------------------------------
# The t-intersecting analogue outside a t-coset.


def hm_family(n: int, t: int) -> Family:
    """Permutations fixing 1..t and some further point beyond t+1, together
    with the t transpositions (i t+1)."""
    if not 1 <= t <= n - 2:
        raise ValueError(f"need 1 <= t <= n - 2, got t={t}, n={n}")
    rows = perm_rows(n, [(i, i) for i in range(1, t + 1)])
    rows = rows[(rows[:, t + 1 :] == np.arange(t + 2, n + 1)).any(axis=1)]
    swaps = np.tile(identity(n), (t, 1))  # row i - 1 becomes (i t+1)
    swaps[:, t] = np.arange(1, t + 1)
    swaps[np.arange(t), np.arange(t)] = t + 1
    return Family(n, f"HM(t={t})", np.concatenate([rows, swaps]))


# ---------------------------------------------------------------------------
# The registry of named families.


class FamilySpec(NamedTuple):
    """``build(n, t)`` constructs the family; ``size_formula(n)``, if any, is
    its exact size.  The constructor pins ``pinned(t)`` points, enumerates the
    permutations of the rest and needs at least ``min_free`` of those points."""

    build: Callable[[int, int], Family]
    size_formula: Callable[[int], int] | None
    min_free: int
    pins_t: bool = False  # pins 1..t instead of 1 and 2

    def pinned(self, t: int) -> int:
        return t if self.pins_t else 2


# In CLI order.  Each entry looks its constructor up by name when called, so
# a wrapper set in place of ``family_B`` or another constructor sees the call.
# G_j exists for every n >= 2, but its formula needs d_{n-3} (j <= 2),
# d_{n-4} (j = 3) or d_{n-5} (j = 4).
FAMILIES: dict[str, FamilySpec] = {
    "B": FamilySpec(lambda n, t: family_B(n), family_B_size_formula, 5),
    **{
        f"F{j}": FamilySpec(lambda n, t, j=j: family_F(j, n), partial(family_F_size_formula, j), 5)
        for j in (1, 2, 3, 4)
    },
    **{
        f"G{j}": FamilySpec(
            lambda n, t, j=j: family_G(j, n),
            lambda n, j=j: math.factorial(n - 2) - family_F_size_formula(j, n),
            free,
        )
        for j, free in ((1, 1), (2, 1), (3, 2), (4, 3))
    },
    "2coset": FamilySpec(
        lambda n, t: t_coset([(1, 1), (2, 2)], n), lambda n: math.factorial(n - 2), 0
    ),
    "HM": FamilySpec(lambda n, t: hm_family(n, t), None, 2, pins_t=True),
}


# ---------------------------------------------------------------------------
# Pairwise independence.


class VerificationResult(NamedTuple):
    """``checked_pairs`` is C(|A|, 2), the pairs a passing check covers."""

    ok: bool
    checked_pairs: int
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def verify(family: Family, t: int) -> VerificationResult:
    """Check that no two members agree on exactly t-1 points; on failure the
    witness is the lexicographically smallest violating pair.

    The members are in lexicographic order, so the first violating pair in
    row-major order is that smallest pair.  Members sharing their first t
    entries agree at least t times and are never compared, yet
    ``checked_pairs`` stays C(|A|, 2): every pair is covered, by a comparison
    or by that argument."""
    if not 1 <= t <= family.n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={family.n}")
    if len(family) > PAIRWISE_CAP:
        raise ValueError(f"family too large for pairwise scan: {len(family)}")
    witness = _first_agreeing_pair(family.members, t)
    return VerificationResult(witness is None, math.comb(len(family), 2), witness)


def agreement_counts(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entry (i, j) counts the points where ``block[i]`` and ``rows[j]``
    agree, summed point by point in one byte per pair: a count is at most
    n <= ROW_DEGREE_CAP = 127, so it is a uint8."""
    counts = np.zeros((len(block), len(rows)), dtype=np.uint8)
    for point in range(rows.shape[1]):
        counts += block[:, point, None] == rows[None, :, point]
    return counts


def _first_agreeing_pair(rows: np.ndarray, t: int) -> tuple[tuple[int, ...], ...] | None:
    """The first pair of rows (a, b), a before b, in row-major order that
    agree on exactly t-1 points, or None.  A run is a maximal block of
    consecutive rows sharing their first t entries; two rows of one run agree
    at least t times, so only pairs across runs can violate.  The rows are
    scanned in blocks of AGREEMENT_BLOCK, each against the rows after the run
    of its first row, keeping the pairs whose second row lies in a later
    run."""
    new = np.zeros(len(rows), dtype=bool)
    new[1:] = (rows[1:, :t] != rows[:-1, :t]).any(axis=1)
    run = np.cumsum(new)
    run_end = np.searchsorted(run, run, "right")
    for start in range(0, len(rows), AGREEMENT_BLOCK):
        stop, later = start + AGREEMENT_BLOCK, run_end[start]
        hits = agreement_counts(rows[start:stop], rows[later:]) == t - 1
        hits &= run[later:] > run[start:stop, None]
        if hits.any():
            i, j = np.argwhere(hits)[0]
            return tuple(rows[start + i].tolist()), tuple(rows[later + j].tolist())
    return None
