"""Named extremal families of permutations: constructors, exact size
formulas, and the pairwise independence check.

Throughout, "fixed points >= k" means fixed points that are *elements* at
least k (so (1 2)(5 6) has the fixed points 3 and 4 below 5 and none above).
Families are exact member sets built by enumeration over the relevant
stabilizer coset, never by trusting a formula; the closed-form sizes are
checked against them in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .perms import (
    agree_count,
    derangement_count,
    fixed_points,
    identity,
    perms_fixing,
)

PAIRWISE_CAP = 12000


@dataclass(frozen=True)
class Family:
    n: int
    label: str
    members: frozenset[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[tuple[int, ...]]:
        return sorted(self.members)


def _family(n: int, label: str, members: Iterable[tuple[int, ...]]) -> Family:
    mem = frozenset(members)
    if any(len(s) != n for s in mem):
        raise ValueError("member degree mismatch")
    return Family(n=n, label=label, members=mem)


# ---------------------------------------------------------------------------
# Cosets of point stabilizers.


def t_coset(pairs: Sequence[tuple[int, int]], n: int) -> Family:
    """All permutations with s(i_k) = j_k for the given pairs; size (n-t)!.
    For two pairs this is an independent set of the agreement-at-one-point
    graph, since members pairwise agree on at least two points."""
    sources = [i for i, _ in pairs]
    targets = [j for _, j in pairs]
    if len(set(sources)) != len(sources):
        raise ValueError("repeated source point")
    if len(set(targets)) != len(targets):
        raise ValueError("repeated target point")
    if len(pairs) > n:
        raise ValueError("more pinned points than the degree")
    label = "coset[" + ",".join(f"{i}->{j}" for i, j in pairs) + "]"
    return _family(n, label, perms_fixing(pairs, n))


def fixed_points_ge(s: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple(i for i in fixed_points(s) if i >= k)


# ---------------------------------------------------------------------------
# The Hilton-Milner style family for the forbidden singleton agreement.


def hilton_milner_tail(n: int) -> frozenset[tuple[int, ...]]:
    """The four permutations fixing {5..n} pointwise whose image of {1,2} is
    disjoint from {1,2}.  Computed from the predicate: exactly the elements
    of S_{1..4} exchanging the blocks {1,2} and {3,4}.  Note the 4-cycle
    sending 1->4, 4->3, 3->2, 2->1 (sometimes quoted in this role) fails the
    predicate since it maps 2 into {1,2}."""
    if n < 4:
        raise ValueError("need n >= 4")
    tail = []
    for image in itertools.permutations((1, 2, 3, 4)):
        s = image + tuple(range(5, n + 1))
        if {s[0], s[1]}.isdisjoint({1, 2}):
            tail.append(s)
    assert len(tail) == 4
    return frozenset(tail)


def family_B_size_formula(n: int) -> int:
    """(n-2)! - (n-4)(d_{n-3} + 2 d_{n-4} + d_{n-5}) + 4."""
    if n < 7:
        raise ValueError("size formula needs n >= 7")
    return (
        math.factorial(n - 2)
        - (n - 4)
        * (derangement_count(n - 3) + 2 * derangement_count(n - 4) + derangement_count(n - 5))
        + 4
    )


def family_B(n: int) -> Family:
    """Largest family with no singleton agreement that is not contained in a
    2-coset: permutations fixing 1 and 2 whose number of fixed points >= 5
    differs from one, together with the four block-swap elements."""
    if n < 7:
        raise ValueError("need n >= 7")
    members = [
        s
        for s in perms_fixing([(1, 1), (2, 2)], n)
        if len(fixed_points_ge(s, 5)) != 1
    ]
    members.extend(hilton_milner_tail(n))
    return _family(n, "B", members)


# ---------------------------------------------------------------------------
# The four excluded families F_j and their complements G_j inside the
# stabilizer of 1 and 2.


def _f_predicate(j: int):
    if j == 1:
        return lambda s: len(fixed_points_ge(s, 3)) == 1
    if j == 2:
        return lambda s: len(fixed_points_ge(s, 4)) == 0
    if j == 3:
        return lambda s: len(fixed_points_ge(s, 4)) == 1
    if j == 4:
        return lambda s: len(fixed_points_ge(s, 5)) == 1
    raise ValueError(f"j must be 1..4, got {j}")


def family_F(j: int, n: int) -> Family:
    """Permutations fixing 1 and 2 that a single extra excluded element
    knocks out, in the four translation cases: exactly one fixed point >= 3
    (j=1); none >= 4 (j=2); exactly one >= 4 (j=3); exactly one >= 5 (j=4)."""
    if n < 7:
        raise ValueError("need n >= 7")
    pred = _f_predicate(j)
    return _family(
        n, f"F{j}", (s for s in perms_fixing([(1, 1), (2, 2)], n) if pred(s))
    )


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
    pred = _f_predicate(j)
    return _family(
        n, f"G{j}", (s for s in perms_fixing([(1, 1), (2, 2)], n) if not pred(s))
    )


# ---------------------------------------------------------------------------
# The t-intersecting analogue outside a t-coset.


def hm_family(n: int, t: int) -> Family:
    """Permutations fixing 1..t and some further point beyond t+1, together
    with the t transpositions (i t+1)."""
    if not 1 <= t <= n - 2:
        raise ValueError(f"need 1 <= t <= n - 2, got t={t}, n={n}")
    members = [
        s
        for s in perms_fixing([(i, i) for i in range(1, t + 1)], n)
        if any(s[j - 1] == j for j in range(t + 2, n + 1))
    ]
    for i in range(1, t + 1):
        images = list(identity(n))
        images[i - 1], images[t] = t + 1, i
        members.append(tuple(images))
    return _family(n, f"HM(t={t})", members)


# ---------------------------------------------------------------------------
# The registry of named families.


@dataclass(frozen=True)
class FamilySpec:
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
# The two auxiliary families used against a fixed outside permutation.


def moved_points_ge5(pi: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i in range(5, len(pi) + 1) if pi[i - 1] != i)


def fixed_points_ge5(rho: Sequence[int]) -> tuple[int, ...]:
    return fixed_points_ge(rho, 5)


def family_H(pi: Sequence[int], n: int) -> Family:
    """Permutations fixing 1, 2 and at least two points moved by pi above 4,
    agreeing with pi exactly once."""
    if n < 7:
        raise ValueError("need n >= 7")
    moved = set(moved_points_ge5(pi))
    members = (
        s
        for s in perms_fixing([(1, 1), (2, 2)], n)
        if sum(1 for i in moved if s[i - 1] == i) >= 2 and agree_count(s, tuple(pi)) == 1
    )
    return _family(n, "H", members)


def family_H_lower_bound(pi: Sequence[int], n: int) -> int:
    """C(|moved points >= 5|, 2) * d_{n-4}; valid when pi fixes exactly one
    of the points 1 and 2 (the single agreement is then forced at that
    point, and members disagree with pi everywhere above 2)."""
    return math.comb(len(moved_points_ge5(pi)), 2) * derangement_count(n - 4)


def family_H_lower_bound_outside(pi: Sequence[int], n: int) -> int:
    """C(|moved points >= 5|, 2) * (n-6) * d_{n-5}; valid when pi fixes
    neither 1 nor 2, so the single agreement sits at some point >= 3."""
    return (
        math.comb(len(moved_points_ge5(pi)), 2)
        * (n - 6)
        * derangement_count(n - 5)
    )


def family_M(rho: Sequence[int], n: int) -> Family:
    """Permutations fixing 1, 2, 5 and some fixed point i of rho above 4,
    disagreeing with rho at every other point >= 3."""
    if n < 7:
        raise ValueError("need n >= 7")
    fixed = fixed_points_ge5(rho)
    rho = tuple(rho)

    def ok(s: tuple[int, ...]) -> bool:
        for i in fixed:
            if s[i - 1] != i:
                continue
            if all(s[j - 1] != rho[j - 1] for j in range(3, n + 1) if j != i):
                return True
        return False

    members = (s for s in perms_fixing([(1, 1), (2, 2), (5, 5)], n) if ok(s))
    return _family(n, "M", members)


def family_M_lower_bound(rho: Sequence[int], n: int) -> int:
    """|fixed points of rho >= 5| * d_{n-4}."""
    return len(fixed_points_ge5(rho)) * derangement_count(n - 4)


# ---------------------------------------------------------------------------
# Pairwise independence.


@dataclass(frozen=True)
class VerificationResult:
    """``checked_pairs`` is C(|A|, 2), the pairs a passing check covers."""

    ok: bool
    checked_pairs: int
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def verify(family: Family, t: int) -> VerificationResult:
    """Check that no two members agree on exactly t-1 points; on failure the
    witness is the lexicographically smallest violating pair.

    The sorted members are scanned in 512-row blocks, each against itself
    and the later rows only, so the first violation in row-major order is
    that smallest pair."""
    if not 1 <= t <= family.n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={family.n}")
    if len(family) > PAIRWISE_CAP:
        raise ValueError(f"family too large for pairwise scan: {len(family)}")
    members = family.sorted_members()
    total = len(members) * (len(members) - 1) // 2
    arr = np.array(members, dtype=np.int16).reshape(len(members), family.n)
    for start in range(0, len(members), 512):
        block = arr[start : start + 512]
        hits = (block[:, None, :] == arr[None, start:, :]).sum(axis=2) == t - 1
        hits &= np.arange(hits.shape[1]) > np.arange(len(block))[:, None]
        if hits.any():
            i, j = np.argwhere(hits)[0]
            return VerificationResult(False, total, (members[start + i], members[start + j]))
    return VerificationResult(True, total)
