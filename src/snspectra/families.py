"""Named extremal families of permutations: ``Family``, the package's one
check of permutation rows (bounds and the search certificate take their
rows through it), the constructors, exact size formulas, the pairwise
independence check and its agreement counts, and the explicit graph.

Throughout, "fixed points >= k" means fixed points that are *elements* at
least k (so (1 2)(5 6) has the fixed points 3 and 4 below 5 and none above).
Families are exact member sets built by enumeration over the relevant
stabilizer coset, never by trusting a formula; the closed-form sizes are
checked against them in the tests.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

from .lazy import np
from .perms import check_row_degree, check_t, derangement_count, integer_entries, perm_rows

PAIRWISE_CAP = 12000
AGREEMENT_BLOCK = 512  # rows per agreement_counts call: 2.6 MB against S_7
GRAPH_CAP = 7  # the largest degree of an explicit n! x n! graph


class Family:
    """Rows of degree n, each a row of integers (2.0 is not) permuting 1..n
    and none repeated, all checked before any cast: other rows are a
    ``ValueError``.  ``members`` holds them as a read-only int8 array in
    lexicographic order.  A family is read-only, and equal only to itself."""

    __slots__ = ("n", "label", "members")
    n: int
    label: str
    members: np.ndarray

    def __init__(self, n: int, label: str, members: Sequence[Sequence[int]] | np.ndarray) -> None:
        if n < 1:
            raise ValueError(f"a family has degree n >= 1 (got n={n})")
        check_row_degree(n)
        try:
            rows = np.asarray(members)
        except ValueError:  # rows of different lengths
            raise ValueError("member degree mismatch") from None
        if rows.size and rows.shape[1:] != (n,):
            raise ValueError("member degree mismatch")
        if rows.dtype.kind not in "iu":  # an int cast would truncate 2.5 to 2
            for member in members:
                integer_entries(member, "member", "row")
        rows = rows.reshape(len(rows), n)
        if not (np.sort(rows, axis=1) == np.arange(1, n + 1)).all():  # 300 is never cast
            raise ValueError(f"a member is not a permutation of 1..{n}")
        rows = rows.astype(np.int8, order="C")
        keys = rows.view(f"S{n}").ravel()  # no entry is 0: byte order is lex order
        if not (keys[1:] > keys[:-1]).all():  # rows in strict lex order repeat none
            keys = np.sort(keys, kind="stable")  # merges the sorted runs of appended rows
            repeat = keys[1:] == keys[:-1]
            if repeat.any():
                row = tuple(keys[repeat.argmax()])
                raise ValueError(f"member {row} is repeated: a family is a set of permutations")
            rows = keys.view(np.int8).reshape(len(keys), n)
        rows.flags.writeable = False
        for name, value in (("n", n), ("label", label), ("members", rows)):
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
    rows = perm_rows(n, pairs)  # checks each pair before the label reads it
    return Family(n, "coset[" + ",".join(f"{i}->{j}" for i, j in pairs) + "]", rows)


# ---------------------------------------------------------------------------
# The Hilton-Milner style family for the forbidden singleton agreement.


def hilton_milner_tail(n: int) -> np.ndarray:
    """The four permutations fixing {5..n} pointwise whose image of {1,2} is
    disjoint from {1,2}, as rows, computed from the predicate: the elements
    of S_{1..4} exchanging the blocks {1,2} and {3,4}, four as there are two
    bijections {1,2} -> {3,4} and two back.  The 4-cycle 1->4->3->2->1
    (sometimes quoted in this role) fails the predicate: it maps 2 to 1."""
    if n < 4:
        raise ValueError("need n >= 4")
    rows = perm_rows(n, [(i, i) for i in range(5, n + 1)])
    return rows[(rows[:, :2] > 2).all(axis=1)]


def _from_seven(n: int) -> None:
    """Refuse a degree below 7, where B and the F_j are not defined."""
    if n < 7:
        raise ValueError(f"families B and F_j are defined for n >= 7 (got n={n})")


def family_B_size_formula(n: int) -> int:
    """(n-2)! - |F_4| + 4: B is G_4 together with the four tail elements."""
    _from_seven(n)
    return math.factorial(n - 2) - family_F_size_formula(4, n) + 4


def family_B(n: int) -> Family:
    """Largest family with no singleton agreement that is not contained in a
    2-coset: permutations fixing 1 and 2 whose number of fixed points >= 5
    differs from one (that is, G_4), together with the four block-swap
    elements."""
    _from_seven(n)
    return Family(n, "B", np.concatenate([_stabilizer_part(4, n, False), hilton_milner_tail(n)]))


# ---------------------------------------------------------------------------
# The four excluded families F_j and their complements G_j inside the
# stabilizer of 1 and 2.


# F_j is the set of permutations fixing 1 and 2 with exactly ``count`` fixed
# points >= ``low``, as (low, count, size): |F_j| = size(n, derangement_count).
F_RULES: dict[int, tuple[int, int, Callable]] = {
    1: (3, 1, lambda n, d: (n - 2) * d(n - 3)),
    2: (4, 0, lambda n, d: d(n - 2) + d(n - 3)),
    3: (4, 1, lambda n, d: (n - 3) * (d(n - 3) + d(n - 4))),
    4: (5, 1, lambda n, d: (n - 4) * (d(n - 3) + 2 * d(n - 4) + d(n - 5))),
}


def _f_rule(j: int) -> tuple[int, int, Callable]:
    if j not in F_RULES:
        raise ValueError(f"families F_j and G_j: j must be 1..4, got {j}")
    return F_RULES[j]


def _stabilizer_part(j: int, n: int, in_f: bool) -> np.ndarray:
    """The permutations fixing 1 and 2 that lie in F_j (``in_f``) or not."""
    low, count, _ = _f_rule(j)
    rows = perm_rows(n, [(1, 1), (2, 2)])
    fixed = (rows[:, low - 1 :] == np.arange(low, n + 1)).sum(axis=1)
    return rows[(fixed == count) == in_f]


def family_F(j: int, n: int) -> Family:
    """Permutations fixing 1 and 2 that a single extra excluded element
    knocks out, in the four translation cases: exactly one fixed point >= 3
    (j=1); none >= 4 (j=2); exactly one >= 4 (j=3); exactly one >= 5 (j=4)."""
    _from_seven(n)
    return Family(n, f"F{j}", _stabilizer_part(j, n, True))


def family_F_size_formula(j: int, n: int) -> int:
    return _f_rule(j)[2](n, derangement_count)


def family_G(j: int, n: int) -> Family:
    """The complement of F_j inside the stabilizer of 1 and 2."""
    return Family(n, f"G{j}", _stabilizer_part(j, n, False))


# ---------------------------------------------------------------------------
# The t-intersecting analogue outside a t-coset.


def hm_family(n: int, t: int) -> Family:
    """Permutations fixing 1..t and some further point beyond t+1, together
    with the t transpositions (i t+1).  Independent at t = 1 and from n = t + 3;
    at n = t + 2, two swaps agree on the other n - 3 = t - 1 points."""
    if not 1 <= t <= n - 2:
        raise ValueError(f"need 1 <= t <= n - 2, got t={t}, n={n}")
    rows = perm_rows(n, [(i, i) for i in range(1, t + 1)])
    rows = rows[(rows[:, t + 1 :] == np.arange(t + 2, n + 1)).any(axis=1)]
    swaps = np.tile(np.arange(1, n + 1, dtype=np.int8), (t, 1))  # row i - 1 becomes (i t+1)
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
# Pairwise independence, agreement counts and the explicit graph.


class VerificationResult(NamedTuple):
    """``checked_pairs`` is C(|A|, 2), the pairs a passing check covers."""

    ok: bool
    checked_pairs: int
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def check_pairwise(size: int) -> None:
    if size > PAIRWISE_CAP:
        raise ValueError(f"pairwise scans capped at {PAIRWISE_CAP} by PAIRWISE_CAP (got {size})")


def verify(family: Family, t: int) -> VerificationResult:
    """Check that no two members agree on exactly t-1 points; on failure the
    witness is the lexicographically smallest violating pair.

    The members are in lexicographic order, so the first violating pair in
    row-major order is that smallest pair.  Members sharing their first t
    entries agree at least t times and are never compared, yet
    ``checked_pairs`` stays C(|A|, 2): every pair is covered, by a comparison
    or by that argument."""
    check_t(family.n, t)
    check_pairwise(len(family))
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


def agreement_blocks(rows: np.ndarray, against: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(start, counts) for each block of AGREEMENT_BLOCK rows from ``start``:
    the ``agreement_counts`` of ``rows[start : start + AGREEMENT_BLOCK]``
    against every row of ``against``."""
    for start in range(0, len(rows), AGREEMENT_BLOCK):
        yield start, agreement_counts(rows[start : start + AGREEMENT_BLOCK], against)


def check_graph_degree(n: int) -> None:
    if n > GRAPH_CAP:
        raise ValueError(f"explicit graphs capped at {GRAPH_CAP} by GRAPH_CAP (got n={n})")


def agreement_graph(n: int, t: int) -> np.ndarray:
    """The n! x n! boolean adjacency matrix, vertices in lexicographic
    order, of the graph joining permutations that agree on exactly t-1
    points: ``agreement_counts == t - 1``, the package's one definition of
    an edge.  At t = n it has no edges, as no two permutations agree on
    exactly n-1 points, and nothing is counted."""
    check_graph_degree(n)
    check_t(n, t)
    if t == n:
        return np.zeros((math.factorial(n),) * 2, dtype=bool)
    verts = perm_rows(n)
    graph = np.empty((len(verts), len(verts)), dtype=bool)
    for start, counts in agreement_blocks(verts, verts):
        np.equal(counts, t - 1, out=graph[start : start + AGREEMENT_BLOCK])
    return graph
