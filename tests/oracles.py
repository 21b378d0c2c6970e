"""Independent reference implementations that the tests compare the
production routes against.  None of them is used by the package itself.

* the determinantal character route (permutation characters by a
  distribution count, irreducible characters as signed sums of them), the
  oracle for the Murnaghan-Nakayama characters of ``CharacterTable``;
* a standard-tableau count, the oracle for hook-length dimensions;
* the derangement recurrence, the oracle for inclusion-exclusion;
* a fixed-point census of S_n by enumeration, the oracle for rencontres
  numbers;
* agreement-graph adjacency by direct agreement counting, the oracle for the
  rank-based Cayley builder;
* unpruned independent-set scans and a relabelled search, the oracles for
  the branch-and-bound.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Sequence

import numpy as np

from snspectra.partitions import Partition, check_partition, transpose
from snspectra.perms import all_perms, num_fixed_points, sign_of_type
from snspectra.search import _solve, graph_bitsets, max_independent_set

CycleType = tuple[int, ...]

# ---------------------------------------------------------------------------
# Determinantal character route.


@lru_cache(maxsize=None)
def _distribution_count(rows: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Number of ways to assign the multiset ``cycles`` (distinguishable
    cycles, equal lengths interchangeable) to ordered rows with prescribed
    sums ``rows``.  Both keys are sorted non-increasing; the count only
    depends on the multisets."""
    if not rows:
        return 1 if not cycles else 0
    target = rows[0]
    rest_rows = rows[1:]
    counts = sorted(Counter(cycles).items(), reverse=True)
    total = 0

    def choose(idx: int, remaining: int, ways: int, taken: list[int]) -> None:
        nonlocal total
        if remaining == 0:
            leftover: list[int] = []
            for (v, m), k in zip(counts, taken + [0] * (len(counts) - len(taken))):
                leftover.extend([v] * (m - k))
            total += ways * _distribution_count(
                rest_rows, tuple(sorted(leftover, reverse=True))
            )
            return
        if idx == len(counts):
            return
        v, m = counts[idx]
        for k in range(min(m, remaining // v) + 1):
            choose(idx + 1, remaining - k * v, ways * math.comb(m, k), taken + [k])

    choose(0, target, 1, [])
    return total


def permutation_character(alpha: Sequence[int], ctype: Sequence[int]) -> int:
    """Number of alpha-tabloids fixed by any permutation of the given cycle
    type (a tabloid is fixed iff every cycle lies inside one row).  Special
    cases: alpha=(n-1,1) counts fixed points, alpha=(n-2,2) counts fixed
    2-subsets."""
    alpha = check_partition(alpha)
    ctype = check_partition(ctype)
    if sum(alpha) != sum(ctype):
        raise ValueError(f"mismatched degrees: {alpha} vs {ctype}")
    return _distribution_count(alpha, ctype)


@lru_cache(maxsize=None)
def irreducible_character(alpha: Partition, ctype: CycleType) -> int:
    """Irreducible character value chi_alpha at the class ``ctype`` via the
    signed sum of permutation characters chi_alpha =
    sum_pi sgn(pi) xi_{alpha - id + pi}, pi ranging over row rearrangements;
    any rearrangement producing a negative entry contributes zero."""
    alpha = check_partition(alpha)
    ctype = check_partition(ctype)
    n = sum(alpha)
    if n != sum(ctype):
        raise ValueError(f"mismatched degrees: {alpha} vs {ctype}")
    l = len(alpha)
    total = 0
    used = [False] * l
    entries = [0] * l

    def walk(i: int, parity: int) -> None:
        nonlocal total
        if i == l:
            rows = tuple(sorted((e for e in entries if e > 0), reverse=True))
            value = _distribution_count(rows, ctype)
            total += -value if parity else value
            return
        for j in range(l):
            if used[j]:
                continue
            e = alpha[i] - (i + 1) + (j + 1)
            if e < 0:
                continue  # negative entry kills the whole rearrangement
            used[j] = True
            entries[i] = e
            # parity of the partial assignment: inversions added by column j
            inv = sum(
                1 for jj in range(j + 1, l) if used[jj]
            )
            walk(i + 1, parity ^ (inv & 1))
            used[j] = False

    walk(0, 0)
    return total


def sign_twist_check(alpha: Sequence[int], ctype: Sequence[int]) -> bool:
    """True iff chi_{alpha^t}(c) = sgn(c) * chi_alpha(c): twisting by the
    sign representation transposes the diagram."""
    alpha = check_partition(alpha)
    ctype = check_partition(ctype)
    return irreducible_character(transpose(alpha), ctype) == sign_of_type(
        ctype
    ) * irreducible_character(alpha, ctype)


# ---------------------------------------------------------------------------
# Counting oracles.


def count_standard_tableaux(alpha: Sequence[int]) -> int:
    """Brute-force count of standard Young tableaux of shape alpha by
    recursively deleting the cell holding n.  Independent of hook lengths."""
    alpha = check_partition(alpha)

    @lru_cache(maxsize=None)
    def count(shape: Partition) -> int:
        if sum(shape) <= 1:
            return 1
        total = 0
        # n sits in a removable corner: last cell of a row strictly longer
        # than the next one.
        for i in range(len(shape)):
            if i + 1 < len(shape) and shape[i] == shape[i + 1]:
                continue
            smaller = shape[:i] + ((shape[i] - 1,) if shape[i] > 1 else ()) + shape[i + 1 :]
            total += count(smaller)
        return total

    return count(alpha)


def derangement_count_recurrence(n: int) -> int:
    """d_n by the recurrence d_n = (n-1)(d_{n-1} + d_{n-2}); independent of
    the inclusion-exclusion route."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = 1, 0  # d_0, d_1
    if n == 0:
        return a
    for m in range(2, n + 1):
        a, b = b, (m - 1) * (a + b)
    return b


def fixed_point_census(n: int) -> dict[int, int]:
    """Histogram of fixed-point counts over all of S_n, by enumeration."""
    census: dict[int, int] = {}
    for s in all_perms(n):
        k = num_fixed_points(s)
        census[k] = census.get(k, 0) + 1
    return census


def many_fixed_points_count(n: int) -> int:
    """Number of permutations with at least floor(n/2) fixed points (exact,
    by enumeration); at most n!/floor(n/2)!."""
    half = n // 2
    return sum(v for k, v in fixed_point_census(n).items() if k >= half)


# ---------------------------------------------------------------------------
# Agreement graphs by direct agreement counting, and unpruned searches.

NAIVE_CAP = 4


def agreement_matrix(verts: Sequence[Sequence[int]], t: int) -> np.ndarray:
    """Boolean adjacency of the vertex list ``verts``: i ~ j when the two
    permutations agree on exactly t-1 points, found by comparing every pair
    position by position."""
    arr = np.array(verts, dtype=np.int8)
    agree = (arr[:, None, :] == arr[None, :, :]).sum(axis=2)
    return agree == t - 1


def agreement_bitsets(verts: Sequence[Sequence[int]], t: int) -> tuple[int, ...]:
    """``agreement_matrix`` as Python-int bitmasks, one per vertex."""
    return tuple(
        sum(1 << int(j) for j in np.flatnonzero(row)) for row in agreement_matrix(verts, t)
    )


def max_independent_set_naive(n: int, t: int = 2) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Unpruned exhaustive scan over all independent sets, as the oracle for
    the branch-and-bound at tiny n."""
    if n > NAIVE_CAP:
        raise ValueError(f"naive search capped at n <= {NAIVE_CAP}")
    verts, adj = graph_bitsets(n, t)
    size = len(verts)
    best = (0, 0)

    def walk(index: int, chosen: int, chosen_size: int, blocked: int) -> None:
        nonlocal best
        if chosen_size > best[0]:
            best = (chosen_size, chosen)
        for v in range(index, size):
            if not (blocked >> v) & 1:
                walk(v + 1, chosen | (1 << v), chosen_size + 1, blocked | adj[v] | (1 << v))

    walk(0, 0, 0, 0)
    count, mask = best
    return count, tuple(verts[i] for i in range(size) if mask >> i & 1)


def maximum_sets(n: int, t: int = 2) -> list[tuple[tuple[int, ...], ...]]:
    """Every maximum independent set, for tiny n (uniqueness studies)."""
    if n > NAIVE_CAP:
        raise ValueError(f"exhaustive listing capped at n <= {NAIVE_CAP}")
    verts, adj = graph_bitsets(n, t)
    size = len(verts)
    best_size = max_independent_set(n, t).independence_number
    found: list[int] = []

    def walk(index: int, chosen: int, chosen_size: int, blocked: int) -> None:
        if chosen_size == best_size:
            found.append(chosen)
        for v in range(index, size):
            if not (blocked >> v) & 1:
                if chosen_size + (size - v) < best_size:
                    break
                walk(v + 1, chosen | (1 << v), chosen_size + 1, blocked | adj[v] | (1 << v))

    walk(0, 0, 0, 0)
    return [
        tuple(verts[i] for i in range(size) if mask >> i & 1) for mask in sorted(found)
    ]


def relabel_graph_independence_number(n: int, t: int, relabel: tuple[int, ...]) -> int:
    """Independence number of the graph with points renamed by ``relabel``
    (conjugating every vertex), on its own agreement-count adjacency; must
    match the unrelabelled value."""
    verts = list(itertools.permutations(range(1, n + 1)))
    inv = [0] * n
    for i, v in enumerate(relabel, start=1):
        inv[v - 1] = i
    conj = [tuple(relabel[s[inv[i - 1] - 1] - 1] for i in range(1, n + 1)) for s in verts]
    adj = agreement_bitsets(conj, t)
    result = _solve(tuple(verts), adj, t, force_identity=False, node_budget=None)
    return result.independence_number
