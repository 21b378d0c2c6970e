"""Independent reference implementations that the tests compare the
production routes against.  None of them is used by the package itself.

* the enumeration of S_n and of its point-stabilizer cosets by
  ``itertools.permutations``, the oracle for ``perms.perm_rows`` and for the
  rows of the family constructors;
* the determinantal character route (permutation characters by a
  distribution count, irreducible characters as signed sums of them), the
  oracle for the Murnaghan-Nakayama characters of ``CharacterTable``;
* Murnaghan-Nakayama on partition tuples and beta-number tuples, validating
  every recursive call, the oracle for the bitmask kernel of
  ``characters.mn_character`` (largest cycle first, one memo entry per
  partition and remaining cycle type);
* a standard-tableau count, and the hook table from the transposed
  diagram, the oracles for the one-pass hook product of
  ``partitions.dimension``;
* the two-term derangement recurrence and inclusion-exclusion, the oracles
  for the one-term recurrence of ``perms.derangement_count``;
* a fixed-point census of S_n by enumeration, checked against the
  rencontres numbers C(n, k) d_{n-k}, and the generating set of each
  agreement graph by enumeration;
* the eigenvalue as a sum of class eigenvalues |c| chi_alpha(c) / f^alpha
  over Murnaghan-Nakayama characters, the oracle for the shifted-Schur
  route of ``spectrum.eigenvalue``;
* the k-medium partitions, and the count of 2-point stabilizer members
  agreeing exactly once with a permutation, by enumeration;
* pairwise agreement scans in pure Python: the t-intersecting check, and the
  lexicographically least pair agreeing on exactly t-1 points, the oracle
  for ``families.verify``;
* agreement-graph adjacency by direct agreement counting, and by ranking
  g∘s over the generators s with t-1 fixed points (``generator_rank_graph``,
  the one construction that counts no agreements), the oracles for
  ``families.agreement_graph``;
* unpruned independent-set scans and a relabelled search, the oracles for
  the branch-and-bound; the recursive branch-and-bound with a pure-Python
  degree scan, the oracle for the tree, node count and witness of the
  explicit-stack search and for its word-matrix branching choice, both
  scanning bottom-up while the search runs on mirrored masks; the greedy
  clique count without its early exit; and
  the search certificate by pairwise ``agree_count`` loops, the oracle for
  ``search.verify_certificate``;
* the dense two-phase Bland simplex in ``Fraction`` arithmetic that
  recomputes every reduced cost on each iteration and pivots across whole
  rows, the oracle for the fraction-free carried-row kernel of
  ``weightopt.solve_lp_min``, and dense Gauss-Jordan
  solves, for the dual of a basis and for the Vandermonde system of the
  dense spectrum oracle;
* the spectrum certificate on the whole adjacency matrix (modular matrix
  products for the annihilator and the power traces), the oracle for the
  one-column certificate of ``spectrum.brute_force_spectrum``;
* isotypic projection matrices (n <= 5) and the projection mass as a sum of
  chi(s u^-1) over every ordered pair of a family, the oracles for the
  count-tensor distances of ``bounds.exact_distance_sq_to_span``.

It also holds helpers that only the tests read: member sets of families,
fixed points, agreement counts, cycle types, signs, a permutation check and
parsers for cycle notation and for partition text, for writing test cases;
the dense adjacency matrix; and the paper's exclusion step, the families H
and M against a fixed outside permutation with their lower bounds.  And it holds
``RATIO_BANDS``, the regression bands the tests put on two asymptotic
ratios.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from snspectra import weightopt
from snspectra.characters import mn_character as production_character
from snspectra.families import Family
from snspectra.partitions import (
    MEDIUM,
    Partition,
    check_partition,
    classify,
    dimension,
    partitions_of,
)
from snspectra.perms import (
    ENUMERATION_CAP,
    compose,
    derangement_count,
    inverse,
    perm_rows,
)
from snspectra.search import (
    SearchResult,
    _adjacency_bitsets,
    _solve,
    graph_bitsets,
    max_independent_set,
)
from snspectra.spectrum import (
    Classes,
    SpectrumCertificate,
    _crt,
    _primes_below,
    class_eigenvalues,
)
from snspectra.weightopt import LPError

CycleType = tuple[int, ...]

# ---------------------------------------------------------------------------
# The reference enumeration, the oracle for ``perms.perm_rows`` and the
# family constructors, and member sets for comparing families.


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def all_perms(n: int, cap: int = ENUMERATION_CAP) -> Iterator[tuple[int, ...]]:
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


def fixed_points(s: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(s, start=1) if v == i)


def fixed_points_ge(s: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple(i for i in fixed_points(s) if i >= k)


def member_set(rows: Iterable[Sequence[int]]) -> set[tuple[int, ...]]:
    """The permutations of a family's rows (or any permutations) as a set of
    tuples of ints, for ``|``, ``&`` and ``in``."""
    return {tuple(map(int, s)) for s in rows}


# ---------------------------------------------------------------------------
# Permutation statistics, cycle-notation and partition input, for writing
# test cases.


def agree_count(s: Sequence[int], t: Sequence[int]) -> int:
    """Number of points where s and t take the same value.

    Equals the number of fixed points of ``inverse(t) ∘ s``.
    """
    if len(s) != len(t):
        raise ValueError(f"degrees differ: {len(s)} vs {len(t)}")
    return sum(a == b for a, b in zip(s, t))


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


def is_permutation(images: Sequence[int]) -> bool:
    """Check that ``images`` is a bijection of {1..n}.

    >>> is_permutation((2, 1, 3)), is_permutation((2, 2, 3))
    (True, False)
    """
    n = len(images)
    return sorted(images) == list(range(1, n + 1))


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


# Partition text format: comma-separated parts, exponent shorthand accepted
# ("2^2,1" means "2,2,1"); ``partitions.format_partition`` prints the long
# form.

_PART_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text: str, n: int | None = None) -> Partition:
    """Parse "4,2,1" or "2^2,1" into a partition tuple.

    >>> parse_partition("2^2,1")
    (2, 2, 1)
    """
    parts: list[int] = []
    for tok in text.replace(" ", "").split(","):
        if not tok:
            continue
        m = _PART_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad partition token: {tok!r}")
        value = int(m.group(1))
        count = int(m.group(2)) if m.group(2) else 1
        parts.extend([value] * count)
    alpha = check_partition(tuple(sorted(parts, reverse=True)))
    if n is not None and sum(alpha) != n:
        raise ValueError(f"partition {alpha!r} does not sum to {n}")
    return alpha


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
# Murnaghan-Nakayama on partition tuples.


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
# Counting oracles.


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
    """Hook length of every cell of the diagram of alpha, from the column
    heights of ``transpose``."""
    alpha = check_partition(alpha)
    cols = transpose(alpha)
    return [
        [(alpha[i] - j - 1) + (cols[j] - i - 1) + 1 for j in range(alpha[i])]
        for i in range(len(alpha))
    ]


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


def derangement_count_inclusion_exclusion(n: int) -> int:
    """d_n by inclusion-exclusion: sum over i of (-1)^i n!/i!; independent
    of both recurrences."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    fact_n = math.factorial(n)
    return sum((-1) ** i * (fact_n // math.factorial(i)) for i in range(n + 1))


def derangement_count_recurrence(n: int) -> int:
    """d_n by the recurrence d_n = (n-1)(d_{n-1} + d_{n-2}); independent of
    the one-term recurrence of the package and of inclusion-exclusion."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = 1, 0  # d_0, d_1
    if n == 0:
        return a
    for m in range(2, n + 1):
        a, b = b, (m - 1) * (a + b)
    return b


def class_sum_eigenvalue(alpha: Partition, classes: Classes) -> int:
    """The eigenvalue of the classes ``classes`` on the isotypic component
    of alpha: the sum of their class eigenvalues |c| chi_alpha(c) / f^alpha."""
    return sum(class_eigenvalues(alpha, classes))


def num_fixed_points(s: Sequence[int]) -> int:
    return sum(v == i for i, v in enumerate(s, start=1))


def fixed_point_census(n: int) -> dict[int, int]:
    """Histogram of fixed-point counts over all of S_n, by enumeration."""
    census: dict[int, int] = {}
    for s in all_perms(n):
        k = num_fixed_points(s)
        census[k] = census.get(k, 0) + 1
    return census


def generating_set(n: int, t: int, cap: int = ENUMERATION_CAP) -> frozenset[tuple[int, ...]]:
    """Permutations of S_n with exactly t-1 fixed points, by enumeration: the
    generators of the graph joining permutations that agree at exactly t-1
    points.  ``t - 1 = n - 1`` is impossible (one misplaced point forces
    another), so that case yields the empty set; t outside 1..n is an error."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    return frozenset(p for p in all_perms(n, cap=cap) if num_fixed_points(p) == t - 1)


def rencontres_count(n: int, k: int) -> int:
    """Number of permutations in S_n with exactly k fixed points."""
    if not 0 <= k <= n:
        return 0
    return math.comb(n, k) * derangement_count(n - k)


def many_fixed_points_count(n: int) -> int:
    """Number of permutations with at least floor(n/2) fixed points (exact,
    by enumeration); at most n!/floor(n/2)!."""
    half = n // 2
    return sum(v for k, v in fixed_point_census(n).items() if k >= half)


def medium_partitions(n: int, k: int) -> tuple[Partition, ...]:
    return tuple(a for a in partitions_of(n) if classify(a, k) == MEDIUM)


def count_agreeing_exactly_once(tau: Sequence[int], n: int) -> int:
    """Number of permutations fixing 1 and 2 that agree with tau at exactly
    one point, by enumeration over the stabilizer coset."""
    if len(tau) != n:
        raise ValueError("degree mismatch")
    tau = tuple(tau)
    return sum(
        1 for s in perms_fixing([(1, 1), (2, 2)], n) if agree_count(s, tau) == 1
    )


# ---------------------------------------------------------------------------
# The paper's exclusion step: the two auxiliary families used against a
# fixed outside permutation, and their lower bounds.


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
    return Family(n, "H", list(members))


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
    return Family(n, "M", list(members))


def family_M_lower_bound(rho: Sequence[int], n: int) -> int:
    """|fixed points of rho >= 5| * d_{n-4}."""
    return len(fixed_points_ge5(rho)) * derangement_count(n - 4)


# ---------------------------------------------------------------------------
# Pairwise agreement scans.


def is_t_intersecting(members: Iterable[Sequence[int]], t: int) -> bool:
    """Every two distinct members agree on at least t points."""
    return all(agree_count(a, b) >= t for a, b in itertools.combinations(members, 2))


def least_agreeing_pair(
    members: Iterable[Sequence[int]], t: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The lexicographically least pair (a, b), a < b, of members agreeing on
    exactly t-1 points, or None when there is none."""
    ms = sorted(tuple(m) for m in members)
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if agree_count(a, b) == t - 1:
                return a, b
    return None


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


def generator_rank_graph(n: int, t: int) -> np.ndarray:
    """Boolean adjacency of the graph joining permutations that agree on
    exactly t-1 points, vertices in lexicographic order, as a Cayley graph:
    row g is set at the ranks of g∘s for the generators s with exactly t-1
    fixed points, each rank found by binary search over the base-n codes of
    the 0-based rows (7^7 < 2^31 under the explicit-graph cap)."""
    perms = perm_rows(n) - 1
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int32)
    codes = perms @ place
    gens = perms[(perms == np.arange(n)).sum(axis=1) == t - 1]
    # code(g∘s) = sum_i g[s[i]] place[i] = sum_j g[j] place[s^-1[j]]
    nbrs = np.searchsorted(codes, perms @ place[np.argsort(gens, axis=1)].T)
    graph = np.zeros((len(perms), len(perms)), dtype=bool)
    np.put_along_axis(graph, nbrs, True, axis=1)
    return graph


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
    verts = list(all_perms(n))
    _, adj, _, _ = graph_bitsets(n, t)
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
    verts = list(all_perms(n))
    _, adj, _, _ = graph_bitsets(n, t)
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


def greedy_clique_count(candidates: int, adj: tuple[int, ...]) -> int:
    """Number of cliques in the greedy clique partition of ``candidates``,
    counted to the end, the oracle for the early-exit bound of the search."""
    cliques = 0
    rest = candidates
    while rest:
        v = (rest & -rest).bit_length() - 1
        common = rest & adj[v]
        rest ^= 1 << v
        while common:
            u = (common & -common).bit_length() - 1
            rest ^= 1 << u
            common &= adj[u]
        cliques += 1
    return cliques


def relabel_graph_independence_number(n: int, t: int, relabel: tuple[int, ...]) -> int:
    """Independence number of the graph with points renamed by ``relabel``
    (conjugating every vertex), on its own agreement-count adjacency; must
    match the unrelabelled value."""
    verts = list(itertools.permutations(range(1, n + 1)))
    inv = [0] * n
    for i, v in enumerate(relabel, start=1):
        inv[v - 1] = i
    conj = [tuple(relabel[s[inv[i - 1] - 1] - 1] for i in range(1, n + 1)) for s in verts]
    graph = agreement_matrix(conj, t)
    adj, words = _adjacency_bitsets(graph)
    # forcing one vertex is sound on any labelling of a vertex-transitive graph
    result = _solve(np.array(verts), adj, words, graph, t, node_budget=None)
    return result.independence_number


def branch_vertex_by_scan(pool: int, adj: tuple[int, ...]) -> int:
    """The candidate of ``pool`` with the most candidate neighbours, ties to
    the lowest vertex index, by one Python-int popcount per candidate; the
    oracle for the word-matrix choice of the search."""
    v, v_deg = -1, -1
    scan = pool
    while scan:
        u = (scan & -scan).bit_length() - 1
        scan &= scan - 1
        d = (adj[u] & pool).bit_count()
        if d > v_deg:
            v, v_deg = u, d
    return v


def recursive_search(
    adj: tuple[int, ...], *, force_identity: bool, node_budget: int | None
) -> tuple[int, int, int, bool]:
    """(independence number, nodes, witness mask, exhausted) of the
    recursive branch-and-bound: the same prunes (popcount, then the greedy
    clique count, then branch on ``branch_vertex_by_scan``, include child
    first) as the explicit-stack search, the oracle for its tree."""
    size = len(adj)
    best_size = best_mask = nodes = 0
    exhausted = True

    def branch(chosen: int, chosen_size: int, pool: int) -> None:
        nonlocal best_size, best_mask, nodes, exhausted
        if node_budget is not None and nodes >= node_budget:
            exhausted = False
            return
        nodes += 1
        if chosen_size > best_size:
            best_size, best_mask = chosen_size, chosen
        room = best_size - chosen_size
        if not pool or pool.bit_count() <= room or greedy_clique_count(pool, adj) <= room:
            return
        v = branch_vertex_by_scan(pool, adj)
        branch(chosen | (1 << v), chosen_size + 1, pool & ~adj[v] & ~(1 << v))
        branch(chosen, chosen_size, pool & ~(1 << v))

    full = (1 << size) - 1
    if force_identity and size:
        branch(1, 1, (full ^ 1) & ~adj[0])
    else:
        branch(0, 0, full)
    return best_size, nodes, best_mask, exhausted


def verify_certificate_by_pairs(result: SearchResult) -> bool:
    """Re-check the witness: every member a permutation of 1..n, pairwise
    independent, and, when the search was exhausted, no single vertex
    extends it.  A search cut short by its node budget claims no maximality,
    so its witness is checked for independence only.  Maximality-by-extension
    does not by itself prove the independence number; that comes from the
    exhausted search tree."""
    members = result.witness
    if len(members) != result.independence_number:
        return False
    try:  # entries must be integers, as for a pin: 4.5 and 2.0 are refused
        if any(sorted(map(operator.index, m)) != list(range(1, result.n + 1)) for m in members):
            return False
    except TypeError:
        return False
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if agree_count(members[i], members[j]) == result.t - 1:
                return False
    if not result.exact:
        return True
    chosen = set(members)
    for v in all_perms(result.n):
        if v in chosen:
            continue
        if all(agree_count(v, m) != result.t - 1 for m in members):
            return False  # extension found; witness not even maximal
    return True


# ---------------------------------------------------------------------------
# Dense exact simplex (minimization, equality form, x >= 0), and dense
# Gauss-Jordan solves.


def _eliminate(rows: list[list[Fraction]], row: int, col: int) -> None:
    """Gauss-Jordan step on ``rows[row][col]`` across whole rows, in place."""
    inv = 1 / rows[row][col]
    rows[row] = [x * inv for x in rows[row]]
    for r in range(len(rows)):
        if r != row and rows[r][col] != 0:
            factor = rows[r][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]


def solve_linear(aug: list[list[Fraction]]) -> list[Fraction]:
    """Solve the square system [A | b], given as augmented rows and reduced in
    place, exactly by Gauss-Jordan elimination with the first nonzero pivot
    at or below the diagonal; ArithmeticError when A is singular."""
    size = len(aug)
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        _eliminate(aug, col, col)
    return [row[size] for row in aug]


def _simplex_phase(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: Sequence[Fraction],
    allowed: int,
) -> Fraction:
    """Run Bland-rule simplex to optimality on the given cost row;
    ``allowed`` caps the columns eligible to enter (excludes artificials in
    phase 2).  Returns the optimal objective value."""
    nrows = len(tableau)
    while True:
        # reduced costs: c_j - c_B . column_j
        reduced = []
        for j in range(allowed):
            rc = cost[j] - sum(cost[basis[r]] * tableau[r][j] for r in range(nrows))
            reduced.append(rc)
        entering = next((j for j, rc in enumerate(reduced) if rc < 0), None)
        if entering is None:
            return sum(
                cost[basis[r]] * tableau[r][-1] for r in range(nrows)
            )
        ratios = [
            (tableau[r][-1] / tableau[r][entering], basis[r], r)
            for r in range(nrows)
            if tableau[r][entering] > 0
        ]
        if not ratios:
            raise LPError("unbounded linear program")
        _, _, leaving_row = min(ratios)  # min ratio, ties by basis index
        _eliminate(tableau, leaving_row, entering)
        basis[leaving_row] = entering


def solve_lp_min(
    cost: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]],
    b_eq: Sequence[Fraction],
) -> tuple[list[Fraction], Fraction, list[int]]:
    """Minimize cost.x subject to a_eq x = b_eq, x >= 0, exactly.

    Returns (x, objective, basis column indices).  Raises LPError when
    infeasible or unbounded.
    """
    nrows = len(a_eq)
    ncols = len(cost)
    tableau = []
    for r in range(nrows):
        row = [Fraction(x) for x in a_eq[r]]
        rhs = Fraction(b_eq[r])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tableau.append(row + [Fraction(0)] * nrows + [rhs])
    # artificial identity basis
    for r in range(nrows):
        tableau[r][ncols + r] = Fraction(1)
    basis = [ncols + r for r in range(nrows)]

    phase1_cost = [Fraction(0)] * ncols + [Fraction(1)] * nrows
    value = _simplex_phase(tableau, basis, phase1_cost, ncols + nrows)
    if value != 0:
        raise LPError("infeasible linear program")
    # drive leftover artificials out of the basis
    for r in range(nrows):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if tableau[r][j] != 0), None)
            if col is not None:
                _eliminate(tableau, r, col)
                basis[r] = col
    # any remaining artificial rows are redundant zero rows; freeze them
    phase2_cost = [Fraction(x) for x in cost] + [Fraction(0)] * nrows
    objective = _simplex_phase(tableau, basis, phase2_cost, ncols)
    x = [Fraction(0)] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            x[b] = tableau[r][-1]
    return x, objective, basis


def basis_dual(
    cost: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]],
    basis: Sequence[int],
) -> list[Fraction]:
    """y solving B^T y = c_B for a final basis, by a second Gauss-Jordan
    pass; an artificial basic column is a unit vector of cost 0."""
    nrows = len(a_eq)
    ncols = len(cost)
    # row i of [B^T | c_B] is basic column basis[i], artificials included
    aug = []
    for b in basis:
        if b < ncols:
            aug.append([Fraction(a_eq[r][b]) for r in range(nrows)] + [Fraction(cost[b])])
        else:
            unit = [Fraction(0)] * (nrows + 1)
            unit[b - ncols] = Fraction(1)
            aug.append(unit)
    return solve_linear(aug)


def shift_dual(monkeypatch, shift: Fraction) -> None:
    """Make ``weightopt.solve_lp_min`` read y_r + shift for every row r, at
    ``weightopt._dual``, where it reads the dual from the final reduced
    costs."""
    read = weightopt._dual

    def shifted(*args):
        return [yr + shift for yr in read(*args)]

    monkeypatch.setattr(weightopt, "_dual", shifted)


# ---------------------------------------------------------------------------
# The spectrum certificate on the whole adjacency matrix.


def annihilation_holds_matrix(adj: np.ndarray, values: Sequence[int], p: int) -> bool:
    """Check prod(A - lam I) == 0 mod p with exact float64 modular matmuls.
    Requires N * (p-1)^2 < 2^53."""
    nverts = adj.shape[0]
    eye = np.eye(nverts)
    acc = eye
    for lam in values:
        factor = np.remainder(adj - lam * eye, p)
        acc = np.remainder(acc @ factor, p)
        if not acc.any():
            return True
    return not acc.any()


def exact_traces_matrix(adj: np.ndarray, count: int, degree: int) -> list[int]:
    """Tr(A^k) for k = 0..count-1, exactly, via modular matrix powers and CRT."""
    nverts = adj.shape[0]
    bound = nverts * max(1, degree) ** max(1, count - 1)
    cap = math.isqrt(2**53 // nverts)
    primes = _primes_below(cap, 2 * bound)
    residues = [[] for _ in range(count)]
    for p in primes:
        power = np.eye(nverts)
        adj_p = np.remainder(adj, p)
        for k in range(count):
            residues[k].append(int(np.trace(power)) % p)
            if k + 1 < count:
                power = np.remainder(power @ adj_p, p)
    out = []
    for k in range(count):
        value, modulus = _crt(residues[k], primes)
        if value > modulus // 2:  # traces are nonnegative; no wrap expected
            raise ArithmeticError("trace reconstruction exceeded bound")
        out.append(value)
    return out


def adjacency_matrix(n: int, t: int = 2) -> np.ndarray:
    """Dense 0/1 adjacency matrix (float64 for exact small-int BLAS work) of
    the graph joining permutations that agree on exactly t-1 points, rows
    and columns in lexicographic vertex order, from the generator ranks."""
    return generator_rank_graph(n, t).astype(np.float64)


def dense_brute_force_spectrum(
    n: int, t: int
) -> tuple[tuple[tuple[int, int], ...], SpectrumCertificate]:
    """The brute-force spectrum with its certificate checked on the whole
    matrix: prod(A - lam I) = 0 mod each prime by matrix products, and the
    multiplicities from the traces of the matrix powers by a rational
    Vandermonde solve, where the production oracle takes the traces of the
    spectral idempotents.  Same primes and the same rounding."""
    adj = adjacency_matrix(n, t)
    nverts = adj.shape[0]
    degree = int(adj[0].sum())
    numeric = np.linalg.eigvalsh(adj)
    rounded = np.rint(numeric).astype(np.int64)
    max_residual = float(np.max(np.abs(numeric - rounded)))
    distinct = sorted({int(x) for x in rounded})
    bound = math.prod(degree + abs(lam) + 1 for lam in distinct)
    primes = _primes_below(math.isqrt(2**53 // nverts), 2 * bound)
    for p in primes:
        if not annihilation_holds_matrix(adj, distinct, p):
            raise ArithmeticError(f"annihilator nonzero mod {p}")
    r = len(distinct)
    traces = exact_traces_matrix(adj, r + 1, degree)
    mults = solve_linear(
        [[Fraction(lam) ** k for lam in distinct] + [Fraction(traces[k])] for k in range(r)]
    )
    if sum(m * lam**r for m, lam in zip(mults, distinct)) != traces[r]:
        raise ArithmeticError("extra moment check failed")
    pairs = tuple((lam, int(m)) for lam, m in zip(distinct, mults) if m > 0)
    return pairs, SpectrumCertificate(tuple(primes), max_residual, r + 1)


# ---------------------------------------------------------------------------
# Isotypic projection matrices and pairwise projection masses.

PROJECTION_CAP = 5


@dataclass(frozen=True)
class ProjectionMatrix:
    """Orthogonal projection of the group algebra onto one isotypic
    component, as the exact rational matrix (f/n!) * C where
    C[s][t] = chi(s t^-1).  The integer core C is kept for fast exact
    identity checks; entries are served as Fractions."""

    alpha: Partition
    n: int
    char_matrix: np.ndarray  # int64, C[s][t]

    @property
    def scale(self) -> Fraction:
        return Fraction(dimension(self.alpha), math.factorial(self.n))

    def entry(self, i: int, j: int) -> Fraction:
        return self.scale * int(self.char_matrix[i, j])

    def trace(self) -> Fraction:
        return self.scale * int(np.trace(self.char_matrix))

    def is_idempotent(self) -> bool:
        # P^2 = P  <=>  C @ C = (n!/f) C, and f divides n!.
        ratio = math.factorial(self.n) // dimension(self.alpha)
        product = self.char_matrix @ self.char_matrix
        return bool(np.array_equal(product, ratio * self.char_matrix))

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.char_matrix, self.char_matrix.T))


def isotypic_projection(alpha: Partition, n: int) -> ProjectionMatrix:
    """Materialized projection matrix (n! x n! entries), for n <= PROJECTION_CAP."""
    if n > PROJECTION_CAP:
        raise ValueError(f"projection matrices are capped at n <= {PROJECTION_CAP}")
    if sum(alpha) != n:
        raise ValueError(f"{alpha} is not a partition of {n}")
    perms = list(all_perms(n))
    char_by_type = {c: production_character(alpha, c) for c in partitions_of(n)}
    size = len(perms)
    mat = np.zeros((size, size), dtype=np.int64)
    inverses = [inverse(p) for p in perms]
    for i, s in enumerate(perms):
        for j, tinv in enumerate(inverses):
            mat[i, j] = char_by_type[cycle_type(compose(s, tinv))]
    return ProjectionMatrix(alpha=tuple(alpha), n=n, char_matrix=mat)


def projections_orthogonal(p: ProjectionMatrix, q: ProjectionMatrix) -> bool:
    return bool(not (p.char_matrix @ q.char_matrix).any())


def projections_complete(projs: Sequence[ProjectionMatrix], n: int) -> bool:
    """sum_alpha P_alpha = identity, checked as sum f_alpha C_alpha = n! I."""
    size = math.factorial(n)
    acc = np.zeros((size, size), dtype=np.int64)
    for p in projs:
        acc += dimension(p.alpha) * p.char_matrix
    return bool(np.array_equal(acc, size * np.eye(size, dtype=np.int64)))


def pair_class_counts(members: Sequence[Sequence[int]], n: int) -> Counter:
    """How many ordered pairs (s, u) of the family give s u^-1 each cycle
    type, by following the cycles of every s u^-1 (numpy, in blocks)."""
    arr = np.array(members, dtype=np.int64).reshape(len(members), n) - 1
    inv = np.argsort(arr, axis=1)
    points = np.arange(n)
    counts: Counter = Counter()
    for start in range(0, len(arr), 128):
        block = arr[start : start + 128]
        g = block[np.arange(len(block))[:, None, None], inv[None, :, :]].reshape(-1, n)
        length = np.zeros_like(g)  # the length of the cycle through each point
        image = g
        for k in range(1, n + 1):
            length[(image == points) & (length == 0)] = k
            image = np.take_along_axis(g, image, axis=1)
        # key: the number of points on cycles of each length, in base n + 1
        key = sum((length == k).sum(axis=1) * (n + 1) ** (k - 1) for k in range(1, n + 1))
        for code, times in zip(*np.unique(key, return_counts=True)):
            ctype = []
            for k in range(1, n + 1):
                ctype += [k] * (int(code) // (n + 1) ** (k - 1) % (n + 1) // k)
            counts[tuple(sorted(ctype, reverse=True))] += int(times)
    return counts


def pair_masses(members: Sequence[Sequence[int]], n: int) -> dict[Partition, Fraction]:
    """||P_alpha chi_A||^2 = (f_alpha / n!^2) sum over the ordered pairs
    (s, u) of chi_alpha(s u^-1), for every partition alpha of n."""
    classes = pair_class_counts(members, n)
    fact = math.factorial(n)
    return {
        alpha: Fraction(
            dimension(alpha) * sum(times * production_character(alpha, c) for c, times in classes.items()),
            fact * fact,
        )
        for alpha in partitions_of(n)
    }


# ---------------------------------------------------------------------------
# Regression bands for asymptotic ratios, frozen from exact computation at
# desk scale.  These guard the implementation; they are not theorems.
RATIO_BANDS: dict[str, tuple[Fraction, Fraction]] = {
    # count_agreeing_exactly_once(tau, n) / (n-2)! hovers near 1/e ~ 0.368
    "agree-once": (Fraction(3, 10), Fraction(45, 100)),
    # |B| / (n-2)! approaches 1 - 1/e ~ 0.632 from above over n = 8..12
    "family-B": (Fraction(60, 100), Fraction(67, 100)),
}
