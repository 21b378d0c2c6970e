"""Independent reference implementations that the tests compare the
production routes against.  None of them is used by the package itself.

* the determinantal character route (permutation characters by a
  distribution count, irreducible characters as signed sums of them), the
  oracle for the Murnaghan-Nakayama characters of ``CharacterTable``;
* Murnaghan-Nakayama on partition tuples and beta-number tuples, validating
  every recursive call, the oracle for the bitmask kernel of
  ``characters.mn_character`` (largest cycle first, one memo entry per
  partition and remaining cycle type);
* a standard-tableau count, the oracle for hook-length dimensions;
* the derangement recurrence, the oracle for inclusion-exclusion;
* a fixed-point census of S_n by enumeration, checked against the
  rencontres numbers C(n, k) d_{n-k}, and the generating set of each
  agreement graph by enumeration;
* the k-medium partitions, and the count of 2-point stabilizer members
  agreeing exactly once with a permutation, by enumeration;
* pairwise agreement scans in pure Python: the t-intersecting check, and the
  lexicographically least pair agreeing on exactly t-1 points, the oracle
  for ``families.verify``;
* agreement-graph adjacency by direct agreement counting, the oracle for the
  rank-based Cayley builder;
* unpruned independent-set scans and a relabelled search, the oracles for
  the branch-and-bound, the greedy clique count without its early exit, and
  the search certificate by pairwise ``agree_count`` loops, the oracle for
  ``search.verify_certificate``;
* the dense two-phase Bland simplex that recomputes every reduced cost on
  each iteration and pivots across whole rows, the oracle for the sparse
  carried-row kernel of ``weightopt.solve_lp_min``;
* the spectrum certificate on the whole adjacency matrix (modular matrix
  products for the annihilator and the power traces), the oracle for the
  one-column certificate of ``spectrum.brute_force_spectrum``;
* isotypic projection matrices (n <= 5) and the projection mass as a sum of
  chi(s u^-1) over every ordered pair of a family, the oracles for the
  count-tensor masses of ``bounds.projection_mass``.

It also holds ``RATIO_BANDS``, the regression bands the tests put on two
asymptotic ratios.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from snspectra.characters import mn_character as production_character
from snspectra.partitions import (
    MEDIUM,
    Partition,
    check_partition,
    classify,
    dimension,
    partitions_of,
    transpose,
)
from snspectra.perms import (
    DEFAULT_ENUMERATION_CAP,
    agree_count,
    all_perms,
    compose,
    cycle_type,
    derangement_count,
    inverse,
    perms_fixing,
    sign_of_type,
)
from snspectra.search import SearchResult, _solve, graph_bitsets, max_independent_set
from snspectra.spectrum import SpectrumCertificate, _crt, _primes_below, adjacency_matrix
from snspectra.weightopt import LPError, solve_linear

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


def num_fixed_points(s: Sequence[int]) -> int:
    return sum(v == i for i, v in enumerate(s, start=1))


def fixed_point_census(n: int) -> dict[int, int]:
    """Histogram of fixed-point counts over all of S_n, by enumeration."""
    census: dict[int, int] = {}
    for s in all_perms(n):
        k = num_fixed_points(s)
        census[k] = census.get(k, 0) + 1
    return census


def generating_set(n: int, t: int, cap: int = DEFAULT_ENUMERATION_CAP) -> frozenset[tuple[int, ...]]:
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
    adj = agreement_bitsets(conj, t)
    result = _solve(tuple(verts), adj, t, force_identity=False, node_budget=None)
    return result.independence_number


def verify_certificate_by_pairs(result: SearchResult) -> bool:
    """Re-check the witness: pairwise independent, and, when the search was
    exhausted, no single vertex extends it.  A search cut short by its node
    budget claims no maximality, so its witness is checked for independence
    only.  Maximality-by-extension does not by itself prove the independence
    number; that comes from the exhausted search tree."""
    members = result.witness
    if len(members) != result.independence_number:
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
# Dense exact simplex (minimization, equality form, x >= 0).


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = 1 / tableau[row][col]
    tableau[row] = [x * inv for x in tableau[row]]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            factor = tableau[r][col]
            tableau[r] = [a - factor * b for a, b in zip(tableau[r], tableau[row])]
    basis[row] = col


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
        _pivot(tableau, basis, leaving_row, entering)


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
                _pivot(tableau, basis, r, col)
    # any remaining artificial rows are redundant zero rows; freeze them
    phase2_cost = [Fraction(x) for x in cost] + [Fraction(0)] * nrows
    objective = _simplex_phase(tableau, basis, phase2_cost, ncols)
    x = [Fraction(0)] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            x[b] = tableau[r][-1]
    return x, objective, basis


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


def dense_brute_force_spectrum(
    n: int, t: int
) -> tuple[tuple[tuple[int, int], ...], SpectrumCertificate]:
    """The brute-force spectrum with its certificate checked on the whole
    matrix: prod(A - lam I) = 0 mod each prime by matrix products, and the
    multiplicities from the traces of the matrix powers.  Same primes, same
    rounding and the same Vandermonde system as the production oracle."""
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
    return pairs, SpectrumCertificate("matrix-annihilation", tuple(primes), max_residual, r + 1)


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
