"""Spectra of forbidden-agreement Cayley graphs on S_n.

The graph joins two permutations when they agree on exactly t-1 points; its
generating set is the union of the conjugacy classes with exactly k = t-1
fixed points, so every isotypic component is an eigenspace.  All
eigenvalues here are exact integers.

``eigenvalue`` needs no character values.  The permutations that fix a
given j-set pointwise form a copy of S_{n-j}, over which chi_alpha sums to
(n-j)! f^{alpha/(n-j)}, where f^{alpha/mu} counts the standard tableaux of
the skew shape alpha/mu.  Inclusion-exclusion over the fixed points then
gives, with n = |alpha|,

    lambda_alpha = sum_{m=0}^{n-k} (-1)^(n-m-k) C(n-m, k) h*_m(alpha),

where h*_m(alpha) = n↓m f^{alpha/(m)} / f^alpha is the shifted complete
homogeneous function (Okounkov and Olshanski, "Shifted Schur functions",
St. Petersburg Math. J. 9, 1998), n↓m = n (n-1) ... (n-m+1), and h*_m
vanishes for m > alpha_1.  ``full_spectrum`` raises ArithmeticError unless
four exact checks hold:

* integrality: f^alpha h*_m(alpha) is divisible by n↓m for every m;
* the first moment: sum f^2 lambda = 0, the trace of the adjacency matrix;
* the degree: lambda_(n) = C(n, k) d_{n-k};
* the deciding rows: every row holding lambda_min or lambda_second, which
  decide the Hoffman bound and nu, equals its class sum
  sum_c |c| chi_alpha(c) / f^alpha over Murnaghan-Nakayama characters;

together with the trace identity sum f^2 lambda^2 = n! * degree.

``agreement_graph`` builds the explicit graph from agreement counts, the one
definition of an edge; ``brute_force_spectrum``, the independent oracle,
diagonalizes it numerically, rounds, and then *proves* the rounded multiset
exact.  The graph is a Cayley graph, so A commutes with left translation;
once that is checked, the column of the identity stands for the whole
matrix: (a) prod(A - lambda I) vanishes on it, modulo enough primes to cover
the entry bound, and (b) its closed-walk counts give the exact power traces,
and each multiplicity is the trace of its spectral idempotent
prod_{mu != lambda} (A - mu I) / (lambda - mu), a combination of those traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .characters import CycleType, class_size, mn_character
from .families import AGREEMENT_BLOCK, agreement_counts
from .lazy import np
from .partitions import Partition, dimension, partitions_of
from .perms import derangement_count, perm_rows


# ---------------------------------------------------------------------------
# The class-eigenvalue map.  The generating set is a union of conjugacy
# classes, given as ((cycle type, class size), ...) and never enumerated; it
# is inverse-closed and conjugation-invariant, so each class c acts on the
# isotypic component of alpha as the scalar |c| chi_alpha(c) / f^alpha.

Classes = tuple[tuple[CycleType, int], ...]


def generating_classes(n: int, t: int) -> Classes:
    """Classes of S_n with exactly t-1 fixed points, with their sizes.

    ``t - 1 = n - 1`` admits no permutations; the tuple is then empty."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}")
    return tuple((c, class_size(c)) for c in partitions_of(n) if c.count(1) == t - 1)


def class_eigenvalues(alpha: Partition, classes: Classes) -> tuple[int, ...]:
    """The scalar |c| chi_alpha(c) / f^alpha of each class c on the isotypic
    component of alpha.  Each is a central character value, hence an
    integer; a remainder would mean a character bug and raises."""
    f = dimension(alpha)
    values = []
    for c, size in classes:
        total = size * mn_character(alpha, c)
        value, rest = divmod(total, f)
        if rest:
            raise ArithmeticError(f"class {c} on {alpha} is not integral: {total}/{f}")
        values.append(value)
    return tuple(values)


def _shifted_complete(alpha: Partition, top: int) -> list[int]:
    """h*_0(alpha), ..., h*_top(alpha) up to the last that can be nonzero,
    where h*_m(alpha) is the sum over i_1 >= ... >= i_m >= 1 of
    prod_r (alpha_{i_r} - r + 1).  One suffix-sum pass per m:
    dp_1[i] = alpha_i, dp_r[i] = (alpha_i - r + 1) sum_{i' >= i} dp_{r-1}[i']
    and h*_r = sum_i dp_r[i].  A chain needs alpha_{i_1} > 0, so the zero
    parts never enter; and h*_m(alpha) vanishes for m > alpha_1, where no
    tableau of alpha/(m) exists, so the passes stop there."""
    values = [1]
    dp = list(alpha)
    for r in range(1, min(top, alpha[0]) + 1):
        if r > 1:
            suffix = 0
            for i in range(len(dp) - 1, -1, -1):
                suffix += dp[i]
                dp[i] = (alpha[i] - r + 1) * suffix
        values.append(sum(dp))
    return values


def eigenvalue(alpha: Partition, t: int) -> int:
    """Exact eigenvalue on the isotypic component of alpha of the graph
    joining permutations that agree on exactly t-1 points: with k = t-1 and
    n = |alpha|, sum_{m=0}^{n-k} (-1)^(n-m-k) C(n-m, k) h*_m(alpha).
    ArithmeticError unless each f^alpha h*_m(alpha) is divisible by n↓m, as
    the skew tableau count f^{alpha/(m)} is an integer."""
    n = sum(alpha)
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}")
    k = t - 1
    f = dimension(alpha)
    total = 0
    falling = 1  # n↓m
    for m, h in enumerate(_shifted_complete(alpha, n - k)):
        if m:
            falling *= n - m + 1
        if f * h % falling:
            raise ArithmeticError(
                f"h*_{m} of {alpha} is not integral: f^alpha h*_m = {f} * {h}, n↓m = {falling}"
            )
        term = math.comb(n - m, k) * h
        total += -term if (n - m - k) & 1 else term
    return total


@dataclass(frozen=True)
class SpectrumRow:
    partition: Partition
    eigenvalue: int
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    n: int
    degree: int
    rows: tuple[SpectrumRow, ...]

    @property
    def lambda_min(self) -> int:
        return min(r.eigenvalue for r in self.rows)

    @property
    def argmin(self) -> tuple[Partition, ...]:
        m = self.lambda_min
        return tuple(r.partition for r in self.rows if r.eigenvalue == m)

    @property
    def lambda_second(self) -> int:
        """Largest eigenvalue over the nontrivial components."""
        return max(r.eigenvalue for r in self.rows if r.partition != (self.n,))

    @property
    def nu(self) -> int:
        return max(abs(self.lambda_second), abs(self.lambda_min))

    def multiset(self) -> tuple[tuple[int, int], ...]:
        agg: dict[int, int] = {}
        for r in self.rows:
            agg[r.eigenvalue] = agg.get(r.eigenvalue, 0) + r.multiplicity
        return tuple(sorted(agg.items()))

    def trace_identity_holds(self) -> bool:
        """sum of multiplicity * eigenvalue^2 equals n! * degree (the number
        of closed 2-walks)."""
        lhs = sum(r.multiplicity * r.eigenvalue**2 for r in self.rows)
        return lhs == math.factorial(self.n) * self.degree


# Largest degree of the full-spectrum commands, set by ``reproduce``, which
# builds every spectrum from 6 to n: in fresh processes on a 2-core machine,
# ``reproduce --n-range 6..34`` takes 3.7 s (83 MB peak), the median of five
# runs interleaved with the character route's ``spectrum --n 26``, also
# 3.7 s; 6..35 takes 4.7 s.  ``spectrum --n 34`` (p(34) = 12,310
# eigenvalues, 50 MB peak) takes 1.0-1.3 s and ``hoffman --n 34`` 0.7-1.3 s.
SPECTRUM_CAP = 34


@lru_cache(maxsize=None)
def full_spectrum(n: int, t: int) -> Spectrum:
    """Every eigenvalue of the graph joining permutations that agree on
    exactly t-1 points, one row per partition of n (cached); ArithmeticError
    unless integrality, the first moment, the degree, the deciding rows and
    the trace identity all hold."""
    classes = generating_classes(n, t)
    rows = tuple(
        SpectrumRow(
            partition=a,
            eigenvalue=eigenvalue(a, t),
            multiplicity=dimension(a) ** 2,
        )
        for a in partitions_of(n)
    )
    k = t - 1
    spec = Spectrum(n=n, degree=math.comb(n, k) * derangement_count(n - k), rows=rows)
    if rows[0].eigenvalue != spec.degree:
        raise ArithmeticError(
            f"spectrum degree check failed for n={n}, t={t}: "
            f"{rows[0].eigenvalue} != C(n, t-1) d_(n-t+1) = {spec.degree}"
        )
    if sum(r.multiplicity * r.eigenvalue for r in rows):
        raise ArithmeticError(f"spectrum first moment failed for n={n}, t={t}")
    if not spec.trace_identity_holds():
        raise ArithmeticError(f"spectrum trace identity failed for n={n}, t={t}")
    deciding = (spec.lambda_min, spec.lambda_second)
    for r in rows[1:]:
        if r.eigenvalue in deciding:
            by_classes = sum(class_eigenvalues(r.partition, classes))
            if by_classes != r.eigenvalue:
                raise ArithmeticError(
                    f"deciding row {r.partition} failed for n={n}, t={t}: "
                    f"{r.eigenvalue} != class sum {by_classes}"
                )
    return spec


# ---------------------------------------------------------------------------
# Closed forms for the eight fat/tall rows, valid from TABLE_START on, where
# the eight partitions are distinct.

TABLE_START = 6

# Largest degree of the closed-form table: ``table --n-range 6..40`` takes
# about 4 s in a fresh process on a 2-core machine, about what
# ``reproduce`` at SPECTRUM_CAP costs, while the single column n = 60 takes
# 23 s (most of it enumerating the partitions of 60).
TABLE_CAP = 40

# label -> (shape, closed form), in report order; each closed form is a
# function of n, d_{n-1} and (-1)^n.
TABLE_ROWS: dict[str, tuple[Callable, Callable]] = {
    "n": (lambda n: (n,), lambda n, d1, s: n * d1),
    "1^n": (lambda n: (1,) * n, lambda n, d1, s: s * n * (n - 2)),
    "n-1,1": (lambda n: (n - 1, 1), lambda n, d1, s: 0),
    "2,1^(n-2)": (lambda n: (2,) + (1,) * (n - 2), lambda n, d1, s: 0),
    "n-2,2": (
        lambda n: (n - 2, 2),
        lambda n, d1, s: Fraction(-n * (d1 + s * (n - 2)), (n - 1) * (n - 2) - 2),
    ),
    "2,2,1^(n-4)": (lambda n: (2, 2) + (1,) * (n - 4), lambda n, d1, s: -s * (n - 2) ** 2),
    "n-2,1,1": (
        lambda n: (n - 2, 1, 1),
        lambda n, d1, s: Fraction(-n * (d1 - s * (n - 2)), (n - 1) * (n - 2)),
    ),
    "3,1^(n-3)": (lambda n: (3,) + (1,) * (n - 3), lambda n, d1, s: s * n * (n - 4)),
}


def _table_row(row: str):
    if row not in TABLE_ROWS:
        raise ValueError(f"unknown table row {row!r}")
    return TABLE_ROWS[row]


def table_row_partition(row: str, n: int) -> Partition:
    return _table_row(row)[0](n)


def closed_form_eigenvalue(row: str, n: int) -> int:
    """Closed-form eigenvalue of the agreement-at-one-point graph for the
    eight rows with small fat/tall defect.  Requires n >= 6 so that the
    eight partitions are pairwise distinct; below that the colliding shapes
    are served by the character route only."""
    closed_form = _table_row(row)[1]
    if n < TABLE_START:
        raise ValueError(f"closed forms need n >= {TABLE_START} (got {n})")
    value = Fraction(closed_form(n, derangement_count(n - 1), (-1) ** n))
    if value.denominator != 1:
        raise ArithmeticError(f"closed form for {row} at n={n} is not integral")
    return int(value)


# ---------------------------------------------------------------------------
# The explicit graph, and the brute-force oracle with exactness certificate.

GRAPH_CAP = 7


def agreement_graph(n: int, t: int) -> np.ndarray:
    """The n! x n! boolean adjacency matrix, vertices in lexicographic
    order, of the graph joining permutations that agree on exactly t-1
    points: ``agreement_counts == t - 1``, AGREEMENT_BLOCK rows at a time.
    At t = n it has no edges, as no two permutations agree on exactly n-1
    points (``generating_classes`` is empty), and nothing is counted."""
    if n > GRAPH_CAP:
        raise ValueError(f"explicit graphs capped at n <= {GRAPH_CAP} (got n={n})")
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    if t == n:
        return np.zeros((math.factorial(n),) * 2, dtype=bool)
    verts = perm_rows(n)
    graph = np.empty((len(verts), len(verts)), dtype=bool)
    for start in range(0, len(verts), AGREEMENT_BLOCK):
        stop = start + AGREEMENT_BLOCK
        np.equal(agreement_counts(verts[start:stop], verts), t - 1, out=graph[start:stop])
    return graph


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in range(2, int(math.isqrt(m)) + 1):
        if m % q == 0:
            return False
    return True


def _primes_below(cap: int, needed_product: int) -> list[int]:
    """Descending primes < cap whose product exceeds needed_product."""
    primes: list[int] = []
    prod = 1
    m = cap - 1
    while prod <= needed_product:
        while not _is_prime(m):
            m -= 1
        primes.append(m)
        prod *= m
        m -= 1
    return primes


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> tuple[int, int]:
    """Combined residue and modulus; residue in [0, prod moduli)."""
    x, m = 0, 1
    for r, p in zip(residues, moduli):
        # solve x' = x (mod m), x' = r (mod p)
        inv = pow(m % p, -1, p)
        x = x + m * ((r - x) % p * inv % p)
        m *= p
        x %= m
    return x, m


@dataclass(frozen=True)
class SpectrumCertificate:
    primes: tuple[int, ...]
    max_residual: float
    moments_checked: int


def _poly_from_roots(roots: Sequence[int]) -> list[int]:
    """The coefficients of prod (x - root), constant term first."""
    coeffs = [1]
    for root in roots:
        coeffs = [a - root * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


def _left_translation_invariant(graph: np.ndarray, n: int) -> bool:
    """Whether entry (g∘h, g∘h') of ``graph`` equals entry (h, h') for
    g = (1 2) and g = (1 2 ... n), which generate S_n; ranks come from the
    base-n codes of the rows, below 7^7 < 2^31 under the cap."""
    perms = perm_rows(n) - 1
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int32)
    codes = perms @ place
    generators = (np.roll(np.arange(n), -1), np.r_[1, 0, 2:n]) if n > 1 else ()
    for g in generators:
        shift = np.searchsorted(codes, g[perms] @ place)  # rank of g∘h
        if not np.array_equal(graph[np.ix_(shift, shift)], graph):
            return False
    return True


def brute_force_spectrum(n: int, t: int) -> tuple[tuple[tuple[int, int], ...], SpectrumCertificate]:
    """Eigenvalue multiset of the explicit adjacency matrix A, with an exact
    certificate.

    Returns ``(((eigenvalue, multiplicity), ...), certificate)`` sorted by
    eigenvalue.  A is first checked to commute with every left translation
    L_g, so P(A) e_g = L_g P(A) e_id for every polynomial P: the column of
    the identity decides whether P(A) vanishes, and every diagonal entry of
    A^k equals the one at the identity.  The rounded eigenvalues are then
    proved by prod(A - lam I) e_id = 0 modulo primes whose product exceeds
    twice the entry bound, and their multiplicities by the exact traces
    Tr(A^k) = n! (A^k)[id, id]: the multiplicity of lam is the trace of the
    spectral idempotent prod_{mu != lam} (A - mu I) / (lam - mu), an exact
    integer quotient, with one extra moment as a check.  A failed check
    raises ``ArithmeticError``.
    """
    adj = agreement_graph(n, t)
    if not _left_translation_invariant(adj, n):
        raise ArithmeticError("adjacency does not commute with left translation")
    adj = adj.astype(np.float64)  # exact small-int BLAS work; the bool copy goes
    nverts = adj.shape[0]
    degree = int(adj[0].sum())
    numeric = np.linalg.eigvalsh(adj)
    rounded = np.rint(numeric).astype(np.int64)
    max_residual = float(np.max(np.abs(numeric - rounded)))
    if max_residual > 0.25:
        raise ArithmeticError(
            f"numeric eigenvalues too far from integers (dev {max_residual})"
        )
    distinct = sorted({int(x) for x in rounded})
    r = len(distinct)

    # Every entry of prod(A - lam I) and every closed-walk count (A^k)[id, id]
    # with k <= r lies below ``bound``; float64 matvecs stay exact under
    # nverts * p^2 < 2^53, and so the int64 sum of r + 1 terms below p^2.
    bound = 1
    for lam in distinct:
        bound *= degree + abs(lam) + 1
    primes = _primes_below(math.isqrt(2**53 // nverts), 2 * bound)
    identity = np.zeros(nverts)
    identity[0] = 1.0  # the identity permutation has rank 0
    annihilator = _poly_from_roots(distinct)
    walks: list[list[int]] = [[] for _ in range(r + 1)]
    for p in primes:
        # one Krylov sequence v_k = A^k e_id mod p, k = 0..r, gives the walk
        # counts v_k[id] and prod(A - lam I) e_id = sum_k c_k v_k
        v, total = identity, np.zeros(nverts, dtype=np.int64)
        for k, c in enumerate(annihilator):
            if k:
                v = np.remainder(adj @ v, p)
            walks[k].append(int(v[0]))
            total += c % p * v.astype(np.int64)
        if np.remainder(total, p).any():
            raise ArithmeticError(f"rounded spectrum rejected: annihilator nonzero mod {p}")
    traces = [nverts * _crt(residues, primes)[0] for residues in walks]

    # m_lam = Tr(E_lam) = sum_k c_k Tr(A^k) / prod_{mu != lam} (lam - mu)
    counts = []
    for lam in distinct:
        others = [mu for mu in distinct if mu != lam]
        numerator = sum(c * trace for c, trace in zip(_poly_from_roots(others), traces))
        m, rest = divmod(numerator, math.prod(lam - mu for mu in others))
        if rest or m < 0:
            raise ArithmeticError(f"multiplicity of {lam} is not a nonnegative integer")
        counts.append(m)
    if sum(counts) != nverts:
        raise ArithmeticError("multiplicities do not sum to the vertex count")
    if sum(c * lam**r for c, lam in zip(counts, distinct)) != traces[r]:
        raise ArithmeticError("extra moment check failed")

    pairs = tuple((lam, c) for lam, c in zip(distinct, counts) if c > 0)
    cert = SpectrumCertificate(
        primes=tuple(primes),
        max_residual=max_residual,
        moments_checked=r + 1,
    )
    return pairs, cert
