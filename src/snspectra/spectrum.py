"""Spectra of forbidden-agreement Cayley graphs on S_n.

The graph joins two permutations when they agree on exactly t-1 points; its
generating set is the union of the conjugacy classes with exactly t-1 fixed
points, so every isotypic component is an eigenspace and the eigenvalue for
a partition alpha is (1/f^alpha) sum over generators of chi_alpha.  All
eigenvalues here are exact integers.

``brute_force_spectrum`` is the independent oracle: it diagonalizes the
explicit adjacency matrix numerically, rounds, and then *proves* the rounded
multiset exact by (a) verifying that prod(A - lambda I) vanishes, checked
modulo enough primes to cover the entry bound, and (b) recovering the
multiplicities from exact power-trace moments through a Vandermonde solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .characters import CycleType, class_size, mn_character
from .partitions import Partition, dimension, partitions_of
from .perms import all_perms, derangement_count


# ---------------------------------------------------------------------------
# Generating sets described classwise (never enumerates S_n).


@dataclass(frozen=True)
class GeneratingSet:
    """Union of conjugacy classes of S_n with exact class sizes.

    Such a set is automatically inverse-closed (a permutation and its
    inverse share a cycle type) and conjugation-invariant.
    """

    n: int
    t: int | None
    classes: tuple[tuple[CycleType, int], ...]
    empty_reason: str | None = None

    @property
    def total(self) -> int:
        return sum(size for _, size in self.classes)

    def cycle_types(self) -> tuple[CycleType, ...]:
        return tuple(c for c, _ in self.classes)


def fixed_point_generating_set(n: int, t: int) -> GeneratingSet:
    """Classes of S_n with exactly t-1 fixed points.

    ``t - 1 = n - 1`` admits no permutations; the set is empty and carries a
    warning reason instead of raising.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}")
    classes = tuple(
        (c, class_size(c)) for c in partitions_of(n) if c.count(1) == t - 1
    )
    reason = None
    if not classes:
        reason = f"no permutation of degree {n} has exactly {t - 1} fixed points"
    return GeneratingSet(n=n, t=t, classes=classes, empty_reason=reason)


def generating_set_from_types(n: int, types: Iterable[Sequence[int]]) -> GeneratingSet:
    uniq = sorted({tuple(c) for c in types}, reverse=True)
    for c in uniq:
        if sum(c) != n:
            raise ValueError(f"cycle type {c} does not sum to {n}")
    return GeneratingSet(
        n=n, t=None, classes=tuple((c, class_size(c)) for c in uniq)
    )


# ---------------------------------------------------------------------------
# Character-theoretic eigenvalues.


def eigenvalue(alpha: Partition, gen: GeneratingSet) -> int:
    """Exact eigenvalue on the isotypic component of alpha:
    sum_c |c| chi_alpha(c) / f^alpha.  A non-integer result would mean a
    character-table bug and raises."""
    if sum(alpha) != gen.n:
        raise ValueError(f"{alpha} is not a partition of {gen.n}")
    acc = sum(size * mn_character(alpha, c) for c, size in gen.classes)
    value = Fraction(acc, dimension(alpha))
    if value.denominator != 1:
        raise ArithmeticError(
            f"eigenvalue for {alpha} is not an integer: {value}"
        )
    return int(value)


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

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.rows)


# Largest degree of the full-spectrum commands: p(26) = 2,436 eigenvalues,
# about 5 s and 260 MB in one process on a 2-core machine, and each further
# 2 in n costs about 2.2 times more time.
SPECTRUM_CAP = 26


def full_spectrum(gen: GeneratingSet) -> Spectrum:
    rows = tuple(
        SpectrumRow(
            partition=a,
            eigenvalue=eigenvalue(a, gen),
            multiplicity=dimension(a) ** 2,
        )
        for a in partitions_of(gen.n)
    )
    return Spectrum(n=gen.n, degree=gen.total, rows=rows)


# ---------------------------------------------------------------------------
# Closed forms for the eight fat/tall rows (valid once the eight partitions
# are distinct, i.e. n >= 6).

TABLE_ROWS: tuple[str, ...] = (
    "n",
    "1^n",
    "n-1,1",
    "2,1^(n-2)",
    "n-2,2",
    "2,2,1^(n-4)",
    "n-2,1,1",
    "3,1^(n-3)",
)


def table_row_partition(row: str, n: int) -> Partition:
    if row == "n":
        return (n,)
    if row == "1^n":
        return (1,) * n
    if row == "n-1,1":
        return (n - 1, 1)
    if row == "2,1^(n-2)":
        return (2,) + (1,) * (n - 2)
    if row == "n-2,2":
        return (n - 2, 2)
    if row == "2,2,1^(n-4)":
        return (2, 2) + (1,) * (n - 4)
    if row == "n-2,1,1":
        return (n - 2, 1, 1)
    if row == "3,1^(n-3)":
        return (3,) + (1,) * (n - 3)
    raise ValueError(f"unknown table row {row!r}")


def closed_form_eigenvalue(row: str, n: int) -> int:
    """Closed-form eigenvalue of the agreement-at-one-point graph for the
    eight rows with small fat/tall defect.  Requires n >= 6 so that the
    eight partitions are pairwise distinct; below that the colliding shapes
    are served by the character route only."""
    if row not in TABLE_ROWS:
        raise ValueError(f"unknown table row {row!r}")
    if n < 6:
        raise ValueError(f"closed forms need n >= 6 (got {n})")
    d1 = derangement_count(n - 1)
    s = (-1) ** n
    if row == "n":
        return n * d1
    if row == "1^n":
        return s * n * (n - 2)
    if row in ("n-1,1", "2,1^(n-2)"):
        return 0
    if row == "n-2,2":
        value = Fraction(-n * (d1 + s * (n - 2)), (n - 1) * (n - 2) - 2)
    elif row == "2,2,1^(n-4)":
        return -s * (n - 2) ** 2
    elif row == "n-2,1,1":
        value = Fraction(-n * (d1 - s * (n - 2)), (n - 1) * (n - 2))
    else:  # 3,1^(n-3)
        return s * n * (n - 4)
    if value.denominator != 1:
        raise ArithmeticError(f"closed form for {row} at n={n} is not integral")
    return int(value)


# ---------------------------------------------------------------------------
# The explicit graph, and the brute-force oracle with exactness certificate.

GRAPH_CAP = 7


def agreement_neighbours(n: int, t: int = 2) -> np.ndarray:
    """Neighbour ranks of the graph joining permutations that agree on
    exactly t-1 points, vertices in lexicographic order: row g lists the
    ranks of g∘s for the generators s with exactly t-1 fixed points (shape
    n! x degree, int32).  A generator is never the identity, so no vertex
    lists itself."""
    if n > GRAPH_CAP:
        raise ValueError(f"explicit graphs capped at n <= {GRAPH_CAP} (got n={n})")
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    perms = np.array(list(all_perms(n)), dtype=np.int8) - 1
    gens = perms[(perms == np.arange(n)).sum(axis=1) == t - 1]
    # base-n code of a one-line permutation; increasing in lex order, and
    # below 7^7 < 2^31 under the cap
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int32)
    codes = perms @ place
    # code(g∘s) = sum_i g[s[i]] place[i] = sum_j g[j] place[s^-1[j]]
    weights = place[np.argsort(gens, axis=1)].T
    nbrs = np.empty((len(perms), len(gens)), dtype=np.int32)
    block = 1024
    for start in range(0, len(perms), block):
        nbrs[start : start + block] = np.searchsorted(codes, perms[start : start + block] @ weights)
    return nbrs


def adjacency_matrix(n: int, t: int = 2) -> np.ndarray:
    """Dense 0/1 adjacency matrix (float64 for exact small-int BLAS work) of
    the graph joining permutations that agree on exactly t-1 points, rows
    and columns in lexicographic vertex order."""
    nbrs = agreement_neighbours(n, t)
    adj = np.zeros((len(nbrs), len(nbrs)), dtype=np.float64)
    np.put_along_axis(adj, nbrs, 1.0, axis=1)
    return adj


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
    method: str
    primes: tuple[int, ...]
    max_residual: float
    moments_checked: int


def _annihilation_holds_matrix(adj: np.ndarray, values: Sequence[int], p: int) -> bool:
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


def _annihilation_holds_vectors(
    adj: np.ndarray, values: Sequence[int], p: int, trials: int, seed: int
) -> bool:
    """Monte-Carlo version for big graphs: checks prod(A - lam I) v == 0
    mod p on random vectors (miss probability <= 1/p per trial)."""
    rng = np.random.default_rng(seed)
    nverts = adj.shape[0]
    for _ in range(trials):
        v = rng.integers(0, p, size=nverts).astype(np.float64)
        for lam in values:
            v = np.remainder(adj @ v - lam * v, p)
        if v.any():
            return False
    return True


def _exact_traces_matrix(adj: np.ndarray, count: int, degree: int) -> list[int]:
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


def _exact_traces_walks(
    adj: np.ndarray, count: int, degree: int, spot_checks: int, seed: int
) -> list[int]:
    """Tr(A^k) for a vertex-transitive graph: n! times the closed-walk count
    at one vertex, computed exactly via modular matvecs and CRT.  Transitivity
    is spot-checked at ``spot_checks`` random vertices."""
    nverts = adj.shape[0]
    bound = max(1, degree) ** max(1, count - 1)
    cap = math.isqrt(2**53 // nverts)
    primes = _primes_below(cap, 2 * bound)
    rng = np.random.default_rng(seed)
    starts = [0] + sorted(rng.integers(1, nverts, size=spot_checks).tolist())
    walks: list[list[int]] = []
    for start in starts:
        residues = [[] for _ in range(count)]
        for p in primes:
            v = np.zeros(nverts)
            v[start] = 1.0
            for k in range(count):
                residues[k].append(int(v[start]) % p)
                if k + 1 < count:
                    v = np.remainder(adj @ v, p)
        walks.append([_crt(residues[k], primes)[0] for k in range(count)])
    if any(w != walks[0] for w in walks[1:]):
        raise ArithmeticError("closed-walk counts differ across vertices")
    return [nverts * w for w in walks[0]]


def brute_force_spectrum(
    n: int, t: int = 2, *, seed: int = 0
) -> tuple[tuple[tuple[int, int], ...], SpectrumCertificate]:
    """Eigenvalue multiset of the explicit adjacency matrix, with an exact
    certificate.

    Returns ``(((eigenvalue, multiplicity), ...), certificate)`` sorted by
    eigenvalue.  For n! <= 1000 the annihilating-polynomial check covers the
    whole matrix (a proof); for larger graphs it is verified on random
    vectors modulo every prime, which misses a nonzero matrix with
    probability at most (1/p)^trials per prime.
    """
    adj = adjacency_matrix(n, t)
    nverts = adj.shape[0]
    degree = int(adj[0].sum())
    numeric = np.linalg.eigvalsh(adj)
    rounded = np.rint(numeric).astype(np.int64)
    max_residual = float(np.max(np.abs(numeric - rounded))) if nverts else 0.0
    if max_residual > 0.25:
        raise ArithmeticError(
            f"numeric eigenvalues too far from integers (dev {max_residual})"
        )
    distinct = sorted({int(x) for x in rounded})

    # (a) support: prod over distinct values of (A - lam I) must vanish.
    bound = 1
    for lam in distinct:
        bound *= degree + abs(lam) + 1
    cap = math.isqrt(2**53 // max(nverts, 1))
    primes = _primes_below(cap, 2 * bound)
    full_proof = nverts <= 1000
    for p in primes:
        if full_proof:
            ok = _annihilation_holds_matrix(adj, distinct, p)
        else:
            ok = _annihilation_holds_vectors(adj, distinct, p, trials=20, seed=seed)
        if not ok:
            raise ArithmeticError(
                f"rounded spectrum rejected: annihilator nonzero mod {p}"
            )

    # (b) multiplicities from exact moments; one extra moment as a check.
    r = len(distinct)
    if full_proof:
        traces = _exact_traces_matrix(adj, r + 1, degree)
    else:
        traces = _exact_traces_walks(adj, r + 1, degree, spot_checks=8, seed=seed)
    from .weightopt import solve_linear

    # Vandermonde system sum_i m_i distinct_i^k = traces_k, k = 0..r-1
    mults = solve_linear(
        [[Fraction(lam) ** k for lam in distinct] + [Fraction(traces[k])] for k in range(r)]
    )
    if any(m.denominator != 1 or m < 0 for m in mults):
        raise ArithmeticError(f"non-integral multiplicities: {mults}")
    counts = [int(m) for m in mults]
    if sum(counts) != nverts:
        raise ArithmeticError("multiplicities do not sum to the vertex count")
    if sum(c * lam**r for c, lam in zip(counts, distinct)) != traces[r]:
        raise ArithmeticError("extra moment check failed")

    pairs = tuple((lam, c) for lam, c in zip(distinct, counts) if c > 0)
    cert = SpectrumCertificate(
        method="matrix-annihilation" if full_proof else "vector-annihilation",
        primes=tuple(primes),
        max_residual=max_residual,
        moments_checked=r + 1,
    )
    return pairs, cert


@lru_cache(maxsize=None)
def graph_spectrum(n: int, t: int = 2) -> Spectrum:
    return full_spectrum(fixed_point_generating_set(n, t))
