"""Hoffman-type eigenvalue bounds and exact distances to isotypic components.

All bound arithmetic is exact rational; square roots are avoided by
comparing squares.  Inner products follow the group-average normalization
<x, y> = (1/|G|) sum x(s) y(s), so a family of density a has squared norm a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .lazy import np
from .partitions import (
    Partition,
    check_partition,
    dimension,
    format_partition,
    is_partition,
    partitions_of,
)
from .spectrum import Spectrum, full_spectrum


def hoffman_bound(d: int, lam_min: int, nverts: int) -> Fraction:
    """Independence bound (-lam_min)/(d - lam_min) * N for a d-regular graph
    on N vertices with least eigenvalue lam_min < 0."""
    if lam_min >= 0:
        raise ValueError(f"bound needs a negative least eigenvalue, got {lam_min}")
    if d <= 0:
        raise ValueError("degree must be positive")
    return Fraction(-lam_min, d - lam_min) * nverts


def cross_hoffman_bound(d: int, nu: int, nverts: int) -> Fraction:
    """Bound on sqrt(|X||Y|) for cross-independent X, Y: nu/(d+nu) * N with
    nu = max(|lambda_2|, |lambda_N|)."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if d <= 0:
        raise ValueError("degree must be positive")
    return Fraction(nu, d + nu) * nverts


def stability_gap_bound(
    d: int, lam_m: int, lam_n: int, density: Fraction
) -> Fraction:
    """Upper bound on the squared distance from the characteristic vector of
    an independent set of the given density to span{1} plus the eigenspaces
    below the split index:

        D^2 <= ((1 - a)|lam_n| - d a) / (|lam_n| - |lam_m|) * a.

    ``lam_n`` is the least eigenvalue (must lie inside the split tail) and
    ``lam_m`` is the smallest eigenvalue left outside; the hypothesis
    |lam_n| > |lam_m| is enforced.  The bound is 0 exactly at the
    Hoffman-tight density |lam_n| / (d + |lam_n|).
    """
    if abs(lam_n) <= abs(lam_m):
        raise ValueError(
            f"split hypothesis violated: |lam_n|={abs(lam_n)} <= |lam_m|={abs(lam_m)}"
        )
    if not 0 <= density <= 1:
        raise ValueError(f"density out of range: {density}")
    a = Fraction(density)
    return ((1 - a) * abs(lam_n) - d * a) * a / (abs(lam_n) - abs(lam_m))


def paper_tail_split(n: int, t: int) -> tuple[tuple[Partition, ...], int, int]:
    """Order-valid eigenspace split whose tail contains the two components
    (n-2,2) and (n-2,1,1): the tail collects every nontrivial eigenvalue
    at most max(lambda_(n-2,2), lambda_(n-2,1,1)).

    For large n those two rows are exactly the bottom of the spectrum and
    the tail is just them; at small n (e.g. n=5, where the alternating
    component lies lower still) the tail picks up whatever sits below, which
    keeps the split a genuine sorted-spectrum suffix so the distance bound
    applies.  Returns (tail partitions, lam_m, lam_n) with lam_m the least
    eigenvalue outside the tail and lam_n the least overall.  A ValueError
    below n = 4, where (n-2,2) is no partition, and when the tail takes every
    nontrivial component and leaves no lam_m (at t = 1 and at t = n).
    """
    if n < 4:
        raise ValueError(f"tail split: (n-2,2) is a partition only from n = 4 on (got n={n})")
    spec = full_spectrum(n, t)
    by_alpha = {r.partition: r.eigenvalue for r in spec.rows}
    threshold = max(by_alpha[(n - 2, 2)], by_alpha[(n - 2, 1, 1)])
    tail = tuple(
        a for a in partitions_of(n) if a != (n,) and by_alpha[a] <= threshold
    )
    rest = [by_alpha[a] for a in partitions_of(n) if a != (n,) and a not in set(tail)]
    if not rest:
        raise ValueError(
            f"tail split: at n={n}, t={t} the tail holds every nontrivial component, "
            "so no eigenvalue is left outside it"
        )
    lam_n = spec.lambda_min
    lam_m = min(rest)
    return tail, lam_m, lam_n


# ---------------------------------------------------------------------------
# Exact projection masses and distances from a count tensor.
#
# For s, u in a family A let F and T count the fixed points and the 2-cycles
# of s u^-1.  On the served components the characters are polynomials in F
# and T: chi_(n-1,1) = F - 1, chi_(n-2,2) = F(F-3)/2 + T and
# chi_(n-2,1,1) = F(F-3)/2 - T + 1; the sign component is served too,
# since its pair sum is (sum of sgn s)^2.  So every pair sum comes from
# N[i,j,k,l] = #{s in A : s(i) = k, s(j) = l} (Ellis, Friedgut and Pilpel,
# "Intersecting families of permutations", JAMS 2011):
#   sum F = sum_{i,k} N[i,i,k,k]^2,  sum F^2 = sum N^2,
#   sum T = sum_{i<j, k,l} N[i,j,k,l] N[i,j,l,k].


@dataclass(frozen=True)
class PairSums:
    """Sums over the ordered pairs (s, u) of a family: the pair count, and
    the sums of F, F^2 and T at s u^-1 and of sgn(s u^-1)."""

    pairs: int
    fixed: int
    fixed_sq: int
    swaps: int
    sign: int


def served_components(n: int) -> tuple[Partition, ...]:
    """The components whose masses the count tensor gives: those among (n),
    (n-1,1), (n-2,2), (n-2,1,1) and 1^n that are partitions of n."""
    shapes = ((n,), (n - 1, 1), (n - 2, 2), (n - 2, 1, 1), (1,) * n)
    return tuple(dict.fromkeys(a for a in shapes if is_partition(a)))


def _served(alpha: Sequence[int], n: int) -> Partition:
    alpha = check_partition(alpha)
    if alpha not in served_components(n):
        raise ValueError(
            f"component {alpha} is not served at n={n}; "
            f"served: {', '.join(map(format_partition, served_components(n)))}"
        )
    return alpha


def _pair_sums(members: Sequence[Sequence[int]], n: int) -> PairSums:
    """The pair sums of a family, a set of distinct permutations of 1..n
    (rows), from its count tensor (one bincount of the codes of
    (i, j, s(i), s(j)))."""
    arr = np.asarray(members)
    if arr.dtype.kind not in "iu":  # an int64 cast would truncate 2.5 to 2
        for member in members:
            if not all(isinstance(v, (int, np.integer)) for v in member):
                raise ValueError(f"member {tuple(member)} is not a row of integers")
    if arr.size and arr.shape[1:] != (n,):
        raise ValueError("member degree mismatch")
    try:
        arr = arr.reshape(len(arr), n).astype(np.int64) - 1
    except OverflowError:  # an entry beyond int64 is not in 1..n either
        raise ValueError(f"a member is not a permutation of 1..{n}") from None
    if not np.array_equal(np.sort(arr, axis=1), np.broadcast_to(np.arange(n), arr.shape)):
        raise ValueError(f"a member is not a permutation of 1..{n}")
    rows, copies = np.unique(arr, axis=0, return_counts=True)
    if len(rows) < len(arr):
        repeated = tuple(int(v) + 1 for v in rows[copies.argmax()])
        raise ValueError(f"member {repeated} is repeated: a family is a set of permutations")
    i, j = np.indices((n, n)).reshape(2, -1)
    codes = ((i * n + j) * n + arr[:, i]) * n + arr[:, j]
    counts = np.bincount(codes.ravel(), minlength=n**4).reshape(n, n, n, n)
    swapped = (counts * counts.transpose(0, 1, 3, 2)).sum(axis=(2, 3))
    odd = ((arr[:, i] > arr[:, j]) & (i < j)).sum(axis=1) % 2  # inversion parity
    return PairSums(
        pairs=len(members) ** 2,
        fixed=int((np.einsum("iikk->ik", counts) ** 2).sum()),
        fixed_sq=int((counts**2).sum()),
        swaps=int(np.triu(swapped, 1).sum()),
        sign=(len(members) - 2 * int(odd.sum())) ** 2,
    )


def _mass(alpha: Partition, n: int, sums: PairSums) -> Fraction:
    """||P_alpha chi_A||^2 = (f_alpha / n!^2) sum over pairs of
    chi_alpha(s u^-1), for a served alpha."""
    quad = (sums.fixed_sq - 3 * sums.fixed) // 2  # F(F-3) is always even
    if alpha == (n,):
        total = sums.pairs
    elif alpha == (n - 1, 1):
        total = sums.fixed - sums.pairs
    elif alpha == (n - 2, 2):
        total = quad + sums.swaps
    elif alpha == (n - 2, 1, 1):
        total = quad - sums.swaps + sums.pairs
    else:  # 1^n
        total = sums.sign
    fact = math.factorial(n)
    return Fraction(dimension(alpha) * total, fact * fact)


def exact_distance_sq_to_span(
    members: Sequence[Sequence[int]],
    span_partitions: Iterable[Sequence[int]],
    n: int,
) -> Fraction:
    """Squared distance from the characteristic vector of the family to the
    direct sum of the named served components, in the group-average inner
    product.  The trivial component (n) is the span of the all-ones vector.
    Every component is checked before the count tensor is built."""
    span = {_served(a, n) for a in span_partitions}
    sums = _pair_sums(members, n)
    d2 = Fraction(len(members), math.factorial(n)) - sum(
        (_mass(a, n, sums) for a in span), Fraction(0)
    )
    if d2 < 0:
        raise ArithmeticError("negative squared distance; projection bug")
    return d2


# ---------------------------------------------------------------------------
# Bound report for the agreement-at-exactly-(t-1)-points graph.


@dataclass(frozen=True)
class BoundReport:
    degree: int
    nverts: int
    lambda_min: int
    nu: int
    hoffman_value: Fraction
    cross_value: Fraction
    cross_value_squared: Fraction
    ratio_to_target: Fraction  # hoffman_value / (n-t)!


def bound_report(n: int, t: int) -> BoundReport:
    spec: Spectrum = full_spectrum(n, t)
    hoffman = hoffman_bound(spec.degree, spec.lambda_min, math.factorial(n))
    cross = cross_hoffman_bound(spec.degree, spec.nu, math.factorial(n))
    return BoundReport(
        degree=spec.degree,
        nverts=math.factorial(n),
        lambda_min=spec.lambda_min,
        nu=spec.nu,
        hoffman_value=hoffman,
        cross_value=cross,
        cross_value_squared=cross**2,
        ratio_to_target=hoffman / math.factorial(n - t),
    )
