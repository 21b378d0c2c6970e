"""Hoffman-type eigenvalue bounds and exact isotypic projections.

All bound arithmetic is exact rational; square roots are avoided by
comparing squares.  Inner products follow the group-average normalization
<x, y> = (1/|G|) sum x(s) y(s), so a family of density a has squared norm a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .characters import mn_character
from .partitions import Partition, dimension, partitions_of
from .perms import all_perms, compose, cycle_type, inverse
from .spectrum import Spectrum, graph_spectrum

PROJECTION_CAP = 5


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


def cross_hoffman_bound_squared(d: int, nu: int, nverts: int) -> Fraction:
    """Squared form of the cross bound, for exact comparisons against
    |X| * |Y| without square roots."""
    return cross_hoffman_bound(d, nu, nverts) ** 2


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


def paper_tail_split(
    n: int, t: int = 2
) -> tuple[tuple[Partition, ...], int, int]:
    """Order-valid eigenspace split whose tail contains the two components
    (n-2,2) and (n-2,1,1): the tail collects every nontrivial eigenvalue
    at most max(lambda_(n-2,2), lambda_(n-2,1,1)).

    For large n those two rows are exactly the bottom of the spectrum and
    the tail is just them; at small n (e.g. n=5, where the alternating
    component lies lower still) the tail picks up whatever sits below, which
    keeps the split a genuine sorted-spectrum suffix so the distance bound
    applies.  Returns (tail partitions, lam_m, lam_n) with lam_m the least
    eigenvalue outside the tail and lam_n the least overall.
    """
    spec = graph_spectrum(n, t)
    by_alpha = {r.partition: r.eigenvalue for r in spec.rows}
    threshold = max(by_alpha[(n - 2, 2)], by_alpha[(n - 2, 1, 1)])
    tail = tuple(
        a for a in partitions_of(n) if a != (n,) and by_alpha[a] <= threshold
    )
    rest = [by_alpha[a] for a in partitions_of(n) if a != (n,) and a not in set(tail)]
    lam_n = spec.lambda_min
    lam_m = min(rest)
    return tail, lam_m, lam_n


# ---------------------------------------------------------------------------
# Exact isotypic projections.


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
    char_by_type = {c: mn_character(alpha, c) for c in partitions_of(n)}
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


# ---------------------------------------------------------------------------
# Exact projection masses and distances, without materializing matrices.


def projection_mass(
    members: Iterable[tuple[int, ...]], alpha: Partition, n: int
) -> Fraction:
    """||P_alpha chi_A||^2 = (f_alpha / n!^2) sum over pairs (s,t) in A of
    chi_alpha(s t^-1), exact."""
    mem = list(members)
    if any(len(s) != n for s in mem):
        raise ValueError("member degree mismatch")
    char_by_type = {c: mn_character(tuple(alpha), c) for c in partitions_of(n)}
    inverses = [inverse(s) for s in mem]
    acc = 0
    for s in mem:
        for tinv in inverses:
            acc += char_by_type[cycle_type(compose(s, tinv))]
    fact = math.factorial(n)
    return Fraction(dimension(tuple(alpha)) * acc, fact * fact)


def exact_distance_sq_to_span(
    members: Iterable[tuple[int, ...]],
    span_partitions: Iterable[Partition],
    n: int,
) -> Fraction:
    """Squared distance from the characteristic vector of the family to the
    direct sum of the named isotypic components, in the group-average inner
    product.  The trivial component (n) is the span of the all-ones vector."""
    mem = list(members)
    span = {tuple(a) for a in span_partitions}
    for a in span:
        if sum(a) != n:
            raise ValueError(f"{a} is not a partition of {n}")
    norm_sq = Fraction(len(mem), math.factorial(n))
    mass = sum((projection_mass(mem, a, n) for a in span), Fraction(0))
    d2 = norm_sq - mass
    if d2 < 0:
        raise ArithmeticError("negative squared distance; projection bug")
    return d2


# ---------------------------------------------------------------------------
# Bound report for the agreement-at-exactly-(t-1)-points graph.


@dataclass(frozen=True)
class BoundReport:
    n: int
    t: int
    degree: int
    nverts: int
    lambda_min: int
    nu: int
    hoffman_value: Fraction
    cross_value: Fraction
    cross_value_squared: Fraction
    ratio_to_target: Fraction  # hoffman_value / (n-t)!


def bound_report(n: int, t: int = 2) -> BoundReport:
    spec: Spectrum = graph_spectrum(n, t)
    hoffman = hoffman_bound(spec.degree, spec.lambda_min, math.factorial(n))
    cross = cross_hoffman_bound(spec.degree, spec.nu, math.factorial(n))
    return BoundReport(
        n=n,
        t=t,
        degree=spec.degree,
        nverts=math.factorial(n),
        lambda_min=spec.lambda_min,
        nu=spec.nu,
        hoffman_value=hoffman,
        cross_value=cross,
        cross_value_squared=cross**2,
        ratio_to_target=hoffman / math.factorial(n - t),
    )
