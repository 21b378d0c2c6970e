"""Conjugation-invariant weighted eigenvalue bounds and their optimization.

A nonnegative weight on each generating class, normalized so the weighted
degree is 1, turns the eigenvalue map into a linear function of the weights.
The best Hoffman-type bound under such weightings is a small linear program:
maximize the least nontrivial weighted eigenvalue m; the induced bound is
(-m)/(1-m) * n!.

The LP is solved in exact rational arithmetic by a dense two-phase simplex
with Bland's rule, and the solution is not trusted: primal feasibility, dual
feasibility, and objective equality are re-verified exactly, which together
certify optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .characters import CycleType, mn_character
from .partitions import Partition, dimension, partitions_of
from .spectrum import GeneratingSet, fixed_point_generating_set


@dataclass(frozen=True)
class ClassWeighting:
    """Nonnegative rational weight per generating class, with weighted
    degree sum(w_c |c|) = 1."""

    n: int
    t: int
    weights: tuple[tuple[CycleType, Fraction], ...]

    def weighted_degree(self) -> Fraction:
        from .characters import class_size

        return sum(
            (w * class_size(c) for c, w in self.weights), Fraction(0)
        )


def uniform_weighting(n: int, t: int = 2) -> ClassWeighting:
    gen = fixed_point_generating_set(n, t)
    if not gen.classes:
        raise NoGeneratingClassesError(n, t)
    total = gen.total
    return ClassWeighting(
        n=n, t=t, weights=tuple((c, Fraction(1, total)) for c, _ in gen.classes)
    )


def weighted_eigenvalue(alpha: Partition, weighting: ClassWeighting) -> Fraction:
    """Linear extension of the classwise eigenvalue formula:
    sum_c w_c |c| chi_alpha(c) / f^alpha.  Uniform weights recover the
    unweighted eigenvalue divided by the degree."""
    from .characters import class_size

    if sum(alpha) != weighting.n:
        raise ValueError(f"{alpha} is not a partition of {weighting.n}")
    acc = sum(
        (w * class_size(c) * mn_character(alpha, c) for c, w in weighting.weights),
        Fraction(0),
    )
    return acc / dimension(alpha)


# ---------------------------------------------------------------------------
# Exact two-phase simplex (minimization, equality form, x >= 0).


class LPError(Exception):
    pass


class NoGeneratingClassesError(LPError, ValueError):
    """No class of S_n has exactly t-1 fixed points (t = n), so the graph has
    no edges and there is nothing to weight: an input error, not a failed
    solve."""

    def __init__(self, n: int, t: int):
        super().__init__(f"no generating classes for n={n}, t={t}")


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


def _dual_solution(
    cost: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]],
    basis: Sequence[int],
) -> list[Fraction]:
    """y solving B^T y = c_B for the returned basis (artificial columns are
    unit vectors, so their dual rows are direct)."""
    nrows = len(a_eq)
    ncols = len(cost)
    # column j of the constraint matrix, artificials included
    def column(j: int) -> list[Fraction]:
        if j < ncols:
            return [Fraction(a_eq[r][j]) for r in range(nrows)]
        unit = [Fraction(0)] * nrows
        unit[j - ncols] = Fraction(1)
        return unit

    def basic_cost(j: int) -> Fraction:
        return Fraction(cost[j]) if j < ncols else Fraction(0)

    mat = [[column(b)[r] for b in basis] for r in range(nrows)]
    rhs = [basic_cost(b) for b in basis]
    # solve mat^T y = rhs by Gaussian elimination
    aug = [[mat[r][c] for r in range(nrows)] + [rhs[c]] for c in range(nrows)]
    for col in range(nrows):
        pivot = next((r for r in range(col, nrows) if aug[r][col] != 0), None)
        if pivot is None:
            raise LPError("singular basis while extracting the dual")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(nrows):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][nrows] for r in range(nrows)]


# ---------------------------------------------------------------------------
# The weighted-bound optimization.


@dataclass(frozen=True)
class WeightedBoundResult:
    n: int
    t: int
    weighting: ClassWeighting
    least_eigenvalue: Fraction
    bound: Fraction
    uniform_bound: Fraction
    certified: bool


def _hoffman_from_normalized(m: Fraction, n: int) -> Fraction:
    if m >= 0:
        raise ArithmeticError(f"least weighted eigenvalue not negative: {m}")
    return Fraction(-m, 1 - m) * math.factorial(n)


def optimize_bound(n: int, t: int = 2) -> WeightedBoundResult:
    """Maximize the least nontrivial weighted eigenvalue over nonnegative
    normalized class weightings; return the weighting and the induced
    independence bound, exactly, with the optimum certified by an exact
    primal/dual pair."""
    gen: GeneratingSet = fixed_point_generating_set(n, t)
    classes = gen.classes
    if not classes:
        raise NoGeneratingClassesError(n, t)
    k = len(classes)
    alphas = [a for a in partitions_of(n) if a != (n,)]

    # variables: w_1..w_k, m_plus, m_minus, one slack per alpha
    ncols = k + 2 + len(alphas)
    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for i, alpha in enumerate(alphas):
        f = dimension(alpha)
        row = [
            Fraction(size * mn_character(alpha, c), f) for c, size in classes
        ]
        row += [Fraction(-1), Fraction(1)]  # -m
        row += [Fraction(-1) if j == i else Fraction(0) for j in range(len(alphas))]
        a_eq.append(row)
        b_eq.append(Fraction(0))
    norm_row = [Fraction(size) for _, size in classes]
    norm_row += [Fraction(0), Fraction(0)] + [Fraction(0)] * len(alphas)
    a_eq.append(norm_row)
    b_eq.append(Fraction(1))

    cost = [Fraction(0)] * k + [Fraction(-1), Fraction(1)] + [Fraction(0)] * len(alphas)
    x, objective, basis = solve_lp_min(cost, a_eq, b_eq)
    m = -objective  # we minimized -(m_plus - m_minus)

    weights = tuple((c, x[i]) for i, (c, _) in enumerate(classes))
    weighting = ClassWeighting(n=n, t=t, weights=weights)

    certified = _certify(cost, a_eq, b_eq, x, objective, basis, weighting, m, alphas)

    bound = _hoffman_from_normalized(m, n)
    uniform = uniform_weighting(n, t)
    uniform_m = min(weighted_eigenvalue(a, uniform) for a in alphas)
    return WeightedBoundResult(
        n=n,
        t=t,
        weighting=weighting,
        least_eigenvalue=m,
        bound=bound,
        uniform_bound=_hoffman_from_normalized(uniform_m, n),
        certified=certified,
    )


def _certify(cost, a_eq, b_eq, x, objective, basis, weighting, m, alphas) -> bool:
    # primal feasibility
    if any(xi < 0 for xi in x):
        return False
    for row, rhs in zip(a_eq, b_eq):
        if sum(r * xi for r, xi in zip(row, x)) != rhs:
            return False
    # re-substitution through the public eigenvalue path
    if weighting.weighted_degree() != 1:
        return False
    if min(weighted_eigenvalue(a, weighting) for a in alphas) != m:
        return False
    # dual feasibility and strong duality
    y = _dual_solution(cost, a_eq, basis)
    nrows = len(a_eq)
    for j in range(len(cost)):
        reduced = cost[j] - sum(a_eq[r][j] * y[r] for r in range(nrows))
        if reduced < 0:
            return False
    if sum(y[r] * b_eq[r] for r in range(nrows)) != objective:
        return False
    return True
