"""Conjugation-invariant weighted eigenvalue bounds and their optimization.

A nonnegative weight on each generating class, normalized so the weighted
degree is 1, turns the eigenvalue map into a linear function of the weights.
The best Hoffman-type bound under such weightings is a small linear program:
maximize the least nontrivial weighted eigenvalue m; the induced bound is
(-m)/(1-m) * n!.

The LP is solved in exact rational arithmetic by a two-phase simplex with
Bland's rule that carries its reduced-cost row and pivots over nonzero
entries only; the dual is read from the final reduced costs of the
artificial columns.  The solution is not trusted: ``solve_lp_min`` returns
it only once primal feasibility, dual feasibility, and objective equality,
which together certify optimality, are re-verified exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import hoffman_bound
from .characters import CycleType, class_size
from .partitions import Partition, partitions_of
from .spectrum import class_eigenvalues, generating_classes


def weighted_eigenvalue(
    alpha: Partition, weights: Sequence[tuple[CycleType, Fraction]]
) -> Fraction:
    """Linear extension of the class-eigenvalue map to the weights
    ((cycle type c, w_c), ...): sum_c w_c |c| chi_alpha(c) / f^alpha.
    Weights 1/degree recover the unweighted eigenvalue divided by the degree."""
    classes = tuple((c, class_size(c)) for c, _ in weights)
    values = class_eigenvalues(alpha, classes)
    return sum((w * e for (_, w), e in zip(weights, values)), Fraction(0))


# ---------------------------------------------------------------------------
# Exact two-phase simplex (minimization, equality form, x >= 0).


class LPError(ArithmeticError):
    """An infeasible or unbounded LP, or an optimum that fails a check."""


def _eliminate(rows: list[list[Fraction]], row: int, col: int) -> None:
    """Gauss-Jordan step on ``rows[row][col]``, in place: scale that row to a
    unit entry and clear the column from every other row.  Only the nonzero
    entries of the pivot row and the rows with a nonzero entry in the pivot
    column are touched; every other entry would be unchanged."""
    prow = rows[row]
    inv = 1 / prow[col]
    support = [j for j, a in enumerate(prow) if a]
    for j in support:
        prow[j] *= inv
    for r, other in enumerate(rows):
        factor = other[col]
        if factor and r != row:
            for j in support:
                other[j] -= factor * prow[j]


def _simplex_phase(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: Sequence[Fraction],
    allowed: int,
) -> list[Fraction]:
    """Run Bland-rule simplex to optimality on the given cost row; ``cost``
    prices every tableau column before the right-hand side and the first
    ``allowed`` of them are eligible to enter (phase 2 bars the artificial
    columns).  Returns the final reduced-cost row.

    The reduced costs c_j - c_B . column_j are carried as an extra row,
    built once here and updated by each pivot; its last entry is minus the
    objective value."""
    reduced = [*cost, Fraction(0)]
    for r, b in enumerate(basis):
        if cost[b]:
            for j, a in enumerate(tableau[r]):
                if a:
                    reduced[j] -= cost[b] * a
    rows = [*tableau, reduced]
    while True:
        entering = next((j for j in range(allowed) if reduced[j] < 0), None)
        if entering is None:
            return reduced
        ratios = [
            (row[-1] / row[entering], basis[r], r)
            for r, row in enumerate(tableau)
            if row[entering] > 0
        ]
        if not ratios:
            raise LPError("unbounded linear program")
        _, _, leaving_row = min(ratios)  # min ratio, ties by basis index
        _eliminate(rows, leaving_row, entering)
        basis[leaving_row] = entering


def solve_lp_min(
    cost: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]],
    b_eq: Sequence[Fraction],
) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """Minimize cost.x subject to a_eq x = b_eq, x >= 0, exactly.

    Returns (x, y the dual of the final basis, objective cost.x) only once
    x >= 0 with a_eq x = b_eq, no reduced cost c_j - a_j.y is negative and
    b_eq.y equals the objective, which prove x optimal.  Raises LPError when
    infeasible or unbounded, or naming the check that fails.

    >>> x, y, objective = solve_lp_min([-1, -1, 0, 0], [[1, 2, 1, 0], [3, 1, 0, 1]], [4, 6])
    >>> [str(v) for v in x], [str(v) for v in y], str(objective)
    (['8/5', '6/5', '0', '0'], ['-2/5', '-1/5'], '-14/5')
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
    # the last reduced cost is minus the phase-1 objective, the artificial sum
    if _simplex_phase(tableau, basis, phase1_cost, ncols + nrows)[-1] != 0:
        raise LPError("infeasible linear program")
    # drive leftover artificials out of the basis
    for r in range(nrows):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if tableau[r][j] != 0), None)
            if col is not None:
                _eliminate(tableau, r, col)
                basis[r] = col
    # any remaining artificial rows are redundant zero rows; freeze them.
    # The artificial columns stay, barred from entering: they hold B^-1, so
    # the reduced cost of artificial column r is -y_r (+y_r for a negated row)
    phase2_cost = [Fraction(x) for x in cost] + [Fraction(0)] * nrows
    reduced = _simplex_phase(tableau, basis, phase2_cost, ncols)
    x = [Fraction(0)] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            x[b] = tableau[r][-1]
    y = [reduced[ncols + r] if b_eq[r] < 0 else -reduced[ncols + r] for r in range(nrows)]

    if any(xi < 0 for xi in x) or any(
        sum(a * xi for a, xi in zip(row, x)) != rhs for row, rhs in zip(a_eq, b_eq)
    ):
        raise LPError("primal check failed: x is not >= 0 with a_eq x = b_eq")
    for j in range(ncols):
        if cost[j] - sum(a_eq[r][j] * y[r] for r in range(nrows)) < 0:
            raise LPError(f"dual check failed: column {j} has a negative reduced cost")
    objective = sum((c * xi for c, xi in zip(cost, x)), Fraction(0))
    if sum(yr * rhs for yr, rhs in zip(y, b_eq)) != objective:
        raise LPError("duality check failed: b_eq.y differs from the objective cost.x")
    return x, y, objective


# ---------------------------------------------------------------------------
# The weighted-bound optimization.


@dataclass(frozen=True)
class WeightedBoundResult:
    weights: tuple[tuple[CycleType, Fraction], ...]
    least_eigenvalue: Fraction
    bound: Fraction


# Largest degree of the weighted-bound LP: n = 12 at t = 2 takes 6.6-8.0 s
# in a fresh process on a 2-core machine, and n = 13 about 27-29 s.
WOPT_CAP = 12


def optimize_bound(n: int, t: int) -> WeightedBoundResult:
    """Maximize the least nontrivial weighted eigenvalue over nonnegative
    normalized class weights; return the weights and the induced
    independence bound, exactly.  The optimum comes with the checked
    primal/dual pair of ``solve_lp_min``, and the weights are substituted
    back through ``weighted_eigenvalue``; LPError names a failed check.  At
    t = n no class has t-1 fixed points and there is nothing to weight, a
    ValueError."""
    classes = generating_classes(n, t)
    if not classes:
        raise ValueError(f"no generating classes for n={n}, t={t}")
    k = len(classes)
    alphas = [a for a in partitions_of(n) if a != (n,)]

    # variables: w_1..w_k, m_plus, m_minus, one slack per alpha
    ncols = k + 2 + len(alphas)
    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for i, alpha in enumerate(alphas):
        row = [Fraction(e) for e in class_eigenvalues(alpha, classes)]
        row += [Fraction(-1), Fraction(1)]  # -m
        row += [Fraction(-1) if j == i else Fraction(0) for j in range(len(alphas))]
        a_eq.append(row)
        b_eq.append(Fraction(0))
    norm_row = [Fraction(size) for _, size in classes]
    norm_row += [Fraction(0), Fraction(0)] + [Fraction(0)] * len(alphas)
    a_eq.append(norm_row)
    b_eq.append(Fraction(1))

    cost = [Fraction(0)] * k + [Fraction(-1), Fraction(1)] + [Fraction(0)] * len(alphas)
    x, _, objective = solve_lp_min(cost, a_eq, b_eq)
    m = -objective  # we minimized -(m_plus - m_minus)

    weights = tuple((c, x[i]) for i, (c, _) in enumerate(classes))
    # re-substitution through the public eigenvalue path
    if sum((w * class_size(c) for c, w in weights), Fraction(0)) != 1:
        raise LPError("re-substitution failed: the weighted degree is not 1")
    if min(weighted_eigenvalue(a, weights) for a in alphas) != m:
        raise LPError("re-substitution failed: the least weighted eigenvalue is not m")

    return WeightedBoundResult(
        weights=weights,
        least_eigenvalue=m,
        bound=hoffman_bound(1, m, math.factorial(n)),
    )
