"""Conjugation-invariant weighted eigenvalue bounds and their optimization.

A nonnegative weight on each generating class, normalized so the weighted
degree is 1, turns the eigenvalue map into a linear function of the weights.
The best Hoffman-type bound under such weightings is a small linear program:
maximize the least nontrivial weighted eigenvalue m; the induced bound is
(-m)/(1-m) * n!.

The LP is solved in exact rational arithmetic by a two-phase simplex with
Bland's rule that carries its reduced-cost row and pivots over nonzero
entries only, and the solution is not trusted: ``solve_lp_min`` returns it
only once primal feasibility, dual feasibility, and objective equality,
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
from .spectrum import class_eigenvalues, full_spectrum, generating_classes


@dataclass(frozen=True)
class ClassWeighting:
    """Nonnegative rational weight per generating class, with weighted
    degree sum(w_c |c|) = 1."""

    weights: tuple[tuple[CycleType, Fraction], ...]

    def weighted_degree(self) -> Fraction:
        return sum(
            (w * class_size(c) for c, w in self.weights), Fraction(0)
        )


def weighted_eigenvalue(alpha: Partition, weighting: ClassWeighting) -> Fraction:
    """Linear extension of the class-eigenvalue map:
    sum_c w_c |c| chi_alpha(c) / f^alpha.  Weights 1/degree recover the
    unweighted eigenvalue divided by the degree."""
    classes = tuple((c, class_size(c)) for c, _ in weighting.weights)
    values = class_eigenvalues(alpha, classes)
    return sum((w * e for (_, w), e in zip(weighting.weights, values)), Fraction(0))


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
    ``allowed`` is the number of tableau columns before the right-hand side,
    all eligible to enter (phase 2 runs on a tableau without the artificial
    columns, while ``cost`` still prices every basis index).  Returns the
    optimal objective value.

    The reduced costs c_j - c_B . column_j are carried as an extra row,
    built once here and updated by each pivot; its last entry is minus the
    objective value."""
    reduced = [Fraction(cost[j]) for j in range(allowed)] + [Fraction(0)]
    for r, b in enumerate(basis):
        if cost[b]:
            for j, a in enumerate(tableau[r]):
                if a:
                    reduced[j] -= cost[b] * a
    rows = [*tableau, reduced]
    while True:
        entering = next((j for j in range(allowed) if reduced[j] < 0), None)
        if entering is None:
            return -reduced[-1]
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
    value = _simplex_phase(tableau, basis, phase1_cost, ncols + nrows)
    if value != 0:
        raise LPError("infeasible linear program")
    # no artificial column can enter again, so drop them
    for row in tableau:
        del row[ncols:-1]
    # drive leftover artificials out of the basis
    for r in range(nrows):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if tableau[r][j] != 0), None)
            if col is not None:
                _eliminate(tableau, r, col)
                basis[r] = col
    # any remaining artificial rows are redundant zero rows; freeze them
    phase2_cost = [Fraction(x) for x in cost] + [Fraction(0)] * nrows
    _simplex_phase(tableau, basis, phase2_cost, ncols)
    x = [Fraction(0)] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            x[b] = tableau[r][-1]

    if any(xi < 0 for xi in x) or any(
        sum(a * xi for a, xi in zip(row, x)) != rhs for row, rhs in zip(a_eq, b_eq)
    ):
        raise LPError("primal check failed: x is not >= 0 with a_eq x = b_eq")
    y = _dual_solution(cost, a_eq, basis)
    for j in range(ncols):
        if cost[j] - sum(a_eq[r][j] * y[r] for r in range(nrows)) < 0:
            raise LPError(f"dual check failed: column {j} has a negative reduced cost")
    objective = sum((c * xi for c, xi in zip(cost, x)), Fraction(0))
    if sum(yr * rhs for yr, rhs in zip(y, b_eq)) != objective:
        raise LPError("duality check failed: b_eq.y differs from the objective cost.x")
    return x, y, objective


def _dual_solution(
    cost: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]],
    basis: Sequence[int],
) -> list[Fraction]:
    """y solving B^T y = c_B for the final basis (artificial columns are
    unit vectors, so their dual rows are direct)."""
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
    try:
        return solve_linear(aug)
    except ArithmeticError as exc:
        raise LPError("singular basis while extracting the dual") from exc


# ---------------------------------------------------------------------------
# The weighted-bound optimization.


@dataclass(frozen=True)
class WeightedBoundResult:
    weighting: ClassWeighting
    least_eigenvalue: Fraction
    bound: Fraction
    uniform_bound: Fraction


# Largest degree of the weighted-bound LP: n = 12 at t = 2 takes about 10 s
# in a fresh process on a 2-core machine, and n = 13 about 41 s.
WOPT_CAP = 12


def optimize_bound(n: int, t: int) -> WeightedBoundResult:
    """Maximize the least nontrivial weighted eigenvalue over nonnegative
    normalized class weightings; return the weighting and the induced
    independence bound, exactly.  The optimum comes with the checked
    primal/dual pair of ``solve_lp_min``, and the weighting is substituted
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
    weighting = ClassWeighting(weights)
    # re-substitution through the public eigenvalue path
    if weighting.weighted_degree() != 1:
        raise LPError("re-substitution failed: the weighted degree is not 1")
    if min(weighted_eigenvalue(a, weighting) for a in alphas) != m:
        raise LPError("re-substitution failed: the least weighted eigenvalue is not m")

    spec = full_spectrum(n, t)
    return WeightedBoundResult(
        weighting=weighting,
        least_eigenvalue=m,
        bound=hoffman_bound(1, m, math.factorial(n)),
        uniform_bound=hoffman_bound(spec.degree, spec.lambda_min, math.factorial(n)),
    )
