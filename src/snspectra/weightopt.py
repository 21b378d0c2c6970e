"""Conjugation-invariant weighted eigenvalue bounds and their optimization.

A nonnegative weight on each generating class, normalized so the weighted
degree is 1, turns the eigenvalue map into a linear function of the weights.
The best Hoffman-type bound under such weightings is a small linear program:
maximize the least nontrivial weighted eigenvalue m; the induced bound is
(-m)/(1-m) * n!.

The LP is solved exactly by a two-phase simplex with Bland's rule that
carries its reduced-cost row.  It is fraction-free: each tableau row is a
list of integer numerators over one positive denominator, and a pivot
touches only the rows with a nonzero entry in its column (Edmonds 1967,
Bareiss 1968).  The dual is read from the final reduced costs of the
artificial columns.  The solution is not trusted: ``solve_lp_min`` returns
it only once primal feasibility, dual feasibility, and objective equality,
which together certify optimality, are re-verified exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .bounds import hoffman_bound
from .characters import CycleType, class_size
from .partitions import Partition, partitions_of
from .spectrum import check_edges, class_eigenvalues, generating_classes


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


class _Row:
    """A tableau row as integers: the numerators of its entries, the
    right-hand side last, over one positive denominator."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: list[int], den: int) -> None:
        self.nums = nums
        self.den = den


def _integral(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers ``scale * values`` and the least positive such scale,
    the LCM of the denominators."""
    fracs = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in fracs))
    return [v.numerator * (scale // v.denominator) for v in fracs], scale


def _clear(row: _Row, col: int, pivot: _Row) -> None:
    """Subtract from ``row`` the multiple of ``pivot`` that zeroes its entry
    in ``col``, without fractions: with numerators N and M and entries f and
    p > 0 in ``col``, the row becomes (N p - f M) / (D p), first with
    gcd(f, p) taken out of f and p and then with the gcd of the result."""
    f, p = row.nums[col], pivot.nums[col]
    g = math.gcd(f, p)
    f, p = f // g, p // g
    nums = [a * p - f * b for a, b in zip(row.nums, pivot.nums)]
    den = row.den * p
    g = math.gcd(den, *nums)
    if g > 1:
        nums = [a // g for a in nums]
        den //= g
    row.nums, row.den = nums, den


def _eliminate(rows: list[_Row], row: int, col: int) -> None:
    """Gauss-Jordan step on ``rows[row]`` at ``col``, in place.  The pivot
    row keeps its numerators, negated if the pivot entry is negative, and
    takes the pivot entry as its denominator, so that entry becomes 1; every
    other row with a nonzero entry in the column is cleared by ``_clear``,
    and the rows with a zero there are untouched."""
    pivot = rows[row]
    if pivot.nums[col] < 0:
        pivot.nums = [-a for a in pivot.nums]
    pivot.den = pivot.nums[col]
    for other in rows:
        if other.nums[col] and other is not pivot:
            _clear(other, col, pivot)


def _simplex_phase(
    tableau: list[_Row],
    basis: list[int],
    cost: list[int],
    den: int,
    allowed: int,
) -> _Row:
    """Run Bland-rule simplex to optimality on the cost row ``cost / den``;
    it prices every tableau column before the right-hand side and the first
    ``allowed`` of them are eligible to enter (phase 2 bars the artificial
    columns).  Returns the final reduced-cost row.

    The reduced costs c_j - c_B . column_j are carried as an extra row,
    built once here by clearing each basic column and updated by each pivot;
    its last entry is minus the objective value."""
    reduced = _Row([*cost, 0], den)
    for row, b in zip(tableau, basis):
        if reduced.nums[b]:
            _clear(reduced, b, row)  # a basic column holds 1 in its row
    rows = [*tableau, reduced]
    while True:
        entering = next((j for j in range(allowed) if reduced.nums[j] < 0), None)
        if entering is None:
            return reduced
        # min ratio rhs / entry over the positive entries, compared as
        # rhs_r * entry_s < rhs_s * entry_r; ties by basis index
        leaving = None
        for r, row in enumerate(tableau):
            entry = row.nums[entering]
            if entry > 0 and (
                leaving is None
                or (row.nums[-1] * best_entry, basis[r]) < (best_rhs * entry, basis[leaving])
            ):
                leaving, best_entry, best_rhs = r, entry, row.nums[-1]
        if leaving is None:
            raise LPError("unbounded linear program")
        _eliminate(rows, leaving, entering)
        basis[leaving] = entering


def _dual(reduced: _Row, scales: Sequence[int], ncols: int) -> list[Fraction]:
    """y from the final phase-2 reduced costs.  The artificial columns hold
    B^-1, so the reduced cost of artificial column r is minus the dual of
    tableau row r.  That row is input row r times its signed scale s_r, so
    its dual is y_r / s_r."""
    return [
        Fraction(-scale * reduced.nums[ncols + r], reduced.den)
        for r, scale in enumerate(scales)
    ]


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
    # each row scaled to integers, and negated if needed to put a
    # nonnegative right-hand side last, then an artificial identity basis
    tableau = []
    scales = []
    for r in range(nrows):
        nums, scale = _integral([*a_eq[r], b_eq[r]])
        if nums[-1] < 0:
            nums = [-a for a in nums]
            scale = -scale
        artificial = [0] * nrows
        artificial[r] = 1
        tableau.append(_Row(nums[:-1] + artificial + nums[-1:], 1))
        scales.append(scale)
    basis = [ncols + r for r in range(nrows)]

    phase1_cost = [0] * ncols + [1] * nrows
    # the last reduced cost is minus the phase-1 objective, the artificial sum
    if _simplex_phase(tableau, basis, phase1_cost, 1, ncols + nrows).nums[-1]:
        raise LPError("infeasible linear program")
    # drive leftover artificials out of the basis
    for r in range(nrows):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if tableau[r].nums[j]), None)
            if col is not None:
                _eliminate(tableau, r, col)
                basis[r] = col
    # any remaining artificial rows are redundant zero rows; freeze them.
    # The artificial columns stay, barred from entering; ``_dual`` reads y
    # from their reduced costs
    phase2_cost, cost_den = _integral(cost)
    reduced = _simplex_phase(tableau, basis, phase2_cost + [0] * nrows, cost_den, ncols)
    x = [Fraction(0)] * ncols
    for row, b in zip(tableau, basis):
        if b < ncols:
            x[b] = Fraction(row.nums[-1], row.den)
    y = _dual(reduced, scales, ncols)

    # the checks, on the input rows against x and y over common denominators
    xs, x_den = _integral(x)
    ys, y_den = _integral(y)
    if any(v < 0 for v in xs) or any(
        sum(a * v for a, v in zip(row, xs)) != rhs * x_den for row, rhs in zip(a_eq, b_eq)
    ):
        raise LPError("primal check failed: x is not >= 0 with a_eq x = b_eq")
    for j in range(ncols):
        if cost[j] * y_den - sum(a_eq[r][j] * ys[r] for r in range(nrows)) < 0:
            raise LPError(f"dual check failed: column {j} has a negative reduced cost")
    objective = Fraction(sum(c * v for c, v in zip(cost, xs)), x_den)
    if Fraction(sum(v * rhs for v, rhs in zip(ys, b_eq)), y_den) != objective:
        raise LPError("duality check failed: b_eq.y differs from the objective cost.x")
    return x, y, objective


# ---------------------------------------------------------------------------
# The weighted-bound optimization.


class WeightedBoundResult(NamedTuple):
    weights: tuple[tuple[CycleType, Fraction], ...]
    least_eigenvalue: Fraction
    bound: Fraction


# Largest degree of the weighted-bound LP: n = 12 at t = 2 takes 1.4-3.1 s
# in a fresh process on a 2-core machine, whose speed varies by spells, and
# n = 13 about 6.7-12 s.
WOPT_CAP = 12


def optimize_bound(n: int, t: int) -> WeightedBoundResult:
    """Maximize the least nontrivial weighted eigenvalue over nonnegative
    normalized class weights; return the weights and the induced
    independence bound, exactly.  The optimum comes with the checked
    primal/dual pair of ``solve_lp_min``, and the weights are substituted
    back through ``weighted_eigenvalue``; LPError names a failed check.  The
    edgeless graph (t = n) has nothing to weight and is refused."""
    check_edges(n, t)
    classes = generating_classes(n, t)
    k = len(classes)
    alphas = [a for a in partitions_of(n) if a != (n,)]

    # variables: w_1..w_k, m_plus, m_minus, one slack per alpha
    ncols = k + 2 + len(alphas)
    a_eq: list[list[int]] = []
    b_eq: list[int] = []
    for i, alpha in enumerate(alphas):
        row = [*class_eigenvalues(alpha, classes), -1, 1]  # -m
        row += [-1 if j == i else 0 for j in range(len(alphas))]
        a_eq.append(row)
        b_eq.append(0)
    a_eq.append([size for _, size in classes] + [0] * (2 + len(alphas)))
    b_eq.append(1)

    cost = [0] * k + [-1, 1] + [0] * len(alphas)
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
