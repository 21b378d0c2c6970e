import math
import random
from fractions import Fraction

import pytest

import oracles
from snspectra import spectrum, weightopt
from snspectra.bounds import bound_report
from snspectra.characters import class_size
from snspectra.partitions import partitions_of
from snspectra.spectrum import full_spectrum, generating_classes
from snspectra.weightopt import (
    LPError,
    optimize_bound,
    solve_lp_min,
    weighted_eigenvalue,
)


def weighted_degree(weights):
    return sum((w * class_size(c) for c, w in weights), Fraction(0))


def uniform_weights(n, t):
    """Weight 1/degree on every generating class."""
    classes = generating_classes(n, t)
    degree = sum(size for _, size in classes)
    return tuple((c, Fraction(1, degree)) for c, _ in classes)


def test_uniform_weighting_recovers_spectrum():
    for n, t in [(5, 2), (6, 2), (6, 3)]:
        uniform = uniform_weights(n, t)
        assert weighted_degree(uniform) == 1
        spec = full_spectrum(n, t)
        by = {r.partition: r.eigenvalue for r in spec.rows}
        for alpha in partitions_of(n):
            assert weighted_eigenvalue(alpha, uniform) == Fraction(
                by[alpha], spec.degree
            )


def test_trivial_component_sees_the_normalization():
    for n, t in [(5, 2), (7, 3)]:
        uniform = uniform_weights(n, t)
        assert weighted_eigenvalue((n,), uniform) == 1


def test_single_class_weighting():
    n, t = 6, 2
    ctype, size = generating_classes(n, t)[0]
    w = ((ctype, Fraction(1, size)),)
    assert weighted_degree(w) == 1
    from snspectra.characters import mn_character
    from snspectra.partitions import dimension

    for alpha in partitions_of(n)[:4]:
        expected = Fraction(mn_character(alpha, ctype), dimension(alpha))
        assert weighted_eigenvalue(alpha, w) == expected


# ---------------------------------------------------------------------------
# The exact simplex core.


def test_simplex_small_dictionary():
    # min -x - y st x + y <= 1 as equalities with a slack
    cost = [Fraction(-1), Fraction(-1), Fraction(0)]
    a_eq = [[Fraction(1), Fraction(1), Fraction(1)]]
    b_eq = [Fraction(1)]
    x, y, obj = solve_lp_min(cost, a_eq, b_eq)
    assert obj == -1
    assert x[0] + x[1] == 1
    assert y == [-1]


def test_lp_without_rows():
    # the reduced-cost row is sized by the cost, not by a tableau row
    assert solve_lp_min([Fraction(1)], [], []) == ([0], [], 0)
    with pytest.raises(LPError, match="unbounded"):
        solve_lp_min([Fraction(-1)], [], [])


def test_dual_of_a_negated_row_keeps_its_sign():
    # min 2x + y st -x - y = -3: the row is negated to put 3 on the right,
    # and the dual of the original row is y = -1 (x = 0, y = 3, objective 3)
    x, y, objective = solve_lp_min([2, 1], [[-1, -1]], [-3])
    assert (x, y, objective) == ([0, 3], [-1], 3)
    assert (x, y, objective) == certified_oracle([2, 1], [[-1, -1]], [-3])


def test_dual_of_a_row_with_a_fractional_rhs_is_scaled_back():
    # the rows are scaled to integers by 3 and by -21 before the simplex;
    # the duals of the scaled rows are scaled back by the same factors
    lp = ([1, 2, 3], [[1, 1, 0], [0, Fraction(-1, 7), -1]], [Fraction(2, 3), Fraction(-1, 21)])
    x, y, objective = solve_lp_min(*lp)
    assert (x, y, objective) == ([Fraction(2, 3), 0, Fraction(1, 21)], [1, -3], Fraction(17, 21))
    assert (x, y, objective) == certified_oracle(*lp)


def certified_oracle(cost, a_eq, b_eq):
    """The dense oracle's optimum in the shape ``solve_lp_min`` returns: x,
    the dual of the oracle's final basis, and the objective."""
    x, objective, basis = oracles.solve_lp_min(cost, a_eq, b_eq)
    return x, oracles.basis_dual(cost, a_eq, basis), objective


# the LP of the solve_lp_min doctest: optimum x = (8/5, 6/5, 0, 0), with
# dual y = (-2/5, -1/5)
DOCTEST_LP = ([-1, -1, 0, 0], [[1, 2, 1, 0], [3, 1, 0, 1]], [4, 6])


@pytest.mark.parametrize(
    "shift,check",
    [
        (1, "dual check failed: column 0 has a negative reduced cost"),
        # (-7/5, -6/5) is dual feasible, but b.y = -64/5 is below the optimum
        (-1, "duality check failed"),
    ],
)
def test_a_wrong_dual_is_refused(monkeypatch, shift, check):
    oracles.shift_dual(monkeypatch, shift)
    with pytest.raises(LPError, match=check):
        solve_lp_min(*DOCTEST_LP)


def test_a_wrong_primal_is_refused(monkeypatch):
    phase = weightopt._simplex_phase

    def shifted(tableau, basis, cost, den, allowed):
        reduced = phase(tableau, basis, cost, den, allowed)
        if allowed < len(cost):  # phase 2 bars the artificial columns
            tableau[0].nums[-1] += tableau[0].den  # the basic x of row 0, plus 1
        return reduced

    monkeypatch.setattr(weightopt, "_simplex_phase", shifted)
    with pytest.raises(LPError, match="primal check failed"):
        solve_lp_min(*DOCTEST_LP)


def test_solve_linear_vandermonde_and_singular():
    # multiplicities 2, 1, 3 of the values 3, -1, 0 from their power sums
    values, mults = [3, -1, 0], [2, 1, 3]
    aug = [
        [Fraction(v) ** k for v in values] + [Fraction(sum(m * v**k for v, m in zip(values, mults)))]
        for k in range(3)
    ]
    assert oracles.solve_linear(aug) == mults
    with pytest.raises(ArithmeticError, match="singular"):
        oracles.solve_linear([[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]])


def test_simplex_infeasible():
    cost = [Fraction(1)]
    a_eq = [[Fraction(1)], [Fraction(1)]]
    b_eq = [Fraction(1), Fraction(2)]
    with pytest.raises(LPError):
        solve_lp_min(cost, a_eq, b_eq)


def test_simplex_unbounded():
    cost = [Fraction(-1), Fraction(0)]
    a_eq = [[Fraction(1), Fraction(-1)]]  # x - y = 1, minimize -x
    b_eq = [Fraction(1)]
    with pytest.raises(LPError):
        solve_lp_min(cost, a_eq, b_eq)


def _outcome(solver, lp):
    try:
        return solver(*lp)
    except LPError as exc:
        return str(exc)


def _random_lp(rng):
    nrows = rng.randint(1, 4)
    ncols = rng.randint(1, 6)
    # denominators 2, 3 and 7 give rows of different LCMs to scale to integers
    entries = [-2, -1, Fraction(-1, 3), 0, 0, 0, Fraction(1, 2), Fraction(2, 7), 1, 2]
    a_eq = [[Fraction(rng.choice(entries)) for _ in range(ncols)] for _ in range(nrows)]
    # zero right-hand sides make degenerate vertices and ratio ties; negative
    # ones make rows that are negated before they are scaled
    b_eq = [Fraction(rng.choice([-1, Fraction(-2, 3), 0, 0, 1, 2])) for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.25:
        # a redundant row leaves an artificial basic after phase 1
        a_eq[-1], b_eq[-1] = list(a_eq[0]), b_eq[0]
    cost = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
    return cost, a_eq, b_eq


def test_simplex_matches_dense_oracle_on_random_lps(monkeypatch):
    ties = 0

    def tie_counting_min(ratios):
        nonlocal ties
        ratios = sorted(ratios)
        if len(ratios) > 1 and ratios[0][0] == ratios[1][0]:
            ties += 1
        return ratios[0]

    # the oracle's min-ratio choice, with ties counted
    monkeypatch.setattr(oracles, "min", tie_counting_min, raising=False)
    rng = random.Random(3)
    kinds = {"feasible": 0, "infeasible linear program": 0, "unbounded linear program": 0}
    for _ in range(400):
        lp = _random_lp(rng)
        expected = _outcome(certified_oracle, lp)
        assert _outcome(solve_lp_min, lp) == expected, lp
        kinds["feasible" if isinstance(expected, tuple) else expected] += 1
    assert all(kinds.values()), kinds
    assert ties > 0


def test_simplex_matches_dense_oracle_on_beale_cycling_example():
    # Beale's degenerate LP, on which the largest-coefficient rule cycles;
    # Bland's rule reaches the optimum -1/20 at x4 = 1/25, x6 = 1
    cost = [0, 0, 0, Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    a_eq = [
        [1, 0, 0, Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [0, 1, 0, Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    b_eq = [0, 0, 1]
    x, y, objective = solve_lp_min(cost, a_eq, b_eq)
    assert objective == Fraction(-1, 20)
    assert x[3] == Fraction(1, 25) and x[5] == 1
    assert (x, y, objective) == certified_oracle(cost, a_eq, b_eq)


# ---------------------------------------------------------------------------
# The weighted bound.


@pytest.mark.parametrize(
    "n,t",
    [(n, t) for n in range(3, 9) for t in range(1, n)]
    # each n = 9 case takes the dense oracle 0.7-1.8 s
    + [pytest.param(9, t, marks=pytest.mark.slow) for t in range(1, 9)],
)
def test_optimized_bound_matches_dense_oracle(monkeypatch, n, t):
    result = optimize_bound(n, t)
    monkeypatch.setattr(weightopt, "solve_lp_min", certified_oracle)
    assert optimize_bound(n, t) == result


@pytest.mark.parametrize("n,t", [(6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3)])
def test_optimized_bound_is_certified_and_sound(n, t):
    result = optimize_bound(n, t)  # raises LPError unless certified
    assert result.least_eigenvalue < 0
    assert result.bound <= bound_report(n, t).hoffman_value
    # the t-coset is a verified independent family of size (n-t)!
    assert result.bound >= math.factorial(n - t)


def test_uniform_bound_matches_unweighted_hoffman():
    from snspectra.reports import hoffman_report, wopt_report

    for n, t in [(6, 2), (7, 2), (8, 2)]:
        assert wopt_report(n, t)["uniform_bound"] == hoffman_report(n, t)["hoffman_value"]


def test_the_lp_builds_no_spectrum(monkeypatch):
    # the plain Hoffman bound is the reports' to compute, not the LP's
    def refuse(n, t):
        raise AssertionError("optimize_bound built a full spectrum")

    monkeypatch.setattr(spectrum, "full_spectrum", refuse)
    assert not hasattr(weightopt, "full_spectrum")
    assert math.floor(optimize_bound(7, 2).bound) == 168


def test_random_feasible_weightings_stay_sound():
    rng = random.Random(7)
    for n, t in [(6, 2), (7, 2), (7, 3), (8, 3)]:
        classes = generating_classes(n, t)
        for _ in range(10):
            raw = [Fraction(rng.randint(0, 20)) for _ in classes]
            if not any(raw):
                raw[0] = Fraction(1)
            scale = sum(
                (r * size for r, (_, size) in zip(raw, classes)), Fraction(0)
            )
            weights = tuple(
                (c, r / scale) for r, (c, size) in zip(raw, classes)
            )
            assert weighted_degree(weights) == 1
            least = min(
                weighted_eigenvalue(a, weights)
                for a in partitions_of(n)
                if a != (n,)
            )
            assert least < 0
            bound = Fraction(-least, 1 - least) * math.factorial(n)
            assert bound >= math.factorial(n - t)


@pytest.mark.parametrize(
    "name,fake,check",
    [
        ("class_size", lambda c: 0, "the weighted degree is not 1"),
        ("weighted_eigenvalue", lambda alpha, weights: 1, "the least weighted eigenvalue is not m"),
    ],
)
def test_a_failed_re_substitution_is_refused(monkeypatch, name, fake, check):
    monkeypatch.setattr(weightopt, name, fake)
    with pytest.raises(LPError, match=f"re-substitution failed: {check}"):
        optimize_bound(6, 2)


def test_optimize_requires_generating_classes():
    # an input refused, not a failed solve
    message = r"the generating set is empty \(no permutation of degree 5 has exactly 4 fixed"
    with pytest.raises(ValueError, match=message):
        optimize_bound(5, 5)  # no class has exactly 4 fixed points


def test_weight_support_stays_on_generating_classes():
    result = optimize_bound(7, 2)
    gen_types = {c for c, _ in generating_classes(7, 2)}
    for ctype, weight in result.weights:
        assert ctype in gen_types
        assert weight >= 0
    assert weighted_degree(result.weights) == 1


def test_t3_bound_stalls_at_pair_scale():
    # weighted bounds do not reach (n-3)! for the 3-point graph; they stay
    # at the (n-2)! scale, which is the point of exploring them
    for n in (7, 8):
        result = optimize_bound(n, 3)
        assert result.bound > math.factorial(n - 2) / 2
