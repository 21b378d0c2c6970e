import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from oracles import (
    agree_count,
    all_perms,
    isotypic_projection,
    pair_masses,
    perms_fixing,
    projections_complete,
    projections_orthogonal,
)
from snspectra import bounds
from snspectra.bounds import (
    bound_report,
    cross_hoffman_bound,
    exact_distance_sq_to_span,
    hoffman_bound,
    paper_tail_split,
    served_components,
    stability_gap_bound,
)
from snspectra.families import FAMILIES
from snspectra.partitions import dimension, partitions_of
from snspectra.spectrum import full_spectrum


def test_hoffman_formula():
    assert hoffman_bound(4, -2, 12) == 4
    assert hoffman_bound(7, -7, 100) == 50  # bipartite-like extreme
    with pytest.raises(ValueError):
        hoffman_bound(4, 0, 12)
    with pytest.raises(ValueError):
        hoffman_bound(0, -1, 12)


def test_cross_hoffman_formula():
    assert cross_hoffman_bound(4, 2, 12) == 4
    assert cross_hoffman_bound(4, 0, 12) == 0
    assert cross_hoffman_bound(4, 2, 12) ** 2 == 16


def test_stability_formula():
    assert stability_gap_bound(4, -1, -2, Fraction(1, 3)) == 0
    assert stability_gap_bound(4, -1, -2, Fraction(1, 6)) == Fraction(1, 6)
    with pytest.raises(ValueError):
        stability_gap_bound(4, -2, -2, Fraction(1, 6))
    with pytest.raises(ValueError):
        stability_gap_bound(4, -3, -2, Fraction(1, 6))


def test_stability_zero_at_tight_density():
    d, lam_n = 45, -15
    tight = Fraction(-lam_n, d - lam_n)
    assert stability_gap_bound(d, 0, lam_n, tight) == 0


@pytest.mark.parametrize("n", range(5, 13))
def test_hoffman_sound_against_pair_stabilizer(n):
    report = bound_report(n, 2)
    assert report.hoffman_value >= math.factorial(n - 2)


def test_hoffman_ratio_decreases_toward_one():
    ratios = [
        bound_report(n, 2).hoffman_value / math.factorial(n - 2) for n in range(8, 13)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r >= 1 for r in ratios)


# ---------------------------------------------------------------------------
# Projections.


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projection_invariants_small(n):
    projs = [isotypic_projection(a, n) for a in partitions_of(n)]
    for p in projs:
        assert p.is_symmetric()
        assert p.is_idempotent()
        assert p.trace() == dimension(p.alpha) ** 2
    for i, p in enumerate(projs):
        for q in projs[i + 1 :]:
            assert projections_orthogonal(p, q)
    assert projections_complete(projs, n)


def test_projection_invariants_n5():
    projs = [isotypic_projection(a, 5) for a in partitions_of(5)]
    for p in projs:
        assert p.is_idempotent()
        assert p.trace() == dimension(p.alpha) ** 2
    assert projections_complete(projs, 5)


def test_trivial_projection_is_constant():
    p = isotypic_projection((4,), 4)
    assert all(
        p.entry(i, j) == Fraction(1, 24) for i in range(0, 24, 7) for j in range(24)
    )


def test_projection_trace_spec_example():
    assert isotypic_projection((2, 2), 4).trace() == 4


def test_projection_cap():
    with pytest.raises(ValueError):
        isotypic_projection((6,), 6)


def test_projection_mass_matches_matrix_route():
    # the pairwise oracle on every component, the count tensor on the served
    # ones: a mass is the squared norm |A|/n! less the distance to its component
    n = 4
    members = list(perms_fixing([(1, 1), (2, 2)], n))
    perms = list(all_perms(n))
    index = {p: i for i, p in enumerate(perms)}
    fact = math.factorial(n)
    pairwise = pair_masses(members, n)
    for alpha in partitions_of(n):
        proj = isotypic_projection(alpha, n)
        direct = sum(
            (
                proj.entry(index[s], index[t])
                for s in members
                for t in members
            ),
            Fraction(0),
        ) / fact
        assert pairwise[alpha] == direct
        if alpha in served_components(n):
            distance = exact_distance_sq_to_span(members, [alpha], n)
            assert Fraction(len(members), fact) - distance == direct


def test_masses_resolve_norm():
    # Plancherel: the masses over all components add up to the squared norm
    n = 5
    members = list(perms_fixing([(1, 2)], n))
    total = sum(pair_masses(members, n).values(), Fraction(0))
    assert total == Fraction(len(members), math.factorial(n))


def _assert_tensor_matches_pairs(members, n):
    # the one-component spans check each mass on its own
    pairwise = pair_masses(members, n)
    served = served_components(n)
    norm_sq = Fraction(len(members), math.factorial(n))
    for size in range(1, len(served) + 1):
        for span in itertools.combinations(served, size):
            expected = norm_sq - sum((pairwise[a] for a in span), Fraction(0))
            assert exact_distance_sq_to_span(members, span, n) == expected, span


def test_served_components():
    assert served_components(2) == ((2,), (1, 1))
    assert served_components(3) == ((3,), (2, 1), (1, 1, 1))
    assert served_components(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert served_components(8) == ((8,), (7, 1), (6, 2), (6, 1, 1), (1,) * 8)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("n", [7, 8])
def test_count_tensor_equals_pairwise_masses_on_named_families(name, n):
    members = FAMILIES[name].build(n, 2).members
    _assert_tensor_matches_pairs(members, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_count_tensor_equals_pairwise_masses_on_random_families(n):
    rng = random.Random(20261018 + n)
    perms = list(all_perms(n))
    for _ in range(4):
        members = rng.sample(perms, rng.randint(0, min(len(perms), 150)))
        _assert_tensor_matches_pairs(members, n)


def test_unserved_component_refused_before_the_tensor(monkeypatch):
    def stub(members, n):
        raise AssertionError("count tensor built for an unserved component")

    monkeypatch.setattr(bounds, "_pair_sums", stub)
    members = list(perms_fixing([(1, 1), (2, 2)], 5))
    for span in [(2, 2, 1)], [(5,), (2, 2, 1)], [(4, 2)], [(3.0, 2.0)]:
        with pytest.raises(ValueError):
            exact_distance_sq_to_span(members, span, 5)


def test_members_must_be_permutations_of_the_degree():
    with pytest.raises(ValueError, match="degree"):
        exact_distance_sq_to_span([(1, 2, 3)], [(4,)], 4)
    with pytest.raises(ValueError, match="not a permutation"):
        exact_distance_sq_to_span([(1, 1, 3, 4)], [(4,)], 4)


@pytest.mark.parametrize("member", [(10**30, 1, 2, 3), (1, 2, 3, -(10**19))])
def test_an_entry_beyond_int64_is_not_a_permutation(member):
    # the int64 cast raised OverflowError: Python int too large to convert
    with pytest.raises(ValueError, match="a member is not a permutation of 1..4"):
        exact_distance_sq_to_span([member], [(4,)], 4)


@pytest.mark.parametrize("member", [(2.5, 1.5, 4, 3), (2.0, 1, 4, 3)])
def test_members_must_be_rows_of_integers(member):
    # the int64 cast truncated (2.5, 1.5, 4, 3) to (2, 1, 4, 3): 11/144
    match = rf"member {re.escape(str(member))} is not a row of integers"
    with pytest.raises(ValueError, match=match):
        exact_distance_sq_to_span([(1, 2, 3, 4), member], [(4,)], 4)


@pytest.mark.parametrize(
    "members, repeated",
    [
        # two copies of the identity gave 11/144, the distance of no vector
        ([(1, 2, 3, 4)] * 2, "(1, 2, 3, 4)"),
        # 25 copies gave a negative distance, an ArithmeticError (exit 1)
        ([(1, 2, 3, 4)] * 25, "(1, 2, 3, 4)"),
        ([(1, 2, 3, 4), (2, 1, 3, 4), (3, 4, 1, 2), (2, 1, 3, 4)], "(2, 1, 3, 4)"),
    ],
)
def test_repeated_members_are_refused(members, repeated):
    match = rf"member {re.escape(repeated)} is repeated"
    with pytest.raises(ValueError, match=match):
        exact_distance_sq_to_span(members, [(4,)], 4)


def test_B9_distance_to_the_paper_span():
    members = FAMILIES["B"].build(9, 2).members
    span = [(9,), (7, 2), (7, 1, 1)]
    assert exact_distance_sq_to_span(members, span, 9) == Fraction(36004537, 8230118400)


@pytest.mark.slow
def test_B10_distance_to_the_paper_span():
    members = FAMILIES["B"].build(10, 2).members
    span = [(10,), (8, 2), (8, 1, 1)]
    assert exact_distance_sq_to_span(members, span, 10) == Fraction(469126087, 137168640000)


# ---------------------------------------------------------------------------
# Distances.


def test_distance_edge_cases():
    assert exact_distance_sq_to_span([], [(5,)], 5) == 0
    everyone = list(all_perms(4))
    assert exact_distance_sq_to_span(everyone, [(4,)], 4) == 0


def test_two_coset_lies_in_fat_span():
    members = list(perms_fixing([(1, 1), (2, 2)], 5))
    fat = [(5,), (4, 1), (3, 2), (3, 1, 1)]
    assert exact_distance_sq_to_span(members, fat, 5) == 0
    # dropping the standard component leaves genuine mass outside
    assert exact_distance_sq_to_span(members, [(5,), (3, 2), (3, 1, 1)], 5) > 0


def test_paper_tail_split_values():
    tail, lam_m, lam_n = paper_tail_split(5, 2)
    assert set(tail) == {(3, 2), (3, 1, 1), (1, 1, 1, 1, 1)}
    assert (lam_m, lam_n) == (0, -15)
    tail8, lam_m8, lam_n8 = paper_tail_split(8, 2)
    assert set(tail8) == {(6, 2), (6, 1, 1)}
    assert lam_n8 == -372
    assert abs(lam_m8) < abs(lam_n8)


@pytest.mark.parametrize("n", [2, 3])
def test_paper_tail_split_needs_the_two_tail_components(n):
    # a bare KeyError: (n-2, 2) is not a partition of n
    with pytest.raises(ValueError, match=f"from n = 4 on \\(got n={n}\\)"):
        paper_tail_split(n, 2)


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("end", ["one", "n"])
def test_paper_tail_split_refuses_an_empty_outside(n, end):
    # the tail held every nontrivial component, and min() of the empty rest
    # raised a bare "min() arg is an empty sequence"
    t = 1 if end == "one" else n
    with pytest.raises(ValueError, match=f"at n={n}, t={t} the tail holds every nontrivial"):
        paper_tail_split(n, t)


def test_stability_bound_dominates_exact_distance():
    spec = full_spectrum(5, 2)
    tail, lam_m, lam_n = paper_tail_split(5, 2)
    span = [(5,)] + list(tail)
    rng = random.Random(20260810)
    for _ in range(60):
        i1, i2 = rng.sample(range(1, 6), 2)
        j1, j2 = rng.sample(range(1, 6), 2)
        coset = list(perms_fixing([(i1, j1), (i2, j2)], 5))
        members = rng.sample(coset, rng.randint(0, len(coset)))
        density = Fraction(len(members), 120)
        bound = stability_gap_bound(spec.degree, lam_m, lam_n, density)
        assert exact_distance_sq_to_span(members, span, 5) <= bound


def test_cross_bound_on_cosets():
    for n in (4, 5, 6):
        report = bound_report(n, 2)
        coset = list(perms_fixing([(1, 1), (2, 2)], n))
        # the pair (coset, coset) is cross-independent: agreements are >= 2
        assert all(agree_count(s, t) >= 2 for s in coset for t in coset)
        assert len(coset) ** 2 <= report.cross_value_squared
        half = coset[: len(coset) // 2]
        assert len(coset) * len(half) <= report.cross_value_squared


def test_bound_report_fields():
    report = bound_report(6, 2)
    assert report.degree == 264
    assert report.lambda_min == -24
    assert report.hoffman_value == Fraction(24, 288) * 720
    assert report.ratio_to_target == report.hoffman_value / 24
