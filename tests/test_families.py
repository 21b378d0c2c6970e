import math
from fractions import Fraction

import pytest

from oracles import fixed_point_census, many_fixed_points_count
from snspectra.families import (
    Family,
    RATIO_BANDS,
    count_agreeing_exactly_once,
    family_B,
    family_B_size_formula,
    family_F,
    family_F_size_formula,
    family_G,
    family_H,
    family_H_lower_bound,
    family_H_lower_bound_outside,
    family_M,
    family_M_lower_bound,
    fixed_points_ge5,
    hilton_milner_tail,
    hm_family,
    moved_points_ge5,
    t_coset,
    verify,
)
from snspectra.perms import agree_count, identity, parse_cycles, rencontres_count


def test_t_coset_sizes_and_errors():
    assert len(t_coset([(1, 1), (2, 2)], 5)) == 6
    assert len(t_coset([(1, 2)], 4)) == 6
    with pytest.raises(ValueError):
        t_coset([(1, 1), (1, 2)], 5)
    with pytest.raises(ValueError):
        t_coset([(1, 1), (2, 1)], 5)


def test_two_cosets_are_independent():
    for n in (4, 5, 6, 7):
        coset = t_coset([(1, 2), (3, 1)], n)
        assert verify(coset, "no-singleton-intersection").ok
        assert verify(coset, "t-intersecting", t=2).ok
        assert verify(coset, "independent", t=2).ok


def test_hilton_milner_tail_from_predicate():
    tail = hilton_milner_tail(8)
    expected = {
        parse_cycles(text, 8)
        for text in ["(1 3)(2 4)", "(1 4)(2 3)", "(1 3 2 4)", "(1 4 2 3)"]
    }
    assert tail == expected
    # the variant sometimes quoted instead fails the defining predicate
    assert parse_cycles("(1 4 3 2)", 8) not in tail


@pytest.mark.parametrize("n", [8, 9])
def test_family_B_size(n):
    assert len(family_B(n)) == family_B_size_formula(n)


def test_family_B_spec_value():
    assert family_B_size_formula(9) == 3234


def test_family_B_requires_n7():
    with pytest.raises(ValueError):
        family_B(6)


def test_family_B_not_in_any_two_coset():
    fam = family_B(8)
    members = fam.sorted_members()
    for i in (1, 2):
        values = {s[i - 1] for s in members}
        assert len(values) > 1


def test_family_B_independent_at_n8():
    assert verify(family_B(8), "no-singleton-intersection").ok


def test_family_B_coset_part_is_G4():
    for n in (7, 8):
        expected = family_G(4, n).members | hilton_milner_tail(n)
        assert family_B(n).members == expected


@pytest.mark.parametrize("n", [7, 8, 9])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_family_F_sizes(j, n):
    assert len(family_F(j, n)) == family_F_size_formula(j, n)


def test_family_F_spec_values():
    assert family_F_size_formula(1, 8) == 264
    assert family_F_size_formula(2, 8) == 309
    assert family_F_size_formula(3, 8) == 265
    assert family_F_size_formula(4, 8) == 256
    with pytest.raises(ValueError):
        family_F(5, 8)


def test_G_complements_F():
    for j in (1, 2, 3, 4):
        f = family_F(j, 7)
        g = family_G(j, 7)
        assert not f.members & g.members
        assert len(f) + len(g) == math.factorial(5)
        # the 2-coset elements split between them; G always contains the
        # permutations fixing everything (the identity among them)
        assert identity(7) in g.members


def test_F_members_hit_by_the_excluded_element():
    # each family F_j consists of permutations agreeing exactly once with
    # the corresponding outside element
    n = 8
    outside = {
        1: parse_cycles("(1 2)", n),
        2: parse_cycles("(1 3)", n),
        3: parse_cycles("(1 2 3)", n),
        4: parse_cycles("(1 3)(2 4)", n),
    }
    for j, tau in outside.items():
        fam = family_F(j, n)
        assert all(agree_count(s, tau) == 1 for s in fam.members)


def test_hm_family_size_and_intersection():
    fam = hm_family(5, 1)
    assert len(fam) == 14
    assert verify(fam, "t-intersecting", t=1).ok
    fam2 = hm_family(6, 2)
    assert verify(fam2, "t-intersecting", t=2).ok
    # constructor totality at the smallest degree
    assert len(hm_family(4, 2)) > 0


def test_family_H_bounds_and_disjointness():
    n = 8
    # pi fixing exactly one of 1, 2
    pi = parse_cycles("(2 3)(5 6 7)", n)
    fam = family_H(pi, n)
    assert moved_points_ge5(pi) == (5, 6, 7)
    assert len(fam) >= family_H_lower_bound(pi, n)
    assert all(agree_count(s, pi) == 1 for s in fam.members)
    # pi fixing neither 1 nor 2
    pi2 = parse_cycles("(1 2)(5 6)(7 8)", n)
    fam2 = family_H(pi2, n)
    assert len(fam2) >= family_H_lower_bound_outside(pi2, n)


def test_family_M_bound_and_agreements():
    n = 8
    rho = parse_cycles("(1 6)(2 7)", n)
    assert fixed_points_ge5(rho) == (5, 8)
    fam = family_M(rho, n)
    assert len(fam) >= family_M_lower_bound(rho, n)
    assert all(agree_count(s, rho) == 1 for s in fam.members)


def test_fixed_points_ge5_of_identity():
    assert fixed_points_ge5(identity(8)) == (5, 6, 7, 8)


# ---------------------------------------------------------------------------
# Verification predicates.


def test_no_singleton_witness_is_lex_least():
    fam = Family(4, "demo", frozenset({identity(4), parse_cycles("(1 2 3)", 4)}))
    res = verify(fam, "no-singleton-intersection")
    assert not res.ok
    assert res.witness == (identity(4), parse_cycles("(1 2 3)", 4))


def test_agreeing_twice_is_fine():
    fam = Family(4, "demo", frozenset({identity(4), parse_cycles("(1 2)", 4)}))
    assert verify(fam, "no-singleton-intersection").ok


def test_first_point_rule():
    three_coset = t_coset([(1, 1), (2, 2), (3, 3)], 6)
    assert verify(three_coset, "first-point-rule").ok
    bad = Family(4, "demo", frozenset({identity(4), parse_cycles("(2 3)", 4)}))
    res = verify(bad, "first-point-rule")
    assert not res.ok  # same first value, agreement exactly 2


def test_two_point_rule():
    four_coset = t_coset([(i, i) for i in range(1, 5)], 6)
    assert verify(four_coset, "two-point-rule").ok
    bad = Family(5, "demo", frozenset({identity(5), parse_cycles("(3 4)", 5)}))
    res = verify(bad, "two-point-rule")
    assert not res.ok  # both shared, agreement exactly 3


def test_verify_rejects_unknown_predicate_and_caps():
    fam = t_coset([(1, 1)], 4)
    with pytest.raises(ValueError):
        verify(fam, "nonsense")
    with pytest.raises(ValueError):
        verify(fam, "t-intersecting")  # t missing


# ---------------------------------------------------------------------------
# Counting checks.


def test_count_agreeing_exactly_once_matches_formula():
    # against tau = (1 2), the count is exactly |F_1| = (n-2) d_{n-3}
    for n in (6, 7, 8):
        tau = parse_cycles("(1 2)", n)
        assert count_agreeing_exactly_once(tau, n) == family_F_size_formula(1, n)


def test_count_agreeing_once_ratio_band():
    low, high = RATIO_BANDS["agree-once"]
    for n in (7, 8):
        for text in ["(1 2)", "(1 3)(2 4)", "(1 2 3)"]:
            tau = parse_cycles(text, n)
            ratio = Fraction(count_agreeing_exactly_once(tau, n), math.factorial(n - 2))
            assert low < ratio < high, (n, text, ratio)


def test_count_agreeing_totality_and_frozen_value():
    # tau fixing both pinned points can never agree exactly once; still total
    assert count_agreeing_exactly_once(identity(6), 6) == 0
    assert count_agreeing_exactly_once(parse_cycles("(1 3)(2 4)", 6), 6) == 8


def test_census_matches_rencontres():
    # ties the generating-set size |E_n| = n d_{n-1} to raw enumeration
    for n in (5, 6, 7, 8, 9):
        census = fixed_point_census(n)
        for k in range(n + 1):
            assert census.get(k, 0) == rencontres_count(n, k)


@pytest.mark.parametrize("n", range(4, 10))
def test_many_fixed_points_bound(n):
    assert many_fixed_points_count(n) <= math.factorial(n) // math.factorial(n // 2)


def test_family_B_ratio_trend():
    low, high = RATIO_BANDS["family-B"]
    ratios = [
        Fraction(family_B_size_formula(n), math.factorial(n - 2)) for n in range(8, 13)
    ]
    assert all(low < r < high for r in ratios)
    # the ratio approaches 1 - 1/e ~ 0.63212 from above at desk scale
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > Fraction(63212, 100000) for r in ratios)
