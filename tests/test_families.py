import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    RATIO_BANDS,
    count_agreeing_exactly_once,
    fixed_point_census,
    is_t_intersecting,
    least_agreeing_pair,
    many_fixed_points_count,
    rencontres_count,
)
from snspectra import families, reports
from snspectra.cli import build_parser
from snspectra.families import (
    FAMILIES,
    PAIRWISE_CAP,
    Family,
    VerificationResult,
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
from snspectra.perms import agree_count, all_perms, identity, parse_cycles, sign


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
        assert is_t_intersecting(coset.members, 2)
        assert verify(coset, 2).ok


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
    assert verify(family_B(8), 2).ok


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
    assert is_t_intersecting(fam.members, 1)
    fam2 = hm_family(6, 2)
    assert is_t_intersecting(fam2.members, 2)
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
# The pairwise independence check.


def test_no_singleton_witness_is_lex_least():
    fam = Family(4, "demo", frozenset({identity(4), parse_cycles("(1 2 3)", 4)}))
    res = verify(fam, 2)
    assert not res.ok
    assert res.witness == (identity(4), parse_cycles("(1 2 3)", 4))
    assert res.checked_pairs == 1


def test_agreeing_twice_is_fine():
    fam = Family(4, "demo", frozenset({identity(4), parse_cycles("(1 2)", 4)}))
    assert verify(fam, 2).ok
    assert verify(Family(4, "empty", frozenset()), 2) == VerificationResult(True, 0)


@pytest.mark.parametrize("t", [-1, 0, 5, 6])
def test_verify_refuses_t_outside_1_to_n(t):
    # these used to pass vacuously: no two permutations of degree 4 agree
    # on exactly t-1 points when t-1 is negative or above 3
    with pytest.raises(ValueError, match="1 <= t <= n"):
        verify(t_coset([(1, 1)], 4), t)


def test_verify_refuses_a_family_above_the_pairwise_cap(monkeypatch):
    # refused from its size alone: the members are never sorted
    members = frozenset(itertools.islice(all_perms(8), PAIRWISE_CAP + 1))
    fam = Family(8, "big", members)
    monkeypatch.setattr(Family, "sorted_members", lambda self: pytest.fail("sorted"))
    with pytest.raises(ValueError, match="too large for pairwise scan: 12001"):
        verify(fam, 2)


def test_verify_finds_a_violation_past_the_first_block():
    # 600 even permutations of S_7, none a transposition away from the odd
    # last permutation x, then x and the even y just before it: (y, x) is
    # the only pair agreeing on 5 points, in rows 600 and 601
    y, x = list(all_perms(7))[-2:]
    clean = (s for s in all_perms(7) if s < y and sign(s) == 1 and agree_count(s, x) != 5)
    fam = Family(7, "dip", frozenset([*itertools.islice(clean, 600), x, y]))
    res = verify(fam, 6)
    assert res.witness == least_agreeing_pair(fam.members, 6) == (y, x)


@pytest.mark.parametrize("seed", range(8))
def test_verify_witness_is_the_least_violating_pair(seed):
    rng = random.Random(seed)
    # S_6 at every t: dense violations, small and large families
    t, size = seed % 6 + 1, rng.randint(2, 700)
    fam = Family(6, "random", frozenset(rng.sample(list(all_perms(6)), size)))
    assert verify(fam, t).witness == least_agreeing_pair(fam.members, t), (t, size)
    # even permutations of S_8 are never one transposition apart; up to two
    # planted odd ones make sparse violations at t = 7, in rows on either
    # side of the first 512-row block, or none
    evens, odds = [], []
    for s in all_perms(8):
        (evens if sign(s) == 1 else odds).append(s)
    members = rng.sample(evens, rng.randint(500, 1100)) + rng.sample(odds, seed % 3)
    fam = Family(8, "planted", frozenset(members))
    res = verify(fam, 7)
    assert res.witness == least_agreeing_pair(fam.members, 7), (seed, len(members))
    assert res.ok == (res.witness is None)
    assert res.checked_pairs == math.comb(len(members), 2)


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


def test_hm_family_rejects_t_below_one():
    with pytest.raises(ValueError, match="1 <= t <= n - 2"):
        hm_family(6, -1)
    with pytest.raises(ValueError, match="1 <= t <= n - 2"):
        hm_family(6, 0)


def test_registry_names_are_the_cli_choices():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    family = next(a for a in sub.choices["families"]._actions if a.dest == "family")
    assert tuple(family.choices) == tuple(FAMILIES)


@pytest.mark.parametrize("name", [k for k, spec in FAMILIES.items() if spec.size_formula])
def test_registry_size_formulas_match_the_constructors(name):
    spec = FAMILIES[name]
    least = spec.pinned(2) + spec.min_free
    for n in range(least, 10):
        assert spec.size_formula(n) == len(spec.build(n, 2)), (name, n)
    # the minimum is tight: one point fewer, the constructor or formula fails
    with pytest.raises(ValueError):
        spec.size_formula(least - 1)
        spec.build(least - 1, 2)


def test_registry_hm_pins_t_points():
    spec = FAMILIES["HM"]
    for t in (1, 2, 3):
        assert spec.pinned(t) == t
        assert len(spec.build(t + spec.min_free, t)) > 0
        with pytest.raises(ValueError):
            spec.build(t + spec.min_free - 1, t)


def test_registry_calls_the_module_constructor(monkeypatch):
    # the benchmark's tracer swaps families.family_B and the other
    # constructors for wrappers; a reference stored in the registry would
    # bypass them and its build time would read zero
    calls = []
    original = families.family_B

    def recording(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(families, "family_B", recording)
    report = reports.family_report("B", 7, 2, False)
    assert calls == [7]
    assert report["formula_match"] is True
