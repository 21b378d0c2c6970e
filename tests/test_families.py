import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from oracles import (
    RATIO_BANDS,
    agree_count,
    all_perms,
    count_agreeing_exactly_once,
    family_H,
    family_H_lower_bound,
    family_H_lower_bound_outside,
    family_M,
    family_M_lower_bound,
    fixed_point_census,
    fixed_points_ge,
    fixed_points_ge5,
    identity,
    is_t_intersecting,
    least_agreeing_pair,
    many_fixed_points_count,
    member_set,
    moved_points_ge5,
    parse_cycles,
    perms_fixing,
    rencontres_count,
    sign,
)
from snspectra import families, reports
from snspectra.bounds import exact_distance_sq_to_span
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
    hilton_milner_tail,
    hm_family,
    t_coset,
    verify,
)
from snspectra.perms import perm_rows
from snspectra.search import SearchResult, verify_certificate


# ---------------------------------------------------------------------------
# The one check of permutation rows.


# rows of degree 3 that are not a set of permutations, and the ValueError
# that names the fault; Family used to cast floats to int8 ((1.5, 2, 3)
# became (1, 2, 3)), raise OverflowError on 300 and 10**30, keep (1, 1, 1)
# and (0, 1, 2), refuse the short row only by numpy's message for a ragged
# array, and drop the repeat without a word
BAD_ROWS = {
    "fractional": ([(1, 2, 3), (1.5, 2, 3)], "member (1.5, 2, 3) is not a row of integers"),
    "integral float": ([(2.0, 1, 3)], "member (2.0, 1, 3) is not a row of integers"),
    "constant": ([(1, 1, 1)], "a member is not a permutation of 1..3"),
    "zero": ([(0, 1, 2)], "a member is not a permutation of 1..3"),
    "past int8": ([(300, 1, 2)], "a member is not a permutation of 1..3"),
    "past int64": ([(1, 2, 3), (10**30, 1, 2)], "a member is not a permutation of 1..3"),
    "short": ([(1, 2, 3), (1, 2)], "member degree mismatch"),
    "repeated": (
        [(2, 1, 3), (1, 2, 3), (2, 1, 3)],
        "member (2, 1, 3) is repeated: a family is a set of permutations",
    ),
}


@pytest.mark.parametrize("case", BAD_ROWS)
def test_every_entry_point_refuses_the_same_rows(case):
    rows, message = BAD_ROWS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        Family(3, "bad", rows)
    with pytest.raises(ValueError, match=re.escape(message)):
        exact_distance_sq_to_span(rows, [(3,)], 3)
    witness = tuple(map(tuple, rows))
    for exact in (True, False):
        result = SearchResult(3, 2, len(witness), witness, nodes=1, exact=exact)
        assert not verify_certificate(result), exact


def test_family_members_are_read_only():
    # a writeable array let two equal rows into a set, and verify still passed
    fam = t_coset([(1, 1), (2, 2)], 4)
    with pytest.raises(ValueError, match="read-only"):
        fam.members[1] = fam.members[0]


def test_rows_in_any_order_come_out_sorted_and_a_repeat_is_found():
    # rows in strict lex order skip the sort and its repeat check; equal
    # neighbours, or a repeat anywhere among shuffled rows, still take both
    rows = perm_rows(5).tolist()
    assert Family(5, "in order", rows).members.tolist() == rows
    shuffled = random.Random(5).sample(rows, len(rows))
    assert Family(5, "shuffled", shuffled).members.tolist() == rows
    with pytest.raises(ValueError, match=re.escape(f"member {tuple(rows[6])} is repeated")):
        Family(5, "equal neighbours", rows[:7] + rows[6:])
    with pytest.raises(ValueError, match=re.escape(f"member {tuple(shuffled[3])} is repeated")):
        Family(5, "shuffled repeat", shuffled + [shuffled[3]])


@pytest.mark.parametrize("n", [0, 128])
def test_family_refuses_a_degree_outside_the_int8_rows(n):
    # n = 0 raised TypeError from np.lexsort, which had no keys; n = 128
    # raised OverflowError in the int8 cast
    message = {
        0: "a family has degree n >= 1 (got n=0)",
        128: "int8 rows: n capped at 127 by ROW_DEGREE_CAP (got n=128)",
    }[n]
    with pytest.raises(ValueError, match=re.escape(message)):
        Family(n, "x", [identity(n)])


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
    assert member_set(tail) == expected
    # the variant sometimes quoted instead fails the defining predicate
    assert parse_cycles("(1 4 3 2)", 8) not in member_set(tail)
    with pytest.raises(ValueError, match="need n >= 4"):
        hilton_milner_tail(3)


@pytest.mark.parametrize("n", [8, 9])
def test_family_B_size(n):
    assert len(family_B(n)) == family_B_size_formula(n)


def test_family_B_spec_value():
    assert family_B_size_formula(9) == 3234


def test_family_B_requires_n7():
    message = r"families B and F_j are defined for n >= 7 \(got n=6\)"
    with pytest.raises(ValueError, match=message):
        family_B(6)
    with pytest.raises(ValueError, match=message):
        family_F(1, 6)
    with pytest.raises(ValueError, match=message):
        family_B_size_formula(6)


def test_family_B_not_in_any_two_coset():
    fam = family_B(8)
    members = fam.members
    for i in (1, 2):
        values = {s[i - 1] for s in members}
        assert len(values) > 1


def test_family_B_independent_at_n8():
    assert verify(family_B(8), 2).ok


def test_family_B_coset_part_is_G4():
    for n in (7, 8):
        expected = member_set(family_G(4, n).members) | member_set(hilton_milner_tail(n))
        assert member_set(family_B(n).members) == expected


@pytest.mark.parametrize("n", [7, 8, 9])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_family_F_sizes(j, n):
    assert len(family_F(j, n)) == family_F_size_formula(j, n)


def test_family_F_spec_values():
    assert family_F_size_formula(1, 8) == 264
    assert family_F_size_formula(2, 8) == 309
    assert family_F_size_formula(3, 8) == 265
    assert family_F_size_formula(4, 8) == 256
    for build in (family_F, family_G, family_F_size_formula):
        with pytest.raises(ValueError, match="families F_j and G_j: j must be 1..4, got 5"):
            build(5, 8)


def test_G_complements_F():
    for j in (1, 2, 3, 4):
        f = family_F(j, 7)
        g = family_G(j, 7)
        assert not member_set(f.members) & member_set(g.members)
        assert len(f) + len(g) == math.factorial(5)
        # the 2-coset elements split between them; G always contains the
        # permutations fixing everything (the identity among them)
        assert identity(7) in member_set(g.members)


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


@pytest.mark.parametrize("t", range(1, 6))
def test_hm_family_is_independent_exactly_from_n_t_plus_3(t):
    # the registry admits HM from n = t + 2, but there the transpositions
    # (i t+1) and (i' t+1) agree on the n - 3 = t - 1 points outside
    # {i, i', t+1}; at t = 1 there is one transposition and no such pair
    for n in range(t + 2, t + 7):
        assert verify(hm_family(n, t), t).ok == (t == 1 or n >= t + 3), (n, t)
    if t > 1:  # the least pair: the two rows after the identity
        swaps = (parse_cycles(f"({i} {t + 1})", t + 2) for i in (t, t - 1))
        assert verify(hm_family(t + 2, t), t).witness == tuple(swaps)


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
    fam = Family(4, "demo", [identity(4), parse_cycles("(1 2 3)", 4)])
    res = verify(fam, 2)
    assert not res.ok
    assert res.witness == (identity(4), parse_cycles("(1 2 3)", 4))
    assert res.checked_pairs == 1


def test_agreeing_twice_is_fine():
    fam = Family(4, "demo", [identity(4), parse_cycles("(1 2)", 4)])
    assert verify(fam, 2).ok
    assert verify(Family(4, "empty", []), 2) == VerificationResult(True, 0)


@pytest.mark.parametrize("t", [-1, 0, 5, 6])
def test_verify_refuses_t_outside_1_to_n(t):
    # these used to pass vacuously: no two permutations of degree 4 agree
    # on exactly t-1 points when t-1 is negative or above 3
    with pytest.raises(ValueError, match=f"need 1 <= t <= n, got t={t}, n=4"):
        verify(t_coset([(1, 1)], 4), t)


def test_verify_refuses_a_family_above_the_pairwise_cap(monkeypatch):
    # refused from its size alone: the rows are never scanned
    members = list(itertools.islice(all_perms(8), PAIRWISE_CAP + 1))
    fam = Family(8, "big", members)
    monkeypatch.setattr(families, "_first_agreeing_pair", lambda rows, t: pytest.fail("scanned"))
    with pytest.raises(ValueError, match=r"capped at 12000 by PAIRWISE_CAP \(got 12001\)"):
        verify(fam, 2)


def test_verify_finds_a_violation_past_the_first_block():
    # 600 even permutations of S_7, none a transposition away from the odd
    # last permutation x, then x and the even y just before it: (y, x) is
    # the only pair agreeing on 5 points, in rows 600 and 601
    y, x = list(all_perms(7))[-2:]
    clean = (s for s in all_perms(7) if s < y and sign(s) == 1 and agree_count(s, x) != 5)
    fam = Family(7, "dip", [*itertools.islice(clean, 600), x, y])
    res = verify(fam, 6)
    assert res.witness == least_agreeing_pair(fam.members, 6) == (y, x)


@pytest.mark.parametrize("seed", range(8))
def test_verify_witness_is_the_least_violating_pair(seed):
    rng = random.Random(seed)
    # S_6 at every t: dense violations, small and large families
    t, size = seed % 6 + 1, rng.randint(2, 700)
    fam = Family(6, "random", rng.sample(list(all_perms(6)), size))
    assert verify(fam, t).witness == least_agreeing_pair(fam.members, t), (t, size)
    # even permutations of S_8 are never one transposition apart; up to two
    # planted odd ones make sparse violations at t = 7, in rows on either
    # side of the first 512-row block, or none
    evens, odds = [], []
    for s in all_perms(8):
        (evens if sign(s) == 1 else odds).append(s)
    members = rng.sample(evens, rng.randint(500, 1100)) + rng.sample(odds, seed % 3)
    fam = Family(8, "planted", members)
    res = verify(fam, 7)
    assert res.witness == least_agreeing_pair(fam.members, 7), (seed, len(members))
    assert res.ok == (res.witness is None)
    assert res.checked_pairs == math.comb(len(members), 2)


def _runs_with_one_violation(n, t, rng):
    """Members pinned to s(i) = i for i < t, in runs by s(t), and x, y: (x, y)
    is the only pair agreeing on exactly t-1 points, x is the last row of
    the run s(t) = n - 3 and y the first of the next run, s(t) = n - 2
    (t <= n-3).  Each run keeps at most 110 rows, and 20 strays are drawn.

    Members of two runs agree on exactly t-1 of the points 1..t.  The runs
    are (parts of) prefix cosets that also fix n-1 and n; the strays fix n
    but not always n-1; x fixes n but not n-1 and y fixes n-1 but not n, and
    x and y agree nowhere past t-1.  So every other pair agrees once more,
    on n or n-1, except a stray and y, which are kept apart by filtering."""
    pins = [(i, i) for i in range(1, t)]
    runs = [
        perm_rows(n, [*pins, (t, v), (n - 1, n - 1), (n, n)])[:110].tolist()
        for v in range(t, n - 1)
    ]
    x = perm_rows(n, [*pins, (t, n - 3), (t + 1, n - 1), (n, n)])[0].tolist()
    y = next(
        r
        for r in perm_rows(n, [*pins, (t, n - 2), (n - 1, n - 1)]).tolist()
        if r[-1] != n and agree_count(r, x) == t - 1
    )
    pool = perm_rows(n, [*pins, (n, n)]).tolist()
    loose = [r for r in rng.sample(pool, min(20, len(pool))) if agree_count(r, y) != t - 1]
    loose = [r for r in loose if r[:t] != x[:t] or r < x]
    members = [r for r in [*itertools.chain(*runs), *loose] if r[:t] != y[:t] or r > y]
    members = list(dict.fromkeys(map(tuple, members)))  # a stray may lie in a run
    return [*members, x, y], tuple(x), tuple(y)


@pytest.mark.parametrize("t", range(1, 7))
def test_verify_finds_the_only_pair_across_runs(t):
    # n = 9: at t = 1 and 2 the runs before x fill more than one 512-row
    # block, so a later block starts inside a run
    members, x, y = _runs_with_one_violation(9, t, random.Random(t))
    fam = Family(9, "runs", members)
    rows = fam.members.tolist()
    assert [r for r in rows if agree_count(r, y) == t - 1] == [list(x)]
    assert rows[rows.index(list(x)) + 1] == list(y)  # x ends its run, y starts the next
    if t <= 2:
        assert rows.index(list(x)) > 512 and rows[511][:t] == rows[512][:t]
    res = verify(fam, t)
    assert res.witness == least_agreeing_pair(rows, t) == (x, y)
    assert res.checked_pairs == math.comb(len(rows), 2)


@pytest.mark.parametrize("t", range(1, 8))
def test_verify_witness_on_prefix_cosets_with_strays(t):
    # three prefix cosets pinned on positions 1..t, up to 240 rows each, and
    # strays between them in lexicographic order
    rng = random.Random(t)
    everything = perm_rows(7).tolist()
    members = rng.sample(everything, 30)
    for prefix in rng.sample(sorted({tuple(r[:t]) for r in everything}), 3):
        members += perm_rows(7, list(enumerate(prefix, 1)))[:240].tolist()
    members = list(dict.fromkeys(map(tuple, members)))  # a stray may lie in a coset
    fam = Family(7, "cosets", members)
    res = verify(fam, t)
    assert res.witness == least_agreeing_pair(fam.members.tolist(), t)
    assert res.checked_pairs == math.comb(len(fam), 2)


def _verify_traced(fam, t):
    """``verify(fam, t)`` and the peak of the memory it allocates."""
    tracemalloc.start()
    try:
        res = verify(fam, t)
        return res, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_does_not_scan_within_a_run():
    # the 2-coset of 1 and 2 at n = 9 is one run at t = 2: no pair is
    # compared, where a full scan of its 5,040 rows peaks at about 8 MB
    res, peak = _verify_traced(t_coset([(1, 1), (2, 2)], 9), 2)
    assert res == VerificationResult(True, math.comb(5040, 2))
    assert peak < 1_000_000


def test_verify_sums_agreements_point_by_point():
    # at t = n every row of S_7 is its own run, so all 5,040 rows are
    # scanned; a 512 x 5,040 x 7 boolean array per block peaked at about
    # 20 MB, where one uint8 count per pair and two masks take under 8 MB
    res, peak = _verify_traced(Family(7, "S_7", perm_rows(7)), 7)
    assert res == VerificationResult(True, math.comb(5040, 2))
    assert peak < 10_000_000


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


def _members_by_rule(name: str, n: int, t: int) -> set[tuple[int, ...]]:
    """The family named ``name`` from its constructor's docstring rule,
    filtered over the reference enumeration of the pinned cosets."""
    stabilizer = list(perms_fixing([(1, 1), (2, 2)], n))

    def in_f(j: int, s: tuple[int, ...]) -> bool:
        # exactly one fixed point >= 3; none >= 4; exactly one >= 4; exactly one >= 5
        low, count = {1: (3, 1), 2: (4, 0), 3: (4, 1), 4: (5, 1)}[j]
        return len(fixed_points_ge(s, low)) == count

    if name == "2coset":
        return set(stabilizer)
    if name[0] in "FG":
        j = int(name[1])
        return {s for s in stabilizer if in_f(j, s) == (name[0] == "F")}
    if name == "B":
        block_swaps = {
            s for s in perms_fixing([(i, i) for i in range(5, n + 1)], n) if min(s[:2]) > 2
        }
        return {s for s in stabilizer if len(fixed_points_ge(s, 5)) != 1} | block_swaps
    assert name == "HM"
    fixing_more = {
        s
        for s in perms_fixing([(i, i) for i in range(1, t + 1)], n)
        if fixed_points_ge(s, t + 2)
    }
    return fixing_more | {parse_cycles(f"({i} {t + 1})", n) for i in range(1, t + 1)}


@pytest.mark.parametrize(
    "name, t", [(name, 2) for name in FAMILIES] + [("HM", 1), ("HM", 3)]
)
def test_family_rows_are_sorted_and_follow_the_rule(name, t):
    spec = FAMILIES[name]
    for n in range(spec.pinned(t) + spec.min_free, 10):
        family = spec.build(n, t)
        rows = family.members.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:])), (name, n)
        assert member_set(rows) == _members_by_rule(name, n, t), (name, n)
