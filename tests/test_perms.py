import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    agree_count,
    all_perms,
    cycle_type,
    derangement_count_inclusion_exclusion,
    derangement_count_recurrence,
    fixed_points,
    generating_set,
    is_permutation,
    num_fixed_points,
    parse_cycles,
    perms_fixing,
    rencontres_count,
    sign,
)
from snspectra.perms import (
    DegreeMismatchError,
    compose,
    derangement_count,
    derangement_counts,
    format_cycles,
    identity,
    inverse,
    perm_rows,
)


@st.composite
def permutation(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    images = list(range(1, n + 1))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    rng.shuffle(images)
    return tuple(images)


@st.composite
def permutation_pair(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    out = []
    for _ in range(2):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        out.append(tuple(images))
    return out[0], out[1]


def test_compose_identity():
    swap = parse_cycles("(1 2)", 4)
    assert compose(identity(4), swap) == swap
    assert compose(swap, identity(4)) == swap


def test_compose_involution():
    swap = parse_cycles("(1 2)", 4)
    assert compose(swap, swap) == identity(4)


def test_compose_applies_right_argument_first():
    three_cycle = parse_cycles("(1 2 3)", 3)  # (2, 3, 1)
    swap = parse_cycles("(1 2)", 3)
    assert compose(three_cycle, swap) == (3, 2, 1)
    assert compose(swap, three_cycle) == (1, 3, 2)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        compose(identity(3), identity(4))


def test_agree_count_examples():
    assert agree_count(identity(4), parse_cycles("(1 2)", 4)) == 2
    s = (3, 1, 4, 2)
    assert agree_count(s, s) == 4
    assert agree_count(parse_cycles("(1 2 3)", 3), parse_cycles("(1 3 2)", 3)) == 0


@given(permutation_pair())
def test_agree_count_is_fixed_points_of_quotient(pair):
    s, t = pair
    assert agree_count(s, t) == num_fixed_points(compose(inverse(t), s))
    assert agree_count(s, t) == agree_count(t, s)


@given(permutation_pair(min_n=2), st.integers(min_value=0, max_value=2**32))
def test_agreement_translation_invariance(pair, seed):
    s, t = pair
    rng = random.Random(seed)
    images = list(range(1, len(s) + 1))
    rng.shuffle(images)
    p = tuple(images)
    assert agree_count(compose(p, s), compose(p, t)) == agree_count(s, t)
    assert agree_count(compose(s, p), compose(t, p)) == agree_count(s, t)


@given(permutation())
def test_inverse_composes_to_identity(s):
    assert compose(s, inverse(s)) == identity(len(s))
    assert compose(inverse(s), s) == identity(len(s))


@given(permutation())
def test_cycle_type_is_partition_of_n(s):
    ct = cycle_type(s)
    assert sum(ct) == len(s)
    assert all(ct[i] >= ct[i + 1] for i in range(len(ct) - 1))
    assert ct.count(1) == num_fixed_points(s)


def test_cycle_type_examples():
    assert cycle_type(identity(4)) == (1, 1, 1, 1)
    assert cycle_type(parse_cycles("(1 2)(3 4)", 4)) == (2, 2)
    assert cycle_type(parse_cycles("(1 3 2 4)", 4)) == (4,)


@given(permutation_pair())
def test_sign_is_multiplicative(pair):
    s, t = pair
    assert sign(compose(s, t)) == sign(s) * sign(t)


def test_is_permutation():
    assert is_permutation((2, 1, 3))
    assert not is_permutation((2, 2, 3))
    assert not is_permutation((0, 1, 2))


# ---------------------------------------------------------------------------
# Cycle-notation text format.


def test_parse_cycles():
    assert parse_cycles("(1 3)(2 4)", 5) == (3, 4, 1, 2, 5)
    assert parse_cycles("id", 3) == (1, 2, 3)
    assert parse_cycles("(1, 3, 2)", 3) == parse_cycles("(1 3 2)", 3)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2) junk", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 9)", 4)


@given(permutation())
def test_cycle_roundtrip(s):
    assert parse_cycles(format_cycles(s), len(s)) == s


def test_format_cycles_omits_fixed_points():
    assert format_cycles((1, 2, 3)) == "id"
    assert format_cycles((2, 1, 3, 4)) == "(1 2)"


# ---------------------------------------------------------------------------
# Derangements.


def test_derangement_conventions():
    assert derangement_count(0) == 1
    assert derangement_count(1) == 0
    assert derangement_counts(0).d == 1
    assert derangement_counts(0).e == 1


def test_derangement_small_values():
    assert [derangement_count(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]
    c4 = derangement_counts(4)
    assert (c4.d, c4.e, c4.o) == (9, 3, 6)
    assert derangement_count(5) == 44


def test_inclusion_exclusion_matches_recurrence():
    # three independent routes: the package's d_m = m d_{m-1} + (-1)^m,
    # the two-term recurrence and inclusion-exclusion
    for n in range(301):
        d = derangement_count(n)
        assert d == derangement_count_recurrence(n) == derangement_count_inclusion_exclusion(n), n


@pytest.mark.parametrize("n", range(1, 8))
def test_parity_split_matches_enumeration(n):
    even = odd = 0
    for p in all_perms(n):
        if num_fixed_points(p) == 0:
            if sign(p) == 1:
                even += 1
            else:
                odd += 1
    counts = derangement_counts(n)
    assert (even, odd) == (counts.e, counts.o)
    assert even - odd == (-1) ** (n - 1) * (n - 1)


def test_rencontres_sums_to_factorial():
    for n in range(9):
        assert sum(rencontres_count(n, k) for k in range(n + 1)) == math.factorial(n)


# ---------------------------------------------------------------------------
# Generating sets.


def test_generating_set_small_cases():
    e32 = generating_set(3, 2)
    assert len(e32) == 3
    assert all(num_fixed_points(p) == 1 for p in e32)
    assert len(generating_set(4, 2)) == 4 * derangement_count(3) == 8


def test_generating_set_degenerate_and_errors():
    assert generating_set(4, 4) == frozenset()  # no n-1 fixed points possible
    with pytest.raises(ValueError):
        generating_set(4, 5)
    with pytest.raises(ValueError):
        generating_set(12, 2)  # above the enumeration cap


def test_generating_set_inverse_closed_and_size_formula():
    for n in range(3, 7):
        for t in range(1, n + 1):
            gen = generating_set(n, t)
            assert len(gen) == rencontres_count(n, t - 1)
            assert all(inverse(p) in gen for p in gen)


def test_generating_sets_partition_the_group():
    for n in range(2, 7):
        total = sum(len(generating_set(n, t)) for t in range(1, n + 1))
        # permutations with n fixed points: just the identity
        assert total + 1 == math.factorial(n)


def test_perms_fixing():
    coset = list(perms_fixing([(1, 1), (2, 2)], 5))
    assert len(coset) == 6
    assert all(p[0] == 1 and p[1] == 2 for p in coset)
    assert len(list(perms_fixing([(1, 2)], 4))) == 6
    with pytest.raises(ValueError):
        list(perms_fixing([(1, 2), (3, 2)], 4))


@pytest.mark.parametrize("n", range(9))
def test_perm_rows_is_the_reference_enumeration(n):
    # S_0 is one empty row
    rows = perm_rows(n)
    assert rows.dtype == np.int8 and rows.shape == (math.factorial(n), n)
    assert rows.tolist() == [list(p) for p in all_perms(n)]


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize(
    "pins", [[(1, 1), (2, 2)], [(1, 2)], [(3, 1), (1, 4)], [(np.int64(3), np.int8(1)), (1, 4)]]
)
def test_perm_rows_with_pins_is_the_reference_coset(pins, n):
    assert perm_rows(n, pins).tolist() == [list(p) for p in perms_fixing(pins, n)]


@pytest.mark.parametrize(
    "pins, message",
    [
        ([(1, 2), (3, 2)], "pinned twice"),  # a repeated target
        ([(1, 2), (1, 3)], "pinned twice"),  # a repeated source
        ([(0, 1)], "outside 1..4"),
        ([(2, 5)], "outside 1..4"),
        # the pin was cut to 1 in int8 while 1 stayed a free value, giving
        # rows such as [1, 1, 2, 3]
        ([(1, 1.5)], r"pin \(1, 1.5\) is not a pair of integers"),
        ([(1.0, 2)], r"pin \(1.0, 2\) is not a pair of integers"),  # a bare IndexError
        ([(1, 2), ("3", 1)], r"pin \('3', 1\) is not a pair of integers"),
    ],
)
def test_perm_rows_refuses_bad_pins(pins, message):
    with pytest.raises(ValueError, match=message):
        perm_rows(4, pins)


def test_fixed_points_listing():
    assert fixed_points((1, 3, 2, 4)) == (1, 4)
