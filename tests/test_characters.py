import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import (
    irreducible_character,
    permutation_character,
    sign_of_type,
    sign_twist_check,
    transpose,
)
from snspectra import characters
from snspectra.characters import (
    CharacterTable,
    class_size,
    mn_character,
)
from snspectra.partitions import dimension, partitions_of
from snspectra.spectrum import class_eigenvalues, generating_classes

# the full S_4 table, rows by partition, columns by class in canonical order
S4_TABLE = {
    (4,): {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1},
    (3, 1): {(4,): -1, (3, 1): 0, (2, 2): -1, (2, 1, 1): 1, (1, 1, 1, 1): 3},
    (2, 2): {(4,): 0, (3, 1): -1, (2, 2): 2, (2, 1, 1): 0, (1, 1, 1, 1): 2},
    (2, 1, 1): {(4,): 1, (3, 1): 0, (2, 2): -1, (2, 1, 1): -1, (1, 1, 1, 1): 3},
    (1, 1, 1, 1): {(4,): -1, (3, 1): 1, (2, 2): 1, (2, 1, 1): -1, (1, 1, 1, 1): 1},
}


@st.composite
def partition_and_class(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    options = partitions_of(n)
    alpha = options[draw(st.integers(min_value=0, max_value=len(options) - 1))]
    ctype = options[draw(st.integers(min_value=0, max_value=len(options) - 1))]
    return alpha, ctype


def test_class_sizes():
    assert class_size((1, 1, 1, 1)) == 1
    assert class_size((2, 1, 1)) == 6
    assert class_size((2, 2)) == 3
    assert class_size((3, 1)) == 8
    assert class_size((4,)) == 6
    for n in range(1, 9):
        assert sum(class_size(c) for c in partitions_of(n)) == math.factorial(n)


def test_permutation_character_examples():
    assert permutation_character((4,), (2, 1, 1)) == 1
    assert permutation_character((3, 1), (2, 1, 1)) == 2  # fixed points
    assert permutation_character((2, 2), (2, 1, 1)) == 2
    # a 4-cycle fits in no row of a (2,2) tabloid
    assert permutation_character((2, 2), (4,)) == 0
    with pytest.raises(ValueError):
        permutation_character((3, 1), (2, 2, 1))


def test_permutation_character_counts_fixed_points():
    for n in range(2, 8):
        for c in partitions_of(n):
            assert permutation_character((n - 1, 1), c) == c.count(1)


def test_permutation_character_counts_fixed_pairs():
    # fixed 2-subsets: pairs of fixed points, plus 2-cycles
    for n in range(4, 8):
        for c in partitions_of(n):
            expected = math.comb(c.count(1), 2) + c.count(2)
            assert permutation_character((n - 2, 2), c) == expected


def test_s4_table_both_routes():
    for alpha, row in S4_TABLE.items():
        for ctype, value in row.items():
            assert irreducible_character(alpha, ctype) == value
            assert mn_character(alpha, ctype) == value


def test_spec_character_values():
    assert irreducible_character((2, 2), (2, 1, 1)) == 0
    assert mn_character((3, 1), (2, 1, 1)) == 1
    assert mn_character((2, 1, 1), (2, 1, 1)) == -1
    assert irreducible_character((4, 2), (1,) * 6) == 9
    # sign character at an n-cycle
    for n in range(2, 9):
        assert mn_character((1,) * n, (n,)) == (-1) ** (n - 1)


def test_trivial_and_sign_rows():
    for n in range(1, 8):
        for c in partitions_of(n):
            assert irreducible_character((n,), c) == 1
            assert irreducible_character((1,) * n, c) == sign_of_type(c)


@given(partition_and_class())
def test_determinantal_equals_murnaghan_nakayama(pair):
    alpha, ctype = pair
    assert irreducible_character(alpha, ctype) == mn_character(alpha, ctype)


@given(partition_and_class())
def test_sign_twist(pair):
    alpha, ctype = pair
    assert sign_twist_check(alpha, ctype)
    assert irreducible_character(transpose(alpha), ctype) == sign_of_type(
        ctype
    ) * irreducible_character(alpha, ctype)


def test_character_at_identity_is_hook_dimension():
    for n in range(1, 11):
        ident = (1,) * n
        for alpha in partitions_of(n):
            assert irreducible_character(alpha, ident) == dimension(alpha)


def test_sign_twist_exhaustive_to_n8():
    for n in range(1, 9):
        for alpha in partitions_of(n):
            for ctype in partitions_of(n):
                assert sign_twist_check(alpha, ctype), (alpha, ctype)


def test_regular_character_vanishes_off_identity_to_n8():
    for n in (7, 8):
        assert CharacterTable(n).verify_regular_character()


@pytest.mark.parametrize("n", range(1, 7))
def test_table_orthogonality(n):
    table = CharacterTable(n)
    assert table.verify_row_orthogonality()
    assert table.verify_column_orthogonality()
    assert table.verify_dimension_identity()
    assert table.verify_regular_character()


def test_table_oracle_route_agrees():
    # the table's Murnaghan-Nakayama entries against the determinantal oracle
    for n in range(1, 9):
        table = CharacterTable(n)
        assert table.entries == {
            (a, c): irreducible_character(a, c) for a in table.partitions for c in table.classes
        }, n


def test_bitmask_kernel_equals_tuple_oracle_on_full_tables():
    for n in range(13):
        table = CharacterTable(n)
        assert table.entries == {
            (a, c): oracles.mn_character(a, c) for a in table.partitions for c in table.classes
        }, n


def oracle_eigenvalue(alpha, classes):
    return sum(size * oracles.mn_character(alpha, c) for c, size in classes) // dimension(alpha)


@pytest.mark.parametrize("t", [2, 3])
def test_bitmask_kernel_equals_tuple_oracle_on_eigenvalue_rows(t):
    classes = generating_classes(14, t)
    for alpha in partitions_of(14):
        assert sum(class_eigenvalues(alpha, classes)) == oracle_eigenvalue(alpha, classes), alpha


def test_kernel_memo_matches_the_oracle_memo():
    # one kernel entry per (partition, remaining cycle type) reached with the
    # largest cycle removed first, as in the tuple recursion; a changed memo
    # key or removal order changes the count
    for fn in (characters.mn_character, characters._mn, oracles.mn_character):
        fn.cache_clear()
    classes = generating_classes(14, 2)
    for alpha in partitions_of(14):
        class_eigenvalues(alpha, classes)
        oracle_eigenvalue(alpha, classes)
    assert characters._mn.cache_info().misses == oracles.mn_character.cache_info().misses


@pytest.mark.parametrize(
    "alpha,ctype",
    [((2, 3), (5,)), ((1, 0), (1,)), ((3,), (2, 3)), ((3,), (1, 0)), ((3, 1), (2, 1)), ((2,), ())],
)
def test_mn_character_rejects_non_partitions_and_mismatched_degrees(alpha, ctype):
    with pytest.raises(ValueError):
        mn_character(alpha, ctype)


def test_mn_character_of_the_empty_partition():
    assert mn_character((), ()) == 1


def test_mn_character_of_numpy_parts():
    # a bead at 70 does not fit a 64-bit mask
    alpha = tuple(np.array([40, 30, 1]))
    assert mn_character(alpha, (40, 30, 1)) == oracles.mn_character(alpha, (40, 30, 1))


def test_csv_export():
    csv_text = CharacterTable(3).to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == 'partition,3,"2,1","1,1,1"'
    assert lines[1] == "3,1,1,1"
    assert lines[-1] == '"1,1,1",1,-1,1'
