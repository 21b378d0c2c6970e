import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    count_standard_tableaux,
    hook_lengths,
    medium_partitions,
    parse_partition,
    transpose,
)
from snspectra import partitions
from snspectra.characters import mn_character
from snspectra.partitions import (
    check_partition,
    classify,
    dimension,
    format_partition,
    is_partition,
    partitions_of,
)


def partition_count_oracle(n: int) -> int:
    """Coin-change count of partitions, independent of the generator."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


@st.composite
def partition(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    options = partitions_of(n)
    return options[draw(st.integers(min_value=0, max_value=len(options) - 1))]


def test_partitions_of_small():
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert len(partitions_of(5)) == 7
    assert len(partitions_of(10)) == 42
    with pytest.raises(ValueError, match=r"a degree n must be nonnegative \(got n=-1\)"):
        partitions_of(-1)


@pytest.mark.parametrize("n", range(1, 13))
def test_partition_counts_match_oracle(n):
    parts = partitions_of(n)
    assert len(parts) == partition_count_oracle(n)
    assert len(set(parts)) == len(parts)
    assert all(sum(a) == n for a in parts)


def test_reverse_lexicographic_order():
    for n in range(1, 9):
        parts = partitions_of(n)
        assert parts == tuple(sorted(parts, reverse=True))
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n


def test_transpose_examples():
    assert transpose((4,)) == (1, 1, 1, 1)
    assert transpose((3, 2, 2)) == (3, 3, 1)
    assert transpose((2, 2)) == (2, 2)


@given(partition())
def test_transpose_involution(alpha):
    assert transpose(transpose(alpha)) == alpha


def test_dimension_examples():
    assert dimension((6,)) == 1
    assert dimension((4, 2)) == 9  # C(6,2) - 6
    assert dimension((3, 2, 2)) == 21
    assert dimension((1, 1, 1)) == 1


@given(partition(max_n=8))
def test_dimension_matches_tableau_enumeration(alpha):
    assert dimension(alpha) == count_standard_tableaux(alpha)


@given(partition())
def test_dimension_transpose_symmetry(alpha):
    assert dimension(alpha) == dimension(transpose(alpha))


@pytest.mark.parametrize("n", range(1, 11))
def test_squared_dimensions_sum_to_factorial(n):
    assert sum(dimension(a) ** 2 for a in partitions_of(n)) == math.factorial(n)


def test_hook_lengths_shape():
    hooks = hook_lengths((3, 2))
    assert hooks == [[4, 3, 1], [2, 1]]


@pytest.mark.parametrize("n", range(0, 19))
def test_dimension_equals_the_hook_table_oracle(n):
    for alpha in partitions_of(n):
        hooks = math.prod(map(math.prod, hook_lengths(alpha)))
        assert dimension(alpha) * hooks == math.factorial(n), alpha


def test_a_hook_product_that_does_not_divide_n_factorial_is_refused(monkeypatch):
    # n! + 1 in place of n!: 7 is not a multiple of the hook product 3 of (2, 1)
    fake = SimpleNamespace(prod=math.prod, factorial=lambda n: math.factorial(n) + 1)
    monkeypatch.setattr(partitions, "math", fake)
    message = "hook product does not divide 3! for (2, 1)"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        partitions._dimension.__wrapped__((2, 1))  # past the cache


@pytest.mark.parametrize("parts", [(1, 2), (2, 0), (2, -1), (0,)])
def test_dimension_refuses_parts_out_of_order_or_not_positive(parts):
    with pytest.raises(ValueError, match=re.escape(f"not a partition: {parts!r}")):
        dimension(parts)


def test_classify_examples():
    assert classify((6,), 2) == "fat"
    assert classify((2, 2, 1, 1), 2) == "tall"
    assert classify((3, 3), 2) == "medium"
    with pytest.raises(ValueError, match="need 0 <= k < n, got k=6, n=6"):
        classify((3, 3), 6)


def test_classify_unique_label_in_split_range():
    for n in range(6, 12):
        for alpha in partitions_of(n):
            fat = alpha[0] >= n - 2
            tall = len(alpha) >= n - 2
            assert not (fat and tall)  # 2 < n/2 - 1 fails only for tiny n
            label = classify(alpha, 2)
            assert label == ("fat" if fat else "tall" if tall else "medium")


def test_exactly_eight_non_medium_partitions():
    for n in range(6, 13):
        non_medium = [a for a in partitions_of(n) if classify(a, 2) != "medium"]
        assert len(non_medium) == 8


def test_medium_dimension_growth_reported():
    # the least 2-medium dimension grows at least cubically across the range;
    # the frozen floor 1/44 is the observed constant (attained at n=6), not
    # a claim about the true one
    lows = {}
    for n in range(6, 13):
        lows[n] = min(dimension(a) for a in medium_partitions(n, 2))
    assert all(lows[n + 1] >= lows[n] for n in range(6, 12))
    assert all(44 * lows[n] >= n**3 for n in range(6, 13))


def test_parse_partition():
    assert parse_partition("2^2,1") == (2, 2, 1)
    assert parse_partition("4,2,1") == (4, 2, 1)
    assert parse_partition("3, 1") == (3, 1)
    assert parse_partition("1,2") == (2, 1)  # parts may arrive in any order
    with pytest.raises(ValueError):
        parse_partition("x")
    with pytest.raises(ValueError):
        parse_partition("2,1", n=4)


@given(partition())
def test_partition_text_roundtrip(alpha):
    assert parse_partition(format_partition(alpha)) == alpha


@pytest.mark.parametrize("parts", [(2.5, 1.5), (2.0, 1.0), (3, 1.0), ("2", "1")])
def test_non_integer_parts_are_not_partitions(parts):
    assert not is_partition(parts)
    with pytest.raises(ValueError, match="is not a tuple of integers"):
        check_partition(parts)


def test_non_integer_parts_rejected_with_a_named_error():
    # (2, 1) is memoised first, so an equal float key must not hit its entry
    assert mn_character((2, 1), (2, 1)) == 0 and dimension((2, 1)) == 2
    for call in (
        lambda: mn_character((2.0, 1.0), (2, 1)),
        lambda: mn_character((2, 1), (2.0, 1.0)),
        lambda: mn_character((2.5, 1.5), (2, 2)),
        lambda: dimension((2.0, 1.0)),
        lambda: transpose((2.0, 1.0)),
        lambda: hook_lengths((2.0, 1.0)),
    ):
        with pytest.raises(ValueError, match="not a tuple of integers"):
            call()


def test_numpy_integer_parts_pass_as_python_ints():
    parts = tuple(np.array([3, 1], dtype=np.int64))
    assert is_partition(parts)
    checked = check_partition(parts)
    assert checked == (3, 1) and all(type(p) is int for p in checked)
    assert dimension(parts) == 3 and transpose(parts) == (2, 1, 1)
    assert mn_character(parts, tuple(np.array([2, 2]))) == -1
