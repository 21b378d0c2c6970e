import dataclasses
import math

import pytest

from oracles import (
    max_independent_set_naive,
    maximum_sets,
    relabel_graph_independence_number,
)
from snspectra.bounds import bound_report
from snspectra.search import (
    SearchResult,
    graph_bitsets,
    max_independent_set,
    verify_certificate,
)


def test_gamma3_is_k33():
    verts, adj = graph_bitsets(3, 2)
    assert len(verts) == 6
    assert all(mask.bit_count() == 3 for mask in adj)
    result = max_independent_set(3, 2)
    assert result.independence_number == 3
    assert verify_certificate(result)
    # exceeds the stabilizer-coset size (n-2)! = 1: small n beats the bound
    assert result.independence_number > math.factorial(3 - 2)


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("n", [3, 4])
def test_branch_and_bound_matches_naive(n, t):
    bnb = max_independent_set(n, t)
    naive_size, naive_witness = max_independent_set_naive(n, t)
    assert bnb.independence_number == naive_size
    assert verify_certificate(bnb)
    assert bnb.exact


def test_empty_graph_t_equals_n():
    # no permutation has n-1 fixed points, so the graph has no edges
    result = max_independent_set(3, 3)
    assert result.independence_number == 6


def test_forced_identity_agrees_with_unforced():
    for n, t in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        forced = max_independent_set(n, t)
        free = max_independent_set(n, t, force_identity=False)
        assert forced.independence_number == free.independence_number


def test_witness_is_independent_and_contains_identity():
    result = max_independent_set(5, 2)
    assert result.witness[0] == (1, 2, 3, 4, 5)
    assert verify_certificate(result)


def test_witness_at_least_coset_size():
    for n in (3, 4, 5):
        result = max_independent_set(n, 2)
        assert result.independence_number >= math.factorial(n - 2)


def test_hoffman_prune_is_sound():
    for n, t in [(3, 2), (4, 2), (5, 2)]:
        found = max_independent_set(n, t).independence_number
        assert bound_report(n, t).hoffman_value >= found


def test_known_independence_numbers():
    # frozen from exhausted searches; documents where (n-2)! is still beaten
    assert max_independent_set(3, 2).independence_number == 3
    assert max_independent_set(4, 2).independence_number == 8
    assert max_independent_set(5, 2).independence_number == 13
    assert max_independent_set(4, 3).independence_number == 12


@pytest.mark.slow
def test_independence_number_n6():
    result = max_independent_set(6, 2)
    assert result.exact
    assert result.independence_number == 48
    assert verify_certificate(result)


def test_budgeted_search_reports_upper_bound():
    result = max_independent_set(5, 2, node_budget=10)
    if not result.exact:
        assert result.upper_bound is not None
        assert result.upper_bound >= result.independence_number


def test_tampered_witness_fails():
    result = max_independent_set(4, 2)
    bad = SearchResult(
        n=4,
        t=2,
        independence_number=result.independence_number,
        witness=result.witness[:-1] + ((1, 2, 4, 3),),
        nodes=result.nodes,
        exact=True,
        forced_identity=True,
    )
    assert not verify_certificate(bad)


def test_budgeted_witness_needs_independence_only():
    # the first 6 members of the n=5 maximum set are independent but extend;
    # only an exhausted search vouches for maximality
    result = max_independent_set(5, 2)
    partial = SearchResult(
        n=5, t=2, independence_number=6, witness=result.witness[:6],
        nodes=10, exact=False, forced_identity=True,
    )
    assert verify_certificate(partial)
    assert not verify_certificate(dataclasses.replace(partial, exact=True))


def test_maximality_flag_on_coset_witness():
    # the 2-coset at n=5 admits no single-vertex extension even though the
    # true independence number is 13; the certificate checks independence
    # and, for an exact result, the extension flag; it does not assert
    # global maximality
    from snspectra.perms import perms_fixing

    coset = tuple(sorted(perms_fixing([(1, 1), (2, 2)], 5)))
    framed = SearchResult(
        n=5, t=2, independence_number=6, witness=coset,
        nodes=0, exact=False, forced_identity=False,
    )
    assert verify_certificate(framed)
    assert verify_certificate(dataclasses.replace(framed, exact=True))


def test_relabel_invariance():
    assert relabel_graph_independence_number(4, 2, (2, 4, 1, 3)) == 8
    assert relabel_graph_independence_number(4, 3, (4, 3, 2, 1)) == 12


def test_maximum_sets_listing():
    sets3 = maximum_sets(3, 2)
    assert all(len(s) == 3 for s in sets3)
    # the even permutations form one of the maximum sets of the 3-graph
    assert ((1, 2, 3), (2, 3, 1), (3, 1, 2)) in sets3
