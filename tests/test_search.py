import dataclasses
import math
import random

import pytest

from oracles import (
    greedy_clique_count,
    max_independent_set_naive,
    maximum_sets,
    relabel_graph_independence_number,
    verify_certificate_by_pairs,
)
from snspectra import search
from snspectra.bounds import bound_report
from snspectra.perms import all_perms
from snspectra.search import (
    SearchResult,
    graph_bitsets,
    max_independent_set,
    verify_certificate,
)
from snspectra.weightopt import optimize_bound


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


@pytest.mark.parametrize("n,budget", [(6, 100), (7, 5000)])
def test_budgeted_search_counts_only_expanded_nodes(n, budget):
    # pending branches used to count themselves before seeing the spent
    # budget: 107 nodes for a budget of 100, 5,009 for 5,000
    result = max_independent_set(n, 2, node_budget=budget)
    assert not result.exact
    assert result.nodes == budget


def test_exhausted_trees_keep_their_node_counts():
    assert max_independent_set(5, 2).nodes == 1189
    assert max_independent_set(5, 2, node_budget=1189).exact


@pytest.mark.parametrize("n", [5, 6])
def test_clique_cover_early_exit_keeps_every_prune_decision(n):
    _, adj = graph_bitsets(n, 2)
    rng = random.Random(n)
    for _ in range(40):
        pool = rng.getrandbits(len(adj))
        full = greedy_clique_count(pool, adj)
        for room in range(pool.bit_count() + 1):
            early = search._greedy_clique_cover_bound(pool, adj, room)
            assert (early <= room) == (full <= room)


def test_budgeted_search_reports_certified_weighted_bound():
    # floor(Hoffman) is 170 at n = 7, t = 2; the certified LP optimum is 168
    result = max_independent_set(7, 2, node_budget=10)
    assert not result.exact
    assert result.upper_bound == 168


def test_budgeted_search_on_the_edgeless_graph_bounds_by_vertex_count():
    # at t = n no two permutations agree on exactly n-1 points; the Hoffman
    # bound needs a negative eigenvalue, which the edgeless graph lacks
    result = max_independent_set(4, 4, node_budget=1)
    assert not result.exact
    assert result.upper_bound == 24


def test_budgeted_search_falls_back_to_hoffman_when_uncertified(monkeypatch):
    uncertified = dataclasses.replace(optimize_bound(7, 2), certified=False)
    monkeypatch.setattr(search, "optimize_bound", lambda n, t: uncertified)
    assert max_independent_set(7, 2, node_budget=10).upper_bound == 170


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


def test_repeated_witness_member_fails():
    # a repeat agrees with itself on n points, never on t-1, so it used to
    # pass as a third member
    result = max_independent_set(4, 2)
    repeated = dataclasses.replace(
        result, independence_number=3, witness=((1, 2, 3, 4), (1, 2, 3, 4), (2, 1, 4, 3))
    )
    assert not verify_certificate(repeated)
    assert not verify_certificate(dataclasses.replace(repeated, exact=False))


def _certificate_cases():
    """Search results for n = 2..5 at every t and both symmetry settings,
    with the exact flag as found and flipped, and with the witness replaced
    by prefixes of it and by seeded random sets of distinct vertices."""
    rng = random.Random(2026)
    for n in range(2, 6):
        verts = list(all_perms(n))
        for t in range(1, n + 1):
            for force in (True, False):
                result = max_independent_set(n, t, force_identity=force)
                full = len(result.witness)
                witnesses = [result.witness[:k] for k in sorted({0, 1, full // 2, full - 1, full})]
                witnesses += [
                    tuple(rng.sample(verts, rng.randint(0, len(verts)))) for _ in range(6)
                ]
                for witness in witnesses:
                    for size in {len(witness), len(result.witness)}:
                        for exact in (True, False):
                            yield dataclasses.replace(
                                result, witness=witness, independence_number=size, exact=exact
                            )


def test_certificate_matches_the_pairwise_oracle():
    cases = list(_certificate_cases())
    verdicts = [verify_certificate(case) for case in cases]
    assert verdicts == [verify_certificate_by_pairs(case) for case in cases]
    assert len(cases) > 1000 and any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("budget", [-5, 0])
def test_node_budget_below_one_is_refused_before_any_work(monkeypatch, budget):
    monkeypatch.setattr(search, "graph_bitsets", lambda n, t: pytest.fail("built the graph"))
    with pytest.raises(ValueError, match=f"node budget must be at least 1 \\(got {budget}\\)"):
        max_independent_set(4, 2, node_budget=budget)


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
