import collections
import itertools
import math
import random
import tracemalloc

import pytest

from oracles import (
    all_perms,
    branch_vertex_by_scan,
    greedy_clique_count,
    identity,
    max_independent_set_naive,
    maximum_sets,
    perms_fixing,
    recursive_search,
    relabel_graph_independence_number,
    shift_dual,
    verify_certificate_by_pairs,
)
from snspectra import cli, reports, search
from snspectra.bounds import bound_report
from snspectra.perms import compose, inverse, perm_rows
from snspectra.search import (
    SearchResult,
    graph_bitsets,
    max_independent_set,
    verify_certificate,
)


def test_gamma3_is_k33():
    verts, adj, _, _ = graph_bitsets(3, 2)
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


def _oracle_result(n, t, force, budget=None):
    """The oracle's recursive search on the lex-ordered graph, as a result."""
    verts, adj, _, _ = graph_bitsets(n, t)
    size, nodes, mask, exhausted = recursive_search(adj, force_identity=force, node_budget=budget)
    witness = tuple(tuple(map(int, verts[i])) for i in range(len(verts)) if mask >> i & 1)
    return SearchResult(
        n=n, t=t, independence_number=size, witness=witness, nodes=nodes, exact=exhausted
    )


def test_forced_identity_agrees_with_unforced():
    # the package always forces the identity in; the oracle's free search
    # finds the same independence number on every graph up to n = 5
    for n in range(1, 6):
        for t in range(1, n + 1):
            free = _oracle_result(n, t, force=False)
            assert max_independent_set(n, t).independence_number == free.independence_number


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


@pytest.mark.slow
@pytest.mark.parametrize("t,alpha,tree", [(2, 48, 99_591), (5, 360, 109_903)])
def test_search_keeps_the_recursive_tree_at_n6(t, alpha, tree):
    # the full trees, against the recursive bottom-up scan
    verts, adj, _, _ = graph_bitsets(6, t)
    size, nodes, mask, exhausted = recursive_search(adj, force_identity=True, node_budget=None)
    result = max_independent_set(6, t)
    assert (size, nodes, exhausted) == (alpha, tree, True)
    assert (result.independence_number, result.nodes, result.exact) == (size, nodes, exhausted)
    assert result.witness == tuple(
        tuple(map(int, verts[i])) for i in range(len(verts)) if mask >> i & 1
    )


def test_budgeted_search_reports_upper_bound():
    # 10 nodes of the 1,189-node tree
    result = max_independent_set(5, 2, node_budget=10)
    assert not result.exact
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


def _mirror(mask, size):
    """``mask`` with bit b moved to bit size-1-b."""
    return int(format(mask, f"0{size}b")[::-1], 2)


@pytest.mark.parametrize("n,t", [(n, t) for n in range(1, 7) for t in range(1, n + 1)])
def test_mirror_is_an_automorphism(n, t):
    # lex index size-1-b is w0 times vertex b, and left multiplication by
    # w0 = (n, ..., 1) keeps agreement counts; the top-down search rests on it
    _, adj, _, _ = graph_bitsets(n, t)
    size = len(adj)
    assert all(adj[size - 1 - b] == _mirror(adj[b], size) for b in range(size))


def _cover_tables(adj):
    """The 1-based adjacency and single-bit tables of the cover."""
    return (0, *adj), (0, *(1 << v for v in range(len(adj))))


@pytest.mark.parametrize("n", [5, 6])
def test_clique_cover_early_exit_keeps_every_prune_decision(n):
    # the cover runs from the top bit down, the bottom-up oracle on the
    # mirrored pool
    _, adj, _, _ = graph_bitsets(n, 2)
    adj1, bits1 = _cover_tables(adj)
    rng = random.Random(n)
    for _ in range(40):
        pool = rng.getrandbits(len(adj))
        full = greedy_clique_count(_mirror(pool, len(adj)), adj)
        for room in range(pool.bit_count() + 1):
            snapshots = []
            rest, early = search._greedy_clique_cover(pool, 0, snapshots, adj1, bits1, room)
            assert (early <= room) == (full <= room)
            # one snapshot per clique, nested, the first the pool itself
            chain = [*snapshots, rest]
            assert len(snapshots) == early and chain[0] == pool
            assert all(b & a == b for a, b in itertools.pairwise(chain))


def _full_cover(pool, adj1, bits1):
    """Every snapshot of the greedy cover of ``pool`` from scratch, then
    its final rest, 0."""
    snapshots = []
    search._greedy_clique_cover(pool, 0, snapshots, adj1, bits1, len(adj1))
    return [*snapshots, 0]


def _resume_cases(snapshots, rest, cliques, bit, pool, child, state):
    """What a resume from the parent's cover (``snapshots``, ``rest``,
    ``cliques``) of ``pool`` met, read off the cover: the vertex past its
    parent's stop, or the snapshot of its clique stale (holding vertices
    that left before the parent) or empty in the child, and whether the
    resumed ``state`` rejoined the parent's."""
    if rest & bit:
        return {"stopped before the vertex"}
    start = next(s for s in reversed(snapshots) if s & bit)
    cases = {"rejoined" if state == (rest, cliques) else "regrown"}
    if start & ~pool:
        cases.add("stale snapshot")
    if not start & child:
        cases.add("empty regrow start")
    return cases


@pytest.mark.parametrize("n", [5, 6])
def test_resumed_exclude_child_keeps_the_prune_decision_and_branch_vertex(n):
    # down chains of exclude children, each resuming its parent's cover and
    # degrees, so later snapshots are inherited stale: at the parent's room,
    # at a room raised by an include subtree that found a larger set, and at
    # the room one less of an include child that resumes when the branch
    # vertex has no candidate neighbour, the resumed or rejoined cover makes
    # the prune decision of a cover from scratch, and its snapshots,
    # restricted to the child's pool, are that cover's first ones; the
    # branch vertex is that of the scan.  The resume holds for any vertex
    # dropped, so the vertex of a last clique of one vertex is dropped too,
    # which leaves the regrow nothing to start from
    _, adj, words, graph = graph_bitsets(n, 2)
    size = len(adj)
    adj1, bits1 = _cover_tables(adj)
    rng = random.Random(200 + n)
    reached = collections.Counter()
    for _ in range(60):
        density = rng.random()
        pool = sum(1 << v for v in range(size) if rng.random() < density)
        full = greedy_clique_count(_mirror(pool, size), adj)
        if full < 2:
            continue
        room = rng.randrange(full)  # the parent branches: its cover exceeds room
        snapshots = []
        rest, cliques = search._greedy_clique_cover(pool, 0, snapshots, adj1, bits1, room)
        assert cliques > room
        degrees = search._pool_degrees(pool, words)
        for _ in range(12):
            if cliques <= room or pool.bit_count() < 2:
                break
            v = search._branch_vertex(degrees)
            last = _full_cover(pool, adj1, bits1)[-2]
            for u in {v, last.bit_length() - 1} if last.bit_count() == 1 else {v}:
                child = pool ^ (1 << u)
                scratch = _full_cover(child, adj1, bits1)
                assert len(scratch) - 1 == greedy_clique_count(_mirror(child, size), adj)
                for child_room in range(max(room - 1, 0), room + 4):
                    kept = list(snapshots)
                    state = search._resume_cover(kept, rest, cliques, 1 << u, child, adj1, bits1)
                    reached.update(
                        _resume_cases(snapshots, rest, cliques, 1 << u, pool, child, state)
                    )
                    state = search._greedy_clique_cover(*state, kept, adj1, bits1, child_room)
                    count = state[1]
                    assert (count <= child_room) == (len(scratch) - 1 <= child_room)
                    assert [s & child for s in kept] + [state[0]] == scratch[: count + 1]
                    if (u, child_room) == (v, room):
                        resumed = kept, *state
            # the exclude child, at its parent's room, is the next parent
            snapshots, rest, cliques = resumed
            search._drop_vertex(degrees, graph, v)
            pool ^= 1 << v
            # outside the pool only the sign counts
            incremental = [max(d, -1) for d in degrees.tolist()]
            assert incremental == search._pool_degrees(pool, words).tolist()
            mirrored = branch_vertex_by_scan(_mirror(pool, size), adj)
            assert search._branch_vertex(degrees) == size - 1 - mirrored
    assert set(reached) == {
        "stopped before the vertex",
        "rejoined",
        "regrown",
        "stale snapshot",
        "empty regrow start",
    }, reached


@pytest.mark.parametrize(
    "n,nodes,rejoins,cliques",
    [(5, 1189, 169, 6_437), pytest.param(6, 99_591, 15_236, 2_197_264, marks=pytest.mark.slow)],
)
def test_resumed_covers_rejoin_their_parents(monkeypatch, n, nodes, rejoins, cliques):
    # a resumed cover that regrows the clique of the branch vertex into the
    # parent's next snapshot takes every later clique from the parent; from
    # the clique of the vertex on, every clique was regrown: 7,185 at
    # (5, 2) and 2,525,180 at (6, 2)
    grown = [0, 0]
    cover, resume = search._greedy_clique_cover, search._resume_cover

    def counted_cover(rest, count, *args):
        state = cover(rest, count, *args)
        grown[0] += state[1] - count
        return state

    def counted_resume(snapshots, rest, count, bit, *args):
        state = resume(snapshots, rest, count, bit, *args)
        grown[1] += not rest & bit and state == (rest, count)
        return state

    monkeypatch.setattr(search, "_greedy_clique_cover", counted_cover)
    monkeypatch.setattr(search, "_resume_cover", counted_resume)
    result = max_independent_set(n, 2)
    assert (result.nodes, grown[1], grown[0]) == (nodes, rejoins, cliques)


def _oracle_cases():
    # ``force`` is the root of the oracle's search; the package's is forced
    for n in range(1, 6):
        for t in range(1, n + 1):
            for force in (True, False):
                yield n, t, force, None
    yield 6, 1, True, None
    yield 6, 6, True, None
    yield 6, 2, True, 20_000
    yield 7, 2, True, 5_000
    yield 7, 3, True, 5_000


@pytest.mark.parametrize("n,t,force,budget", _oracle_cases())
def test_search_keeps_the_recursive_tree(n, t, force, budget):
    # the explicit stack and the word-matrix branching choice visit the
    # same nodes in the same order as the recursive scan they replace; the
    # free scan finds a maximum set that translates to one holding the
    # identity, which is why the package may force the identity in
    oracle = _oracle_result(n, t, force, budget)
    result = max_independent_set(n, t, node_budget=budget)
    assert (result.independence_number, result.exact) == (oracle.independence_number, oracle.exact)
    if force:
        assert (result.nodes, result.witness) == (oracle.nodes, oracle.witness)
    else:
        back = inverse(oracle.witness[0])
        moved = tuple(sorted(compose(back, s) for s in oracle.witness))
        assert moved[0] == identity(n)
        assert verify_certificate(oracle._replace(witness=moved))


@pytest.mark.parametrize("n", [5, 6])
def test_branch_vertex_matches_the_scan(n):
    _, adj, words, _ = graph_bitsets(n, 2)
    rng = random.Random(100 + n)
    for _ in range(40):
        pool = 0
        while not pool:
            density = rng.random()
            pool = sum(1 << v for v in range(len(adj)) if rng.random() < density)
        # ties go to the highest index, the lowest of the mirrored scan
        mirrored = branch_vertex_by_scan(_mirror(pool, len(adj)), adj)
        assert search._branch_vertex(search._pool_degrees(pool, words)) == len(adj) - 1 - mirrored


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


def test_budgeted_search_with_a_failed_certificate_exits_1(monkeypatch, capsys):
    # a budgeted search reports the certified weighted bound or fails; it
    # has no uncertified fallback
    shift_dual(monkeypatch, 1)
    monkeypatch.setattr(search, "DEFAULT_NODE_BUDGET", 1)
    code = cli.main(["search", "--n", "6", "--t", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("verification failure: dual check failed: column ")
    assert "Traceback" not in captured.err


def test_tampered_witness_fails():
    result = max_independent_set(4, 2)
    bad = SearchResult(
        n=4,
        t=2,
        independence_number=result.independence_number,
        witness=result.witness[:-1] + ((1, 2, 4, 3),),
        nodes=result.nodes,
        exact=True,
    )
    assert not verify_certificate(bad)


def test_repeated_witness_member_fails():
    # a repeat agrees with itself on n points, never on t-1, so it used to
    # pass as a third member
    result = max_independent_set(4, 2)
    repeated = result._replace(
        independence_number=3, witness=((1, 2, 3, 4), (1, 2, 3, 4), (2, 1, 4, 3))
    )
    assert not verify_certificate(repeated)
    assert not verify_certificate(repeated._replace(exact=False))


def _certificate_cases():
    """Search results for n = 2..5 at every t, the package's and one from
    the oracle's free search, with the exact flag as found and flipped, and
    with the witness replaced by prefixes of it, by seeded random sets of
    distinct vertices, by itself plus a row that is not a vertex, and by
    itself with its last row made fractional."""
    rng = random.Random(2026)
    for n in range(2, 6):
        verts = list(all_perms(n))
        for t in range(1, n + 1):
            for result in (max_independent_set(n, t), _oracle_result(n, t, force=False)):
                full = len(result.witness)
                witnesses = [result.witness[:k] for k in sorted({0, 1, full // 2, full - 1, full})]
                witnesses += [
                    tuple(rng.sample(verts, rng.randint(0, len(verts)))) for _ in range(6)
                ]
                witnesses += [result.witness + (row,) for row in _non_vertices(n)]
                witnesses += [_fractional_last_row(result.witness)]
                for witness in witnesses:
                    for size in {len(witness), len(result.witness)}:
                        for exact in (True, False):
                            yield result._replace(
                                witness=witness, independence_number=size, exact=exact
                            )


def _non_vertices(n):
    """Rows that are not permutations of 1..n: a constant row, the zero row,
    the identity with one entry repeated, out of range or out of the int8
    range, and the identity less its last entry, of degree n - 1."""
    ident = tuple(range(1, n + 1))
    return [
        (n + 1,) * n,
        (0,) * n,
        (ident[1],) + ident[1:],
        ident[:-1] + (n + 1,),
        (300,) + ident[:-1],
        ident[:-1],
    ]


def _fractional_last_row(witness):
    """The witness with 0.5 added to each entry of its last row, a row that
    an int8 cast truncates back to the original."""
    return witness[:-1] + (tuple(v + 0.5 for v in witness[-1]),)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("exact", [True, False])
def test_a_witness_row_that_is_not_a_permutation_fails(n, exact):
    # (4, 4, 4) and (0, 0, 0, 0, 0) agree with no member anywhere, never on
    # exactly t - 1 = 1 point, so they passed as a fourth and a fourteenth
    # member: alpha 4 and 14 against the true 3 and 13; (300, 1, 2) raised
    # OverflowError in the int8 cast and the short (1, 2) ValueError
    result = max_independent_set(n, 2)._replace(exact=exact)
    assert verify_certificate(result)
    for row in _non_vertices(n):
        extended = result._replace(
            witness=result.witness + (row,),
            independence_number=result.independence_number + 1,
        )
        assert not verify_certificate(extended), row
        assert not verify_certificate_by_pairs(extended), row
    # at n = 4 the last row becomes (4.5, 3.5, 2.5, 1.5), which the int8
    # cast truncated to (4, 3, 2, 1) and so certified
    fractional = result._replace(witness=_fractional_last_row(result.witness))
    assert not verify_certificate(fractional)
    assert not verify_certificate_by_pairs(fractional)


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


def test_search_on_the_edgeless_n7_graph_runs_without_recursion():
    # at t = n the include chain runs 5,040 deep; the recursive search died
    # with RecursionError from a budget of about 1,000 nodes on
    report = reports.search_report(7, 7, 2000)
    assert (report["nodes"], report["independence_number"], report["upper_bound"]) == (
        2000,
        2000,
        5040,
    )


def test_the_edgeless_n7_include_chain_builds_its_degrees_once(monkeypatch):
    # at t = n no branch vertex has a candidate neighbour, so each include
    # child resumes its parent's cover and degrees; from scratch, 5,040
    # include children each popcounted the rows of their whole pool
    calls = []
    pool_degrees = search._pool_degrees
    monkeypatch.setattr(search, "_pool_degrees", lambda *a: calls.append(a) or pool_degrees(*a))
    result = max_independent_set(7, 7)
    assert (len(calls), result.nodes, result.independence_number, result.exact) == (
        1,
        10_079,
        5_040,
        True,
    )


def test_the_node_loop_unpacks_no_adjacency_row(monkeypatch):
    # each count of degrees from scratch unpacks its pool, and nothing else
    # is unpacked: an exclude child subtracts the boolean row of its branch
    # vertex, where it used to unpack that row from the words
    pools, unpacked = [], []
    pool_degrees, unpackbits = search._pool_degrees, search.np.unpackbits
    monkeypatch.setattr(search, "_pool_degrees", lambda *a: pools.append(a[0]) or pool_degrees(*a))
    monkeypatch.setattr(
        search.np, "unpackbits", lambda a, **k: unpacked.append(a.tobytes()) or unpackbits(a, **k)
    )
    result = max_independent_set(5, 2)
    assert (result.nodes, len(pools)) == (1189, 151)
    assert unpacked == [pool.to_bytes(len(unpacked[0]), "little") for pool in pools]


def test_budgeted_search_passes_verification():
    # a search cut short by its budget claims independence, not maximality
    report = reports.search_report(6, 2, 10)
    assert report["exact"] is False
    assert report["witness_verified"] is True
    assert report["upper_bound"] >= report["independence_number"]


def test_exhausted_certificate_of_all_of_s7_stays_small():
    # at t = n the graph is edgeless and every permutation is in the
    # witness; one agreement-count array over all 5,040 members took 364 MB
    witness = tuple(tuple(map(int, row)) for row in perm_rows(7))
    result = SearchResult(
        n=7, t=7, independence_number=len(witness), witness=witness, nodes=0, exact=True
    )
    tracemalloc.start()
    try:
        assert verify_certificate(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_budgeted_witness_needs_independence_only():
    # the first 6 members of the n=5 maximum set are independent but extend;
    # only an exhausted search vouches for maximality
    result = max_independent_set(5, 2)
    partial = SearchResult(
        n=5, t=2, independence_number=6, witness=result.witness[:6],
        nodes=10, exact=False,
    )
    assert verify_certificate(partial)
    assert not verify_certificate(partial._replace(exact=True))


def test_maximality_flag_on_coset_witness():
    # the 2-coset at n=5 admits no single-vertex extension even though the
    # true independence number is 13; the certificate checks independence
    # and, for an exact result, the extension flag; it does not assert
    # global maximality
    coset = tuple(sorted(perms_fixing([(1, 1), (2, 2)], 5)))
    framed = SearchResult(
        n=5, t=2, independence_number=6, witness=coset,
        nodes=0, exact=False,
    )
    assert verify_certificate(framed)
    assert verify_certificate(framed._replace(exact=True))


def test_relabel_invariance():
    assert relabel_graph_independence_number(4, 2, (2, 4, 1, 3)) == 8
    assert relabel_graph_independence_number(4, 3, (4, 3, 2, 1)) == 12


def test_maximum_sets_listing():
    sets3 = maximum_sets(3, 2)
    assert all(len(s) == 3 for s in sets3)
    # the even permutations form one of the maximum sets of the 3-graph
    assert ((1, 2, 3), (2, 3, 1), (3, 1, 2)) in sets3
