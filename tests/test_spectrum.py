import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    adjacency_matrix,
    all_perms,
    agreement_bitsets,
    agreement_matrix,
    annihilation_holds_matrix,
    class_sum_eigenvalue,
    cycle_type,
    dense_brute_force_spectrum,
    exact_traces_matrix,
    generating_set,
    generator_rank_graph,
    mn_character as tuple_mn_character,
    transpose,
)
from snspectra import families, spectrum
from snspectra.families import GRAPH_CAP, agreement_graph
from snspectra.partitions import classify, dimension, partitions_of
from snspectra.perms import derangement_count, derangement_counts
from snspectra.search import graph_bitsets
from snspectra.spectrum import (
    TABLE_ROWS,
    brute_force_spectrum,
    class_eigenvalues,
    closed_form_eigenvalue,
    eigenvalue,
    full_spectrum,
    generating_classes,
    table_row_partition,
)


def test_generating_set_classwise():
    classes = generating_classes(6, 2)
    assert sum(size for _, size in classes) == 6 * derangement_count(5)
    assert all(c.count(1) == 1 for c, _ in classes)
    assert generating_classes(5, 5) == ()
    for n, t, message in [
        (5, 6, "need 1 <= t <= n, got t=6, n=5"),
        (5, 0, "need 1 <= t <= n, got t=0, n=5"),
        (1, 1, "need n >= 2"),
    ]:
        with pytest.raises(ValueError, match=message):
            generating_classes(n, t)
    # the classes and their sizes are the cycle types of the generators
    for n in range(2, 7):
        for t in range(1, n + 1):
            census = Counter(cycle_type(s) for s in generating_set(n, t))
            assert dict(generating_classes(n, t)) == census, (n, t)


def test_degree_eigenvalue_is_trivial_row():
    for n in range(3, 10):
        classes = generating_classes(n, 2)
        degree = sum(size for _, size in classes)
        assert eigenvalue((n,), 2) == degree == n * derangement_count(n - 1)


@pytest.mark.parametrize("n", range(2, 17))
def test_rencontres_degree_equals_the_class_sizes(n):
    for t in range(1, n + 1):
        degree = sum(size for _, size in generating_classes(n, t))
        assert math.comb(n, t - 1) * derangement_count(n - t + 1) == degree, t
        assert full_spectrum(n, t).degree == degree, t


@pytest.mark.parametrize("n", [*range(2, 13), 14])
def test_shifted_schur_eigenvalue_equals_the_class_sum_oracle(n):
    for t in (2, 3) if n == 14 else range(1, n + 1):
        classes = generating_classes(n, t)
        for alpha in partitions_of(n):
            assert eigenvalue(alpha, t) == class_sum_eigenvalue(alpha, classes), (t, alpha)


def test_eigenvalue_refuses_t_outside_1_to_n():
    for t in (0, 5):
        with pytest.raises(ValueError, match=f"need 1 <= t <= n, got t={t}, n=4"):
            eigenvalue((2, 2), t)


def test_a_perturbed_shifted_complete_is_refused(monkeypatch):
    # h*_1 += C(n-2, k) and h*_2 += C(n-1, k) leave every eigenvalue, and so
    # every moment and row check, unchanged; only integrality sees it
    n, t = 7, 2
    k = t - 1
    complete = spectrum._shifted_complete

    def perturbed(alpha, top):
        h = complete(alpha, top)
        if len(h) > 2:
            h[1] += math.comb(n - 2, k)
            h[2] += math.comb(n - 1, k)
        return h

    def combined(h):
        return sum((-1) ** (n - m - k) * math.comb(n - m, k) * x for m, x in enumerate(h))

    for alpha in partitions_of(n):
        assert combined(perturbed(alpha, n - k)) == combined(complete(alpha, n - k)), alpha
    monkeypatch.setattr(spectrum, "_shifted_complete", perturbed)
    with pytest.raises(ArithmeticError, match=re.escape(" is not integral: f^alpha h*_m = ")):
        full_spectrum.__wrapped__(n, t)  # past the cache


def test_a_swapped_deciding_row_is_refused(monkeypatch):
    # the least eigenvalue moved onto the conjugate row, of the same
    # dimension: integrality, both moments and the degree still hold, but
    # the row now holding lambda_min disagrees with its class sum
    n, t = 7, 2
    low = full_spectrum(n, t).argmin[0]
    swap = {low: transpose(low), transpose(low): low}
    assert eigenvalue(low, t) != eigenvalue(transpose(low), t)
    original = spectrum.eigenvalue
    monkeypatch.setattr(spectrum, "eigenvalue", lambda alpha, t: original(swap.get(alpha, alpha), t))
    with pytest.raises(ArithmeticError, match=re.escape(f"deciding row {transpose(low)}")):
        full_spectrum.__wrapped__(n, t)


@pytest.mark.parametrize(
    "target,check",
    [("derangement_count", "degree check"), ("eigenvalue", "first moment")],
)
def test_a_wrong_degree_or_first_moment_is_refused(monkeypatch, target, check):
    # d_{n-k} + 1, or every nontrivial eigenvalue + 1
    original = getattr(spectrum, target)
    if target == "derangement_count":
        monkeypatch.setattr(spectrum, target, lambda m: original(m) + 1)
    else:
        monkeypatch.setattr(spectrum, target, lambda a, t: original(a, t) + (len(a) > 1))
    with pytest.raises(ArithmeticError, match=check):
        full_spectrum.__wrapped__(7, 2)


@pytest.mark.parametrize("n", range(2, 13))
def test_class_eigenvalues_equal_the_tuple_oracle_class_by_class(n):
    for t in range(1, n + 1):
        classes = generating_classes(n, t)
        for alpha in partitions_of(n):
            expected = [
                Fraction(size * tuple_mn_character(alpha, c), dimension(alpha))
                for c, size in classes
            ]
            assert list(class_eigenvalues(alpha, classes)) == expected, (t, alpha)


def test_a_non_central_character_value_is_refused(monkeypatch):
    # chi + 1 breaks the integrality of |c| chi(c) / f for some class
    character = spectrum.mn_character
    monkeypatch.setattr(spectrum, "mn_character", lambda alpha, c: character(alpha, c) + 1)
    with pytest.raises(ArithmeticError, match="class .* on .* is not integral: "):
        full_spectrum.__wrapped__(7, 2)  # past the cache


def test_k33_spectrum():
    spec = full_spectrum(3, 2)
    assert spec.multiset() == ((-3, 1), (0, 4), (3, 1))
    by = {r.partition: r.eigenvalue for r in spec.rows}
    assert by == {(3,): 3, (2, 1): 0, (1, 1, 1): -3}


def test_zero_rows():
    for n in range(4, 11):
        assert eigenvalue((n - 1, 1), 2) == 0
        assert eigenvalue((2,) + (1,) * (n - 2), 2) == 0


def test_closed_form_examples():
    assert closed_form_eigenvalue("2,2,1^(n-4)", 6) == -16
    assert closed_form_eigenvalue("n-2,1,1", 7) == -63
    assert closed_form_eigenvalue("1^n", 6) == 24
    assert closed_form_eigenvalue("n-2,2", 6) == -16
    assert closed_form_eigenvalue("n", 8) == 8 * derangement_count(7)
    with pytest.raises(ValueError, match=r"closed forms need n >= 6 \(got 5\)"):
        closed_form_eigenvalue("n-2,2", 5)
    for lookup in (closed_form_eigenvalue, table_row_partition):
        with pytest.raises(ValueError, match="unknown table row 'bogus'"):
            lookup("bogus", 8)


def test_sign_eigenvalue_is_parity_difference():
    # the alternating-component eigenvalue equals n (e_{n-1} - o_{n-1})
    for n in range(4, 11):
        counts = derangement_counts(n - 1)
        assert eigenvalue((1,) * n, 2) == n * (counts.e - counts.o)


@pytest.mark.parametrize("n", range(6, 13))
def test_closed_forms_match_the_shifted_schur_eigenvalue(n):
    for row in TABLE_ROWS:
        alpha = table_row_partition(row, n)
        assert closed_form_eigenvalue(row, n) == eigenvalue(alpha, 2)


def test_collision_regime_consistency_at_n5():
    # at n=5 the shapes (n-2,1,1) and (3,1^(n-3)) coincide; both closed forms
    # evaluate to the same number there even though the API refuses n<6
    d4 = derangement_count(4)
    via_fat = -5 * (d4 - (-1) ** 5 * 3) // (4 * 3)
    via_tall = (-1) ** 5 * 5 * 1
    assert via_fat == via_tall == -5
    assert eigenvalue((3, 1, 1), 2) == -5


@pytest.mark.parametrize("n", range(4, 13))
def test_trace_identity_and_multiplicities(n):
    spec = full_spectrum(n, 2)
    assert sum(r.multiplicity for r in spec.rows) == math.factorial(n)
    assert spec.trace_identity_holds()


@pytest.mark.parametrize("n", range(4, 13))
def test_eigenvalue_magnitude_bound(n):
    # |lambda| <= sqrt(|X| n!) / f, compared by squaring
    spec = full_spectrum(n, 2)
    budget = spec.degree * math.factorial(n)
    for row in spec.rows:
        assert row.eigenvalue**2 * row.multiplicity <= budget


@pytest.mark.parametrize("n", range(7, 13))
def test_argmin_on_fat_rows(n):
    spec = full_spectrum(n, 2)
    assert set(spec.argmin) <= {(n - 2, 2), (n - 2, 1, 1)}


def test_argmin_threshold_is_seven():
    # below n=7 the minimum sits elsewhere: the report layer flags this
    assert full_spectrum(5, 2).argmin == ((1, 1, 1, 1, 1),)
    assert full_spectrum(6, 2).argmin == ((2, 2, 2),)


@pytest.mark.parametrize("n", range(7, 13))
def test_medium_eigenvalues_below_fat_rows(n):
    spec = full_spectrum(n, 2)
    by = {r.partition: r.eigenvalue for r in spec.rows}
    fat_rows_min = min(abs(by[(n - 2, 2)]), abs(by[(n - 2, 1, 1)]))
    for alpha in partitions_of(n):
        if classify(alpha, 2) == "medium":
            assert abs(by[alpha]) < fat_rows_min


def test_eigenvalues_sum_to_zero_weighted_by_dimension():
    # sum over alpha of f_alpha^2 lambda_alpha = trace(A) = 0
    for n in range(3, 10):
        spec = full_spectrum(n, 2)
        assert sum(r.multiplicity * r.eigenvalue for r in spec.rows) == 0


def test_empty_generating_set_spectrum():
    spec = full_spectrum(4, 4)
    assert spec.degree == 0
    assert all(r.eigenvalue == 0 for r in spec.rows)


# ---------------------------------------------------------------------------
# Brute-force oracle.


def test_adjacency_matrix_structure():
    adj = adjacency_matrix(4, 2)
    assert adj.shape == (24, 24)
    assert adj.sum() == 24 * 4 * derangement_count(3)
    assert (adj == adj.T).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_builder_matches_direct_agreement_count(n):
    verts = list(all_perms(n))
    for t in range(1, n + 1):
        graph = agreement_graph(n, t)
        assert graph.dtype == bool
        assert np.array_equal(graph, agreement_matrix(verts, t)), t
        assert np.array_equal(graph, generator_rank_graph(n, t)), t
        rows, adj, words, kept = graph_bitsets(n, t)
        assert rows.tolist() == [list(v) for v in verts], t
        assert kept.dtype == bool and np.array_equal(kept, graph), t
        assert adj == agreement_bitsets(verts, t), t
        assert words.dtype == np.dtype("<u8"), t
        assert words.shape == (len(verts), -(-len(verts) // 64)), t
        assert adj == tuple(int.from_bytes(row.tobytes(), "little") for row in words), t
    for t in (0, n + 1):
        message = f"need 1 <= t <= n, got t={t}, n={n}"
        with pytest.raises(ValueError, match=message):
            agreement_graph(n, t)
    with pytest.raises(ValueError, match="explicit graphs capped"):
        agreement_graph(GRAPH_CAP + 1, 2)


def test_edgeless_graph_counts_no_agreements(monkeypatch):
    # at t = n no two permutations agree on exactly n-1 points; the 5040 x
    # 5040 counts took 0.3 s to find no edge
    monkeypatch.setattr(families, "agreement_counts", lambda *a: pytest.fail("counted"))
    graph = agreement_graph(7, 7)
    assert graph.shape == (5040, 5040) and graph.dtype == bool
    assert not graph.any()


@pytest.mark.slow
def test_builder_matches_the_generator_ranks_at_n7():
    # ten AGREEMENT_BLOCK slices of rows, where n = 6 fills two and n <= 5 one
    assert np.array_equal(agreement_graph(7, 2), generator_rank_graph(7, 2))


@pytest.mark.parametrize("n,t", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3)])
def test_oracle_matches_character_route(n, t):
    pairs, cert = brute_force_spectrum(n, t)
    assert pairs == full_spectrum(n, t).multiset()
    assert cert.max_residual < 1e-9


def test_oracle_n6():
    for t in (2, 3):
        pairs, _ = brute_force_spectrum(6, t)
        assert pairs == full_spectrum(6, t).multiset()


@pytest.mark.slow
def test_oracle_n7():
    pairs, _ = brute_force_spectrum(7, 2)
    assert pairs == full_spectrum(7, 2).multiset()


# the dense certificate takes about 2 s per t at n = 6
@pytest.mark.parametrize(
    "n", [*range(1, 6), pytest.param(6, marks=pytest.mark.slow)]
)
def test_one_column_certificate_equals_the_dense_oracle(n):
    for t in range(1, n + 1):
        assert brute_force_spectrum(n, t) == dense_brute_force_spectrum(n, t), t


@pytest.mark.slow
def test_one_column_certificate_at_n6_holds_on_the_whole_matrix():
    # the dense annihilator mod each reported prime, and the traces of the
    # matrix powers against the certified multiplicities
    for t in (2, 3):
        pairs, cert = brute_force_spectrum(6, t)
        adj = adjacency_matrix(6, t)
        values = [lam for lam, _ in pairs]
        assert all(annihilation_holds_matrix(adj, values, p) for p in cert.primes)
        traces = exact_traces_matrix(adj, cert.moments_checked, int(adj[0].sum()))
        assert traces == [sum(m * lam**k for lam, m in pairs) for k in range(len(traces))]


class _CountedMatrix(np.ndarray):
    """A dense matrix that counts its matrix-vector products."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return np.asarray(self) @ other


@pytest.mark.parametrize("n,t,products", [(5, 2, 12), (6, 2, 32), (6, 3, 21)])
def test_oracle_walks_one_krylov_sequence_per_prime(monkeypatch, n, t, products):
    # r products per prime for r distinct eigenvalues: v_k = A^k e_id for
    # k = 0..r gives both the annihilator and the walk counts (68 products
    # at (6, 2) when each prime took one walk for each)
    monkeypatch.setattr(_CountedMatrix, "products", 0)
    # astype keeps the subclass, so the float64 copy counts its products
    monkeypatch.setattr(
        families, "agreement_graph", lambda n, t: agreement_graph(n, t).view(_CountedMatrix)
    )
    pairs, cert = brute_force_spectrum(n, t)
    assert pairs == full_spectrum(n, t).multiset()
    assert _CountedMatrix.products == len(cert.primes) * len(pairs) == products


def _swap_one_edge_pair(graph):
    """The edges {a, b} and {c, d} replaced by {a, d} and {c, b}: the graph
    stays symmetric and regular, but is no longer a Cayley graph."""
    a, b = 0, int(np.flatnonzero(graph[0])[0])
    for c, d in zip(*np.nonzero(graph)):
        if len({a, b, c, d}) == 4 and not graph[a, d] and not graph[c, b]:
            out = graph.copy()
            out[[a, b, c, d], [b, a, d, c]] = False
            out[[a, d, c, b], [d, a, b, c]] = True
            return out
    raise AssertionError("no edge pair to swap")


@pytest.mark.parametrize("n,t", [(4, 2), (5, 2), (5, 3)])
def test_oracle_refuses_a_graph_that_is_not_cayley(n, t, monkeypatch):
    graph = agreement_graph(n, t)
    moved = _swap_one_edge_pair(graph)
    assert np.array_equal(moved, moved.T) and (moved.sum(axis=1) == graph[0].sum()).all()
    assert (moved != graph).sum() == 8
    monkeypatch.setattr(families, "agreement_graph", lambda n, t: moved)
    with pytest.raises(ArithmeticError, match="left translation"):
        brute_force_spectrum(n, t)


def test_oracle_refuses_eigenvalues_far_from_integers(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 0.5)
    with pytest.raises(ArithmeticError, match="too far from integers"):
        brute_force_spectrum(4, 2)


def test_oracle_refuses_a_spectrum_missing_an_eigenvalue(monkeypatch):
    # every copy of the least eigenvalue read as the greatest
    eigvalsh = np.linalg.eigvalsh

    def dropped(a):
        values = eigvalsh(a)
        return np.where(np.isclose(values, values[0]), values[-1], values)

    monkeypatch.setattr(np.linalg, "eigvalsh", dropped)
    with pytest.raises(ArithmeticError, match="annihilator nonzero"):
        brute_force_spectrum(4, 2)


@pytest.mark.parametrize(
    "k,check",
    [
        (0, "do not sum to the vertex count"),
        (1, "multiplicity of -15 is not a nonnegative integer"),
        (-1, "extra moment"),
    ],
)
def test_oracle_refuses_a_wrong_power_trace(monkeypatch, k, check):
    # one closed-walk count off by one, so Tr(A^k) off by n!: at n = 5 the
    # idempotents still divide exactly with Tr(A^0) off, not with Tr(A^1)
    # off, and the last trace enters only the extra moment
    n, t = 5, 2
    moments = len(full_spectrum(n, t).multiset()) + 1
    crt, calls = spectrum._crt, []

    def perturbed(residues, moduli):
        value, modulus = crt(residues, moduli)
        calls.append(value)
        return value + (len(calls) - 1 == k % moments), modulus

    monkeypatch.setattr(spectrum, "_crt", perturbed)
    with pytest.raises(ArithmeticError, match=check):
        brute_force_spectrum(n, t)
    assert len(calls) == moments


def test_spectrum_properties_at_n6():
    spec = full_spectrum(6, 2)
    assert spec.degree == 264
    assert sum(r.multiplicity * r.eigenvalue**2 for r in spec.rows) == 190080
    assert spec.lambda_min == -24
    assert spec.nu == 24


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=2, max_value=4))
@settings(max_examples=20, deadline=None)
def test_generalized_t_spectra_are_integral(n, t):
    if t > n:
        return
    spec = full_spectrum(n, t)
    assert sum(r.multiplicity for r in spec.rows) == math.factorial(n)
    assert spec.trace_identity_holds()
