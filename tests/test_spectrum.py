import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    agreement_bitsets,
    agreement_matrix,
    annihilation_holds_matrix,
    dense_brute_force_spectrum,
    exact_traces_matrix,
)
from snspectra import spectrum
from snspectra.partitions import classify, dimension, partitions_of
from snspectra.perms import all_perms, derangement_count, derangement_counts
from snspectra.search import graph_bitsets
from snspectra.spectrum import (
    TABLE_ROWS,
    adjacency_matrix,
    brute_force_spectrum,
    closed_form_eigenvalue,
    eigenvalue,
    fixed_point_generating_set,
    full_spectrum,
    generating_set_from_types,
    graph_spectrum,
    table_row_partition,
)


def test_generating_set_classwise():
    gen = fixed_point_generating_set(6, 2)
    assert gen.total == 6 * derangement_count(5)
    assert all(c.count(1) == 1 for c in gen.cycle_types())
    empty = fixed_point_generating_set(5, 5)
    assert empty.total == 0 and empty.empty_reason is not None
    with pytest.raises(ValueError):
        fixed_point_generating_set(5, 6)


def test_generating_set_from_types():
    gen = generating_set_from_types(4, [(2, 1, 1)])
    assert gen.total == 6
    with pytest.raises(ValueError):
        generating_set_from_types(4, [(2, 1)])


def test_degree_eigenvalue_is_trivial_row():
    for n in range(3, 10):
        gen = fixed_point_generating_set(n, 2)
        assert eigenvalue((n,), gen) == gen.total == n * derangement_count(n - 1)


def test_k33_spectrum():
    spec = graph_spectrum(3, 2)
    assert spec.multiset() == ((-3, 1), (0, 4), (3, 1))
    by = {r.partition: r.eigenvalue for r in spec.rows}
    assert by == {(3,): 3, (2, 1): 0, (1, 1, 1): -3}


def test_zero_rows():
    for n in range(4, 11):
        gen = fixed_point_generating_set(n, 2)
        assert eigenvalue((n - 1, 1), gen) == 0
        assert eigenvalue((2,) + (1,) * (n - 2), gen) == 0


def test_closed_form_examples():
    assert closed_form_eigenvalue("2,2,1^(n-4)", 6) == -16
    assert closed_form_eigenvalue("n-2,1,1", 7) == -63
    assert closed_form_eigenvalue("1^n", 6) == 24
    assert closed_form_eigenvalue("n-2,2", 6) == -16
    assert closed_form_eigenvalue("n", 8) == 8 * derangement_count(7)
    with pytest.raises(ValueError):
        closed_form_eigenvalue("n-2,2", 5)
    with pytest.raises(ValueError):
        closed_form_eigenvalue("bogus", 8)


def test_sign_eigenvalue_is_parity_difference():
    # the alternating-component eigenvalue equals n (e_{n-1} - o_{n-1})
    for n in range(4, 11):
        gen = fixed_point_generating_set(n, 2)
        counts = derangement_counts(n - 1)
        assert eigenvalue((1,) * n, gen) == n * (counts.e - counts.o)


@pytest.mark.parametrize("n", range(6, 13))
def test_closed_forms_match_character_route(n):
    gen = fixed_point_generating_set(n, 2)
    for row in TABLE_ROWS:
        alpha = table_row_partition(row, n)
        assert closed_form_eigenvalue(row, n) == eigenvalue(alpha, gen)


def test_collision_regime_consistency_at_n5():
    # at n=5 the shapes (n-2,1,1) and (3,1^(n-3)) coincide; both closed forms
    # evaluate to the same number there even though the API refuses n<6
    d4 = derangement_count(4)
    via_fat = -5 * (d4 - (-1) ** 5 * 3) // (4 * 3)
    via_tall = (-1) ** 5 * 5 * 1
    assert via_fat == via_tall == -5
    gen = fixed_point_generating_set(5, 2)
    assert eigenvalue((3, 1, 1), gen) == -5


@pytest.mark.parametrize("n", range(4, 13))
def test_trace_identity_and_multiplicities(n):
    spec = graph_spectrum(n, 2)
    assert spec.total_multiplicity() == math.factorial(n)
    assert spec.trace_identity_holds()


@pytest.mark.parametrize("n", range(4, 13))
def test_eigenvalue_magnitude_bound(n):
    # |lambda| <= sqrt(|X| n!) / f, compared by squaring
    spec = graph_spectrum(n, 2)
    budget = spec.degree * math.factorial(n)
    for row in spec.rows:
        assert row.eigenvalue**2 * row.multiplicity <= budget


@pytest.mark.parametrize("n", range(7, 13))
def test_argmin_on_fat_rows(n):
    spec = graph_spectrum(n, 2)
    assert set(spec.argmin) <= {(n - 2, 2), (n - 2, 1, 1)}


def test_argmin_threshold_is_seven():
    # below n=7 the minimum sits elsewhere: the report layer flags this
    assert graph_spectrum(5, 2).argmin == ((1, 1, 1, 1, 1),)
    assert graph_spectrum(6, 2).argmin == ((2, 2, 2),)


@pytest.mark.parametrize("n", range(7, 13))
def test_medium_eigenvalues_below_fat_rows(n):
    spec = graph_spectrum(n, 2)
    by = {r.partition: r.eigenvalue for r in spec.rows}
    fat_rows_min = min(abs(by[(n - 2, 2)]), abs(by[(n - 2, 1, 1)]))
    for alpha in partitions_of(n):
        if classify(alpha, 2) == "medium":
            assert abs(by[alpha]) < fat_rows_min


def test_eigenvalues_sum_to_zero_weighted_by_dimension():
    # sum over alpha of f_alpha^2 lambda_alpha = trace(A) = 0
    for n in range(3, 10):
        spec = graph_spectrum(n, 2)
        assert sum(r.multiplicity * r.eigenvalue for r in spec.rows) == 0


def test_empty_generating_set_spectrum():
    spec = full_spectrum(fixed_point_generating_set(4, 4))
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
        direct = agreement_matrix(verts, t)
        dense = adjacency_matrix(n, t)
        assert dense.dtype == np.float64
        assert np.array_equal(dense, direct.astype(np.float64)), t
        assert graph_bitsets(n, t) == (tuple(verts), agreement_bitsets(verts, t)), t
    for t in (0, n + 1):
        with pytest.raises(ValueError):
            adjacency_matrix(n, t)


@pytest.mark.parametrize("n,t", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3)])
def test_oracle_matches_character_route(n, t):
    pairs, cert = brute_force_spectrum(n, t)
    assert pairs == graph_spectrum(n, t).multiset()
    assert cert.method == "matrix-annihilation"
    assert cert.max_residual < 1e-9


def test_oracle_n6():
    for t in (2, 3):
        pairs, cert = brute_force_spectrum(6, t)
        assert pairs == graph_spectrum(6, t).multiset()
        assert cert.method == "matrix-annihilation"


@pytest.mark.slow
def test_oracle_n7():
    pairs, cert = brute_force_spectrum(7, 2)
    assert pairs == graph_spectrum(7, 2).multiset()
    assert cert.method == "matrix-annihilation"


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


def _swap_one_edge_pair(nbrs):
    """The edges {a, b} and {c, d} replaced by {a, d} and {c, b}: the graph
    stays symmetric and regular, but is no longer a Cayley graph."""
    rows = [set(r) for r in nbrs.tolist()]
    a, b = 0, int(nbrs[0, 0])
    for c in range(len(rows)):
        for d in rows[c]:
            if len({a, b, c, d}) == 4 and d not in rows[a] and b not in rows[c]:
                out = nbrs.copy()
                for x, old, new in ((a, b, d), (b, a, c), (c, d, b), (d, c, a)):
                    out[x][out[x] == old] = new
                return out
    raise AssertionError("no edge pair to swap")


@pytest.mark.parametrize("n,t", [(4, 2), (5, 2), (5, 3)])
def test_oracle_refuses_a_graph_that_is_not_cayley(n, t, monkeypatch):
    moved = _swap_one_edge_pair(spectrum.agreement_neighbours(n, t))
    dense = spectrum._dense(moved)
    assert np.array_equal(dense, dense.T) and (dense.sum(axis=1) == moved.shape[1]).all()
    monkeypatch.setattr(spectrum, "agreement_neighbours", lambda n, t: moved)
    with pytest.raises(ArithmeticError, match="left translation"):
        brute_force_spectrum(n, t)


def test_spectrum_properties_at_n6():
    spec = graph_spectrum(6, 2)
    assert spec.degree == 264
    assert sum(r.multiplicity * r.eigenvalue**2 for r in spec.rows) == 190080
    assert spec.lambda_min == -24
    assert spec.nu == 24


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=2, max_value=4))
@settings(max_examples=20, deadline=None)
def test_generalized_t_spectra_are_integral(n, t):
    if t > n:
        return
    spec = full_spectrum(fixed_point_generating_set(n, t))
    assert spec.total_multiplicity() == math.factorial(n)
    assert spec.trace_identity_holds()
