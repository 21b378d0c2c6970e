"""Acceptance suite: one test per criterion, each printing a PASS line with
the quantities it verified (run with ``pytest tests/test_acceptance.py -s``
to see them).  Every comparison is exact; tolerance-free."""

import math
import random
from fractions import Fraction

from oracles import (
    RATIO_BANDS,
    count_agreeing_exactly_once,
    derangement_count_recurrence,
    irreducible_character,
    isotypic_projection,
    max_independent_set_naive,
    num_fixed_points,
    projections_complete,
    projections_orthogonal,
)
from snspectra.bounds import (
    bound_report,
    cross_hoffman_bound,
    exact_distance_sq_to_span,
    hoffman_bound,
    paper_tail_split,
    stability_gap_bound,
)
from snspectra.characters import CharacterTable, mn_character
from snspectra.families import (
    family_B,
    family_B_size_formula,
    family_F,
    family_F_size_formula,
    t_coset,
    verify,
)
from snspectra.partitions import dimension, partitions_of
from snspectra.perms import (
    agree_count,
    all_perms,
    derangement_count,
    derangement_counts,
    parse_cycles,
    perms_fixing,
    sign,
)
from snspectra.search import max_independent_set, verify_certificate
from snspectra.spectrum import (
    TABLE_ROWS,
    brute_force_spectrum,
    closed_form_eigenvalue,
    eigenvalue,
    generating_classes,
    graph_spectrum,
    table_row_partition,
)
from snspectra.weightopt import optimize_bound


def _report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num:2d}: {text}")


def test_criterion_01_character_correctness():
    for n in range(1, 9):
        table = CharacterTable(n)
        assert table.verify_row_orthogonality(), f"row orthogonality n={n}"
        assert table.verify_column_orthogonality(), f"column orthogonality n={n}"
        assert table.verify_dimension_identity(), f"sum f^2 = n! at n={n}"
        for alpha in partitions_of(n):
            for ctype in partitions_of(n):
                assert irreducible_character(alpha, ctype) == mn_character(
                    alpha, ctype
                ), (alpha, ctype)
    _report(1, "determinantal == border-strip characters, orthogonality, n <= 8")


def test_criterion_02_spectrum_oracle_equivalence():
    for n in (3, 4, 5, 6):
        pairs, cert = brute_force_spectrum(n, 2)
        assert pairs == graph_spectrum(n, 2).multiset(), f"n={n}"
        assert cert.method == "matrix-annihilation"
    _report(2, "character spectrum == certified adjacency spectrum, n = 3..6")


def test_criterion_03_closed_form_table():
    for n in range(6, 13):
        classes = generating_classes(n, 2)
        for row in TABLE_ROWS:
            alpha = table_row_partition(row, n)
            assert closed_form_eigenvalue(row, n) == eigenvalue(alpha, classes), (n, row)
    _report(3, "all 8 closed-form rows match the character route, n = 6..12")


def test_criterion_04_trace_identity():
    for n in range(4, 13):
        spec = graph_spectrum(n, 2)
        total = sum(r.multiplicity * r.eigenvalue**2 for r in spec.rows)
        assert total == math.factorial(n) * n * derangement_count(n - 1), n
    spec6 = graph_spectrum(6, 2)
    assert sum(r.multiplicity * r.eigenvalue**2 for r in spec6.rows) == 190080
    _report(4, "sum of mult * eigenvalue^2 = n! * n * d_{n-1}, n = 4..12")


def test_criterion_05_eigenvalue_magnitude_bound():
    for n in range(4, 13):
        spec = graph_spectrum(n, 2)
        budget = spec.degree * math.factorial(n)
        for row in spec.rows:
            assert row.eigenvalue**2 * row.multiplicity <= budget, (n, row.partition)
    _report(5, "|eigenvalue| <= sqrt(degree * n!)/f for every component, n = 4..12")


def test_criterion_06_lambda_min_location():
    observed_constant = Fraction(0)
    for n in range(8, 13):
        spec = graph_spectrum(n, 2)
        assert set(spec.argmin) <= {(n - 2, 2), (n - 2, 1, 1)}, (n, spec.argmin)
        from snspectra.partitions import classify

        medium_max = max(
            abs(r.eigenvalue)
            for r in spec.rows
            if classify(r.partition, 2) == "medium"
        )
        observed_constant = max(
            observed_constant, Fraction(medium_max, math.factorial(n - 3))
        )
    _report(
        6,
        "argmin on the two fat rows for n = 8..12; "
        f"observed medium-eigenvalue constant {observed_constant} * (n-3)!",
    )


def test_criterion_07_hoffman_soundness_and_ratio():
    for n in range(5, 13):
        assert bound_report(n, 2).hoffman_value >= math.factorial(n - 2), n
    ratios = []
    for n in range(8, 13):
        ratio = bound_report(n, 2).hoffman_value / math.factorial(n - 2)
        # K = 3 frozen from the exact values: max of (ratio-1)*n is
        # 20832/15204 - 1 at n = 8, about 2.963
        assert ratio <= 1 + Fraction(3, n), (n, ratio)
        ratios.append(ratio)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    _report(
        7,
        "hoffman >= (n-2)! for n = 5..12; ratio <= 1 + 3/n and decreasing: "
        + ", ".join(f"{float(r):.4f}" for r in ratios),
    )


def test_criterion_08_derangement_identities():
    for n in range(31):
        assert derangement_count(n) == derangement_count_recurrence(n), n
    assert derangement_counts(0).d == 1 and derangement_count(1) == 0
    for n in range(1, 10):
        even = odd = 0
        for p in all_perms(n):
            if num_fixed_points(p) == 0:
                if sign(p) == 1:
                    even += 1
                else:
                    odd += 1
        counts = derangement_counts(n)
        assert (even, odd) == (counts.e, counts.o), n
        assert even - odd == (-1) ** (n - 1) * (n - 1), n
    assert (derangement_counts(4).e, derangement_counts(4).o) == (3, 6)
    _report(8, "inclusion-exclusion == recurrence (n <= 30); parity split by enumeration (n <= 9)")


def test_criterion_09_family_size_formulas():
    assert len(family_B(9)) == family_B_size_formula(9) == 3234
    expected = {1: 264, 2: 309, 3: 265, 4: 256}
    for j, size in expected.items():
        fam = family_F(j, 8)
        assert len(fam) == family_F_size_formula(j, 8) == size, j
    _report(9, "|B|(9) = 3234 and |F_1..4|(8) = 264/309/265/256, enumerated")


def test_criterion_10_independence_verification():
    assert verify(family_B(9), 2).ok
    # all 2-cosets exhaustively for n <= 6
    checked = 0
    for n in (4, 5, 6):
        points = range(1, n + 1)
        for i in points:
            for k in range(i + 1, n + 1):
                for j in points:
                    for l in points:
                        if j == l:
                            continue
                        coset = t_coset([(i, j), (k, l)], n)
                        assert verify(coset, 2).ok
                        checked += 1
    # canonical plus seeded random cosets for n = 7..9 (any 2-coset is a
    # double translate of the canonical one, and agreement counts are
    # translation invariant, so these samples are representative)
    rng = random.Random(20260810)
    for n in (7, 8, 9):
        assert verify(t_coset([(1, 1), (2, 2)], n), 2).ok
        for _ in range(6):
            i, k = rng.sample(range(1, n + 1), 2)
            j, l = rng.sample(range(1, n + 1), 2)
            assert verify(t_coset([(i, j), (k, l)], n), 2).ok
        checked += 7
    _report(10, f"family B(9) and {checked} 2-cosets have no singleton agreement")


def test_criterion_11_projection_invariants():
    for n in range(2, 6):
        projs = [isotypic_projection(a, n) for a in partitions_of(n)]
        for p in projs:
            assert p.is_symmetric()
            assert p.is_idempotent()
            assert p.trace() == dimension(p.alpha) ** 2
        for i, p in enumerate(projs):
            for q in projs[i + 1 :]:
                assert projections_orthogonal(p, q)
        assert projections_complete(projs, n)
    _report(11, "projections idempotent, orthogonal, complete, correct trace, n <= 5")


def test_criterion_12_stability_bound():
    spec = graph_spectrum(5, 2)
    tail, lam_m, lam_n = paper_tail_split(5, 2)
    span = [(5,)] + list(tail)
    rng = random.Random(20260810)
    worst_gap = None
    for _ in range(200):
        i1, i2 = rng.sample(range(1, 6), 2)
        j1, j2 = rng.sample(range(1, 6), 2)
        coset = list(perms_fixing([(i1, j1), (i2, j2)], 5))
        members = rng.sample(coset, rng.randint(0, len(coset)))
        density = Fraction(len(members), 120)
        bound = stability_gap_bound(spec.degree, lam_m, lam_n, density)
        distance = exact_distance_sq_to_span(members, span, 5)
        assert distance <= bound, (members, distance, bound)
        gap = bound - distance
        worst_gap = gap if worst_gap is None else min(worst_gap, gap)
    _report(12, f"distance bound holds for 200 seeded independent sets (min slack {worst_gap})")


def test_criterion_13_cross_bound():
    for n in (4, 5, 6):
        report = bound_report(n, 2)
        squared = cross_hoffman_bound(report.degree, report.nu, report.nverts) ** 2
        assert squared == report.cross_value_squared
        coset = sorted(t_coset([(1, 1), (2, 2)], n).members)
        pairs = [
            (coset, coset),
            (coset, coset[: max(1, len(coset) // 2)]),
            (coset[: max(1, len(coset) // 3)], coset[:1]),
        ]
        for fam_a, fam_b in pairs:
            assert all(
                agree_count(s, t) != 1 for s in fam_a for t in fam_b
            ), "pair is not cross-independent"
            assert len(fam_a) * len(fam_b) <= squared, (n, len(fam_a), len(fam_b))
    _report(13, "squared cross bound dominates |A||B| for cross-independent pairs, n <= 6")


def test_criterion_14_exact_search():
    res3 = max_independent_set(3, 2)
    assert res3.independence_number == 3 > math.factorial(1)
    assert verify_certificate(res3)
    for t in (2, 3):
        bnb = max_independent_set(4, t)
        naive_size, _ = max_independent_set_naive(4, t)
        assert bnb.independence_number == naive_size, t
        assert verify_certificate(bnb)
    _report(14, "independence number of the n=3 graph is 3 (> 1!); n=4 matches naive search")


def test_criterion_15_weighted_bounds():
    for n in (6, 7, 8):
        for t in (2, 3):
            result = optimize_bound(n, t)
            assert result.certified, (n, t)
            assert result.bound <= result.uniform_bound, (n, t)
            assert result.bound >= math.factorial(n - t), (n, t)
    _report(15, "optimal weighted bound certified, <= uniform, >= (n-t)!, (n,t) in 6..8 x 2..3")


def test_criterion_16_agree_once_ratio():
    low, high = RATIO_BANDS["agree-once"]
    observed = []
    for n in (7, 8, 9):
        tau = parse_cycles("(1 2)", n)
        count = count_agreeing_exactly_once(tau, n)
        ratio = Fraction(count, math.factorial(n - 2))
        assert low < ratio < high, (n, ratio)
        observed.append(float(ratio))
    _report(
        16,
        "agree-exactly-once count ratios in the frozen band around 1/e: "
        + ", ".join(f"{r:.4f}" for r in observed),
    )
