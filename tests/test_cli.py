import argparse
import json
import sys
from fractions import Fraction

import pytest

from oracles import shift_dual
from snspectra import bounds, characters, cli, families, reports, search, spectrum, weightopt


def run_cli(capsys, argv):
    """The exit code and output of a run; an argparse usage error exits 2
    through SystemExit, as a process would."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derangements(capsys):
    code, out, _ = run_cli(capsys, ["derangements", "--n", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["d"] == "1"
    assert data["schema_version"] == "1"
    assert data["config"] == {"n": "0", "seed": "0", "cap": "10"}


def test_output_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, ["spectrum", "--n", "5", "--t", "2"])
    _, second, _ = run_cli(capsys, ["spectrum", "--n", "5", "--t", "2"])
    assert first == second


def test_encode_refuses_a_record():
    # a NamedTuple is a tuple, which encode would flatten into a list
    # without its field names; a report names each field itself
    with pytest.raises(TypeError, match="cannot encode a SpectrumRow record"):
        reports.to_json({"row": spectrum.SpectrumRow((2,), 1, 1)})
    assert reports.encode([(1, Fraction(1, 2))]) == [["1", "1/2"]]


# public record -> (a builder of one, a field of it)
RECORDS = {
    "Family": (lambda: families.t_coset([(1, 1), (2, 2)], 4), "members"),
    "VerificationResult": (lambda: families.verify(families.family_B(7), 2), "ok"),
    "SearchResult": (lambda: search.max_independent_set(3, 2), "nodes"),
    "Spectrum": (lambda: spectrum.full_spectrum(5, 2), "rows"),
    "BoundReport": (lambda: bounds.bound_report(5, 2), "hoffman_value"),
    "WeightedBoundResult": (lambda: weightopt.optimize_bound(5, 2), "bound"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_read_only(name):
    build, field = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_integers_are_decimal_strings(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--n", "6", "--t", "2"])
    data = json.loads(out)
    assert data["degree"] == "264"
    assert all(isinstance(r["eigenvalue"], str) for r in data["rows"])
    assert data["trace_check"] == "pass"
    assert data["rows"][0]["fatness_class"] == "2-fat"


def test_spectrum_verify(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--n", "4", "--t", "2", "--verify"])
    assert code == 0
    data = json.loads(out)
    assert data["oracle"]["match"] is True
    assert data["oracle"]["method"] == "matrix-annihilation"


def test_spectrum_empty_warning(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--n", "4", "--t", "4"])
    assert code == 0
    assert json.loads(out)["warning"] == "no permutation of degree 4 has exactly 3 fixed points"


def test_table_text_format(capsys):
    code, out, _ = run_cli(capsys, ["table", "--n-range", "5..7", "--format", "table"])
    assert code == 0
    assert "collision regime" in out
    assert "n-2,2" in out


def test_table_json_all_match(capsys):
    code, out, _ = run_cli(capsys, ["table", "--n-range", "6..9"])
    data = json.loads(out)
    assert data["all_match"] is True
    assert len(data["columns"]) == 4


def test_chartable_csv(capsys):
    code, out, _ = run_cli(capsys, ["chartable", "--n", "4", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("partition,")


def test_hoffman(capsys):
    code, out, _ = run_cli(capsys, ["hoffman", "--n", "6", "--t", "2"])
    data = json.loads(out)
    assert data["lambda_min"] == "-24"
    assert data["hoffman_value"] == "60"


def test_families_manifest_and_members(capsys):
    code, out, _ = run_cli(
        capsys,
        ["families", "--family", "F1", "--n", "8", "--verify-independence"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["size"] == "264"
    assert data["formula_match"] is True

    code, out, _ = run_cli(
        capsys, ["families", "--family", "2coset", "--n", "5", "--members"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert "id" in lines


def test_search(capsys):
    code, out, _ = run_cli(capsys, ["search", "--n", "4", "--t", "2", "--exact"])
    data = json.loads(out)
    assert data["independence_number"] == "8"
    assert data["witness_verified"] is True


@pytest.mark.parametrize("flags,budget", [([], 500_000), (["--exact"], None), (["--slow"], None)])
def test_search_node_budget_from_flags(capsys, monkeypatch, flags, budget):
    seen = []

    def fake_search_report(n, t, node_budget):
        seen.append(node_budget)
        return {"config": {}, "witness_verified": True}

    monkeypatch.setattr(reports, "search_report", fake_search_report)
    code, _, err = run_cli(capsys, ["search", "--n", "6", *flags])
    assert code == 0, err
    assert seen == [budget]


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_search_refuses_a_node_budget_below_one(monkeypatch, budget):
    # used to report independence_number 0, an empty witness and
    # witness_verified true
    monkeypatch.setattr(search, "graph_bitsets", lambda n, t: pytest.fail("built the graph"))
    with pytest.raises(ValueError, match=f"node budget must be at least 1 \\(got {budget}\\)"):
        reports.search_report(4, 2, int(budget))


@pytest.mark.parametrize("t", ["0", "5"])
def test_search_t_out_of_range_is_usage_error(capsys, t):
    code, out, err = run_cli(capsys, ["search", "--n", "4", "--t", t])
    assert code == 2
    assert out == ""
    assert "1 <= t <= n" in err


def test_wopt(capsys):
    code, out, _ = run_cli(capsys, ["wopt", "--n", "6", "--t", "2"])
    data = json.loads(out)
    assert data["certified"] is True
    assert data["bound"] == "48"


def test_wopt_with_a_failed_certificate_exits_1(capsys, monkeypatch):
    shift_dual(monkeypatch, 1)
    code, out, err = run_cli(capsys, ["wopt", "--n", "6"])
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure: dual check failed: column ")
    assert "Traceback" not in err


def test_wopt_without_generating_classes_is_usage_error(capsys):
    # no permutation of degree 5 has exactly 4 fixed points
    code, out, err = run_cli(capsys, ["wopt", "--n", "5", "--t", "5"])
    assert code == 2
    assert out == ""
    assert "no generating classes for n=5, t=5" in err


def test_reproduce_bundle(capsys):
    code, out, _ = run_cli(capsys, ["reproduce", "--n-range", "6..8"])
    assert code == 0
    data = json.loads(out)
    assert data["all_checks_pass"] is True
    assert int(data["checks_run"]) > 10


def test_reproduce_empty_range(capsys):
    # a reversed range would check nothing and pass vacuously
    for argv in (["reproduce", "--n-range", "9..8"], ["table", "--n-range", "12..6"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert "empty range" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["families", "--family", "nope", "--n", "8"])
    assert exc.value.code == 2


def test_value_error_maps_to_exit_2(capsys):
    code, _, err = run_cli(capsys, ["spectrum", "--n", "4", "--t", "9"])
    assert code == 2
    assert "error" in err


def assert_failed_check(capsys, argv, check):
    code, out, err = run_cli(capsys, argv.split())
    assert code == 1, err
    assert out == ""
    assert err.startswith("verification failure: ")
    assert check in err
    assert "Traceback" not in err


def test_verification_failure_maps_to_exit_1(capsys, monkeypatch):
    # the trace identity, checked inside full_spectrum for every caller
    monkeypatch.setattr(spectrum.Spectrum, "trace_identity_holds", lambda self: False)
    spectrum.full_spectrum.cache_clear()
    assert_failed_check(capsys, "spectrum --n 5", "spectrum trace identity failed for n=5, t=2")


def _break_oracle(monkeypatch):
    monkeypatch.setattr(spectrum, "_left_translation_invariant", lambda graph, n: False)


def _break_class_integrality(monkeypatch):
    mn = spectrum.mn_character
    monkeypatch.setattr(spectrum, "mn_character", lambda alpha, ctype: mn(alpha, ctype) + 1)
    spectrum.full_spectrum.cache_clear()


def _break_character_table(monkeypatch):
    monkeypatch.setattr(characters.CharacterTable, "verify_regular_character", lambda self: False)


def _break_closed_form(monkeypatch):
    closed = spectrum.closed_form_eigenvalue
    monkeypatch.setattr(
        spectrum, "closed_form_eigenvalue", lambda row, n: closed(row, n) + (row == "n-2,2")
    )


def _break_size_formula(monkeypatch):
    spec = families.FAMILIES["B"]._replace(size_formula=lambda n: 0)
    monkeypatch.setitem(families.FAMILIES, "B", spec)


def _break_search_certificate(monkeypatch):
    monkeypatch.setattr(search, "verify_certificate", lambda result: False)


def _break_reproduce_hoffman(monkeypatch):
    bound = bounds.bound_report
    monkeypatch.setattr(
        bounds,
        "bound_report",
        lambda n, t: bound(n, t)._replace(hoffman_value=Fraction(1)),
    )


# id -> (argv, the fault injected, or None for a real input, the check named)
FAILED_CHECKS = {
    "oracle": ("spectrum --n 4 --verify", _break_oracle, "does not commute with left translation"),
    "class_integrality": ("spectrum --n 6", _break_class_integrality, "(3, 3) is not integral"),
    "character_table": ("chartable --n 4", _break_character_table, "['regular_character']"),
    "closed_form": ("table --n-range 6", _break_closed_form, "character route: row n-2,2 at n=6"),
    "size_formula": ("families --family B --n 7", _break_size_formula, "family B size does not"),
    "search_certificate": ("search --n 4 --exact", _break_search_certificate, "witness failed"),
    "reproduce": ("reproduce --n-range 5", _break_reproduce_hoffman, "Hoffman bound at n=5"),
    # HM(t=2) is not 2-intersecting at n = 4
    "hm_n4": (
        "families --family HM --n 4 --t 2 --verify-independence",
        None,
        "family HM is not independent; witness ['(2 3)', '(1 3)']",
    ),
}


@pytest.mark.parametrize("case", FAILED_CHECKS)
def test_failed_check_exits_1(capsys, monkeypatch, case):
    # the oracle and class integrality used to exit 2, as input errors
    argv, inject, check = FAILED_CHECKS[case]
    if inject:
        inject(monkeypatch)
    assert_failed_check(capsys, argv, check)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["derangements", "--n", "6", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["d"] == "265"


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-such-dir", "a-directory"])
def test_unwritable_out_is_refused(tmp_path, capsys, target):
    # used to end in a FileNotFoundError or IsADirectoryError traceback, exit 1
    path = tmp_path / target
    code, out, err = run_cli(capsys, ["derangements", "--n", "5", "--out", str(path)])
    assert code == 2
    assert out == ""
    assert f"error: cannot write --out {path}: " in err
    assert "Traceback" not in err


def forbid_reports(monkeypatch, *names):
    """Replace report builders with stubs that fail the test if entered."""

    def entered(*args, **kwargs):
        pytest.fail("the costly route was entered before the cap check")

    for name in names:
        monkeypatch.setattr(reports, name, entered)


@pytest.mark.parametrize(
    "argv,message",
    [
        # vacuous passes: no pair agrees on exactly -1 or 8 points
        ("families --family B --n 8 --t 0 --verify-independence", "1 <= t <= n"),
        ("families --family B --n 8 --t 9 --verify-independence", "1 <= t <= n"),
        # used to build a family labelled HM(t=-1)
        ("families --family HM --n 6 --t -1", "1 <= t <= n"),
        # HM pins t = 1 point, so it enumerates 11! permutations
        ("families --family HM --n 12 --t 1", "capped at 10 by ENUMERATION_CAP (got 11)"),
        # used to build G4, then fail in its size formula
        ("families --family G4 --n 4", "family G4 needs n >= 5"),
        # used to build 40,320 permutations before the pairwise cap refused
        ("families --family B --n 10 --verify-independence", "capped at 12000 by PAIRWISE_CAP"),
        ("search --n 7 --t 2 --exact", "capped at 6 by EXHAUSTIVE_CAP"),
        ("search --n 7 --t 2 --slow", "capped at 6 by EXHAUSTIVE_CAP"),
        # still running after 45 s (t = 3 after about 9 minutes)
        ("search --n 6 --t 3 --exact", "t = 3 at n = 6 is refused by EXHAUSTIVE_CAP_SLOW_T"),
        ("search --n 6 --t 4 --slow", "t = 4 at n = 6 is refused by EXHAUSTIVE_CAP_SLOW_T"),
        ("search --n 8", "capped at 7 by GRAPH_CAP"),
        ("spectrum --n 35", "capped at 34 by SPECTRUM_CAP"),
        # used to compute the spectrum, then fail classing its rows 2-fat
        ("spectrum --n 2", "spectrum: need n >= 3"),
        ("spectrum --n 1", "spectrum: need n >= 3"),
        ("hoffman --n 35", "capped at 34 by SPECTRUM_CAP"),
        # t = n: used to compute the spectrum, then fail on its least eigenvalue 0
        ("hoffman --n 2", "the generating set is empty"),
        ("hoffman --n 3 --t 3", "the generating set is empty"),
        ("hoffman --n 4 --t 4", "no permutation of degree 4 has exactly 3 fixed points"),
        ("reproduce --n-range 6..35", "capped at 34 by SPECTRUM_CAP"),
        # used to compute the whole character spectrum first
        ("spectrum --n 8 --verify", "capped at 7 by GRAPH_CAP"),
        # 6.7-12 s of exact simplex
        ("wopt --n 13", "capped at 12 by WOPT_CAP"),
        ("wopt --n 13 --t 3", "capped at 12 by WOPT_CAP"),
        # a single column at n = 60 took 23 s
        ("table --n-range 6..41", "capped at 40 by TABLE_CAP"),
        ("table --n-range 60", "capped at 40 by TABLE_CAP"),
        # vacuous passes: exited 0 with all_match / all_checks_pass true after
        # comparing nothing
        ("table --n-range 5", "range '5' checks nothing: the first n checked is 6"),
        ("table --n-range 2..5", "range '2..5' checks nothing: the first n checked is 6"),
        ("reproduce --n-range 2..3", "range '2..3' checks nothing: the first n checked is 4"),
        # used to exit 0 with columns for the degrees -3 to 0
        ("table --n-range=-3..6 --format table", "range '-3..6' starts below 1"),
        ("reproduce --n-range=-3..4", "range '-3..4' starts below 1"),
        ("table --n-range=0..8", "range '0..8' starts below 1"),
        # used to exit 2 naming only int(): invalid literal for int() with base 10: ''
        ("table --n-range ..6", "--n-range '..6' is not of the form N or LO..HI"),
        ("table --n-range 6..x", "--n-range '6..x' is not of the form N or LO..HI"),
    ],
)
def test_oversized_input_is_refused_before_any_work(capsys, monkeypatch, argv, message):
    forbid_reports(
        monkeypatch,
        "family_report",
        "family_members_text",
        "search_report",
        "spectrum_report",
        "hoffman_report",
        "reproduce_report",
        "wopt_report",
        "table_report",
    )
    code, out, err = run_cli(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv,builder,args",
    [
        ("table --n-range 6..40", "table_report", (6, 40)),
        ("wopt --n 12", "wopt_report", (12, 2)),
        ("wopt --n 12 --t 3", "wopt_report", (12, 3)),
        ("hoffman --n 4 --t 3", "hoffman_report", (4, 3)),
        # the lowest lower end of an --n-range
        ("table --n-range 1..8", "table_report", (1, 8)),
        # the tree finishes in about 10 s
        ("search --n 6 --t 5 --exact", "search_report", (6, 5, None)),
        ("spectrum --n 34", "spectrum_report", (34, 2, False)),
        ("hoffman --n 34", "hoffman_report", (34, 2)),
        ("reproduce --n-range 6..34", "reproduce_report", (6, 34)),
    ],
)
def test_inputs_at_a_cap_are_let_through(capsys, monkeypatch, argv, builder, args):
    seen = []
    stub = {"config": {}, "all_match": True, "witness_verified": True}
    monkeypatch.setattr(reports, builder, lambda *a: seen.append(a) or stub)
    code, _, err = run_cli(capsys, argv.split())
    assert code == 0, err
    assert seen == [args]


# about 4 s in a fresh process
@pytest.mark.slow
def test_table_runs_up_to_its_cap(capsys):
    code, out, _ = run_cli(capsys, ["table", "--n-range", "6..40"])
    assert code == 0
    data = json.loads(out)
    assert data["all_match"] is True
    assert [c["n"] for c in data["columns"]] == [str(n) for n in range(6, 41)]


def test_families_cap_counts_the_points_the_family_pins(capsys, monkeypatch):
    # HM with t = 3 pins three points: n = 13 enumerates degree 10 cosets
    seen = []
    monkeypatch.setattr(
        reports, "family_members_text", lambda name, n, t: seen.append((name, n, t)) or ""
    )
    code, _, err = run_cli(capsys, ["families", "--family", "HM", "--n", "13", "--t", "3", "--members"])
    assert code == 0, err
    assert seen == [("HM", 13, 3)]


def test_derangements_refuses_a_huge_n_before_lgamma(capsys, monkeypatch):
    # used to fail inside math.lgamma with "int too large to convert to float"
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    forbid_reports(monkeypatch, "derangements_report")
    code, out, err = run_cli(capsys, ["derangements", "--n", "1" + "0" * 400])
    assert code == 2
    assert out == ""
    assert "has more than 4300 digits" in err


@pytest.mark.parametrize("limit", [640, 4300])
def test_derangements_refused_past_the_interpreter_digit_limit(capsys, monkeypatch, limit):
    # d_1559 has 4,303 digits, past the default limit of 4,300 for str(int);
    # the exact boundary is where d_n = n d_{n-1} + (-1)^n first reaches 10**limit
    first_too_long, d = 1, 0
    while d < 10**limit:
        first_too_long += 1
        d = first_too_long * d + (-1) ** first_too_long
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    forbid_reports(monkeypatch, "derangements_report")
    code, out, err = run_cli(capsys, ["derangements", "--n", str(first_too_long)])
    assert code == 2
    assert out == ""
    assert f"has more than {limit} digits" in err
    monkeypatch.setattr(reports, "derangements_report", lambda n: {"config": {}})
    code, _, err = run_cli(capsys, ["derangements", "--n", str(first_too_long - 1)])
    assert code == 0, err


@pytest.mark.parametrize("n", [10**30, 200_000, 16_001])
def test_derangements_capped_when_the_digit_limit_is_off(capsys, monkeypatch, n):
    # with the limit off, --n 200000 ran without bound and --n 10**30 failed
    # inside math.factorial with exit 1
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    forbid_reports(monkeypatch, "derangements_report")
    code, out, err = run_cli(capsys, ["derangements", "--n", str(n)])
    assert code == 2
    assert out == ""
    assert f"capped at 16000 by DERANGEMENT_CAP (got {n})" in err
    monkeypatch.setattr(reports, "derangements_report", lambda n: {"config": {}})
    code, _, err = run_cli(capsys, ["derangements", "--n", "16000"])
    assert code == 0, err


@pytest.mark.parametrize("family", ["2coset", "HM"])
def test_families_refuses_a_degree_past_the_int8_rows(capsys, monkeypatch, family):
    # the degree is refused first: sized first, the family failed inside
    # math.factorial, reported as a verification failure with exit 1
    forbid_reports(monkeypatch, "family_report", "family_members_text")
    argv = ["families", "--family", family, "--n", str(10**21)]
    code, out, err = run_cli(capsys, [*argv, "--verify-independence"])
    assert code == 2
    assert out == ""
    assert "capped at 127 by ROW_DEGREE_CAP, the int8 row limit" in err


def test_families_members_excludes_verify_independence(capsys, monkeypatch):
    # --members used to skip the check: HM at n = 4 printed three members and
    # exited 0, although the check alone fails with the witness (2 3), (1 3)
    forbid_reports(monkeypatch, "family_report", "family_members_text")
    argv = "families --family HM --n 4 --t 2 --members --verify-independence".split()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize(
    "argv,builder,message",
    [
        # printed JSON and exited 0 although no csv is written
        ("derangements --n 5 --format csv", "derangements_report", "invalid choice: 'csv'"),
        ("spectrum --n 5 --format table", "spectrum_report", "invalid choice: 'table'"),
    ],
)
def test_unwritten_format_is_refused_before_any_work(capsys, monkeypatch, argv, builder, message):
    forbid_reports(monkeypatch, builder)
    code, out, err = run_cli(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert message in err


def test_formats_stay_open_to_the_commands_that_write_them(capsys):
    code, out, _ = run_cli(capsys, ["chartable", "--n", "6", "--format", "csv"])
    assert code == 0
    assert out == reports.chartable_report(6)[1]
    code, out, _ = run_cli(capsys, ["table", "--n-range", "6..8", "--format", "table"])
    assert code == 0
    assert out == reports.table_text(reports.table_report(6, 8))


def test_small_ranges_that_check_something_still_run(capsys):
    code, out, err = run_cli(capsys, ["table", "--n-range", "3..8"])
    assert code == 0, err
    assert [c["n"] for c in json.loads(out)["columns"]] == [str(n) for n in range(3, 9)]
    code, out, err = run_cli(capsys, ["reproduce", "--n-range", "4..5"])
    assert code == 0, err
    data = json.loads(out)
    assert data["all_checks_pass"] is True
    assert int(data["checks_run"]) > 1


COMMON = [
    (("-h", "--help"), "help", argparse.SUPPRESS, None, False, None, None),
    (("--out",), "out", None, None, False, None, None),
    (("--seed",), "seed", 0, None, False, int, None),
]
JSON = (("--format",), "format", "json", ("json",), False, None, None)
N = (("--n",), "n", None, None, True, int, None)
T = (("--t",), "t", 2, None, False, int, None)
N_RANGE = (("--n-range",), "n_range", None, None, True, None, None)
FAMILY_NAMES = ("B", "F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4", "2coset", "HM")
# per command after the common options: (option strings, dest, default,
# choices, required, type, index of its mutually exclusive group)
PARSER = {
    "derangements": [JSON, N],
    "chartable": [(("--format",), "format", "json", ("json", "csv"), False, None, None), N],
    "spectrum": [JSON, N, T, (("--verify",), "verify", False, None, False, None, None)],
    "table": [(("--format",), "format", "json", ("json", "table"), False, None, None), N_RANGE],
    "hoffman": [JSON, N, T],
    "families": [
        JSON,
        (("--family",), "family", None, FAMILY_NAMES, True, None, None),
        N,
        T,
        (("--verify-independence",), "verify_independence", False, None, False, None, 0),
        (("--members",), "members", False, None, False, None, 0),
    ],
    "search": [
        JSON,
        N,
        T,
        (("--exact", "--slow"), "exact", False, None, False, None, None),
    ],
    "wopt": [JSON, N, T],
    "reproduce": [JSON, N_RANGE],
}


def test_parser_options_are_pinned():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    seen = {}
    for name, p in sub.choices.items():
        groups = {
            id(a): i for i, g in enumerate(p._mutually_exclusive_groups) for a in g._group_actions
        }
        seen[name] = [
            (tuple(a.option_strings), a.dest, a.default, a.choices, a.required, a.type,
             groups.get(id(a)))
            for a in p._actions
        ]
    assert list(seen) == list(PARSER)
    assert seen == {name: COMMON + rest for name, rest in PARSER.items()}
