import json
import sys

import pytest

from snspectra import cli, reports


def run_cli(capsys, argv):
    code = cli.main(argv)
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


def test_budgeted_search_passes_verification(capsys):
    # a search cut short by its budget claims independence, not maximality
    code, out, err = run_cli(capsys, ["search", "--n", "6", "--node-budget", "10"])
    assert code == 0, err
    data = json.loads(out)
    assert data["exact"] is False
    assert data["witness_verified"] is True
    assert int(data["upper_bound"]) >= int(data["independence_number"])


@pytest.mark.parametrize(
    "flags,budget",
    [([], 500_000), (["--exact"], None), (["--slow"], None), (["--node-budget", "7"], 7)],
)
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
def test_search_refuses_a_node_budget_below_one(capsys, budget):
    # used to exit 0 with independence_number 0, an empty witness and
    # witness_verified true
    code, out, err = run_cli(capsys, ["search", "--n", "4", "--node-budget", budget])
    assert code == 2
    assert out == ""
    assert f"node budget must be at least 1 (got {budget})" in err


def test_search_exact_with_node_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--n", "4", "--exact", "--node-budget", "10"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


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


def test_verification_failure_maps_to_exit_1(capsys, monkeypatch):
    def broken(n, t, verify, seed):
        return {"trace_check": "fail"}

    monkeypatch.setattr(reports, "spectrum_report", broken)
    code, _, err = run_cli(capsys, ["spectrum", "--n", "5"])
    assert code == 1
    assert "verification failure" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["derangements", "--n", "6", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["d"] == "265"


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
        ("families --family HM --n 12 --t 1", "capped at 10 by --cap (got 11)"),
        # used to build G4, then fail in its size formula
        ("families --family G4 --n 4", "family G4 needs n >= 5"),
        # used to build 40,320 permutations before the pairwise cap refused
        ("families --family B --n 10 --verify-independence", "capped at 12000 by PAIRWISE_CAP"),
        ("search --n 7 --t 2 --exact", "capped at 6 by EXHAUSTIVE_CAP"),
        ("search --n 7 --t 2 --slow", "capped at 6 by EXHAUSTIVE_CAP"),
        ("search --n 8 --node-budget 10", "capped at 7 by GRAPH_CAP"),
        ("spectrum --n 40", "capped at 26 by SPECTRUM_CAP"),
        ("hoffman --n 27", "capped at 26 by SPECTRUM_CAP"),
        ("reproduce --n-range 6..27", "capped at 26 by SPECTRUM_CAP"),
        # used to compute the whole character spectrum first
        ("spectrum --n 8 --verify", "capped at 7 by GRAPH_CAP"),
        # about 41 s of exact simplex
        ("wopt --n 13", "capped at 12 by WOPT_CAP"),
        ("wopt --n 13 --t 3", "capped at 12 by WOPT_CAP"),
        # a single column at n = 60 took 23 s
        ("table --n-range 6..41", "capped at 40 by TABLE_CAP"),
        ("table --n-range 60", "capped at 40 by TABLE_CAP"),
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
    ],
)
def test_inputs_at_a_cap_are_let_through(capsys, monkeypatch, argv, builder, args):
    seen = []
    stub = {"config": {}, "all_match": True, "certified": True}
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


@pytest.mark.parametrize(
    "argv,builder,message",
    [
        # printed JSON and exited 0 although no csv is written
        ("derangements --n 5 --format csv", "derangements_report", "written only by chartable"),
        ("spectrum --n 5 --format table", "spectrum_report", "written only by table"),
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
