import json

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
    assert "warning" in json.loads(out)


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
