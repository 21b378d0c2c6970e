"""Self-tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py

The launcher test imports the package from the checkout's ``src``; the
others run without it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

import harness
import layers
import run
import spans
from workloads import REFERENCE_SIZE, WORKLOADS, Step, all_steps, pinned_fact_error

BENCH_DIR = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# Self time.


def test_self_time_nested_spans():
    # root [0,10] > a [1,4] > b [2,3]; root > c [6,8]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 4.0, 3.0, 8.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_overlapping_children_count_once():
    # children [1,4] and [3,6] overlap on [3,4]; [5,5.5] lies inside the
    # union; [9,12] sticks out of the parent and is clipped to [9,10]
    start = [0.0, 1.0, 3.0, 5.0, 9.0]
    end = [10.0, 4.0, 6.0, 5.5, 12.0]
    parent = [-1, 0, 0, 0, 0]
    selfs = spans.self_times(start, end, parent)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1:] == pytest.approx([3.0, 3.0, 0.5, 3.0])


def test_self_time_child_order_does_not_matter():
    start = [0.0, 5.0, 1.0]
    end = [10.0, 7.0, 6.0]
    parent = [-1, 0, 0]
    assert spans.self_times(start, end, parent)[0] == pytest.approx(4.0)


def test_tracer_round_trip_and_step_metrics(tmp_path):
    tracer = spans.Tracer("synthetic")

    def leaf(x):
        time.sleep(0.002)
        return x

    traced_leaf = tracer.wrap("characters.mn_character", leaf)

    def outer(n):
        return sum(traced_leaf(i) for i in range(n))

    traced_outer = tracer.wrap("spectrum.eigenvalue", outer)
    assert traced_outer(3) == 3
    assert traced_outer.__wrapped__ is outer
    tracer.counters["search.nodes"] += 7
    path = tmp_path / "t.spans"
    tracer.dump(path)
    trace = spans.load(path)
    assert trace["step"] == "synthetic"
    assert list(trace["parent"]) == [-1, 0, 0, 0]
    metrics = layers.step_metrics(trace)
    assert metrics["spectrum.rows"] == 1
    assert metrics["search.nodes"] == 7
    assert metrics["characters.mn_s"] >= 0.006
    total = trace["end"][0] - trace["start"][0]
    assert metrics["spectrum.eigen_s"] + metrics["characters.mn_s"] == pytest.approx(total)


# ---------------------------------------------------------------------------
# Median and quartiles.


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = harness.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == harness.median(values)
    assert harness.relative_spread(values) == pytest.approx((q3 - q1) / q2)


def test_quartiles_of_one_value():
    assert harness.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert harness.relative_spread([2.5]) == 0.0
    with pytest.raises(ValueError):
        harness.quartiles([])


# ---------------------------------------------------------------------------
# Golden comparison.

GOLDEN = '{\n  "config": {\n    "n": "8",\n    "seed": "<seed>"\n  },\n  "d": "14833"\n}\n'


def test_golden_ignores_only_the_echoed_seed():
    out = GOLDEN.replace("<seed>", "17")
    assert harness.golden_mismatch(out, GOLDEN, 17) is None


def test_golden_catches_a_wrong_seed_echo():
    out = GOLDEN.replace("<seed>", "18")
    assert "line 4" in harness.golden_mismatch(out, GOLDEN, 17)


def test_golden_catches_changed_values_and_trailing_bytes():
    out = GOLDEN.replace("<seed>", "1")
    assert "line 6" in harness.golden_mismatch(out.replace("14833", "14832"), GOLDEN, 1)
    assert harness.golden_mismatch(out + "\n", GOLDEN, 1) is not None
    assert harness.golden_mismatch(out.rstrip("\n"), GOLDEN, 1) is not None


def test_pinned_facts():
    assert pinned_fact_error("stability-B8", json.dumps({"distance_sq": "589457/101606400"})) is None
    assert pinned_fact_error("stability-B8", json.dumps({"distance_sq": "1/2"})) is not None
    assert pinned_fact_error("search-n6-t2-slow", json.dumps({"independence_number": "48", "exact": False}))
    assert pinned_fact_error("wopt-n8-t3", json.dumps({"certified": False}))
    assert pinned_fact_error("derangements-n8", "not json") is None


# ---------------------------------------------------------------------------
# Timeouts and fail_ratio.


def test_timeout_kills_the_child(tmp_path):
    t0 = time.monotonic()
    outcome = harness.run_process(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        env={}, cwd=tmp_path, stdout_path=tmp_path / "o", stderr_path=tmp_path / "e",
        timeout_s=0.5,
    )
    assert outcome.timed_out
    assert outcome.returncode != 0
    assert time.monotonic() - t0 < 10


class FakeRunner(run.Runner):
    """Runs tiny python one-liners instead of the package's steps."""

    SCRIPTS = {
        "ok": "print('hello')",
        "wrong": "print('goodbye')",
        "crash": "import sys; sys.exit(3)",
        "hang": "import time; time.sleep(30)",
    }

    def command(self, step, spans_path):
        return [sys.executable, "-c", self.SCRIPTS[step.args[0]]]

    def measure_setup(self, samples):
        return [0.1] * samples

    def measure_reference(self, size):
        # A machine twice as slow as the nominal one, in start-up and compute.
        wall = 2 * run.REFERENCE_S[size]
        return wall, wall - 2 * run.REFERENCE_START_S


def _runner(tmp_path):
    golden = tmp_path / "golden"
    golden.mkdir()
    for name in ("ok", "wrong", "crash", "hang"):
        (golden / f"{name}.out").write_text("hello\n")
    work = tmp_path / "work"
    work.mkdir()
    return FakeRunner(run.ROOT, 5, work, golden_dir=golden)


def test_fail_ratio_counts_timeouts_and_mismatches(tmp_path):
    steps = (
        Step("ok", ("ok",)),
        Step("wrong", ("wrong",)),
        Step("crash", ("crash",)),
        Step("hang", ("hang",), timeout_s=0.5),
    )
    result = _runner(tmp_path).run_workload("fake", steps, seconds=0.0, trace=False)
    assert result.passes == 1
    assert (result.attempted, result.failed) == (4, 3)
    assert harness.fail_ratio(result.failed, result.attempted) == 0.75
    reasons = {s.step: s.reason for s in result.samples}
    assert reasons["ok"] is None
    assert reasons["wrong"].startswith("golden mismatch")
    assert reasons["crash"].startswith("exit code 3")
    assert "timeout" in reasons["hang"]


def test_all_passing_gives_zero_fail_ratio(tmp_path):
    steps = (Step("ok", ("ok",)),)
    result = _runner(tmp_path).run_workload("fake", steps, seconds=0.0, trace=False)
    assert harness.fail_ratio(result.failed, result.attempted) == 0.0
    metrics = run.end_to_end(result)
    # The reference ran twice as slow as its nominal figures, so times halve.
    assert metrics["wall_s"] == pytest.approx(run.raw_figures(result)["raw_wall_s"] / 2)
    assert metrics["setup_s"] == pytest.approx(0.05)
    assert len(result.reference) == len(result.setup) >= run.PROBES_MIN
    with pytest.raises(ValueError):
        harness.fail_ratio(0, 0)


def test_trace_overhead_pairs_runs_of_one_pass():
    result = run.WorkloadResult("fake", 3, [0.1])
    # Each pass runs a step plain, then traced; the machine slows in pass 2.
    for plain, traced in ((1.0, 1.2), (3.0, 3.3), (1.1, 1.3)):
        result.samples.append(run.Sample("a", False, True, None, plain, 0.0, 0, 0))
        result.samples.append(run.Sample("a", True, True, None, traced, 0.0, 0, 0))
    result.samples.append(run.Sample("b", False, True, None, 1.0, 0.0, 0, 0))
    result.samples.append(run.Sample("b", True, False, "boom", 9.0, 0.0, 0, 0))
    assert run.trace_overhead(result) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code.


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(run.END_TO_END_UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_launcher_traces_a_cli_step(tmp_path):
    spans_path = tmp_path / "t.spans"
    outcome = harness.run_process(
        [sys.executable, str(BENCH_DIR / "launch.py"), "--spans", str(spans_path),
         "--step-id", "hoffman", "--", "hoffman", "--n", "6", "--t", "2"],
        env=run.child_env(run.ROOT), cwd=run.ROOT,
        stdout_path=tmp_path / "o", stderr_path=tmp_path / "e", timeout_s=60,
    )
    assert outcome.returncode == 0, (tmp_path / "e").read_text()
    trace = spans.load(spans_path)
    names = {trace["names"][i] for i in trace["name"]}
    assert {"cli.main", "reports.hoffman_report", "bounds.bound_report",
            "spectrum.full_spectrum", "characters.mn_character", "reports.to_json"} <= names
    metrics = layers.step_metrics(trace)
    assert metrics["spectrum.rows"] == 11  # one eigenvalue per partition of 6
    assert metrics["characters.mn_misses"] > 0
    assert json.loads((tmp_path / "o").read_text())["command"] == "hoffman"


def test_every_step_has_a_golden_copy():
    for step_id in all_steps():
        assert (BENCH_DIR / "golden" / f"{step_id}.out").is_file(), step_id


@pytest.mark.parametrize("size", ["small", "large"])
def test_reference_prints_its_fixed_output(tmp_path, size):
    outcome = harness.run_process(
        [sys.executable, str(BENCH_DIR / "reference.py"), size], env=run.child_env(run.ROOT),
        cwd=run.ROOT, stdout_path=tmp_path / "o", stderr_path=tmp_path / "e", timeout_s=60,
    )
    assert outcome.returncode == 0, (tmp_path / "e").read_text()
    result, compute = (tmp_path / "o").read_text().splitlines()
    assert result == run.REFERENCE_RESULTS[size]
    assert 0 < float(compute.removeprefix("compute_s ")) < outcome.wall_s


def test_every_workload_has_a_reference():
    assert set(REFERENCE_SIZE) == set(WORKLOADS)
    assert set(REFERENCE_SIZE.values()) <= set(run.REFERENCE_S)
