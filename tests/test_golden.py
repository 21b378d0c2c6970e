"""Byte-identity guard: every step of the benchmark, run in-process with
seed 0, prints exactly its golden copy in ``bench/golden`` (the echoed seed
read as ``<seed>``).  CLI steps go through ``cli.main``, library steps
through ``bench/library_steps.py``.  Files under ``bench`` are only read,
never written."""

import runpy
from pathlib import Path

import pytest

from snspectra import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

ALL_STEPS = runpy.run_path(str(BENCH / "workloads.py"))["all_steps"]()
STEPS = [s for s in ALL_STEPS.values() if not s.library]
LIBRARY_STEPS = [s for s in ALL_STEPS.values() if s.library]
# steps that take over about 3 s in-process
SLOW = {"spectrum-n22-t2", "wopt-n10-t2", "wopt-n10-t3", "search-n6-t2-slow"}


def _assert_golden(step_id, code, out):
    assert code == 0
    golden = (BENCH / "golden" / f"{step_id}.out").read_text()
    assert out.replace('"seed": "0"', '"seed": "<seed>"') == golden


@pytest.mark.parametrize(
    "step",
    [pytest.param(s, id=s.id, marks=[pytest.mark.slow] if s.id in SLOW else []) for s in STEPS],
)
def test_cli_output_matches_golden(step, capsys):
    code = cli.main([*step.args, "--seed", "0"])
    _assert_golden(step.id, code, capsys.readouterr().out)


@pytest.mark.parametrize("step", [pytest.param(s, id=s.id) for s in LIBRARY_STEPS])
def test_library_step_matches_golden(step, capsys):
    main = runpy.run_path(str(BENCH / "library_steps.py"))["main"]
    code = main([*step.args, "--seed", "0"])
    _assert_golden(step.id, code, capsys.readouterr().out)
