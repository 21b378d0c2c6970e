"""Byte-identity guard: every CLI step of the benchmark, run in-process with
seed 0, prints exactly its golden copy in ``bench/golden`` (the echoed seed
read as ``<seed>``).  The golden files are only read, never written."""

import runpy
from pathlib import Path

import pytest

from snspectra import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

ALL_STEPS = runpy.run_path(str(BENCH / "workloads.py"))["all_steps"]()
STEPS = [s for s in ALL_STEPS.values() if not s.library]
# steps that take over about 3 s in-process
SLOW = {"spectrum-n22-t2", "wopt-n10-t2", "wopt-n10-t3", "search-n6-t2-slow"}


@pytest.mark.parametrize(
    "step",
    [pytest.param(s, id=s.id, marks=[pytest.mark.slow] if s.id in SLOW else []) for s in STEPS],
)
def test_cli_output_matches_golden(step, capsys):
    code = cli.main([*step.args, "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    golden = (BENCH / "golden" / f"{step.id}.out").read_text()
    assert out.replace('"seed": "0"', '"seed": "<seed>"') == golden
