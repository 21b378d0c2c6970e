"""numpy loads when a command first uses it, not when the package is imported.

The character-route commands never touch it, so they start without it.
Each case runs in a fresh interpreter (this one has numpy loaded already)
and reports whether numpy's compiled core, ``numpy._core.multiarray``, is
in ``sys.modules`` once the command has finished."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, sys
from snspectra import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    if code != 0:
        sys.exit(f"exit code {code}")
print("numpy._core.multiarray" in sys.modules)
"""


def _fresh(code: str, *argv: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter on this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize(
    "command",
    [
        pytest.param("", id="import-snspectra.cli"),
        "derangements --n 8",
        "chartable --n 6",
        "table --n-range 6..8",
        "hoffman --n 6 --t 2",
        "spectrum --n 6 --t 2",
        "wopt --n 6 --t 2",
    ],
)
def test_character_routes_start_without_numpy(command):
    assert _fresh(PROBE, *command.split()) == "False"


@pytest.mark.parametrize("command", ["search --n 4 --t 2 --exact", "spectrum --n 4 --t 2 --verify"])
def test_explicit_graph_commands_load_numpy(command):
    assert _fresh(PROBE, *command.split()) == "True"


@pytest.mark.parametrize("order", ["numpy, snspectra.lazy", "snspectra.lazy, numpy"])
def test_one_numpy_whichever_is_imported_first(order):
    assert _fresh(f"import {order}; print(snspectra.lazy.np is numpy)") == "True"
