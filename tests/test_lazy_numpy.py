"""numpy loads when a command first uses it, not when the package is imported,
and a command imports only the package modules it runs.

The character-route commands never touch numpy, so they start without it,
and without ``dataclasses`` and the ``inspect`` it imports: the package's
records are NamedTuples and ``__slots__`` classes.  Each case runs in a
fresh interpreter (this one has numpy loaded already) and reports whether
numpy's compiled core, ``numpy._core.multiarray``, is in ``sys.modules``
once the command has finished, which ``snspectra`` modules are, and which
of ``dataclasses`` and ``inspect``.  With no bytecode written, each module
a command imports is compiled from source at every run."""

import ast
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
print(*sorted(m.removeprefix("snspectra.") for m in sys.modules if m.startswith("snspectra.")))
print(*[m for m in ("dataclasses", "inspect") if m in sys.modules])
"""

# what importing the CLI loads: the parser reads the family registry
START = {"cli", "families", "lazy", "perms", "reports"}
CHARACTERS = START | {"characters", "partitions"}
SPECTRUM = CHARACTERS | {"spectrum"}
BOUNDS = SPECTRUM | {"bounds"}

# command -> the package modules loaded once it has run
LOADS = {
    "": START,
    "derangements --n 8": START,
    "chartable --n 6": CHARACTERS,
    "table --n-range 6..8": SPECTRUM,
    "hoffman --n 6 --t 2": BOUNDS,
    "spectrum --n 6 --t 2": SPECTRUM,
    "wopt --n 6 --t 2": BOUNDS | {"weightopt"},
    # the tree is exhausted, so no weighted bound, no character route and no
    # LP is needed
    "search --n 4 --t 2 --exact": START | {"search"},
    "spectrum --n 4 --t 2 --verify": SPECTRUM,
}


def _probe(command: str) -> tuple[str, set[str], set[str]]:
    """Whether ``command`` loaded numpy, the package modules it loaded, and
    which of ``dataclasses`` and ``inspect`` it loaded."""
    numpy_loaded, modules, stdlib = _fresh(PROBE, *command.split()).split("\n")
    return numpy_loaded, set(modules.split()), set(stdlib.split())


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
    return done.stdout.removesuffix("\n")


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
    assert _probe(command) == ("False", LOADS[command], set())


@pytest.mark.parametrize("command", ["search --n 4 --t 2 --exact", "spectrum --n 4 --t 2 --verify"])
def test_explicit_graph_commands_load_numpy(command):
    # numpy imports inspect itself
    assert _probe(command)[:2] == ("True", LOADS[command])


def test_no_package_module_imports_dataclasses():
    imports = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "snspectra").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert imports == []


@pytest.mark.parametrize("order", ["numpy, snspectra.lazy", "snspectra.lazy, numpy"])
def test_one_numpy_whichever_is_imported_first(order):
    assert _fresh(f"import {order}; print(snspectra.lazy.np is numpy)") == "True"
