"""Traced launcher: run one benchmark step with spans around every layer
boundary.

    python3 bench/launch.py --spans FILE --step-id ID [--library] -- ARGS...

The package must be importable (the runner puts the checkout's ``src`` on
PYTHONPATH).  The launcher wraps the boundaries from outside, then calls
``snspectra.cli.main(ARGS)``, or ``library_steps.main(ARGS)`` with
``--library``.  Spans stay in memory and are written to FILE when the step
ends, together with the cache statistics of the unwrapped recursions.  The
step's stdout is exactly what the untraced step prints.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import layers
from spans import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--step-id", required=True)
    parser.add_argument("--library", action="store_true")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    tracer = Tracer(opts.step_id)
    layers.instrument(tracer)
    if opts.library:
        import library_steps

        target = library_steps.main
    else:
        from snspectra import cli

        target = cli.main
    try:
        return target(args)
    finally:
        layers.read_caches(tracer.counters)
        tracer.dump(opts.spans)


if __name__ == "__main__":
    sys.exit(main())
