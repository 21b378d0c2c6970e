"""Process execution, golden comparison and statistics for the benchmark.

Stdlib only.  Every step runs in a fresh interpreter that this module starts,
owns by pid, and reaps; a step that outlives its timeout is killed by that pid
and counted as failed.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


@dataclass(frozen=True)
class ProcessOutcome:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool


def run_process(
    argv: Sequence[str],
    *,
    env: dict[str, str],
    cwd: Path,
    stdout_path: Path,
    stderr_path: Path,
    timeout_s: float,
) -> ProcessOutcome:
    """Run argv to completion with stdout and stderr sent to files.

    Wall time runs from just before the spawn to the moment the child exits.
    CPU time and peak resident set come from the child's own rusage.  The
    child is waited for without being reaped first, so its pid cannot be
    reused while the timeout may still kill it.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd
        )
    lock = threading.Lock()
    exited = False
    timed_out = False

    def kill() -> None:
        nonlocal timed_out
        with lock:
            if not exited:
                timed_out = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout_s, 0.0), kill)
    timer.daemon = True
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited = True
    except BaseException:
        timer.cancel()
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)
                exited = True
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessOutcome(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        timed_out=timed_out,
    )


# ---------------------------------------------------------------------------
# Golden comparison.

SEED_PLACEHOLDER = "<seed>"


def normalize_seed(text: str, seed: int) -> str:
    """Replace the echoed seed, and only it, by a placeholder.

    Reports serialize integers as decimal strings, so the echo reads
    ``"seed": "<n>"``.  A report that echoes some other seed stays different.
    """
    return re.sub(rf'"seed": "{int(seed)}"', f'"seed": "{SEED_PLACEHOLDER}"', text)


def golden_mismatch(output: str, golden: str, seed: int) -> str | None:
    """None when output equals the golden copy up to the echoed seed, else a
    one-line description of the first difference."""
    got = normalize_seed(output, seed)
    if got == golden:
        return None
    got_lines = got.splitlines()
    want_lines = golden.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {i}: got {g.strip()[:80]!r}, golden {w.strip()[:80]!r}"
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, golden has {len(want_lines)}"
    return "differs from golden in line endings or trailing newline"


# ---------------------------------------------------------------------------
# Statistics.


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    data = list(values)
    if not data:
        raise ValueError("no values")
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def relative_spread(values: Iterable[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def fail_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no steps attempted")
    return failed / attempted


# ---------------------------------------------------------------------------
# Machine readings (read-only).


def read_loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def read_steal_ticks() -> int | None:
    """Steal ticks summed over all cpus, from the first line of /proc/stat."""
    try:
        first = Path("/proc/stat").read_text().splitlines()[0].split()
    except (OSError, IndexError):
        return None
    return int(first[8]) if first[0] == "cpu" and len(first) > 8 else None
