"""The benchmark's workloads: fixed step lists run one at a time, each step in
a fresh process, plus the facts pinned on their outputs.

Each workload is a closed loop with one client.  Every CLI step is passed
the workload seed as ``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Step:
    id: str  # also the golden file's name
    args: tuple[str, ...]  # CLI arguments, or a library step's name and arguments
    library: bool = False
    timeout_s: float = 60.0


def cli(step_id: str, line: str, timeout_s: float = 60.0) -> Step:
    return Step(step_id, tuple(line.split()), timeout_s=timeout_s)


# What a researcher runs: the README commands at README sizes plus the full
# character table at n = 9.  Heavy kernels only at toy size, so small-input
# overhead shows.
DESK = (
    cli("derangements-n8", "derangements --n 8"),
    cli("chartable-n6-csv", "chartable --n 6 --format csv"),
    cli("chartable-n9", "chartable --n 9"),
    cli("spectrum-n5-t2-verify", "spectrum --n 5 --t 2 --verify"),
    cli("table-6-12-text", "table --n-range 6..12 --format table"),
    cli("hoffman-n9-t2", "hoffman --n 9 --t 2"),
    cli("families-B-n9-verify", "families --family B --n 9 --verify-independence"),
    cli("families-2coset-n6-members", "families --family 2coset --n 6 --members"),
    cli("search-n5-t2-exact", "search --n 5 --t 2 --exact"),
    cli("wopt-n8-t3", "wopt --n 8 --t 3"),
    cli("reproduce-6-12", "reproduce --n-range 6..12"),
)

# The largest n the exact routes reach in seconds: sparse MN character
# columns without a full table, and the Fraction simplex.
FRONTIER = (
    cli("spectrum-n22-t2", "spectrum --n 22 --t 2"),
    cli("hoffman-n20-t3", "hoffman --n 20 --t 3"),
    cli("table-6-20", "table --n-range 6..20"),
    cli("wopt-n10-t2", "wopt --n 10 --t 2"),
    cli("wopt-n10-t3", "wopt --n 10 --t 3"),
)

# The explicit-graph path: bitset branch-and-bound, the dense oracle,
# O(|A|^2) projection masses and vectorised pairwise scans.
BRUTE = (
    cli("search-n6-t2-slow", "search --n 6 --t 2 --slow", timeout_s=90.0),
    cli("spectrum-n6-t2-verify", "spectrum --n 6 --t 2 --verify"),
    cli("families-B-n9-verify", "families --family B --n 9 --verify-independence"),
    cli("families-G1-n9-verify", "families --family G1 --n 9 --verify-independence"),
    Step("stability-B8", ("stability",), library=True),
)

# Two workloads, so that each run can be long enough to be steady on a
# shared machine: the frontier and brute-force step lists run as one.
WORKLOADS: dict[str, tuple[Step, ...]] = {"desk": DESK, "heavy": FRONTIER + BRUTE}

# The reference program (``reference.py``) that normalises each workload's
# times: one that resembles its steps, since small and large programs slow
# down by different factors in the same spell.
REFERENCE_SIZE = {"desk": "small", "heavy": "large"}


def all_steps() -> dict[str, Step]:
    steps: dict[str, Step] = {}
    for workload in WORKLOADS.values():
        for step in workload:
            if steps.setdefault(step.id, step) != step:
                raise ValueError(f"step id {step.id} names two different steps")
    return steps


# ---------------------------------------------------------------------------
# Pinned facts, checked on top of the golden comparison.  Each returns None
# when the fact holds, else what is wrong.

STABILITY_B8 = "589457/101606400"


def _search_48(report: dict) -> str | None:
    if report.get("independence_number") != "48" or report.get("exact") is not True:
        return "search n=6 must give alpha = 48 with exact: true"
    return None


def _certified(report: dict) -> str | None:
    return None if report.get("certified") is True else "wopt optimum not certified"


def _table_checks(report: dict) -> str | None:
    checks = report.get("checks") or {}
    if len(checks) != 4 or not all(v is True for v in checks.values()):
        return f"character table checks not all true: {checks}"
    return None


def _oracle_match(report: dict) -> str | None:
    if (report.get("oracle") or {}).get("match") is not True:
        return "spectrum does not match the brute-force oracle"
    return None


def _stability(report: dict) -> str | None:
    if report.get("distance_sq") != STABILITY_B8:
        return f"B_8 distance {report.get('distance_sq')}, expected {STABILITY_B8}"
    return None


PINNED: dict[str, Callable[[dict], str | None]] = {
    "search-n6-t2-slow": _search_48,
    "wopt-n8-t3": _certified,
    "wopt-n10-t2": _certified,
    "wopt-n10-t3": _certified,
    "chartable-n9": _table_checks,
    "spectrum-n5-t2-verify": _oracle_match,
    "spectrum-n6-t2-verify": _oracle_match,
    "stability-B8": _stability,
}


def pinned_fact_error(step_id: str, output: str) -> str | None:
    check = PINNED.get(step_id)
    if check is None:
        return None
    try:
        report = json.loads(output)
    except ValueError:
        return "output is not JSON"
    return check(report)
