"""Spans recorded around calls into the package's layers, and their analysis.

A span is (name, start, end, parent, step id).  The tracer keeps spans in
flat arrays in memory and writes them once, when the traced process ends:
a one-line JSON header followed by the raw bytes of four arrays.  Self time
of a span is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Sequence

Counters = dict[str, float]
CounterHook = Callable[[Counters, tuple, dict, object], None]


class Tracer:
    def __init__(self, step_id: str):
        self.step_id = step_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counters = defaultdict(float)
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, hook: CounterHook | None = None) -> Callable:
        """A function that calls fn inside a span, then feeds the call's
        arguments and result to hook, if given."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        header = {
            "step": self.step_id,
            "names": self.names,
            "count": len(self.start),
            "counters": dict(self.counters),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def load(path: Path) -> dict:
    """Read a dump back: header keys plus the lists name, parent, start, end."""
    raw = Path(path).read_bytes()
    split = raw.index(b"\n")
    header = json.loads(raw[:split])
    count = header["count"]
    offset = split + 1
    for key, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
        arr = array(code)
        size = count * arr.itemsize
        arr.frombytes(raw[offset : offset + size])
        offset += size
        header[key] = arr
    return header


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself.  Children may overlap one another."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def by_name(trace: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time and call count per span name."""
    selfs = self_times(trace["start"], trace["end"], trace["parent"])
    names = trace["names"]
    time_by: dict[str, float] = defaultdict(float)
    count_by: dict[str, int] = defaultdict(int)
    for nid, s in zip(trace["name"], selfs):
        time_by[names[nid]] += s
        count_by[names[nid]] += 1
    return time_by, count_by
