"""Benchmark of the snspectra CLI: golden-checked sessions run end to end, and
a traced run that reports time and counts per layer.

    python3 bench/run.py --workload desk|heavy|all --seed N \\
        --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; the package is taken from its
``src`` directory.  Each step runs in a fresh interpreter, one at a time.
The step list runs over and over until S seconds have passed and every
step has run once, and each step's mean is used.  Every few seconds of step
time the run also times ``reference.py``, a fixed program sized like the
workload's steps, in a fresh interpreter; the end-to-end times are divided
by how much slower than nominal it ran, which cancels the slow and fast
spells of a shared machine.  Every output is compared with its
golden copy in ``bench/golden`` (ignoring only the echoed seed) and with the
pinned facts in ``workloads.py``; a mismatch, a nonzero exit or a timeout
fails the step.  With ``--trace 1`` each step also runs under
``launch.py`` and the per-layer metrics are reported instead of the
end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every step
passed, 1 when a step failed, 2 when the benchmark cannot run at all (for
example without ``src/snspectra``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import layers
import spans
from harness import (
    fail_ratio,
    golden_mismatch,
    median,
    read_loadavg,
    read_steal_ticks,
    run_process,
)
from workloads import REFERENCE_SIZE, WORKLOADS, Step, pinned_fact_error

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"

HARD_LIMIT_S = 160.0  # a single-workload run, set-up included, ends inside 180 s
# One probe (a reference run, a set-up sample) per this much step time, by
# reference size: probes take a quarter to a third of a run.
PROBE_EVERY_S = {"small": 2.5, "large": 3.0}
PROBES_MIN = 8  # topped up to at least this many per run

# About the references' wall times, and their start-up time (wall time minus
# the compute time they report), on the machine the baseline was taken on.
# Normalised figures are seconds of a machine that runs them in these times.
REFERENCE_S = {"small": 0.35, "large": 1.1}
REFERENCE_START_S = 0.2
REFERENCE_RESULTS = {"small": "229384/9 16052532010000.0", "large": "2293839/10 16052532010000.0"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    step: str
    traced: bool
    ok: bool
    reason: str | None
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    bytes_out: int
    layer: dict[str, float] | None = None


@dataclass
class WorkloadResult:
    name: str
    passes: int
    setup: list[float]
    reference_size: str = "small"
    reference: list[float] = field(default_factory=list)  # one just before each set-up sample
    reference_compute: list[float] = field(default_factory=list)  # the compute part of each
    samples: list[Sample] = field(default_factory=list)
    machine: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Runner:
    """Runs steps in fresh processes inside ``work`` and checks their output."""

    def __init__(
        self,
        root: Path,
        seed: int,
        work: Path,
        *,
        golden_dir: Path = GOLDEN_DIR,
    ):
        self.root = root
        self.seed = seed
        self.work = work
        self.golden_dir = golden_dir
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = child_env(root)
        self._count = 0

    def command(self, step: Step, spans_path: Path | None) -> list[str]:
        args = [*step.args, "--seed", str(self.seed)]
        if spans_path is not None:
            launch = [sys.executable, str(BENCH_DIR / "launch.py"), "--spans", str(spans_path)]
            launch += ["--step-id", step.id] + (["--library"] if step.library else [])
            return launch + ["--", *args]
        if step.library:
            return [sys.executable, str(BENCH_DIR / "library_steps.py"), *args]
        return [sys.executable, "-m", "snspectra.cli", *args]

    def check_package(self) -> None:
        """Refuse to run unless the package imports from this checkout."""
        if not (self.root / "src" / "snspectra" / "cli.py").is_file():
            raise SetupError(f"no src/snspectra/cli.py under {self.root}")
        probe = "import snspectra.cli, sys; sys.stdout.write(snspectra.cli.__file__)"
        found = subprocess.run(
            [sys.executable, "-c", probe], env=self.env, cwd=self.root,
            capture_output=True, text=True, timeout=60,
        )
        if found.returncode != 0:
            raise SetupError(f"cannot import snspectra.cli: {found.stderr.strip()[-300:]}")
        if Path(found.stdout).resolve().parent != (self.root / "src" / "snspectra").resolve():
            raise SetupError(f"snspectra imports from {found.stdout}, not this checkout")

    def measure_setup(self, samples: int) -> list[float]:
        """Wall times of fresh interpreters running ``import snspectra.cli``."""
        argv = [sys.executable, "-c", "import snspectra.cli"]
        out, err = self.work / "setup.out", self.work / "setup.err"
        times = []
        for _ in range(samples):
            outcome = run_process(
                argv, env=self.env, cwd=self.root, stdout_path=out, stderr_path=err, timeout_s=30
            )
            if outcome.returncode != 0:
                raise SetupError(f"import snspectra.cli failed: {err.read_text()[-300:]}")
            times.append(outcome.wall_s)
        return times

    def measure_reference(self, size: str) -> tuple[float, float]:
        """Wall time of a fresh interpreter running ``reference.py size``,
        and the compute part of it that the reference reports."""
        argv = [sys.executable, str(BENCH_DIR / "reference.py"), size]
        out, err = self.work / "reference.out", self.work / "reference.err"
        outcome = run_process(
            argv, env=self.env, cwd=self.root, stdout_path=out, stderr_path=err, timeout_s=30
        )
        lines = out.read_text().splitlines()
        if outcome.returncode != 0 or len(lines) != 2 or lines[0] != REFERENCE_RESULTS[size]:
            raise SetupError(f"reference.py {size} failed: {err.read_text()[-300:]}")
        return outcome.wall_s, float(lines[1].removeprefix("compute_s "))

    def run_step(self, step: Step, traced: bool) -> Sample:
        self._count += 1
        stem = self.work / f"{self._count:05d}-{step.id}"
        out, err = stem.with_suffix(".out"), stem.with_suffix(".err")
        spans_path = stem.with_suffix(".spans") if traced else None
        timeout = min(step.timeout_s, self.deadline - time.monotonic())
        if timeout <= 0:
            return Sample(step.id, traced, False, "no time left before the hard limit", 0.0, 0.0, 0, 0)
        outcome = run_process(
            self.command(step, spans_path), env=self.env, cwd=self.root,
            stdout_path=out, stderr_path=err, timeout_s=timeout,
        )
        sample = Sample(
            step.id, traced, True, None, outcome.wall_s, outcome.cpu_s,
            outcome.maxrss_kb, out.stat().st_size,
        )
        if outcome.timed_out:
            sample.reason = f"killed after the {timeout:.1f} s timeout"
        elif outcome.returncode != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            sample.reason = f"exit code {outcome.returncode}: {tail[0][:200]}"
        else:
            sample.reason = self._check_output(step, out.read_text())
        if sample.reason is None and traced:
            try:
                sample.layer = layers.step_metrics(spans.load(spans_path))
            except (OSError, ValueError, KeyError) as exc:
                sample.reason = f"unreadable spans: {exc}"
        sample.ok = sample.reason is None
        for path in (out, err, spans_path):
            if path is not None and path.exists():
                path.unlink()
        return sample

    def _check_output(self, step: Step, text: str) -> str | None:
        golden_path = self.golden_dir / f"{step.id}.out"
        if not golden_path.is_file():
            return f"no golden file {golden_path.name}"
        mismatch = golden_mismatch(text, golden_path.read_text(), self.seed)
        if mismatch is not None:
            return f"golden mismatch, {mismatch}"
        return pinned_fact_error(step.id, text)

    def run_workload(self, name: str, steps: tuple[Step, ...], seconds: float, trace: bool) -> WorkloadResult:
        """Run the steps in order, over and over, until ``seconds`` have
        passed and every step has run once.  Stops early at the end of a
        pass with a failure, or before a step could cross the hard limit.
        Before each step, take one probe (a reference run and a set-up
        sample) for every ``PROBE_EVERY_S`` of step time since the last
        probes, so that the probes see the machine's slow and fast spells
        in the same proportion as the steps do."""
        result = WorkloadResult(name, 0, [], REFERENCE_SIZE.get(name, "small"))
        result.machine["before"] = machine_reading()
        start = time.monotonic()
        every = PROBE_EVERY_S[result.reference_size]
        unprobed = every  # step time since the last probe
        longest = 0.0
        for i in itertools.count():
            now = time.monotonic()
            if i >= len(steps) and now - start >= seconds:
                break
            if (result.failed and i % len(steps) == 0) or now + 1.5 * longest > self.deadline:
                break
            due = int(unprobed // every)
            self.probe(result, due)
            unprobed -= due * every
            step_start = time.monotonic()
            step = steps[i % len(steps)]
            result.samples.append(self.run_step(step, traced=False))
            if trace:
                result.samples.append(self.run_step(step, traced=True))
            longest = max(longest, time.monotonic() - step_start)
            unprobed += time.monotonic() - step_start
            result.passes = (i + 1) // len(steps)
        self.probe(result, max(0, PROBES_MIN - len(result.reference)))
        result.machine["after"] = machine_reading()
        return result

    def probe(self, result: WorkloadResult, samples: int) -> None:
        for _ in range(samples):
            wall, compute = self.measure_reference(result.reference_size)
            result.reference.append(wall)
            result.reference_compute.append(compute)
            result.setup += self.measure_setup(1)


def machine_reading() -> dict:
    return {"loadavg": read_loadavg(), "steal_ticks": read_steal_ticks()}


# ---------------------------------------------------------------------------
# Metrics.


def _per_step(result: WorkloadResult, traced: bool) -> dict[str, list[Sample]]:
    out: dict[str, list[Sample]] = {}
    for s in result.samples:
        if s.traced == traced:
            out.setdefault(s.step, []).append(s)
    return out


def _step_wall(result: WorkloadResult) -> float:
    """Sum over steps of each untraced step's mean wall time."""
    return sum(statistics.fmean(s.wall_s for s in group) for group in _per_step(result, traced=False).values())


def trace_overhead(result: WorkloadResult) -> float:
    """Sum over steps of the median, over passes, of the traced run's wall
    time minus that of the untraced run just before it in the same pass."""
    untraced, traced = _per_step(result, traced=False), _per_step(result, traced=True)
    total = 0.0
    for step, runs in traced.items():
        pairs = [t.wall_s - u.wall_s for u, t in zip(untraced[step], runs) if u.ok and t.ok]
        if pairs:
            total += median(pairs)
    return total


def raw_figures(result: WorkloadResult) -> dict[str, float]:
    """The end-to-end times before normalisation, and the reference's mean."""
    return {
        "raw_wall_s": _step_wall(result),
        "raw_setup_s": median(result.setup),
        "reference_s": statistics.fmean(result.reference),
    }


def end_to_end(result: WorkloadResult) -> dict[str, float]:
    """Times in seconds of a machine that runs the references in
    ``REFERENCE_S``.  ``wall_s`` scales the summed step means by the mean
    of the reference runs, which sample the same stretch of time.
    ``setup_s`` is the median, over the set-up samples, of each one over
    the start-up part of the reference run just before it."""
    untraced = [s for s in result.samples if not s.traced]
    speed = statistics.fmean(result.reference) / REFERENCE_S[result.reference_size]
    starts = [w - c for w, c in zip(result.reference, result.reference_compute)]
    ratios = [s / r for s, r in zip(result.setup, starts)]
    return {
        "wall_s": _step_wall(result) / speed,
        "setup_s": median(ratios) * REFERENCE_START_S,
        "peak_rss_mb": max(s.maxrss_kb for s in untraced) / 1024,
    }


def per_layer(result: WorkloadResult) -> dict[str, float]:
    untraced = _per_step(result, traced=False)
    traced = _per_step(result, traced=True)
    totals = dict.fromkeys(layers.STEP_METRICS, 0.0)
    for group in traced.values():
        ok = [s.layer for s in group if s.layer is not None]
        if not ok:
            continue
        for key in totals:
            totals[key] += median(m[key] for m in ok)
    totals["cli.cpu_s"] = sum(median(s.cpu_s for s in g) for g in untraced.values())
    totals["cli.steps"] = float(len(untraced))
    totals["reports.bytes_out"] = sum(median(s.bytes_out for s in g) for g in untraced.values())
    totals["trace.overhead_s"] = trace_overhead(result)
    totals.update(layers.derived(totals))
    return {name: totals[name] for name, _, _ in layers.PER_LAYER}


def metrics_json(result: WorkloadResult, trace: bool) -> dict[str, dict]:
    if trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        values = per_layer(result)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(result)
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------
# Environment.


def environment(root: Path, env: dict[str, str], seed: int) -> dict:
    probe = (
        "import json, numpy\n"
        "cfg = numpy.show_config(mode='dicts')\n"
        "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version')}))\n"
    )
    info: dict = {}
    try:
        found = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=root, capture_output=True, text=True, timeout=60
        )
        info = json.loads(found.stdout) if found.returncode == 0 else {}
    except (subprocess.TimeoutExpired, ValueError):
        pass
    threads = {k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": info.get("numpy"),
        "blas": info.get("blas"),
        "blas_version": info.get("blas_version"),
        "blas_threads": threads if any(threads.values()) else "library default (at most nproc)",
        "git_commit": git_commit(root),
        "seed": seed,
    }


def git_commit(root: Path) -> str | None:
    try:
        found = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = found.stdout.split()
    if found.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


# ---------------------------------------------------------------------------


def describe(result: WorkloadResult, metrics: dict[str, dict]) -> list[str]:
    lines = [
        f"workload {result.name}: {result.passes} pass(es), {result.attempted} steps attempted, "
        f"{result.failed} failed, fail_ratio {fail_ratio(result.failed, result.attempted):.4f} ratio"
    ]
    for name, m in metrics.items():
        lines.append(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    if result.reference:
        for name, value in raw_figures(result).items():
            lines.append(f"  {name:28s} {value:14.6g} s  (not normalised)")
    for s in result.samples:
        if not s.ok:
            lines.append(f"  FAILED {s.step}{' (traced)' if s.traced else ''}: {s.reason}")
    return lines


def record(result: WorkloadResult, metrics: dict[str, dict], env: dict, seconds: float, trace: bool) -> dict:
    return {
        "workload": result.name,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "machine": result.machine,
        "passes": result.passes,
        "attempted": result.attempted,
        "failed": result.failed,
        "fail_ratio": fail_ratio(result.failed, result.attempted),
        "metrics": metrics,
        "raw": raw_figures(result),
        "setup_samples": result.setup,
        "reference_size": result.reference_size,
        "reference_samples": result.reference,
        "reference_compute_samples": result.reference_compute,
        "samples": [asdict(s) for s in result.samples],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # On SIGTERM unwind like on Ctrl-C, so that the running step is killed
    # and reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        runner = Runner(ROOT, args.seed, work)
        try:
            runner.check_package()
        except SetupError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        env = environment(ROOT, runner.env, args.seed)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records, summary = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            runner = Runner(ROOT, args.seed, work)
            try:
                result = runner.run_workload(name, WORKLOADS[name], args.seconds, trace)
            except SetupError as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 2
            metrics = metrics_json(result, trace)
            print("\n".join(describe(result, metrics)), flush=True)
            records.append(record(result, metrics, env, args.seconds, trace))
            summary["attempted"] += result.attempted
            summary["failed"] += result.failed
            prefix = f"{name}." if len(names) > 1 else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
        summary["correct"] = summary["failed"] == 0
        if args.out:
            args.out.write_text(json.dumps(records if len(records) > 1 else records[0], indent=2) + "\n")
        print(json.dumps(summary), flush=True)
        return 0 if summary["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
