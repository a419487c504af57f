"""Benchmark for the cayleycolour command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: it imports the package from the
checkout's ``src/`` and nothing else.  Workloads are defined in
``workloads.py``; metric names, units and bounds in ``BENCHMARK.json``.

``--trace 0`` times fresh CLI processes one after another (a closed loop
with one client) for ``S`` seconds, at least three of them, and reports
their median CPU time (user + system), the median peak resident memory of
a single process, the median set-up time of separate import-and-parse
probes and the share of runs that passed the result gate (``gate.py``).

``--trace 1`` repeats rounds of one untraced CLI process and one traced
process (``tracer.py``) for ``S`` seconds, at least one round, and reports
the median per-layer metrics, the tracing cost and, for ``pdeg``, the
speed-up of two workers over one from an extra untraced ``--workers 2``
process whose result must equal the one-worker result.  Tracing cost and
speed-up are medians of per-round differences and ratios.

The second-to-last stdout line holds provenance, sample counts, gate
failures and, untraced, the median wall time of the CLI processes
(``wall_s``) or, traced, the per-round values behind the paired medians.
The last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracer
from gate import expected_digest, judge, load_references
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
PROGRAM = SRC / "cayleycolour" / "cli.py"

MIN_RUNS = 3  # per median, even when that overruns --seconds
SETUP_PROBES = 9  # at least; after one untimed probe that fills the bytecode cache
HARD_LIMIT_S = 150.0  # no new process after this; a run must end within 180 s

# Set-up probe: the CLI's imports and argument parsing, then a timestamp on
# the system-wide monotonic clock, which the parent also reads.
PROBE = (
    "import sys, time\n"
    "import cayleycolour.cli as cli\n"
    "cli.build_parser().parse_args(sys.argv[1:])\n"
    "done = time.monotonic_ns()\n"
    "import numpy\n"
    "print(done, cli.__file__, numpy.__version__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAYLEYCOLOUR_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class Finished:
    returncode: int
    stdout: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(argv: list[str], timeout: float, env: dict[str, str]) -> Finished:
    """Run one process to completion; wall time from spawn to exit, and
    that process's own CPU time (user + system) and peak resident set size."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    chunks: list[bytes] = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    cpu = usage.ru_utime + usage.ru_stime
    # ru_maxrss is in KiB on Linux.
    return Finished(proc.returncode, chunks[0].decode(errors="replace"), wall, cpu, usage.ru_maxrss / 1024)


class Session:
    """One benchmark run: spawns processes and keeps the gate's tally."""

    def __init__(self, workload: Workload, seed: int, references: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.expected = expected_digest(references, workload, seed)
        self.reference = "recorded" if self.expected else "first passing run"
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.env = child_env()
        self.started = time.perf_counter()

    def timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))

    def more(self, durations: list[float], since: float, seconds: float, minimum: int) -> bool:
        """Whether to start another process (or round) of about the median
        duration so far."""
        now = time.perf_counter()
        predicted = statistics.median(durations) if durations else 0.0
        if now - self.started + predicted > HARD_LIMIT_S:
            return False
        return len(durations) < minimum or now - since + predicted <= seconds

    def _gate(self, returncode: int, stdout: str) -> bool:
        self.attempted += 1
        verdict = judge(self.workload, self.seed, returncode, stdout, self.expected)
        if not verdict.passed:
            self.failed += 1
            self.failures[verdict.failure] += 1
        elif self.expected is None:
            self.expected = verdict.digest  # later runs must agree with it
        return verdict.passed

    def probe(self) -> tuple[float, str]:
        """Set-up seconds of one import-and-parse probe, and numpy's version."""
        start = time.monotonic_ns()
        finished = spawn(
            [sys.executable, "-c", PROBE, *self.workload.argv(self.seed)], self.timeout(), self.env
        )
        fields = finished.stdout.split()
        if finished.returncode != 0 or len(fields) != 3:
            raise BenchError(f"set-up probe failed with exit status {finished.returncode}")
        done, module, numpy_version = fields
        if Path(module).resolve() != PROGRAM.resolve():
            raise BenchError(f"imported {module}, not {PROGRAM}")
        return (int(done) - start) * 1e-9, numpy_version

    def cli(self, workers: int | None = None) -> Finished:
        argv = [sys.executable, "-m", "cayleycolour.cli", *self.workload.argv(self.seed, workers)]
        finished = spawn(argv, self.timeout(), self.env)
        self._gate(finished.returncode, finished.stdout)
        return finished

    def traced(self) -> tuple[Finished, dict | None]:
        argv = [sys.executable, str(Path(tracer.__file__).resolve()), *self.workload.argv(self.seed)]
        finished = spawn(argv, self.timeout(), self.env)
        try:
            payload = json.loads(finished.stdout) if finished.returncode == 0 else None
        except json.JSONDecodeError:
            payload = None
        if payload is None:
            self._gate(finished.returncode, "")
            return finished, None
        passed = self._gate(payload["exit"], payload["stdout"])
        return finished, tracer.layer_metrics(payload, finished.wall_s) if passed else None


def measure_untraced(session: Session, seconds: float) -> tuple[dict[str, float], dict]:
    # Probes alternate with CLI runs, so that they sample the same stretch of
    # machine load; short workloads take more of them.
    setups: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    rss: list[float] = []
    rounds: list[float] = []
    since = time.perf_counter()
    while session.more(rounds, since, seconds, MIN_RUNS):
        started = time.perf_counter()
        setups.append(session.probe()[0])
        finished = session.cli()
        walls.append(finished.wall_s)
        cpus.append(finished.cpu_s)
        rss.append(finished.peak_rss_mb)
        rounds.append(time.perf_counter() - started)
    while len(setups) < SETUP_PROBES:
        setups.append(session.probe()[0])
    metrics = {
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "pass_rate": 1 - session.failed / session.attempted,
    }
    samples = {"cpu_s": len(cpus), "peak_rss_mb": len(rss), "setup_s": len(setups), "pass_rate": session.attempted}
    # The bounded time is CPU time: on a shared virtual machine the hypervisor
    # keeps the process off the CPU for a varying share of its wall time (up
    # to 45% of one pdeg run on two vCPUs), which no change to the program
    # can move.  Wall time goes to the details line.
    return metrics, {"samples": samples, "wall_s": statistics.median(walls)}


# Per-layer metrics that come from wall times rather than from the trace.
TRACE_DERIVED = ("trace.wall_s", "trace.overhead_s", "cli.pdeg_speedup_2w")


def measure_traced(session: Session, seconds: float, names: list[str]) -> tuple[dict[str, float], dict]:
    # Wall-time differences and ratios are taken within a round, whose
    # processes run back to back, so that drift in host speed between rounds
    # cancels; the per-round values go to the details line.
    traced: list[float] = []
    overheads: list[float] = []
    speedups: list[float] = []
    layers: list[dict[str, float]] = []
    rounds: list[float] = []
    pooled = "--workers" in session.workload.args
    since = time.perf_counter()
    while session.more(rounds, since, seconds, 1):
        started = time.perf_counter()
        plain = session.cli().wall_s
        finished, metrics = session.traced()
        traced.append(finished.wall_s)
        overheads.append(finished.wall_s - plain)
        if metrics is not None:
            layers.append(metrics)
        if pooled:
            speedups.append(plain / session.cli(workers=2).wall_s)
        rounds.append(time.perf_counter() - started)
    derived = {
        "trace.wall_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(overheads),
        "cli.pdeg_speedup_2w": statistics.median(speedups) if speedups else 0.0,
    }
    result = {}
    for name in names:
        if name in derived:
            result[name] = derived[name]
        else:
            result[name] = statistics.median(m[name] for m in layers) if layers else 0.0
    per_round = {"trace.overhead_s": overheads}
    if speedups:
        per_round["cli.pdeg_speedup_2w"] = speedups
    return result, {"samples": {"rounds": len(rounds), "layers": len(layers)}, "per_round": per_round}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never a parent's."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def provenance(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    try:
        if not PROGRAM.is_file():
            raise BenchError(f"no program at {PROGRAM}")
        spec = json.loads(SPEC.read_text())
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        session = Session(WORKLOADS[args.workload], args.seed, load_references())
        _, numpy_version = session.probe()  # untimed: fills the bytecode cache
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            metrics, measured = measure_traced(session, args.seconds, names)
        else:
            metrics, measured = measure_untraced(session, args.seconds)
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "reference": session.reference,
        "digest": session.expected,
        "failures": dict(session.failures),
        "provenance": provenance(args.seed, numpy_version),
        **measured,
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
