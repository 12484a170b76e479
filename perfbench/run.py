"""Benchmark of the dyckfrieze package: one workload per invocation.

    python3 perfbench/run.py --workload {sweep,forward,inverse} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  It runs every workload in fresh interpreters, so no
``lru_cache`` table carries over between workloads or runs, and it never
imports the package itself.  See ``workloads.py`` for the workloads.

Untraced (``--trace 0``) it reports the end-to-end metrics.  Their
times are given at the reference speed (``reference.py``): each measured
time is multiplied by ``REFERENCE_S`` over the median time of a fixed
pure-Python loop timed alongside it, which cancels most of the host's
speed drift.  The run record keeps the times as measured.

- ``setup_s``: median time a fresh interpreter takes to import the
  package (and ``dyckfrieze.cli`` for ``sweep``), over several probe
  processes; each probe times the reference just before and after its
  import.  Lazy work on the first call counts in the request.
- ``wall_s``: median over rounds of one round's time.  For ``sweep`` a
  round is one ``dyckfrieze.cli verify --n 8`` process from start to exit,
  run as ``python -m`` does by ``sampled.py``, which times the reference
  ten times a second; the time spent on it is taken off.  Otherwise it is
  the time of the round's request loop, with the reference timed after
  each request.
- ``p50_ms``, ``p99_ms``: request latency over all rounds of the run
  (a ``sweep`` request is one whole CLI process).
- ``peak_rss_mb``: median over processes of the peak resident memory of
  the process that serves the requests.

Rounds repeat while another one as long as the last still ends within
``--seconds``.  ``forward`` runs them in one long-lived process; ``sweep``
and ``inverse`` start a fresh process per round.  Traced (``--trace 1``)
it runs pairs of fresh processes on the same round's inputs, one untraced
and one with spans around each call into the package (``spans.py``), in
the same time, and reports per-layer calls and self times per round, plus
the trace's cost.

Every request is checked; ``attempted`` and ``failed`` count requests, and
their ratio is the failure rate.  The last line of stdout is the result
object; the line before it records the seed, the CPU, the interpreter
and the source version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
from sampled import MARKER
from spans import ROOT, TRACED
from workloads import WORKLOADS, Forward, Sweep, name_of, to_job

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

SETUP_PROBES = 15
# After this long a run starts no process and kills the one running, so
# it ends within 180 s even if the program hangs.
DEADLINE_S = 150.0

# Loads the reference from this directory, then takes it off the path,
# so that the timed import finds the same modules loaded and searches the
# same path as without it.
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, {here!r})\n"
    "import reference\n"
    "del sys.path[0]\n"
    "speed = [reference.sample() for _ in range({half})]\n"
    "t = time.perf_counter()\n"
    "import {modules}\n"
    "took = time.perf_counter() - t\n"
    "speed += [reference.sample() for _ in range({half})]\n"
    "print(took, *speed)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, functions in TRACED.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
    units[f"{ROOT}.self_s"] = "s"
    units["diamond.minimal_cycle.distinct_ratio"] = "ratio"
    units["enumeration.enumerate_all.cache_hit_ratio"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    """The benchmark could not measure anything."""


@dataclass
class Child:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mb: float
    timed_out: bool


def run_child(cmd: list[str], env: dict, deadline: float) -> Child:
    """Run ``cmd`` to completion; kill it if it passes ``deadline``.

    ``os.wait4`` reaps the child and returns its resource usage, which
    carries its peak resident memory.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err = [], []
    readers = [
        threading.Thread(target=lambda s=s, b=b: b.append(s.read()))
        for s, b in ((proc.stdout, out), (proc.stderr, err))
    ]
    for r in readers:
        r.start()
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["killed"] = True
                proc.kill()

    timer = threading.Timer(max(deadline - perf_counter(), 0.0), kill)
    timer.start()
    # WNOWAIT leaves the child unreaped, so its pid cannot be reused
    # before the timer is disarmed.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    wall = perf_counter() - start
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        proc.returncode, out[0], err[0], wall, usage.ru_maxrss / 1024, state["killed"]
    )


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    # Import from cached bytecode, as an installed package does, whatever
    # the caller's setting; the first probe of a run writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Round:
    latencies_s: list[float]  # empty when the process serving it failed
    attempted: int
    failed: int
    errors: list[str]
    layers: dict | None = None
    scale: float = 1.0  # brings the round's times to the reference speed


class Runner:
    """Starts the child processes of one run and turns them into rounds."""

    def __init__(self, config, seed: int, src: Path):
        self.config = config
        self.seed = seed
        self.env = child_env(src)
        self.deadline = perf_counter() + DEADLINE_S
        self.rss_mb: list[float] = []

    def child(self, cmd: list[str]) -> Child | None:
        """Run ``cmd``; None once the deadline has passed."""
        if perf_counter() >= self.deadline:
            return None
        return run_child(cmd, self.env, self.deadline)

    def setup_samples(self) -> list[tuple[float, float]]:
        """Import times as measured, each with its probe's scale factor."""
        modules = "dyckfrieze"
        if isinstance(self.config, Sweep):
            modules += ", dyckfrieze.cli"
        code = PROBE.format(
            here=str(HERE), half=reference.MIN_SAMPLES // 2 + 1, modules=modules
        )
        samples = []
        for probe in range(SETUP_PROBES + 1):
            c = self.child([sys.executable, "-c", code])
            if c is None or c.timed_out or c.exit_code != 0:
                detail = c.stderr.decode(errors="replace")[-2000:] if c else ""
                raise BenchError(f"cannot import the package: {detail}")
            if probe:  # the first import may compile bytecode
                took, *speed = map(float, c.stdout.split())
                samples.append((took, reference.scale(speed)))
        return samples

    def failed_round(self, c: Child, first_round: int) -> Round:
        attempted = len(self.config.cases(self.seed, first_round))
        if c.timed_out:
            error = f"killed at the {DEADLINE_S:.0f} s deadline"
        else:
            tail = c.stderr.decode(errors="replace")[-1000:]
            error = f"exit code {c.exit_code}: {tail}"
        return Round([], attempted, attempted, [error])

    def cli_rounds(self) -> list[Round]:
        c = self.child(
            [sys.executable, str(HERE / "sampled.py"), "dyckfrieze.cli"]
            + self.config.argv()
        )
        if c is None:
            return []
        if c.timed_out:
            return [self.failed_round(c, 0)]
        self.rss_mb.append(c.peak_rss_mb)
        failure = self.config.check(None, None, (c.exit_code, c.stdout))
        errors = [] if failure is None else [failure]
        handler_s, speed = reference_line(c.stderr)
        if not speed:
            errors.append("no reference samples on stderr")
            return [Round([], 1, 1, errors)]
        return [
            Round(
                [c.wall_s - handler_s],
                1,
                len(errors),
                errors,
                scale=reference.scale(speed),
            )
        ]

    def worker_rounds(
        self, first_round: int, seconds: float, trace: bool
    ) -> list[Round]:
        job = to_job(self.config)
        job.update(
            seed=self.seed, first_round=first_round, seconds=seconds, trace=trace
        )
        c = self.child([sys.executable, str(HERE / "worker.py"), json.dumps(job)])
        if c is None:
            return []
        try:
            rounds = json.loads(c.stdout.splitlines()[-1])["rounds"]
        except (ValueError, KeyError, IndexError):
            rounds = None
        if c.timed_out or c.exit_code != 0 or rounds is None:
            return [self.failed_round(c, first_round)]
        self.rss_mb.append(c.peak_rss_mb)
        return [
            Round(
                r["latencies_s"],
                r["attempted"],
                r["failed"],
                r["errors"],
                r["layers"],
                r["scale"],
            )
            for r in rounds
        ]


def reference_line(stderr: bytes) -> tuple[float, list[float]]:
    """Time in the reference handler and its samples, from the last line
    ``sampled.py`` wrote to stderr; no samples if there is none."""
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(MARKER + " "):
            handler_s, *speed = map(float, line.split()[1:])
            return handler_s, speed
    return 0.0, []


def first_errors(rounds: list[Round]) -> str:
    return "; ".join(e for r in rounds for e in r.errors)[:2000]


def times(
    setup: list[tuple[float, float]], rounds: list[Round], at_reference: bool
) -> dict:
    """The end-to-end times of a run, at the reference speed or as
    measured."""

    def scaled(seconds: float, scale: float) -> float:
        return seconds * scale if at_reference else seconds

    walls = [scaled(sum(r.latencies_s), r.scale) for r in rounds if r.latencies_s]
    if not walls:
        raise BenchError(f"no round completed: {first_errors(rounds)}")
    latencies = sorted(scaled(x, r.scale) for r in rounds for x in r.latencies_s)
    return {
        "setup_s": statistics.median(scaled(t, k) for t, k in setup),
        "wall_s": statistics.median(walls),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
    }


def measure(
    config, seed: int, seconds: float, src: Path
) -> tuple[dict, list[Round], dict]:
    """End-to-end metrics, the rounds, and the times as measured."""
    runner = Runner(config, seed, src)
    setup = runner.setup_samples()
    rounds: list[Round] = []
    start = perf_counter()
    last = 0.0
    # start another round only if one as long as the last fits in the time
    while not rounds or perf_counter() - start + last <= seconds:
        began = perf_counter()
        if isinstance(config, Sweep):
            new = runner.cli_rounds()
        elif isinstance(config, Forward):
            new = runner.worker_rounds(len(rounds), seconds, trace=False)
        else:
            new = runner.worker_rounds(len(rounds), 0, trace=False)
        last = perf_counter() - began
        rounds += new
        if not new or not new[-1].latencies_s:
            break  # deadline passed or a process failed
    metrics = times(setup, rounds, at_reference=True)
    metrics["peak_rss_mb"] = statistics.median(runner.rss_mb)
    scales = [r.scale for r in rounds if r.latencies_s]
    measured = {
        "measured": times(setup, rounds, at_reference=False),
        "reference_scale": statistics.median(scales),
    }
    return metrics, rounds, measured


def measure_traced(
    config, seed: int, seconds: float, src: Path
) -> tuple[dict, list[Round], dict]:
    runner = Runner(config, seed, src)
    plain: list[Round] = []
    traced: list[Round] = []
    start = perf_counter()
    last = 0.0
    while not traced or perf_counter() - start + last <= seconds:
        began = perf_counter()
        k = len(traced)
        pair = runner.worker_rounds(k, 0, trace=False)
        pair += runner.worker_rounds(k, 0, trace=True)
        last = perf_counter() - began
        if len(pair) != 2:
            break  # deadline passed
        plain.append(pair[0])
        traced.append(pair[1])
        if not (pair[0].latencies_s and pair[1].latencies_s):
            break  # a process failed
    done = [(p, t) for p, t in zip(plain, traced) if p.latencies_s and t.latencies_s]
    if not done:
        raise BenchError(f"no traced round completed: {first_errors(plain + traced)}")
    # per round, averaged over the traced rounds
    metrics = {
        name: statistics.fmean(t.layers[name] for _, t in done)
        for name in done[0][1].layers
    }
    plain_wall = statistics.fmean(sum(p.latencies_s) for p, _ in done)
    traced_wall = statistics.fmean(sum(t.latencies_s) for _, t in done)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics, plain + traced, {}


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def environment(src: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((src / "dyckfrieze").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(
    config, seed: int, seconds: float, trace: bool, src: Path = CHECKOUT / "src"
) -> tuple[dict, dict]:
    """Measure one workload; return the result object and the run record."""
    if not (src / "dyckfrieze" / "__init__.py").is_file():
        raise BenchError(f"no dyckfrieze package under {src}")
    if trace:
        values, rounds, extra = measure_traced(config, seed, seconds, src)
        units = per_layer_units()
    else:
        values, rounds, extra = measure(config, seed, seconds, src)
        units = END_TO_END_UNITS
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    record = {
        "workload": name_of(config),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(rounds),
        "round_walls_s": [sum(r.latencies_s) for r in rounds],
        "fail_rate": failed / attempted if attempted else None,
        "errors": [e for r in rounds for e in r.errors][:5],
        **extra,
        **environment(src),
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(
            WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
