"""Self-tests of the benchmark at toy size.

    python3 -m pytest perfbench -q

Each workload runs end to end on tiny inputs, traced and untraced; the
emitted metrics must match ``BENCHMARK.json`` by name and unit, and a
tampered copy of the package must show up as failed requests.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(HERE), str(CHECKOUT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Forward, Inverse, Sweep  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
TOY = {
    "sweep": Sweep(n=3),
    "forward": Forward(ranks=(4, 5, 6, 7, 9)),
    "inverse": Inverse(ranks=(2, 3, 4), requests=30),
}


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(TOY)


@pytest.mark.parametrize("name", list(TOY))
def test_untraced_run_emits_end_to_end_metrics(name):
    result, record = run.run(TOY[name], seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for v in result["metrics"].values():
        assert math.isfinite(v["value"]) and v["value"] > 0
    assert record["seed"] == 3 and record["fail_rate"] == 0
    assert {"python", "nproc", "cpu", "commit", "source_sha256"} <= record.keys()
    assert record["measured"].keys() == expected.keys() - {"peak_rss_mb"}
    assert record["reference_scale"] > 0


@pytest.mark.parametrize("name", list(TOY))
def test_traced_run_emits_layer_metrics_that_add_up(name):
    result, _ = run.run(TOY[name], seed=3, seconds=0, trace=True)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    # self times partition the request spans; the gap is the timer around them
    assert self_total == pytest.approx(m["trace.wall_s"], rel=0.05, abs=1e-3)
    bypassed = {
        "sweep": [],
        "forward": ["enumeration.enumerate_all", "dyck.path_to_vector"],
        "inverse": ["triangulation.rotation_orbit", "diamond.minimal_cycle",
                    "frieze.from_cycle", "cli.main"],
    }[name]
    for layer in bypassed:
        assert m[f"{layer}.calls"] == 0
    used = {
        "sweep": ["cli.main", "checks.run_checks", "enumeration.enumerate_all",
                  "triangulation.rotation_orbit", "frieze.violations"],
        "forward": ["diamond.minimal_cycle", "triangulation.rotate",
                    "frieze.from_quiddity", "dyck.reduce_coordinate"],
        "inverse": ["dyck.parse_path", "dyck.path_to_vector",
                    "enumeration.enumerate_all"],
    }[name]
    for layer in used:
        assert m[f"{layer}.calls"] > 0


TAMPER = {
    # a wrong vector for every path
    "dyck.py": """
_exact_path_to_vector = path_to_vector


def path_to_vector(p, n):
    v = _exact_path_to_vector(p, n)
    return (v[0] + 1,) + v[1:]
""",
    # an orbit one member short
    "triangulation.py": """
_exact_rotation_orbit = rotation_orbit


def rotation_orbit(t):
    orbit = _exact_rotation_orbit(t)
    orbit.discard(t)
    return orbit
""",
}


@pytest.fixture
def tampered_src(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(CHECKOUT / "src" / "dyckfrieze", src / "dyckfrieze")
    for module, code in TAMPER.items():
        with open(src / "dyckfrieze" / module, "a") as f:
            f.write(code)
    return src


@pytest.mark.parametrize("name", list(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_tampered_answers_are_counted_as_failures(name, trace, tampered_src):
    result, record = run.run(
        TOY[name], seed=3, seconds=0, trace=trace, src=tampered_src
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert record["fail_rate"] == 1 and record["errors"]


def test_times_are_brought_to_the_reference_speed():
    assert reference.scale([3.0, 1.0, 2.0]) == reference.REFERENCE_S / 2.0
    assert reference.scale([4.0, 1.0]) == reference.REFERENCE_S / 2.5
    setup = [(0.01, 2.0), (0.03, 1.0)]
    rounds = [
        run.Round([0.5, 1.5], 2, 0, [], scale=2.0),
        run.Round([1.0], 1, 0, [], scale=1.0),
        run.Round([], 1, 1, ["failed"]),
    ]
    measured = run.times(setup, rounds, at_reference=False)
    assert measured == pytest.approx(
        {"setup_s": 0.02, "wall_s": 1.5, "p50_ms": 1000.0, "p99_ms": 1500.0}
    )
    adjusted = run.times(setup, rounds, at_reference=True)
    assert adjusted == pytest.approx(
        {"setup_s": 0.025, "wall_s": 2.5, "p50_ms": 1000.0, "p99_ms": 3000.0}
    )


def test_sampled_cli_reports_reference_samples_also_on_failure():
    env = run.child_env(CHECKOUT / "src")
    sampled = [sys.executable, str(HERE / "sampled.py")]
    deadline = run.perf_counter() + 60
    c = run.run_child(sampled + ["dyckfrieze.cli", *Sweep(n=3).argv()], env, deadline)
    assert c.exit_code == 0 and c.stdout == Sweep(n=3).golden()
    handler_s, speed = run.reference_line(c.stderr)
    assert len(speed) >= reference.MIN_SAMPLES
    assert sum(speed) <= handler_s < c.wall_s
    broken = run.run_child(sampled + ["dyckfrieze.no_such_module"], env, deadline)
    assert broken.exit_code != 0 and b"No module named" in broken.stderr
    assert len(run.reference_line(broken.stderr)[1]) >= reference.MIN_SAMPLES
    assert run.reference_line(b"Traceback\n") == (0.0, [])


def test_missing_package_is_an_error(tmp_path):
    with pytest.raises(run.BenchError):
        run.run(TOY["inverse"], seed=3, seconds=0, trace=False, src=tmp_path)


def test_inputs_are_seeded_and_valid():
    a = Forward().cases(7, 0)
    assert a == Forward().cases(7, 0) and a != Forward().cases(8, 0)
    for (v,), expected in a:
        N = expected["N"]
        assert len(expected["diagonals"]) == N - 3
        assert sum(expected["q"]) == 3 * (N - 2)
        assert len(v) == N - 3 and min(v) >= 1
    words = Inverse(requests=50).cases(7, 0)
    assert words == Inverse(requests=50).cases(7, 0)
    for _, (word, n) in words:
        assert inputs.is_dyck_word(word, n + 1)


def test_generated_vector_realizes_generated_triangulation():
    import dyckfrieze as df

    for (v,), expected in Forward(ranks=tuple(range(1, 40))).cases(11, 0):
        t = df.vector_to_triangulation(v)
        assert t.diagonals == expected["diagonals"]


def test_tracer_rebinds_callers_and_restores_them():
    import dyckfrieze as df
    import dyckfrieze.checks
    import dyckfrieze.triangulation

    original = df.triangulation.vector_to_path
    tracer = Tracer()
    tracer.install()
    try:
        # the defining module, the package namespace and each importer
        assert df.dyck.vector_to_path is not original
        assert df.triangulation.vector_to_path is df.dyck.vector_to_path
        assert df.vector_to_path is df.dyck.vector_to_path
        assert dyckfrieze.checks.rotation_orbit is df.triangulation.rotation_orbit
        assert dyckfrieze.checks.rotation_orbit.__wrapped__ is not None
        tracer.request(df.vector_to_triangulation, (2, 3, 4, 1))
    finally:
        tracer.uninstall()
    assert df.triangulation.vector_to_path is original
    assert df.vector_to_path is original
    totals = tracer.totals()
    assert totals["triangulation.vector_to_triangulation"][0] == 1
    assert totals["dyck.vector_to_path"][0] == 1
    assert totals["dyck.reduce_coordinate"][0] == 4
    root = tracer.ends[0] - tracer.starts[0]
    assert sum(s for _, s in totals.values()) == pytest.approx(root)


def test_child_is_killed_at_the_deadline_and_reports_peak_memory():
    env = run.child_env(CHECKOUT / "src")
    start = run.perf_counter()
    slow = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(60)"], env, start + 0.5
    )
    assert slow.timed_out and run.perf_counter() - start < 30
    touch_64_mb = "b = bytearray(64 * 2**20); b[::4096] = b'x' * len(b[::4096])"
    big = run.run_child(
        [sys.executable, "-c", touch_64_mb], env, run.perf_counter() + 60
    )
    assert big.exit_code == 0 and not big.timed_out and big.peak_rss_mb >= 64
