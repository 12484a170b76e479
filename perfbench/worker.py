"""Run benchmark rounds of one workload inside a fresh interpreter.

    python3 perfbench/worker.py '<job JSON>'

The job names the workload and its configuration, the seed, the first
round index, a time budget and whether to trace.  The worker imports
``dyckfrieze`` (from ``PYTHONPATH``), runs round after round while another
one as long as the last fits in the budget (at least one), and prints one
JSON object: per round the request latencies, the number of requests and
the failure messages, and, when traced, the per-layer metrics of its
single round.  After each request, outside its timed interval, it times
one call of the host speed reference (``reference.py``) and reports per
round the factor that brings the round's times to the reference speed.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import reference
from spans import ROOT, TRACED, Tracer
from workloads import Sweep, from_job

KEPT_ERRORS = 3


def run_round(df, config, seed: int, round_index: int, tracer: Tracer | None) -> dict:
    cases = config.cases(seed, round_index)
    request, answer = config.request, config.answer
    latencies, answers, speed = [], [], []
    for args, _ in cases:
        start = perf_counter()
        try:
            if tracer is None:
                result = request(df, *args)
            else:
                result = tracer.request(request, df, *args)
        except Exception as exc:  # a request that raises is a failed request
            result = exc
        latencies.append(perf_counter() - start)
        if not isinstance(result, Exception):
            try:
                result = answer(result)
            except Exception as exc:  # an answer of the wrong shape
                result = exc
        answers.append(result)
        speed.append(reference.sample())
    while len(speed) < reference.MIN_SAMPLES:
        speed.append(reference.sample())
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer)
        tracer.uninstall()
    errors = []
    for (args, expected), got in zip(cases, answers):
        if isinstance(got, Exception):
            errors.append(f"{args!r:.120}: {type(got).__name__}: {got}")
        else:
            failure = config.check(df, expected, got)
            if failure is not None:
                errors.append(failure)
    return {
        "index": round_index,
        "latencies_s": latencies,
        "attempted": len(cases),
        "failed": len(errors),
        "errors": errors[:KEPT_ERRORS],
        "layers": layers,
        "scale": reference.scale(speed),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    totals = tracer.totals()
    metrics = {}
    for module, functions in TRACED.items():
        for fn in functions:
            calls, self_s = totals[f"{module}.{fn}"]
            metrics[f"{module}.{fn}.calls"] = calls
            metrics[f"{module}.{fn}.self_s"] = self_s
    metrics[f"{ROOT}.self_s"] = totals[ROOT][1]
    cycles = tracer.results["diamond.minimal_cycle"]
    distinct = {frozenset(c.diamonds) for c in cycles}
    metrics["diamond.minimal_cycle.distinct_ratio"] = (
        len(distinct) / len(cycles) if cycles else 0.0
    )
    info = tracer.originals["enumeration.enumerate_all"].cache_info()
    lookups = info.hits + info.misses
    metrics["enumeration.enumerate_all.cache_hit_ratio"] = (
        info.hits / lookups if lookups else 0.0
    )
    return metrics


def main() -> None:
    job = json.loads(sys.argv[1])
    config = from_job(job)
    import dyckfrieze as df

    if isinstance(config, Sweep):
        import dyckfrieze.cli  # noqa: F401  (binds df.cli)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    rounds = []
    start = perf_counter()
    last = 0.0
    round_index = job["first_round"]
    while not rounds or perf_counter() - start + last <= job["seconds"]:
        began = perf_counter()
        rounds.append(run_round(df, config, job["seed"], round_index, tracer))
        last = perf_counter() - began
        round_index += 1
        if tracer is not None:
            break  # spans cover exactly one round
    print(json.dumps({"rounds": rounds}))


if __name__ == "__main__":
    main()
