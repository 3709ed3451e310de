"""One benchmark run: set-up, timed passes, checks, metrics.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: a traced set-up, one pass
with nothing wrapped and one traced pass; it reports the per-layer
metrics and the traced-minus-untraced pass time as tracing overhead,
and writes the spans and the per-layer table under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Set-ups per run: at least ``SETUP_REPEATS``, and more until
#: ``SETUP_SECONDS`` of set-up have passed; ``setup_s`` is their
#: median.  One set-up is too short to average out the host's drift.
SETUP_REPEATS = 7
SETUP_SECONDS = 5.0

#: (metric, unit) of every end-to-end metric, in report order.  The
#: names must match ``end_to_end`` in BENCHMARK.json.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_makespan_s", "s"),
    ("work_units", "units"),
    ("peak_rss_mb", "MB"),
    ("p50_latency_s", "s"),
    ("p99_latency_s", "s"),
]


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for
    children (the native pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def set_up(workload, seed: int):
    """Run the workload's set-up (see ``SETUP_REPEATS``), each time
    from a cold dataset cache and a collected heap; returns the last
    inputs and every set-up's seconds."""
    from repro.graph import datasets

    inputs = None
    seconds: List[float] = []
    while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_SECONDS:
        inputs = None
        datasets.clear_dataset_cache()
        gc.collect()
        started = time.perf_counter()
        inputs = workload.setup(seed)
        seconds.append(time.perf_counter() - started)
    return inputs, seconds


def check_passes(passes, checker) -> Dict[str, Any]:
    """Check every output of every pass; a job that raised, was refused
    or fails its check is a failed operation."""
    attempted = failed = 0
    unverified = 0
    problems: List[str] = []
    for number, run in enumerate(passes):
        for outcome in run.outcomes:
            attempted += 1
            found: List[str] = []
            if outcome.error is not None:
                found = [outcome.error]
            else:
                try:
                    found = checker.problems(outcome.job, outcome.result)
                except Exception as exc:  # the check itself broke
                    unverified += 1
                    found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"pass {number} {outcome.job.name}: {'; '.join(found)}")
    return {"attempted": attempted, "failed": failed, "unverified": unverified,
            "problems": problems}


def _signature(result) -> Optional[Tuple[str, float, float]]:
    if result is None:
        return None
    return (repr(result.value), result.stats.get("work_units"), result.total_seconds)


def deterministic(passes) -> bool:
    """Outputs, work units and simulated time repeat in every pass."""
    first = [_signature(o.result) for o in passes[0].outcomes]
    return all([_signature(o.result) for o in p.outcomes] == first for p in passes[1:])


def modelled_seconds(result) -> float:
    """A job's simulated seconds; a native job, which has no simulated
    clock, counts the virtual seconds the benchmark's service bills
    for it (work units / native_virtual_rate)."""
    from perfbench.workloads import native_virtual_rate

    if result.native is not None:
        return result.stats["work_units"] / native_virtual_rate()
    return result.total_seconds


def end_to_end(passes, setup_seconds: List[float], rss_mb: float) -> Dict[str, float]:
    from repro.service.slo import nearest_rank

    first = [o.result for o in passes[0].outcomes if o.result is not None]
    report = passes[0].report
    if report is not None:
        work = sum(row["work_charged"] for row in report.tenants.values())
        p50, p99 = report.completion_p50, report.completion_p99
    else:
        work = sum(r.stats["work_units"] for r in first)
        # a standalone job completes when its modelled run ends
        latencies = [modelled_seconds(r) for r in first]
        p50, p99 = nearest_rank(latencies, 0.50), nearest_rank(latencies, 0.99)
    return {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "sim_makespan_s": sum(modelled_seconds(r) for r in first),
        "work_units": work,
        "peak_rss_mb": rss_mb,
        "p50_latency_s": p50,
        "p99_latency_s": p99,
    }


def _metadata(workload, seed: int, inputs, **extra) -> Dict[str, Any]:
    from repro.obs.env import environment_metadata

    return {
        "workload": workload.name,
        "seed": seed,
        "env": environment_metadata(),
        "nproc": os.cpu_count(),
        "inputs": inputs.describe,
        **extra,
    }


def run_untraced(workload, seed: int, seconds: float):
    inputs, setup_seconds = set_up(workload, seed)
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(workload.run_pass(inputs))
    rss = peak_rss_mb()
    metrics = end_to_end(passes, setup_seconds, rss)
    meta = _metadata(
        workload, seed, inputs,
        setup_seconds=setup_seconds,
        pass_seconds=[p.wall_s for p in passes],
        jobs=None if passes[0].report is not None else {
            o.job.name: {
                "host_s": [round(p.outcomes[i].seconds, 4) for p in passes],
                "model_s": modelled_seconds(o.result) if o.result else None,
                "work_units": o.result.stats["work_units"] if o.result else None,
            }
            for i, o in enumerate(passes[0].outcomes)
        },
    )
    return passes, metrics, meta


def run_traced(workload, seed: int):
    from perfbench import layers
    from perfbench.spans import Tracer
    from repro.graph import datasets

    tracer = Tracer()

    def traced_call(phase, fn, *args):
        layers.install(tracer)
        tracer.phase = phase
        tracer.enabled = True
        try:
            return fn(*args)
        finally:
            tracer.enabled = False
            tracer.restore()

    datasets.clear_dataset_cache()
    started = time.perf_counter()
    inputs = traced_call("setup", workload.setup, seed)
    setup_wall = time.perf_counter() - started
    untraced = workload.run_pass(inputs)
    traced = traced_call("pass", workload.run_pass, inputs)

    report = traced.report
    extra = {
        "service.queue_wait_p99_s": report.queue_wait_p99 if report else 0.0,
        "trace.wall_s": traced.wall_s,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    metrics = layers.per_layer_metrics(tracer, extra)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    trace_path = OUT_DIR / f"trace-{stem}.json"
    table_path = OUT_DIR / f"layers-{stem}.txt"
    tracer.write_chrome(str(trace_path))
    table_path.write_text(tracer.layer_table({"setup": setup_wall, "pass": traced.wall_s}))
    meta = _metadata(
        workload, seed, inputs,
        traced_setup_seconds=setup_wall,
        trace_file=os.path.relpath(trace_path),
        layer_table=os.path.relpath(table_path),
        spans_kept=len(tracer.spans),
        spans_dropped=tracer.dropped,
    )
    return [untraced, traced], metrics, meta


def parse_args(argv: List[str]) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    from perfbench.layers import PER_LAYER
    from perfbench.oracles import Checker
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trace:
        passes, values, meta = run_traced(workload, args.seed)
        units = dict(PER_LAYER)
    else:
        passes, values, meta = run_untraced(workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    checked = check_passes(passes, Checker())
    repeatable = deterministic(passes)
    meta.update(passes=len(passes), deterministic=repeatable,
                problems=checked["problems"], unverified=checked["unverified"])
    print("# " + json.dumps(meta, default=str), flush=True)
    print(json.dumps({
        "correct": repeatable and checked["unverified"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0
