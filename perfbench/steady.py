#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code.

Runs ``perfbench/run.py --trace 0`` for every workload on seeds
1..``--runs``, twice (the same seeds in both sets), then prints for
each end-to-end metric and workload the two medians, the quartile
spread of each set (the distance between the first and third quartiles
of ``statistics.quantiles(values, n=4)`` as a share of the median), the
bound from BENCHMARK.json, and whether the sets agree: both spreads
within the bound, the second median no worse than the first by more
than the bound, and the same share of failed operations.  ``suggest`` is three times the largest spread seen, the
figure a bound should not go below.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads sim-triangles
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: List[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = list(range(1, args.runs + 1))

    results: Dict[str, List[List[Dict[str, Any]]]] = {w: [] for w in workloads}
    for number in range(args.sets):
        for workload in workloads:
            runs = []
            for seed in seeds:
                started = time.perf_counter()
                runs.append(run_once(workload, seed, args.seconds))
                print(f"set {number + 1} {workload} seed {seed}: "
                      f"{time.perf_counter() - started:.1f} s", file=sys.stderr, flush=True)
            results[workload].append(runs)
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(results))

    ok = True
    header = (f"{'workload':<16}{'metric':<16}{'median1':>13}{'median2':>13}"
              f"{'spread1':>9}{'spread2':>9}{'bound':>7}{'suggest':>8}  agree")
    print(header)
    for workload in workloads:
        sets = results[workload]
        shares = {
            (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            for runs in sets
        }
        failed_ok = len({f / a for f, a in shares}) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in columns]
            spreads = [spread(v) for v in columns]
            agree = failed_ok and all(s <= bound for s in spreads)
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    change = -change
                agree = agree and change <= bound
            ok = ok and agree
            m2 = f"{medians[1]:>13.6g}" if len(medians) == 2 else f"{'-':>13}"
            s2 = f"{spreads[1]:>9.4f}" if len(spreads) == 2 else f"{'-':>9}"
            print(f"{workload:<16}{name:<16}{medians[0]:>13.6g}{m2}{spreads[0]:>9.4f}"
                  f"{s2}{bound:>7.3g}{min(0.25, 3 * max(spreads)):>8.3f}  "
                  f"{'yes' if agree else 'NO'}")
        print(f"{workload:<16}failed share {sorted(shares)}  "
              f"{'same' if failed_ok else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
