#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout of the repository)::

    python3 perfbench/run.py --workload sim-triangles --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it, each starting with ``#``, carry the environment, the
seeds, the inputs and any failed checks.  The program is imported from
the checkout's ``src/``; without it the run exits with status 2.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # pinned environment: no invariant monitor or backend override
    # leaks in from the caller's shell
    for var in ("REPRO_VERIFY", "REPRO_KERNEL_BACKEND"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
