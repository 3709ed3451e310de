"""Wall-clock benchmark of ``repro.mine`` across the sim, native and
service paths (see README.md; entry point ``perfbench/run.py``)."""
