"""Which program functions the traced run wraps, and the per-layer
metrics read off the spans and the program's public counters.

Each layer's ``*_s`` metric is the *self* time of its spans (duration
minus the part covered by wrapped child spans), so layer times add up
without double counting.  Functions are wrapped where their callers
look them up: module-level functions in the module the caller reads
them from, methods on their class.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from perfbench.spans import Tracer

#: Kernel primitives traced per op, with how to count the elements a
#: call touched.
KERNEL_OPS = (
    "intersect_count",
    "intersect_count_many",
    "intersect",
    "slice_gt",
    "intersect_count_estimate",
    "intersect_count_many_estimate",
    "weighted_similarity_estimate",
    "jaccard_ge",
)

#: Per-seed mining entry points traced, by span suffix.
MINING_FUNCTIONS = (
    "triangles_for_seed",
    "triangles_for_seed_estimate",
    "CommunityGrower.advance",
    "FocusedClusterGrower.advance",
    "max_clique_in_candidates",
    "match_level",
    "graphlets_for_seed",
)


def _len(x: Any) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _pair_elements(args: tuple, result: Any) -> int:
    return _len(args[0]) + _len(args[1]) if len(args) >= 2 else 0


def _first_elements(args: tuple, result: Any) -> int:
    return _len(args[0]) if args else 0


def _scanned_elements(args: tuple, result: Any) -> int:
    return int(result[1])


_KERNEL_ELEMENTS: Dict[str, Callable[[tuple, Any], int]] = {
    "intersect_count": _pair_elements,
    "intersect_count_many": _scanned_elements,
    "intersect": _pair_elements,
    "slice_gt": _first_elements,
    "intersect_count_estimate": _pair_elements,
    "intersect_count_many_estimate": _scanned_elements,
    "weighted_similarity_estimate": _pair_elements,
    "jaccard_ge": _pair_elements,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the program (see module doc)."""
    import repro
    import repro.apps.graph_matching as gm_app
    import repro.apps.graphlet_counting as gl_app
    import repro.apps.maximal_clique as mcf_app
    import repro.apps.triangle_counting as tc_app
    import repro.native as native_pkg
    import repro.native.engine as native_engine
    import repro.plans as plans_pkg
    import repro.plans.api as plans_api
    import repro.service.service as service_mod
    import repro.service.traffic as traffic
    from repro import kernels
    from repro.core.job import GMinerJob
    from repro.core.rcv_cache import RCVCache
    from repro.core.task_store import TaskStore
    from repro.graph import datasets
    from repro.graph.graph import Graph, VertexData
    from repro.mining.clustering import FocusedClusterGrower
    from repro.mining.community import CommunityGrower
    from repro.native.supervisor import Supervisor
    from repro.partitioning.bdg import BDGPartitioner
    from repro.partitioning.hash_partitioner import HashPartitioner
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

    wrap = tracer.wrap
    count = tracer.count
    seen_results = set()

    # graph: dataset generation/decoration and the cached array views
    wrap(datasets, "load_dataset", "graph.build")
    wrap(traffic, "graph_for", "graph.build")
    wrap(Graph, "from_edges", "graph.build")
    for owner in (Graph, VertexData):
        wrap(owner, "neighbors_array", "graph.view")
        wrap(owner, "neighbors_sketch", "graph.view")
    wrap(Graph, "adjacency_view", "graph.view")

    wrap(BDGPartitioner, "partition", "partitioning.partition")
    wrap(HashPartitioner, "partition", "partitioning.partition")

    def register_job(args: tuple, job: Any) -> None:
        tracer.job_ids[id(job)] = len(tracer.job_ids) + 1

    for owner in (repro, plans_pkg, plans_api):
        wrap(owner, "compile_pattern", "plans.compile")
    for owner in (plans_api, service_mod):
        wrap(owner, "prepare_job", "plans.prepare_job", after=register_job)

    def sim_counters(args: tuple, result: Any) -> None:
        if id(result) in seen_results:
            return  # complete() is idempotent
        seen_results.add(id(result))
        job = args[0]
        caches = [c for w in job.workers for c in w.caches]
        count("core.tasks_created", result.stats.get("tasks_created", 0))
        count("core.rcv_cache.hits", sum(c.hits for c in caches))
        count("core.rcv_cache.misses", sum(c.misses for c in caches))
        count("core.rcv_cache.evictions", sum(c.evictions for c in caches))
        count("core.task_store.disk_spills", sum(w.store.disk_spills for w in job.workers))
        count("sim.events", job.cluster.sim.events_processed)
        count("sim.network.sends", job.cluster.network.messages_sent)
        count("sim.network_bytes", result.network_bytes)
        count("sim.vertices_pulled", result.stats.get("vertices_pulled", 0))

    wrap(GMinerJob, "run", "core.job.run", sets_job=True)
    wrap(GMinerJob, "begin", "core.job.begin", sets_job=True)
    wrap(GMinerJob, "advance", "core.job.advance", sets_job=True)
    wrap(GMinerJob, "complete", "core.job.complete", sets_job=True, after=sim_counters)

    wrap(RCVCache, "insert", "core.rcv_cache.insert")
    wrap(RCVCache, "lookup", "core.rcv_cache.lookup")
    wrap(TaskStore, "insert_batch", "core.task_store.insert")
    wrap(TaskStore, "pop", "core.task_store.pop")

    wrap(Simulator, "run", "sim.run")
    wrap(Network, "send", "sim.network.send")

    for op in KERNEL_OPS:
        wrap(kernels, op, f"kernels.{op}", elements=_KERNEL_ELEMENTS[op])

    for module, fn in (
        (tc_app, "triangles_for_seed"),
        (tc_app, "triangles_for_seed_estimate"),
        (mcf_app, "max_clique_in_candidates"),
        (gm_app, "match_level"),
        (gl_app, "graphlets_for_seed"),
    ):
        wrap(module, fn, f"mining.{fn}")
    wrap(CommunityGrower, "advance", "mining.CommunityGrower.advance")
    wrap(FocusedClusterGrower, "advance", "mining.FocusedClusterGrower.advance")

    def native_counters(args: tuple, result: Any) -> None:
        count("core.tasks_created", result.stats.get("tasks_created", 0))
        count("native.chunks", result.stats.get("native_chunks", 0))
        count("native.steals", result.native.get("steals", 0))

    wrap(native_pkg, "run_native", "native.run", after=native_counters)
    wrap(
        native_engine,
        "graph_payload",
        "native.payload",
        after=lambda args, payload: count("native.payload_bytes", len(payload)),
    )
    wrap(Supervisor, "run", "native.supervise")

    from repro.service.service import MiningService

    wrap(MiningService, "submit", "service.submit")
    wrap(MiningService, "step", "service.step")


#: (metric, unit) of every per-layer metric, in report order.  The
#: names must match ``per_layer`` in BENCHMARK.json.
PER_LAYER: List[Tuple[str, str]] = (
    [
        ("graph.build_s", "s"),
        ("graph.view_s", "s"),
        ("graph.view_calls", "count"),
        ("partitioning.partition_s", "s"),
        ("partitioning.calls", "count"),
        ("plans.compile_s", "s"),
        ("plans.prepare_job_s", "s"),
        ("core.job.begin_s", "s"),
        ("core.job.complete_s", "s"),
        ("core.tasks_created", "count"),
        ("core.rcv_cache.insert_s", "s"),
        ("core.rcv_cache.inserts", "count"),
        ("core.rcv_cache.evictions", "count"),
        ("core.rcv_cache.lookup_s", "s"),
        ("core.rcv_cache.lookups", "count"),
        ("core.rcv_cache.hit_ratio", "ratio"),
        ("core.task_store.insert_s", "s"),
        ("core.task_store.pop_s", "s"),
        ("core.task_store.pops", "count"),
        ("core.task_store.disk_spills", "count"),
        ("sim.events", "count"),
        ("sim.run_self_s", "s"),
        ("sim.network.sends", "count"),
        ("sim.network.send_s", "s"),
        ("sim.network_bytes", "bytes"),
        ("sim.vertices_pulled", "count"),
    ]
    + [
        (f"kernels.{op}.{kind}", unit)
        for op in KERNEL_OPS
        for kind, unit in (("calls", "count"), ("s", "s"), ("elements", "count"))
    ]
    + [
        (f"mining.{fn}.{kind}", unit)
        for fn in MINING_FUNCTIONS
        for kind, unit in (("calls", "count"), ("s", "s"))
    ]
    + [
        ("native.payload_s", "s"),
        ("native.payload_bytes", "bytes"),
        ("native.supervise_s", "s"),
        ("native.merge_s", "s"),
        ("native.chunks", "count"),
        ("native.steals", "count"),
        ("native.pooled_jobs", "count"),
        ("service.submit_s", "s"),
        ("service.submits", "count"),
        ("service.turns", "count"),
        ("service.scheduler_self_s", "s"),
        ("service.queue_wait_p99_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def per_layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the tracer's aggregates and
    counters; ``extra`` supplies the ones measured by the caller
    (``service.queue_wait_p99_s`` and the ``trace.*`` walls)."""
    totals = tracer.totals()
    counters = tracer.counters

    def self_s(span: str) -> float:
        stats = totals.get(span)
        return stats.self_s if stats else 0.0

    def calls(span: str) -> int:
        stats = totals.get(span)
        return stats.calls if stats else 0

    hits = counters.get("core.rcv_cache.hits", 0)
    lookups = hits + counters.get("core.rcv_cache.misses", 0)
    values: Dict[str, float] = {
        "graph.build_s": self_s("graph.build"),
        "graph.view_s": self_s("graph.view"),
        "graph.view_calls": calls("graph.view"),
        "partitioning.partition_s": self_s("partitioning.partition"),
        "partitioning.calls": calls("partitioning.partition"),
        "plans.compile_s": self_s("plans.compile"),
        "plans.prepare_job_s": self_s("plans.prepare_job"),
        "core.job.begin_s": self_s("core.job.begin"),
        "core.job.complete_s": self_s("core.job.complete"),
        "core.rcv_cache.insert_s": self_s("core.rcv_cache.insert"),
        "core.rcv_cache.inserts": calls("core.rcv_cache.insert"),
        "core.rcv_cache.lookup_s": self_s("core.rcv_cache.lookup"),
        "core.rcv_cache.lookups": lookups,
        "core.rcv_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "core.task_store.insert_s": self_s("core.task_store.insert"),
        "core.task_store.pop_s": self_s("core.task_store.pop"),
        "core.task_store.pops": calls("core.task_store.pop"),
        "sim.run_self_s": self_s("sim.run"),
        "sim.network.send_s": self_s("sim.network.send"),
        "native.payload_s": self_s("native.payload"),
        "native.supervise_s": self_s("native.supervise"),
        "native.merge_s": self_s("native.run"),
        "native.pooled_jobs": calls("native.supervise"),
        "service.submit_s": self_s("service.submit"),
        "service.submits": calls("service.submit"),
        "service.turns": calls("service.step"),
        "service.scheduler_self_s": self_s("service.step"),
    }
    for name in (
        "core.tasks_created",
        "core.rcv_cache.evictions",
        "core.task_store.disk_spills",
        "sim.events",
        "sim.network.sends",
        "sim.network_bytes",
        "sim.vertices_pulled",
        "native.payload_bytes",
        "native.chunks",
        "native.steals",
    ):
        values[name] = counters.get(name, 0)
    for op in KERNEL_OPS:
        stats = totals.get(f"kernels.{op}")
        values[f"kernels.{op}.calls"] = stats.calls if stats else 0
        values[f"kernels.{op}.s"] = stats.self_s if stats else 0.0
        values[f"kernels.{op}.elements"] = stats.elements if stats else 0
    for fn in MINING_FUNCTIONS:
        values[f"mining.{fn}.calls"] = calls(f"mining.{fn}")
        values[f"mining.{fn}.s"] = self_s(f"mining.{fn}")
    values.update(extra)
    return {name: values[name] for name, _ in PER_LAYER}
