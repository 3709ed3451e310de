"""The four workloads: seeded input set-up and one timed pass each.

A workload's set-up builds everything its jobs need before the first
timed job: the datasets (and their seeded relabelling), the traffic
trace and its per-job graphs, compiled plans, and warmed array views.
A pass then runs every job once and records each output for the
independent checks.  The seed only reaches the program as generated
inputs.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro import kernels
from repro.bench.runner import SYNTHETIC_CD_PARAMS
from repro.core.config import GMinerConfig
from repro.core.job import JobResult
from repro.graph import datasets
from repro.graph.graph import Graph
from repro.plans.query import motif
from repro.service import traffic
from repro.service.service import JobState, MiningService, ServiceConfig
from repro.service.slo import SLOReport
from repro.sim.cluster import ClusterSpec

#: Sketch accuracy target for the approximate triangle count.
SKETCH_ACCURACY = (0.05, 0.95)
#: Native pool size: the host's two cores.
NATIVE_WORKERS = 2

#: service-replay trace: 1000 jobs (so ten completions lie beyond
#: p99), a steady open loop of 0.25 arrivals per virtual second (the
#: duration leaves room for far more than 1000 arrivals, so the cap
#: always binds), seed graphs of 16..48 vertices.
TRACE_JOBS = 1000
TRACE_RATE = 0.25
TRACE_DURATION = 6000.0
TRACE_SIZES = (16, 48)
#: Share of the trace submitted as native jobs, and their chunk size:
#: 8 seeds a chunk puts every 16..48-vertex graph on 2..6 chunks, so
#: each native job forks a pool.
NATIVE_SHARE = 0.1
NATIVE_CHUNK = 8
#: Kernel backend pinned per service workload: bitset for the
#: topology workloads, numpy for the labelled/attributed ones.
SERVICE_BACKENDS = {"tc": "bitset", "mcf": "bitset", "gl": "bitset",
                    "gm": "numpy", "cd": "numpy", "gc": "numpy"}


def native_virtual_rate() -> float:
    """Work units per virtual second billed for native service jobs:
    the default simulated cluster's aggregate core rate, so a unit of
    work costs the same virtual time on both paths."""
    spec = ClusterSpec()
    return spec.total_cores * spec.core_speed


SERVICE_CONFIG = ServiceConfig(
    max_queue_depth=2 * TRACE_JOBS,
    max_inflight_per_tenant=2 * TRACE_JOBS,
    native_worker_budget=NATIVE_WORKERS,
    native_virtual_rate=native_virtual_rate(),
)


@dataclass
class Job:
    """One operation: a ``repro.mine`` call (or service submission)
    plus what its independent check needs."""

    name: str
    graph: Graph
    mine_kwargs: Dict[str, Any]
    #: which check applies (see :mod:`perfbench.oracles`)
    oracle: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    job: Job
    result: Optional[JobResult]
    error: Optional[str]
    seconds: float


@dataclass
class Pass:
    outcomes: List[Outcome]
    wall_s: float
    report: Optional[SLOReport] = None


@dataclass
class Inputs:
    """Everything set-up produced for one workload."""

    jobs: List[Job]
    #: service-replay only: the trace to replay, arrival-ordered
    specs: List[traffic.JobSpec] = field(default_factory=list)
    #: size and make-up of the inputs, printed with the result
    describe: Dict[str, Any] = field(default_factory=dict)


#: Share of a dataset's vertices whose ids a seed swaps in pairs.
RELABEL_SHARE = 0.02


def relabel(graph: Graph, rng: random.Random) -> Tuple[Graph, Dict[int, int]]:
    """An isomorphic copy in which ``RELABEL_SHARE`` of the vertices,
    drawn by ``rng``, swap ids in pairs; labels and attributes move
    with their vertex.  Returns the copy and the id map.

    Answers are invariant; what the seed moves is where vertices land
    in partitions, chunks and orientation order, so modelled time and
    work units vary a little from seed to seed, not wholesale as under
    a full random permutation."""
    ids = list(graph.vertices())
    images = list(ids)
    picked = rng.sample(range(len(ids)), 2 * max(1, int(RELABEL_SHARE * len(ids) / 2)))
    for a, b in zip(picked[::2], picked[1::2]):
        images[a], images[b] = images[b], images[a]
    to = dict(zip(ids, images))
    out = Graph.from_edges(
        ((to[u], to[v]) for u in ids for v in graph.neighbors(u) if u < v),
        vertices=images,
    )
    out.set_labels({to[v]: graph.label(v) for v in ids if graph.label(v) is not None})
    out.set_all_attributes({to[v]: graph.attributes(v) for v in ids if graph.attributes(v)})
    return out, to


def warm_views(graph: Graph, backend: str, config: Optional[GMinerConfig] = None) -> None:
    """Build the graph's cached array views (and sketches) for ``backend``."""
    with kernels.use_backend(backend):
        graph.adjacency_view()
        params = config.sketch_params() if config is not None else None
        if params is not None:
            with kernels.use_sketch_params(params):
                for v in graph.vertices():
                    graph.neighbors_sketch(v)


def _dataset(seed: int, name: str, labeled: bool = False) -> Tuple[Graph, Dict[int, int]]:
    base = datasets.load_dataset(name, labeled=labeled).graph
    return relabel(base, random.Random(f"{seed}/{name}/{labeled}"))


def describe_graph(graph: Graph) -> str:
    return f"|V|={graph.num_vertices} |E|={graph.num_edges}"


def _describe(jobs: List[Job]) -> Dict[str, Any]:
    return {job.name: describe_graph(job.graph) for job in jobs}


def setup_sim_triangles(seed: int) -> Inputs:
    friendster, _ = _dataset(seed, "friendster-s")
    orkut, _ = _dataset(seed, "orkut-s")
    # the sketch job keeps the registry graph: its confidence-interval
    # check then has one outcome on every seed
    orkut_fixed = datasets.load_dataset("orkut-s").graph
    sketch_config = GMinerConfig(kernel_backend="sketch", accuracy=SKETCH_ACCURACY)
    triangle_plan = repro.compile_pattern(motif("triangle"))
    jobs = [
        Job("tc/friendster-s", friendster,
            dict(workload="tc", backend="bitset"), "triangles"),
        Job("plan-triangle/orkut-s", orkut,
            dict(pattern=triangle_plan, backend="bitset"), "triangles"),
        Job("tc-sketch/orkut-s", orkut_fixed,
            dict(workload="tc", config=sketch_config), "sketch-tc"),
    ]
    warm_views(friendster, "bitset")
    warm_views(orkut, "bitset")
    warm_views(orkut_fixed, "sketch", sketch_config)
    return Inputs(jobs, describe=_describe(jobs))


def setup_sim_attributed(seed: int) -> Inputs:
    # cd keeps the registry graph: one swapped id pair moves its
    # simulated makespan by up to ±15%, which would swamp the others
    dblp = datasets.load_dataset("dblp-s").graph
    tencent, to = _dataset(seed, "tencent-s")
    skitter, _ = _dataset(seed, "skitter-s")
    labelled, _ = _dataset(seed, "skitter-s", labeled=True)
    # the registry's gc focus (its first three vertices), relabelled
    exemplars = [to[v] for v in sorted(to)[:3]]
    jobs = [
        Job("cd/dblp-s", dblp, dict(workload="cd", backend="numpy"), "cd"),
        Job("gc/tencent-s", tencent,
            dict(workload="gc", backend="numpy", exemplars=exemplars), "gc",
            dict(exemplars=exemplars)),
        Job("mcf/skitter-s", skitter, dict(workload="mcf", backend="numpy"), "mcf"),
        Job("gm/skitter-s-labelled", labelled, dict(workload="gm", backend="numpy"), "gm"),
    ]
    for job in jobs:
        warm_views(job.graph, "numpy")
    return Inputs(jobs, describe=_describe(jobs))


def setup_native_pool(seed: int) -> Inputs:
    friendster, _ = _dataset(seed, "friendster-s")
    orkut, _ = _dataset(seed, "orkut-s")
    tencent, _ = _dataset(seed, "tencent-s")
    native = dict(
        execution="native",
        backend="bitset",
        config=GMinerConfig(native_workers=NATIVE_WORKERS),
    )
    tailed_plan = repro.compile_pattern(motif("tailed-triangle"))
    jobs = [
        Job("tc/friendster-s", friendster, dict(workload="tc", **native), "triangles"),
        Job("plan-tailed-triangle/orkut-s", orkut,
            dict(pattern=tailed_plan, **native), "tailed-triangle"),
        Job("cd/tencent-s", tencent, dict(workload="cd", **native), "cd"),
    ]
    # no view warm-up: the parent never builds views on this path, and
    # warmed views would be pickled into every worker's payload
    return Inputs(jobs, describe=_describe(jobs))


def setup_service_replay(seed: int) -> Inputs:
    config = traffic.TrafficConfig(
        seed=seed,
        duration=TRACE_DURATION,
        base_rate=TRACE_RATE,
        diurnal_amplitude=0.0,
        size_min=TRACE_SIZES[0],
        size_max=TRACE_SIZES[1],
        max_jobs=TRACE_JOBS,
    )
    trace = sorted(traffic.generate_trace(config), key=lambda s: s.arrival)
    if len(trace) != TRACE_JOBS:
        raise RuntimeError(f"trace has {len(trace)} jobs, expected {TRACE_JOBS}")
    native_config = GMinerConfig(
        execution="native",
        native_workers=NATIVE_WORKERS,
        native_chunk_size=NATIVE_CHUNK,
    )
    natives = set(random.Random(f"{seed}/native").sample(
        range(len(trace)), int(NATIVE_SHARE * len(trace))))
    jobs: List[Job] = []
    specs: List[traffic.JobSpec] = []
    for index, spec in enumerate(trace):
        graph = traffic.graph_for(spec)
        options = dict(spec.options, backend=SERVICE_BACKENDS[spec.workload])
        params = dict(spec.options)
        if spec.workload == "cd":
            # graph_for draws uniform attribute lists, on which cd's
            # default τ accepts no community; like repro.bench, use
            # the lower threshold for synthetic attributes so that
            # some cd answers are non-empty
            options["params"] = params["params"] = SYNTHETIC_CD_PARAMS
        if index in natives:
            options["config"] = native_config
        else:
            warm_views(graph, options["backend"])
        if spec.workload == "gc":
            params["exemplars"] = sorted(graph.vertices())[:3]
        oracle = {"tc": "triangles"}.get(spec.workload, spec.workload)
        jobs.append(Job(spec.name, graph, dict(workload=spec.workload, **options),
                        oracle, params))
        specs.append(dataclasses.replace(spec, options=options))
    mix: Dict[str, int] = {}
    for spec in trace:
        mix[spec.workload] = mix.get(spec.workload, 0) + 1
    describe = {
        "jobs": len(trace),
        "native_jobs": len(natives),
        "workload_mix": dict(sorted(mix.items())),
        "arrival_span_s": round(trace[-1].arrival, 3),
        "total_vertices": sum(job.graph.num_vertices for job in jobs),
        "total_edges": sum(job.graph.num_edges for job in jobs),
    }
    return Inputs(jobs, specs=specs, describe=describe)


def run_mine_pass(inputs: Inputs) -> Pass:
    """Every job once through ``repro.mine``; failures are recorded."""
    outcomes = []
    started = time.perf_counter()
    for job in inputs.jobs:
        t0 = time.perf_counter()
        result: Optional[JobResult] = None
        error: Optional[str] = None
        try:
            result = repro.mine(job.graph, **job.mine_kwargs)
        except Exception as exc:  # a failed operation, counted by the caller
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(job, result, error, time.perf_counter() - t0))
    return Pass(outcomes, time.perf_counter() - started)


def run_service_pass(inputs: Inputs) -> Pass:
    """Replay the trace through one fresh service, from the first
    submit until the service is idle."""
    service = MiningService(SERVICE_CONFIG)
    graphs = {job.name: job.graph for job in inputs.jobs}
    started = time.perf_counter()
    submitted = service.run_trace(inputs.specs, lambda spec: graphs[spec.name])
    wall = time.perf_counter() - started
    outcomes = []
    for job, (spec, handle) in zip(inputs.jobs, submitted):
        if spec.name != job.name:
            raise RuntimeError(f"replay order changed: {spec.name} vs {job.name}")
        result: Optional[JobResult] = None
        error: Optional[str] = None
        if handle is None:
            error = "rejected at admission"
        elif service.poll(handle) is JobState.DONE:
            result = service.result(handle, drive=False)
        else:
            try:
                service.result(handle, drive=False)
                error = f"job ended {service.poll(handle).value}"
            except Exception as exc:  # the job's own structured error
                error = f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(job, result, error, 0.0))
    return Pass(outcomes, wall, report=service.slo_report())


@dataclass(frozen=True)
class Workload:
    """A workload's set-up and pass; why each exists is recorded in
    BENCHMARK.json and README.md."""

    name: str
    setup: Callable[[int], Inputs]
    run_pass: Callable[[Inputs], Pass]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sim-triangles", setup_sim_triangles, run_mine_pass),
        Workload("sim-attributed", setup_sim_attributed, run_mine_pass),
        Workload("native-pool", setup_native_pool, run_mine_pass),
        Workload("service-replay", setup_service_replay, run_service_pass),
    )
}
