"""Independent checks of every job's output.

Ground truth comes from networkx and closed forms, not from the
program: triangle totals from ``networkx.triangles``, tailed triangles
as Σ_v t(v)·(deg(v) − 2), graphlet histograms from edge/wedge/triangle
closed forms, clique numbers from ``networkx.find_cliques``.  Where a
method has no closed form (cd, gc, gm), the check asserts the
properties the method guarantees and equality with the program's
single-threaded reference kernel.

The program reports a job in which no task produced a result with
``value=None`` (a documented convention, pinned by its own tests);
the checks read that as the empty answer — 0, ``[]`` or ``{}`` — but
only when ``num_results`` is 0 too.

:class:`Checker` computes each job's truth once and compares every
pass's output against it; :meth:`Checker.problems` returns what is
wrong (empty when the output is right).
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Callable, Dict, List

import networkx as nx

from repro.core.job import JobResult
from repro.graph.graph import Graph
from repro.mining.clustering import FocusParams, focused_clustering_sequential
from repro.mining.community import CommunityParams, community_detection_sequential
from repro.mining.cost import WorkMeter
from repro.mining.matching import graph_matching_sequential
from repro.mining.patterns import PAPER_PATTERN


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(
        (u, v) for u in graph.vertices() for v in graph.neighbors(u) if u < v
    )
    return g


def triangle_total(g: nx.Graph) -> int:
    return sum(nx.triangles(g).values()) // 3


def tailed_triangle_total(g: nx.Graph) -> int:
    """Σ_v t(v)·(deg(v) − 2): each triangle at v, times the tails that
    leave the triangle from v."""
    per_vertex = nx.triangles(g)
    return sum(t * (g.degree(v) - 2) for v, t in per_vertex.items())


def graphlet_histogram(g: nx.Graph, k: int) -> Dict[str, int]:
    """Connected k-graphlet counts (k in {2, 3}) from closed forms:
    edges; open wedges Σ C(deg, 2) − 3T and triangles T."""
    if k == 2:
        counts = {"k2-e1": g.number_of_edges()}
    elif k == 3:
        triangles = triangle_total(g)
        wedges = sum(d * (d - 1) // 2 for _, d in g.degree())
        counts = {"path3": wedges - 3 * triangles, "triangle": triangles}
    else:
        raise ValueError(f"no closed form for k={k}")
    return {name: n for name, n in counts.items() if n}


def clique_number(g: nx.Graph) -> int:
    return max((len(c) for c in nx.find_cliques(g)), default=0)


def _attrs(graph: Graph) -> Dict[int, tuple]:
    return {v: graph.attributes(v) for v in graph.vertices()}


def _adjacency(graph: Graph) -> Dict[int, tuple]:
    return {v: graph.neighbors(v) for v in graph.vertices()}


def _jaccard(a: set, b: set) -> float:
    union = len(a | b)
    return 1.0 if union == 0 else len(a & b) / union


def community_problems(graph: Graph, communities: List[tuple],
                       params: CommunityParams) -> List[str]:
    """cd's guarantees: size within [min_size, max_size], internal
    density ≥ γ, every member's attribute Jaccard with the seed (the
    community's smallest id) ≥ τ."""
    problems = []
    for community in communities:
        members = set(community)
        size = len(members)
        if not params.min_size <= size <= params.max_size:
            problems.append(f"community of size {size} outside "
                            f"[{params.min_size}, {params.max_size}]")
            continue
        internal = sum(
            1 for u in members for v in graph.neighbors(u) if v in members and u < v
        )
        density = 2.0 * internal / (size * (size - 1))
        if density < params.gamma:
            problems.append(f"community {community[:4]}... density {density:.3f} "
                            f"< {params.gamma}")
        seed_attrs = set(graph.attributes(min(members)))
        for m in members:
            if _jaccard(seed_attrs, set(graph.attributes(m))) < params.tau:
                problems.append(f"member {m} of {community[:4]}... has Jaccard "
                                f"< {params.tau} with the seed")
                break
    return problems


def answer(result: JobResult, empty: Any) -> Any:
    """The job's answer, with ``empty`` for the program's documented
    "no task reported" value ``None`` (only valid with no results)."""
    if result.value is None and result.num_results == 0:
        return empty
    return result.value


class Checker:
    """Per-job ground truth, computed once, compared every pass."""

    def __init__(self) -> None:
        self._truth: Dict[int, Any] = {}

    def truth(self, job) -> Any:
        key = id(job)
        if key not in self._truth:
            self._truth[key] = _TRUTH[job.oracle](job)
        return self._truth[key]

    def problems(self, job, result: JobResult) -> List[str]:
        return _COMPARE[job.oracle](job, result, self.truth(job))


def _clique_problems(job, result, truth) -> List[str]:
    clique = tuple(answer(result, ()))
    problems = []
    if len(clique) != truth:
        problems.append(f"clique of size {len(clique)}, clique number is {truth}")
    if any(not job.graph.has_edge(u, v) for u, v in combinations(clique, 2)):
        problems.append(f"{clique} is not a clique")
    return problems


def _sketch_problems(job, result, exact) -> List[str]:
    report = result.estimate
    if report is None:
        return ["no estimate report on a sketch job"]
    problems = []
    if not report.ci_low <= exact <= report.ci_high:
        problems.append(f"exact {exact} outside [{report.ci_low}, {report.ci_high}]")
    if abs(report.point - exact) > report.epsilon * exact:
        problems.append(f"point {report.point} off exact {exact} by more than "
                        f"ε={report.epsilon}")
    return problems


def _equal(what: str, empty: Any) -> Callable:
    def compare(job, result, truth) -> List[str]:
        got = answer(result, empty)
        if got != truth:
            return [f"{what}: got {str(got)[:80]}, expected {str(truth)[:80]}"]
        return []
    return compare


def _cd_truth(job):
    params = job.params.get("params", CommunityParams())
    return params, community_detection_sequential(
        params, _attrs(job.graph), _adjacency(job.graph), WorkMeter())


def _cd_problems(job, result, truth) -> List[str]:
    params, reference = truth
    communities = answer(result, [])
    problems = community_problems(job.graph, communities, params)
    if communities != reference:
        problems.append("communities differ from community_detection_sequential")
    return problems


def _gc_truth(job):
    params = FocusParams()
    return params, focused_clustering_sequential(
        job.params["exemplars"], params, _attrs(job.graph), _adjacency(job.graph),
        WorkMeter())


def _gc_problems(job, result, truth) -> List[str]:
    params, reference = truth
    clusters = answer(result, [])
    problems = [
        f"cluster of size {len(c)} outside [{params.min_size}, {params.max_size}]"
        for c in clusters
        if not params.min_size <= len(c) <= params.max_size
    ]
    if clusters != reference:
        problems.append("clusters differ from focused_clustering_sequential")
    return problems


def _gm_truth(job) -> int:
    labels = {v: job.graph.label(v) for v in job.graph.vertices()}
    return graph_matching_sequential(
        job.params.get("pattern", PAPER_PATTERN), labels, _adjacency(job.graph),
        WorkMeter())


_TRUTH: Dict[str, Callable] = {
    "triangles": lambda job: triangle_total(to_networkx(job.graph)),
    "tailed-triangle": lambda job: tailed_triangle_total(to_networkx(job.graph)),
    "sketch-tc": lambda job: triangle_total(to_networkx(job.graph)),
    "mcf": lambda job: clique_number(to_networkx(job.graph)),
    "gl": lambda job: graphlet_histogram(to_networkx(job.graph), job.params.get("k", 4)),
    "cd": _cd_truth,
    "gc": _gc_truth,
    "gm": _gm_truth,
}

_COMPARE: Dict[str, Callable] = {
    "triangles": _equal("triangle count", 0),
    "tailed-triangle": _equal("tailed-triangle count", 0),
    "sketch-tc": _sketch_problems,
    "mcf": _clique_problems,
    "gl": _equal("graphlet histogram", {}),
    "cd": _cd_problems,
    "gc": _gc_problems,
    "gm": _equal("embedding count", 0),
}
