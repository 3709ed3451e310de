"""Tests of the benchmark itself: its oracles, its failure accounting,
its metric names and its span accounting.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro import kernels
from repro.core.job import JobResult, JobStatus
from repro.graph.generators import preferential_attachment_graph
from repro.plans.oracle import count_embeddings_bruteforce
from repro.plans.query import motif

from perfbench import bench, layers, oracles, workloads
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)


def small_graph(seed: int):
    return preferential_attachment_graph(
        n=14, m=3, triangle_prob=0.5, seed=seed, max_degree=8
    )


def induced_edges(g: nx.Graph, vertices) -> int:
    return g.subgraph(vertices).number_of_edges()


@pytest.mark.parametrize("seed", SEEDS)
def test_triangle_oracles_match_bruteforce(seed):
    graph = small_graph(seed)
    g = oracles.to_networkx(graph)
    assert oracles.triangle_total(g) == count_embeddings_bruteforce(motif("triangle"), graph)
    assert oracles.tailed_triangle_total(g) == count_embeddings_bruteforce(
        motif("tailed-triangle"), graph
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_graphlet_closed_forms_match_enumeration(seed):
    g = oracles.to_networkx(small_graph(seed))
    assert oracles.graphlet_histogram(g, 2) == {"k2-e1": g.number_of_edges()}
    names = {2: "path3", 3: "triangle"}
    counted = {}
    for trio in itertools.combinations(g.nodes, 3):
        edges = induced_edges(g, trio)
        if edges >= 2:  # a connected 3-set
            counted[names[edges]] = counted.get(names[edges], 0) + 1
    assert oracles.graphlet_histogram(g, 3) == counted


@pytest.mark.parametrize("seed", SEEDS)
def test_clique_number_matches_bruteforce(seed):
    g = oracles.to_networkx(small_graph(seed))
    largest = max(
        k
        for k in range(1, g.number_of_nodes() + 1)
        for subset in itertools.combinations(g.nodes, k)
        if induced_edges(g, subset) == k * (k - 1) // 2
    )
    assert oracles.clique_number(g) == largest


def _result(value, num_results=1):
    return JobResult(status=JobStatus.OK, app_name="tc", value=value,
                     num_results=num_results)


def test_planted_wrong_value_is_a_failed_operation():
    graph = small_graph(0)
    job = workloads.Job("tc/small", graph, {}, "triangles")
    truth = oracles.triangle_total(oracles.to_networkx(graph))
    outcomes = [
        workloads.Outcome(job, _result(truth + 1), None, 0.0),  # planted
        workloads.Outcome(job, _result(truth), None, 0.0),
        workloads.Outcome(job, None, "RuntimeError: boom", 0.0),
        workloads.Outcome(job, _result(truth), None, 0.0),
    ]
    checked = bench.check_passes([workloads.Pass(outcomes, 0.0)], oracles.Checker())
    assert checked["attempted"] == 4
    assert checked["failed"] == 2
    assert checked["unverified"] == 0
    assert "triangle count" in checked["problems"][0]


def test_none_reads_as_empty_only_without_results():
    graph = small_graph(0)
    job = workloads.Job("gm/small", graph, {}, "triangles")
    checker = oracles.Checker()
    checker._truth[id(job)] = 0
    assert checker.problems(job, _result(None, num_results=0)) == []
    assert checker.problems(job, _result(None, num_results=3)) != []


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    """A one-job workload, so a whole run takes well under a second."""

    def setup(seed):
        graph = small_graph(seed)
        job = workloads.Job("tc/small", graph, dict(workload="tc", backend="bitset"),
                            "triangles")
        return workloads.Inputs([job], describe={"tc/small": "14 vertices"})

    monkeypatch.setitem(
        workloads.WORKLOADS, "tiny",
        workloads.Workload("tiny", setup, workloads.run_mine_pass),
    )
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path / "perfbench" / "out")
    monkeypatch.setattr(bench, "SETUP_SECONDS", 0.0)
    return tmp_path


@pytest.mark.parametrize("trace, names", [(0, bench.END_TO_END), (1, layers.PER_LAYER)])
def test_printed_metrics_are_the_declared_ones(tiny_workload, capsys, trace, names):
    assert bench.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(names)


def test_self_times_fit_in_the_traced_wall():
    graph = small_graph(1)
    original = kernels.intersect_count
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.enabled = True
        started = time.perf_counter()
        repro.mine(graph, workload="tc", backend="bitset")
        repro.mine(graph, pattern="tailed-triangle", backend="numpy")
        wall = time.perf_counter() - started
    finally:
        tracer.enabled = False
        tracer.restore()
    assert kernels.intersect_count is original
    totals = tracer.totals()
    assert totals["core.job.run"].calls == 2
    assert sum(s.self_s for s in totals.values()) <= wall
    for stats in totals.values():
        assert 0 <= stats.self_s <= stats.total_s + 1e-9


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-triangles",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
