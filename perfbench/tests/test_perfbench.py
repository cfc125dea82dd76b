"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Run from the root of the checkout.  The smoke runs take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDENS = json.loads((BENCH / "goldens.json").read_text())


def drawn(workload: str, seed: int) -> list:
    if workload == "classify-scan":
        return workloads.scan_corpus(seed)
    return workloads.table_jobs(workload, seed)


def digests(workload: str, seed: int) -> list:
    if workload == "classify-scan":
        return [json.dumps(item, sort_keys=True) for item in drawn(workload, seed)]
    return [GOLDENS[workloads.job_key(*job)]["sha256"] for job in drawn(workload, seed)]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_jobs_and_digests(workload):
    assert drawn(workload, 11) == drawn(workload, 11)
    assert digests(workload, 11) == digests(workload, 11)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_inputs_not_counts(workload):
    a, b = drawn(workload, 11), drawn(workload, 12)
    assert a != b
    assert len(a) == len(b)
    if workload == "classify-scan":
        assert Counter(i["kind"] for i in a) == Counter(i["kind"] for i in b)
    else:
        assert Counter(cmd for cmd, _, _ in a) == Counter(cmd for cmd, _, _ in b)


def test_goldens_cover_every_drawable_job():
    space = {workloads.job_key(*job) for job in workloads.table_sample_space()}
    assert space == set(GOLDENS)
    for workload in ("tables-perm", "tables-dihedral"):
        for seed in range(50):
            assert {workloads.job_key(*job) for job in workloads.table_jobs(workload, seed)} <= space


def test_oracle_rank_three_criteria():
    def finite(edges):
        return [fin for _, fin in oracle.finite_components(3, edges)]

    assert finite([[0, 1, 3], [1, 2, 5]]) == [True]  # H3
    assert finite([[0, 1, 4], [1, 2, 4]]) == [False]  # C~2
    assert finite([[0, 1, 3], [1, 2, 6]]) == [False]  # G~2
    assert finite([[0, 1, 3], [1, 2, 3], [0, 2, 3]]) == [False]  # A~2
    assert finite([[0, 1, 0]]) == [False, True]  # A~1 and A1


def test_oracle_agrees_with_the_pieces_graphs_are_built_from():
    checked = 0
    for item in workloads.scan_corpus(5):
        if "expected" not in item:
            continue
        edges = item["graph"]["edges"]
        for vertices, label in item["expected"]:
            if len(vertices) > oracle.MAX_RANK:
                continue
            sub = [e for e in edges if e[0] in vertices]
            (got,) = [fin for vs, fin in oracle.finite_components(item["graph"]["n"], sub) if vs == vertices]
            assert got == (label is not None), (item, vertices)
            checked += 1
    assert checked > 100


def test_probe_expectations_agree_with_the_oracle():
    for name, graph, code, _ in workloads.PROBES:
        if graph["n"] <= oracle.MAX_RANK:
            (fin,) = [fin for _, fin in oracle.finite_components(graph["n"], graph["edges"])]
            assert code == (0 if fin else 2), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_the_gate(workload):
    p = run_bench(workload, 0)
    assert p.returncode == 0, p.stdout + p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(next(line[4:] for line in p.stdout.splitlines() if line.startswith("env ")))
    for key in ("commit", "python", "nproc", "loadavg_start", "loadavg_end", "seed"):
        assert key in env


@pytest.mark.parametrize("workload", ["tables-dihedral", "classify-scan"])
def test_traced_run_reports_every_layer_metric(workload):
    p = run_bench(workload, 1)
    assert p.returncode == 0, p.stdout + p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    if workload == "classify-scan":
        self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        assert max(self_times, key=self_times.get) == "cyclotomic.self_s"
        assert metrics["groups.products"] == 0
        assert metrics["classify.minor_passes_per_component"] > 0
    else:
        assert metrics["roots.roots"] > 0 and metrics["cyclotomic.mul_calls"] > 0
        assert metrics["cli.self_s"] > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        p = run_bench("tables-perm", 0, cwd=bare)
        assert p.returncode != 0
        assert '"metrics"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
