"""Self-tests of the benchmark's generator, verifier and tracer.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
from streammap import cli  # noqa: E402

K = 8
HIERARCHY = verify.Hierarchy((2, 2, 2), (1.0, 10.0, 100.0))
MAP_ARGS = ["map", "--hierarchy", "2:2:2", "--distances", "1:10:100", "--eps", "0.03",
            "--seed", "3"]


@pytest.fixture(scope="module")
def job(tmp_path_factory):
    """A small weighted mesh and the partition and report of one real map job."""
    d = tmp_path_factory.mktemp("job")
    graph, _ = inputs.load_input("mesh-w", {"rows": 12, "cols": 12}, 3, d)
    part, report = d / "job.part", d / "job.json"
    assert cli.main([*MAP_ARGS, "--input", str(graph.path), "--output", str(part),
                     "--report", str(report)]) == 0
    return graph, part, report


def check(graph, part, report):
    return verify.check_job(graph, K, 0.03, part, report, HIERARCHY)


def test_verifier_accepts_the_jobs_own_outputs(job):
    labels = check(*job)
    assert labels.shape == (job[0].n,)


def test_verifier_rejects_one_flipped_label(job, tmp_path):
    graph, part, report = job
    labels = verify.read_partition(part, graph.n, K)
    # Move a node whose neighbours all share its block: the cut must grow.
    mixed = labels[graph.u] != labels[graph.v]
    boundary = set(graph.u[mixed].tolist()) | set(graph.v[mixed].tolist())
    node = next(i for i in range(graph.n) if i not in boundary)
    labels[node] = labels[node] % K + 1
    flipped = tmp_path / "flipped.part"
    flipped.write_text("".join(f"{x}\n" for x in labels), encoding="ascii")
    with pytest.raises(verify.VerifyError, match="quality"):
        check(graph, flipped, report)


def test_verifier_rejects_a_truncated_partition(job, tmp_path):
    graph, part, report = job
    truncated = tmp_path / "truncated.part"
    truncated.write_text("".join(part.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(verify.VerifyError, match="labels, graph has"):
        check(graph, truncated, report)


def test_verifier_rejects_an_edge_cut_off_by_one(job, tmp_path):
    graph, part, report = job
    payload = json.loads(report.read_text())
    payload["quality"]["edge_cut"] += 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(payload))
    with pytest.raises(verify.VerifyError, match="edge_cut"):
        check(graph, part, wrong)


def test_verifier_rejects_out_of_range_labels_and_a_missing_file(tmp_path):
    path = tmp_path / "range.part"
    path.write_text("1\n9\n")
    with pytest.raises(verify.VerifyError, match="outside"):
        verify.read_partition(path, 2, K)
    with pytest.raises(verify.VerifyError, match="no partition file"):
        verify.read_partition(tmp_path / "missing.part", 2, K)


@pytest.mark.parametrize("kind, params", [("rgg", {"n": 500}),
                                          ("mesh-w", {"rows": 9, "cols": 11})])
def test_generator_is_byte_identical_per_seed_and_differs_across_seeds(kind, params, tmp_path):
    def sha(seed, cache):
        graph, _ = inputs.load_input(kind, params, seed, tmp_path / cache)
        return verify.sha256_of(graph.path)

    assert sha(5, "a") == sha(5, "b")
    assert sha(5, "a") != sha(6, "a")


def test_generated_arrays_match_the_written_file(tmp_path):
    graph, _ = inputs.load_input("mesh-w", {"rows": 7, "cols": 5}, 2, tmp_path)
    parsed = cli.load_graph(str(graph.path))
    node_w = np.asarray([rec.weight for rec in parsed.records])
    assert np.array_equal(node_w, graph.node_w)
    edges = {(rec.id, v): w for rec in parsed.records for v, w in rec.neighbors if v > rec.id}
    assert edges == dict(zip(zip(graph.u.tolist(), graph.v.tolist()), graph.w.tolist()))


@pytest.fixture(scope="module")
def traced(job, tmp_path_factory):
    """A traced run of the same map job in a fresh process: graph, trace, report counters."""
    graph, part, _ = job
    d = tmp_path_factory.mktemp("trace")
    out = d / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "--", *MAP_ARGS,
            "--input", str(graph.path), "--output", str(d / "t.part"),
            "--report", str(d / "t.json")]
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
    assert (d / "t.part").read_bytes() == part.read_bytes()
    report = json.loads((d / "t.json").read_text())
    return graph, json.loads(out.read_text()), report["run"]["counters"]


def test_trace_counts_and_accounting(traced):
    graph, trace, counters = traced
    metrics, accounting = tracer.layer_metrics(trace, job_s=2.0, run_s=1.5, counters=counters)
    assert metrics["scoring.select_calls"] == 3 * graph.n  # three tree levels
    assert [metrics[f"partitioner.level{d}.select_calls"] for d in range(3)] == [graph.n] * 3
    assert metrics["graph_stream.records"] == 2 * graph.n  # assign pass and evaluate pass
    # Two total-weight passes (prepare_tree and partition_oms), assign, evaluate.
    assert metrics["graph_stream.opens"] == 4
    assert metrics["hierarchy.blocks"] == 1 + 2 + 4 + 8
    assert metrics["scoring.candidates"] == 2 * 3 * graph.n
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert sum(accounting.values()) == pytest.approx(2.0, abs=1e-9)
    assert all(v >= 0 for v in accounting.values())


def test_trace_leaves_out_metrics_of_absent_hooks(traced):
    _, trace, counters = traced
    trace = dict(trace, absent=["metrics.shared_level"])
    metrics, _ = tracer.layer_metrics(trace, job_s=2.0, run_s=1.5, counters=counters)
    assert "hierarchy.shared_level_s" not in metrics
    assert "metrics.self_s" not in metrics
    assert "metrics.evaluate_s" in metrics
