"""streammap benchmark: whole CLI jobs, METIS file in, partition file and report out.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn and
print the nh-versus-flat gap. ``BENCHMARK.json`` lists the two rgg
workloads; ``map-mesh-w`` is too noisy for its bounds and is run by hand. Run from the root of a source checkout; jobs
import streammap from ``src``.

With ``--trace 0`` the benchmark runs untraced jobs one at a time for about
S seconds (at least ``MIN_JOBS``), with a set-up probe after every third
job, verifies every output and prints the end-to-end metrics. With ``--trace 1`` it runs
the untraced jobs, then one traced job in a fresh process, and prints the
per-layer metrics. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"

MIN_JOBS = 5
PROBE_EVERY = 3  # a set-up probe after every third job
JOB_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 60.0
pc = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """One CLI job shape and the input it runs on."""

    why: str
    graph: str  # generator kind in inputs.GENERATORS
    params: dict
    args: tuple[str, ...]  # subcommand and flags, without input, seed and outputs
    k: int
    eps: float
    probe: tuple[str, ...]  # set-up probe flags matching ``args``
    hierarchy: tuple[tuple[int, ...], tuple[float, ...]] | None = None  # given to the job


# J on the rgg workloads: the CLI reports none, so the benchmark scores the
# partition on the 4:4:4:4:4 hierarchy, which is the base-4 tree nh builds
# for k = 1024.
RGG_HIERARCHY = ((4, 4, 4, 4, 4), (1.0, 10.0, 100.0, 1000.0, 10000.0))
RGG = {"n": 100_000}

WORKLOADS = {
    "map-mesh-w": Workload(
        why="process mapping on a weighted stencil graph, streamed from the file",
        graph="mesh-w", params={"rows": 316, "cols": 316},
        args=("map", "--algorithm", "fennel", "--hierarchy", "4:16:2",
              "--distances", "1:10:100", "--eps", "0.03"),
        k=128, eps=0.03, probe=("--hierarchy", "4:16:2"),
        hierarchy=((4, 16, 2), (1.0, 10.0, 100.0)),
    ),
    "nh-rgg-k1024": Workload(
        why="the paper's headline: 5-level base-4 descent at k=1024, preloaded",
        graph="rgg", params=RGG,
        args=("nh", "--algorithm", "fennel", "--k", "1024", "--base", "4",
              "--eps", "0.03", "--preload"),
        k=1024, eps=0.03, probe=("--preload", "--k", "1024", "--base", "4"),
    ),
    "flat-rgg-k1024": Workload(
        why="the flat baseline: k-wide scan over 1024 blocks, same graph, preloaded",
        graph="rgg", params=RGG,
        args=("partition", "--algorithm", "fennel", "--k", "1024", "--eps", "0.03",
              "--preload"),
        k=1024, eps=0.03, probe=("--preload",),
    ),
}

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "edge_cut": "weight",
    "mapping_cost": "weight-dist",
    "imbalance": "ratio",
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class Exit:
    code: int
    wall_s: float
    peak_rss_mb: float


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # Jobs run single-threaded; keep numpy's BLAS from starting a thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], log: Path, timeout: float) -> Exit:
    """Run ``argv`` to completion; wall time from spawn to exit, peak RSS from wait4.

    Output goes to ``log``. A process still running after ``timeout`` is
    killed and reported with code -9.
    """
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    started = pc()
    pid = os.posix_spawn(argv[0], argv, job_env(), file_actions=actions)
    reaped = False
    try:
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
        finally:
            os.close(fd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        wall = pc() - started
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status) if ready else -9
    return Exit(code=code, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


@dataclass
class Job:
    index: int
    exit: Exit
    partition: Path
    report: Path
    error: str | None = None
    quality: dict | None = None


def cli_args(wl: Workload, graph_path: Path, seed: int, part: Path, report: Path) -> list[str]:
    return [*wl.args, "--input", str(graph_path), "--seed", str(seed),
            "--output", str(part), "--report", str(report)]


def helper(script: str, arg: str, timeout: float) -> object:
    """Run a benchmark helper script and parse the JSON it prints."""
    done = subprocess.run([sys.executable, str(BENCH / script), arg], env=job_env(),
                          capture_output=True, text=True, timeout=timeout, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{script} failed with code {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def verify_jobs(wl: Workload, graph_path: Path, jobs: list[Job], spec_path: Path) -> None:
    """Check every job that exited 0, then the determinism contract.

    The checks run in a separate process so that this one never holds the
    graph: a spawned job's peak RSS starts from its parent's.
    """
    for job in jobs:
        if job.exit.code != 0:
            job.error = f"exit code {job.exit.code}"
    ran = [j for j in jobs if j.error is None]
    spec = {"graph": str(graph_path), "k": wl.k, "eps": wl.eps, "hierarchy": wl.hierarchy,
            "score_hierarchy": RGG_HIERARCHY,
            "jobs": [[str(j.partition), str(j.report)] for j in ran]}
    spec_path.write_text(json.dumps(spec), encoding="ascii")
    first = None
    for job, checked in zip(ran, helper("verify.py", str(spec_path), JOB_TIMEOUT_S)):
        job.error, job.quality = checked["error"], checked["quality"]
        if job.error is not None:
            continue
        if first is None:
            first = (job.index, checked["sha256"])
        elif checked["sha256"] != first[1]:
            job.error = f"partition differs from job{first[0]} (determinism contract)"


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    n = len(values)
    if n <= 20:
        return None
    rank = n - 10  # 1-based rank of the value with ten samples beyond it
    return 100.0 * rank / n, sorted(values)[rank - 1]


def run_jobs(wl: Workload, graph_path: Path, seed: int, seconds: float, trace: bool,
             out: Path) -> tuple[list[Job], list[float], Job | None]:
    """Untraced jobs for about ``seconds`` (probing set-up after every third
    one when untraced), then the traced job when ``trace``."""
    py = sys.executable
    # Compile and page in the package once, so no timed job pays for it.
    spawn([py, "-c", "import streammap.cli"], out / "warm.log", SETUP_TIMEOUT_S)
    jobs: list[Job] = []
    setups: list[float] = []
    started = pc()
    while True:
        i = len(jobs)
        probe_due = not trace and i % PROBE_EVERY == 0
        if i >= MIN_JOBS:
            # Start another job only if it should end inside the window.
            expected = statistics.median(j.exit.wall_s for j in jobs)
            if probe_due:
                expected += statistics.median(setups)
            if pc() - started + expected > seconds:
                break
        part, report = out / f"job{i}.part", out / f"job{i}.json"
        argv = [py, "-m", "streammap.cli", *cli_args(wl, graph_path, seed, part, report)]
        jobs.append(Job(i, spawn(argv, out / f"job{i}.log", JOB_TIMEOUT_S), part, report))
        if probe_due:
            log = out / f"setup{i}.log"
            probe = spawn([py, str(BENCH / "setup_probe.py"), str(graph_path),
                           "--eps", str(wl.eps), *wl.probe], log, SETUP_TIMEOUT_S)
            if probe.code != 0:
                raise RuntimeError(f"set-up probe failed with code {probe.code}; see {log}")
            setups.append(probe.wall_s)
    if not trace:
        return jobs, setups, None
    i = len(jobs)
    part, report = out / f"job{i}.part", out / f"job{i}.json"
    argv = [py, str(BENCH / "tracer.py"), str(out / "trace.json"), "--",
            *cli_args(wl, graph_path, seed, part, report)]
    return jobs, setups, Job(i, spawn(argv, out / f"job{i}.log", JOB_TIMEOUT_S), part, report)


def end_to_end(wl: Workload, ok: list[Job], setups: list[float], attempted: int,
               failed: int) -> dict:
    """Print the end-to-end metrics with unit and sample count; return them."""
    run_s = [j.exit.wall_s for j in ok]
    quality = ok[0].quality  # every passing job wrote the same partition
    values = {
        "run_s": (statistics.median(run_s), len(run_s)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (statistics.median(j.exit.peak_rss_mb for j in ok), len(ok)),
        "edge_cut": (quality["edge_cut"], len(ok)),
        "mapping_cost": (quality["mapping_cost"], len(ok)),
        "imbalance": (quality["imbalance"], len(ok)),
    }
    metrics = {}
    for metric, (value, n) in values.items():
        print(f"   {metric:<13} {value:>14.6g} {E2E_UNITS[metric]:<11} n={n}")
        metrics[metric] = {"value": value, "unit": E2E_UNITS[metric]}
    print(f"   failed_frac   {failed / attempted:>14.6g} ratio       "
          f"n={attempted} ({failed} failed)")
    hi = high_percentile(run_s)
    print(f"   run_s samples {' '.join(f'{x:.3f}' for x in run_s)} s; "
          + (f"p{hi[0]:.0f} {hi[1]:.3f} s" if hi else
             f"no percentile above the median has ten samples beyond it at n={len(run_s)}"))
    print(f"   setup_s samples {' '.join(f'{x:.3f}' for x in setups)} s")
    source = "job report, verified" if wl.hierarchy else "benchmark, on 4:4:4:4:4"
    print(f"   mapping_cost from the {source}")
    return metrics


def per_layer(traced: Job, run_s: float, out: Path) -> dict:
    """Print the traced job's per-layer metrics and time accounting; return them."""
    trace_data = json.loads((out / "trace.json").read_text(encoding="ascii"))
    report = json.loads(traced.report.read_text(encoding="ascii"))
    counters = report.get("run", {}).get("counters", {})
    values, accounting = tracer.layer_metrics(trace_data, traced.exit.wall_s, run_s, counters)
    metrics = {}
    for metric, value in values.items():
        unit = "s" if metric.endswith("_s") else "count"
        shown = f"{value:>14.6f}" if unit == "s" else f"{value:>14}"
        print(f"   {metric:<34} {shown} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    if trace_data["absent"]:
        print(f"   hooks absent, their metrics left out: {', '.join(trace_data['absent'])}")
    if trace_data["calls"].get("scoring.select") and \
            trace_data["candidates"] != counters.get("score_evaluations"):
        print(f"   note: select_block saw {trace_data['candidates']} candidates, the report "
              f"counts {counters.get('score_evaluations')} score evaluations")
    print(f"   traced job {traced.exit.wall_s:.3f} s against untraced median {run_s:.3f} s; "
          "where the traced time went:")
    for owner, secs in accounting.items():
        print(f"     {owner:<44} {secs:9.4f} s")
    print(f"     {'sum':<44} {sum(accounting.values()):9.4f} s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    graph = helper("inputs.py", json.dumps({"kind": wl.graph, "params": wl.params, "seed": seed,
                                            "cache_dir": str(WORK / "inputs")}), 600.0)
    graph_path = Path(graph["path"])
    made = f"generated in {graph['gen_s']:.2f} s, excluded" if graph["gen_s"] else "cached"
    print(f"== {name} seed={seed}: {wl.why}")
    print(f"   input {graph_path.relative_to(ROOT)} n={graph['n']} m={graph['m']} "
          f"sha256={graph['sha256']} ({made})")
    out = WORK / "jobs" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    untraced, setups, traced = run_jobs(wl, graph_path, seed, seconds, trace, out)
    jobs = untraced + ([traced] if traced else [])
    verify_jobs(wl, graph_path, jobs, out / "verify.json")

    failed = [j for j in jobs if j.error is not None]
    for job in failed:
        print(f"   FAILED job{job.index}: {job.error}")
    result = {"name": name, "attempted": len(jobs), "failed": len(failed), "metrics": {}}
    ok = [j for j in untraced if j.error is None]
    if not ok:
        pass
    elif not trace:
        result["metrics"] = end_to_end(wl, ok, setups, len(jobs), len(failed))
    elif traced.error is None:
        run_s = statistics.median(j.exit.wall_s for j in ok)
        result["metrics"] = per_layer(traced, run_s, out)
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exit that runs the cleanup in spawn().
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "streammap" / "cli.py").is_file():
        print(f"error: no streammap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    # The result line carries the metrics BENCHMARK.json lists for this mode;
    # the lines above it show everything measured.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if len(results) == 1:
        metrics = {m: v for m, v in results[0]["metrics"].items() if m in listed}
    else:
        metrics = {f"{r['name']}.{m}": v for r in results for m, v in r["metrics"].items()
                   if m in listed}
        by = {r["name"]: r["metrics"].get("run_s") for r in results}
        if by.get("nh-rgg-k1024") and by.get("flat-rgg-k1024"):
            nh, flat = by["nh-rgg-k1024"]["value"], by["flat-rgg-k1024"]["value"]
            print(f"== nh vs flat at k=1024: run_s {nh:.3f} s vs {flat:.3f} s "
                  f"(nh/flat = {nh / flat:.3f})")
    correct = failed == 0 and all(r["metrics"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
