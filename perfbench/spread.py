"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage::

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Runs ``run.py`` once per seed, one after another, then prints for each
end-to-end metric the median, the quartiles and the quartile distance as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        for line in lines:
            if "samples" in line:
                print(f"seed {seed}: {line.strip()}")
        result = json.loads(lines[-1])
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        vals = values.get(metric["name"], [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{metric['name']:<13} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {share:.4f} bound {metric['bound']} "
              f"({'<' if share < metric['bound'] / 3 else '>='} bound/3)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
