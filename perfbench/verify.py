"""Independent checks of one CLI job's outputs.

Quality is recomputed with numpy from the benchmark's own edge arrays, saved
next to each generated graph by ``inputs.py``, and must equal the job's JSON
report exactly. Nothing here imports streammap.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np



@dataclass(frozen=True)
class GraphInput:
    """A generated graph file plus the benchmark's own view of its edges."""

    path: Path
    node_w: np.ndarray  # int64 weight of each node, node order
    u: np.ndarray  # int64 endpoints of each undirected edge, u < v
    v: np.ndarray
    w: np.ndarray  # int64 edge weights

    @property
    def n(self) -> int:
        return int(self.node_w.shape[0])

    @property
    def m(self) -> int:
        return int(self.u.shape[0])


def read_arrays(graph_path: Path) -> GraphInput:
    """The edge arrays saved beside ``graph_path``."""
    with np.load(Path(graph_path).with_suffix(".npz")) as arrays:
        data = {key: arrays[key].astype(np.int64) for key in ("node_w", "u", "v", "w")}
    return GraphInput(path=Path(graph_path), **data)


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class VerifyError(Exception):
    """A job output that fails a check."""


@dataclass(frozen=True)
class Hierarchy:
    """Branching factors bottom level first, and one distance per level."""

    levels: tuple[int, ...]
    distances: tuple[float, ...]


def read_partition(path: Path, n: int, k: int) -> np.ndarray:
    """Labels of a partition file: exactly n lines, each an integer in [1, k]."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise VerifyError(f"{path}: no partition file ({exc})") from None
    lines = data.split(b"\n")
    if lines[-1] != b"":
        raise VerifyError(f"{path}: last line is not terminated")
    lines.pop()
    if len(lines) != n:
        raise VerifyError(f"{path}: {len(lines)} labels, graph has {n} nodes")
    try:
        labels = np.asarray([int(line) for line in lines], dtype=np.int64)
    except ValueError as exc:
        raise VerifyError(f"{path}: non-integer label ({exc})") from None
    bad = np.flatnonzero((labels < 1) | (labels > k))
    if bad.size:
        raise VerifyError(f"{path}: node {int(bad[0])} has label {int(labels[bad[0]])} "
                          f"outside [1, {k}]")
    return labels


def shared_levels(levels: tuple[int, ...], pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """Lowest hierarchy level whose module holds both PEs (0 when equal)."""
    a, b = pu - 1, pv - 1
    out = np.zeros(a.shape[0], dtype=np.int64)
    open_ = a != b
    module = 1
    for level, size in enumerate(levels, start=1):
        module *= size
        hit = open_ & (a // module == b // module)
        out[hit] = level
        open_ &= ~hit
    return out


def recompute(graph: GraphInput, labels: np.ndarray, k: int,
              hierarchy: Hierarchy | None) -> dict:
    """Quality of ``labels`` in the report's terms, from the benchmark's arrays."""
    pu, pv = labels[graph.u], labels[graph.v]
    cut = pu != pv
    block_w = np.zeros(k, dtype=np.int64)
    np.add.at(block_w, labels - 1, graph.node_w)
    max_w = int(block_w.max())
    quality = {
        "n": graph.n,
        "k": k,
        "edge_cut": int(graph.w[cut].sum()),
        "total_edge_weight": int(graph.w.sum()),
        "max_block_weight": max_w,
        "imbalance": max_w * k / int(graph.node_w.sum()) - 1.0,
    }
    if hierarchy is not None:
        level = shared_levels(hierarchy.levels, pu[cut], pv[cut])
        w = graph.w[cut]
        per_level = [int(w[level == i].sum()) for i in range(1, len(hierarchy.levels) + 1)]
        quality["per_layer_cut"] = per_level
        # Every term is an integer-valued float, so the sum is exact in any order.
        quality["mapping_cost"] = float(sum(c * d for c, d in zip(per_level, hierarchy.distances)))
    return quality


def lmax(total_weight: int, k: int, eps: float) -> int:
    """Block capacity ceil((1 + eps) * total / k), in exact arithmetic."""
    return math.ceil((1 + Fraction(str(eps))) * total_weight / k)


def check_job(graph: GraphInput, k: int, eps: float, partition: Path, report: Path,
              reported_hierarchy: Hierarchy | None) -> np.ndarray:
    """Verify one job's partition file and report; returns the labels.

    ``reported_hierarchy`` is the hierarchy the job was given, whose J and
    per-level cut the report must carry.
    """
    labels = read_partition(partition, graph.n, k)
    try:
        payload = json.loads(Path(report).read_text(encoding="ascii"))
        got = payload["quality"]
        run = payload["run"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise VerifyError(f"{report}: unreadable report ({exc})") from None
    want = recompute(graph, labels, k, reported_hierarchy)
    for key, value in want.items():
        if key not in got:
            raise VerifyError(f"{report}: quality.{key} missing")
        if got[key] != value:
            raise VerifyError(f"{report}: quality.{key} = {got[key]!r}, recomputed {value!r}")
    overflow = run.get("overflow_events", run.get("counters", {}).get("overflow_events", 0))
    cap = lmax(int(graph.node_w.sum()), k, eps)
    if want["max_block_weight"] > cap and not overflow:
        raise VerifyError(f"{report}: max block weight {want['max_block_weight']} > lmax {cap} "
                          "with no overflow event reported")
    return labels


def main(argv: list[str]) -> int:
    """``verify.py SPEC_JSON``: check every job listed in the spec file.

    The spec holds the graph path, k, eps, the hierarchy given to the jobs
    (or null), the hierarchy to score J on when the jobs had none, and the
    (partition, report) pairs. Prints one JSON list with, per job, the error
    (null when it passed), the partition's sha256 and the recomputed quality.
    """
    spec = json.loads(Path(argv[0]).read_text(encoding="ascii"))
    graph = read_arrays(Path(spec["graph"]))
    given = Hierarchy(*map(tuple, spec["hierarchy"])) if spec["hierarchy"] else None
    scored = given or Hierarchy(*map(tuple, spec["score_hierarchy"]))
    results = []
    for partition, report in spec["jobs"]:
        try:
            labels = check_job(graph, spec["k"], spec["eps"], Path(partition), Path(report), given)
        except VerifyError as exc:
            results.append({"error": str(exc), "sha256": None, "quality": None})
            continue
        results.append({"error": None, "sha256": sha256_of(Path(partition)),
                        "quality": recompute(graph, labels, spec["k"], scored)})
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
