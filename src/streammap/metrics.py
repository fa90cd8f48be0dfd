"""Partition quality: edge-cut, balance, hierarchical communication cost.

The communication cost charges each undirected edge once with
weight * distance(PE(u), PE(v)); summing over the symmetric pair matrix
instead would double every term, which changes no comparison or improvement
percentage. Cut edges are attributed to the single hierarchy level where the
two endpoints first share a module, so the per-level cuts sum to the total
edge-cut.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# open_stream and shared_level are no longer called here; perfbench's tracer
# wraps them by these module paths, so they stay importable from this module
from .graph_stream import WeightSum, open_chunks, open_stream  # noqa: F401
from .hierarchy import DistanceSpec, HierarchySpec, shared_level  # noqa: F401

__all__ = [
    "QualityReport",
    "ProfilePoint",
    "evaluate",
    "improvement",
    "arithmetic_mean",
    "geometric_mean",
    "aggregate",
    "performance_profile",
    "write_profile_csv",
]


@dataclass
class QualityReport:
    """Quality of one placement; communication fields appear only with a hierarchy."""

    n: int
    k: int
    edge_cut: int | float
    total_edge_weight: int | float
    max_block_weight: int | float
    imbalance: float
    mapping_cost: float | None = None
    per_layer_cut: list[int | float] | None = None

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "edge_cut": self.edge_cut,
            "total_edge_weight": self.total_edge_weight,
            "max_block_weight": self.max_block_weight,
            "imbalance": self.imbalance,
        }
        if self.mapping_cost is not None:
            out["mapping_cost"] = self.mapping_cost
        if self.per_layer_cut is not None:
            out["per_layer_cut"] = list(self.per_layer_cut)
        return out


def evaluate(
    source,
    assignment: Sequence[int],
    k: int | None = None,
    hierarchy: HierarchySpec | None = None,
    distances: DistanceSpec | None = None,
) -> QualityReport:
    """Score ``assignment`` against the graph in one streaming pass.

    Every node must carry a PE id in [1, k]. Each undirected edge is counted
    once (at its lower-id endpoint). ``distances`` requires ``hierarchy``,
    with one distance per hierarchy level. The pass reads CSR chunks and
    adds every total in node order, edge by edge, so each one equals the sum
    a Python loop over the records would give: an int exactly when all its
    summands were int tokens.
    """
    if distances is not None and hierarchy is None:
        raise ValueError("distances need a hierarchy to locate shared levels")
    if distances is not None and len(distances.distances) != hierarchy.ell:
        raise ValueError(
            f"distance spec has {len(distances.distances)} levels, hierarchy has {hierarchy.ell}"
        )
    header, chunks = open_chunks(source)
    n = header.n
    if len(assignment) != n:
        raise ValueError(f"assignment has {len(assignment)} slots, graph has {n} nodes")
    if isinstance(assignment, np.ndarray):
        labels = assignment
    else:
        try:
            labels = np.fromiter(assignment, np.int64, n)
        except OverflowError:
            raise ValueError("a PE label lies outside the int64 range") from None
    if k is None:
        k = hierarchy.k if hierarchy is not None else int(labels.max())
    bad = (labels < 1) | (labels > k)
    if bad.any():
        node = int(bad.argmax())
        if labels[node] == 0:
            raise ValueError(f"node {node} is unassigned")
        raise ValueError(f"node {node} carries PE {labels[node]} outside [1, {k}]")
    ell = hierarchy.ell if hierarchy is not None else 0
    dist = np.asarray(distances.distances, dtype=np.float64) if distances is not None else None
    # np.add.at adds in index order, one element at a time, like the loop
    block_weight = np.zeros(k)
    block_float = np.zeros(k, dtype=bool)
    layer_cut = np.zeros(ell + 1)
    layer_float = np.zeros(ell + 1, dtype=bool)
    node_total, edge_total, cut, cost = WeightSum(), WeightSum(), WeightSum(), WeightSum()
    for chunk in chunks:
        ids = np.arange(chunk.first, chunk.first + chunk.count)
        pes = labels[ids] - 1
        np.add.at(block_weight, pes, chunk.node_w)
        block_float[pes[chunk.node_floats()]] = True
        node_total.add(chunk.node_w, chunk.node_float)
        adj = chunk.adj[chunk.entries()]
        u = np.repeat(ids, np.diff(chunk.indptr))
        upper = adj["node"] > u
        v = adj["node"][upper]
        w = adj["weight"][upper]
        floats = chunk.edge_floats()[upper]
        edge_total.add(w, floats)
        pu, pv = labels[u[upper]], labels[v]
        crossing = pu != pv
        w, floats = w[crossing], floats[crossing]
        cut.add(w, floats)
        if hierarchy is not None:
            level = _shared_levels(hierarchy, pu[crossing], pv[crossing])
            np.add.at(layer_cut, level, w)
            layer_float[level[floats]] = True
            if dist is not None:
                cost.add(w * dist[level - 1], True)
    heaviest = int(block_weight.argmax())
    max_weight = block_weight[heaviest].item()
    if not block_float[heaviest]:
        max_weight = int(max_weight)
    per_layer = [x if f else int(x) for x, f in zip(layer_cut.tolist(), layer_float.tolist())]
    return QualityReport(
        n=n,
        k=k,
        edge_cut=cut.value,
        total_edge_weight=edge_total.value,
        max_block_weight=max_weight,
        imbalance=max_weight * k / node_total.value - 1.0,
        mapping_cost=float(cost.value) if distances is not None else None,
        per_layer_cut=per_layer[1:] if hierarchy is not None else None,
    )


def _shared_levels(spec: HierarchySpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`~streammap.hierarchy.shared_level` of each pair x[i] != y[i] of PEs."""
    level = np.full(x.shape, spec.ell, dtype=np.int64)
    ex, ey = x - 1, y - 1
    module = spec.k  # PEs per module at the level below
    for lv in range(spec.ell - 1, 0, -1):
        module //= spec.levels[lv]
        level[ex // module == ey // module] = lv
    return level


def improvement(sigma_a: float, sigma_b: float) -> float:
    """Percentage by which result A improves on result B: (B/A - 1) * 100.

    Positive when A is smaller on a minimization objective.
    """
    if sigma_a <= 0:
        raise ValueError(f"improvement undefined for reference value {sigma_a}")
    return (sigma_b / sigma_a - 1.0) * 100.0


def arithmetic_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def aggregate(per_instance: Sequence[Sequence[float] | float]) -> float:
    """Repetitions averaged arithmetically per instance, then geometric across."""
    means = [
        float(v) if isinstance(v, (int, float)) else arithmetic_mean(list(v))
        for v in per_instance
    ]
    return geometric_mean(means)


@dataclass(frozen=True)
class ProfilePoint:
    """Share of instances where one algorithm stays within tau of the best."""

    tau: float
    fraction: float


def performance_profile(
    values_by_algorithm: Mapping[str, Sequence[float]],
    taus: Sequence[float] | None = None,
) -> dict[str, list[ProfilePoint]]:
    """Per-algorithm profile curves over a shared tau grid.

    Rows are instances; the per-instance best across algorithms is the
    reference. Without an explicit grid, taus grow geometrically by 5% steps
    from 1 until every observed ratio is covered.
    """
    algorithms = list(values_by_algorithm)
    if not algorithms:
        raise ValueError("no algorithms given")
    lengths = {len(values_by_algorithm[a]) for a in algorithms}
    if lengths == {0}:
        raise ValueError("no instances given")
    if len(lengths) != 1:
        raise ValueError("algorithms cover different instance counts")
    count = lengths.pop()
    for a in algorithms:
        if any(v <= 0 for v in values_by_algorithm[a]):
            raise ValueError(f"nonpositive value for algorithm {a!r}")
    best = [min(values_by_algorithm[a][i] for a in algorithms) for i in range(count)]
    ratios = {a: [values_by_algorithm[a][i] / best[i] for i in range(count)] for a in algorithms}
    if taus is None:
        max_ratio = max(max(r) for r in ratios.values())
        taus_list = [1.0]
        while taus_list[-1] < max_ratio:
            taus_list.append(taus_list[-1] * 1.05)
    else:
        taus_list = [float(t) for t in taus]
        if any(t < 1 for t in taus_list):
            raise ValueError("tau values must be >= 1")
    return {
        a: [
            ProfilePoint(tau, sum(1 for r in ratios[a] if r <= tau) / count)
            for tau in taus_list
        ]
        for a in algorithms
    }


def write_profile_csv(profiles: Mapping[str, Sequence[ProfilePoint]], path) -> None:
    with open(path, "w", newline="", encoding="ascii") as out:
        writer = csv.writer(out)
        writer.writerow(["algorithm", "tau", "fraction"])
        for algorithm, points in profiles.items():
            for p in points:
                writer.writerow([algorithm, repr(p.tau), repr(p.fraction)])


def report_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)
