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

from .graph_stream import open_stream
from .hierarchy import DistanceSpec, HierarchySpec, shared_level

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
    with one distance per hierarchy level.
    """
    if distances is not None and hierarchy is None:
        raise ValueError("distances need a hierarchy to locate shared levels")
    if distances is not None and len(distances.distances) != hierarchy.ell:
        raise ValueError(
            f"distance spec has {len(distances.distances)} levels, hierarchy has {hierarchy.ell}"
        )
    stream = open_stream(source)
    n = stream.header.n
    if len(assignment) != n:
        raise ValueError(f"assignment has {len(assignment)} slots, graph has {n} nodes")
    if k is None:
        k = hierarchy.k if hierarchy is not None else int(max(assignment))
    ell = hierarchy.ell if hierarchy is not None else 0
    per_layer: list[int | float] = [0] * (ell + 1)
    cut: int | float = 0
    total_edge_weight: int | float = 0
    mapping_cost: float | None = 0.0 if distances is not None else None
    block_weight: list[int | float] = [0] * k
    total_node_weight: int | float = 0
    for rec in stream:
        pu = int(assignment[rec.id])
        if pu == 0:
            raise ValueError(f"node {rec.id} is unassigned")
        if not (1 <= pu <= k):
            raise ValueError(f"node {rec.id} carries PE {pu} outside [1, {k}]")
        block_weight[pu - 1] += rec.weight
        total_node_weight += rec.weight
        for v, w in rec.neighbors:
            if v <= rec.id:
                continue
            total_edge_weight += w
            pv = int(assignment[v])
            if pv == 0:
                raise ValueError(f"node {v} is unassigned")
            if pu == pv:
                continue
            cut += w
            if hierarchy is not None:
                level = shared_level(hierarchy, pu, pv)
                per_layer[level] += w
                if mapping_cost is not None:
                    mapping_cost += w * distances.distances[level - 1]
    max_weight = max(block_weight)
    return QualityReport(
        n=n,
        k=k,
        edge_cut=cut,
        total_edge_weight=total_edge_weight,
        max_block_weight=max_weight,
        imbalance=max_weight * k / total_node_weight - 1.0,
        mapping_cost=mapping_cost,
        per_layer_cut=per_layer[1:] if hierarchy is not None else None,
    )


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
