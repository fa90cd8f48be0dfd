"""Partition quality: edge-cut, balance, hierarchical communication cost.

The communication cost charges each undirected edge once with
weight * distance(PE(u), PE(v)); summing over the symmetric pair matrix
instead would double every term, which changes no comparison or improvement
percentage. Each edge is charged at its later endpoint, with the weight that
endpoint's row gives it, so the two rows of an edge need not agree on its
weight. Cut edges are attributed to the single hierarchy level where the
two endpoints first share a module, so the per-level cuts sum to the total
edge-cut.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

from ._native import address, library
# open_stream and shared_level are no longer called here; perfbench's tracer
# wraps them by these module paths, so they stay importable from this module
from .graph_stream import CSR, open_chunks, open_stream  # noqa: F401
from .hierarchy import K_LIMIT, DistanceSpec, HierarchySpec, shared_level  # noqa: F401

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


class QualitySums:
    """The quality sums of a placement, charged one CSR chunk at a time.

    :meth:`charge` adds a chunk's node weights to their PEs and charges each
    undirected edge {u, v}, u < v, once, at v's row and with the weight that
    row gives it: the later endpoint is the first at which a one-pass stream
    knows both PEs, so a pass charges each chunk right after placing it.
    Every sum adds in node order, then adjacency order, in C
    (``charge_chunk`` in ``_descent.c``). A sum is an int exactly when every
    summand was an int token; the communication cost is always a float.
    """

    def __init__(self, n: int, k: int, hierarchy: HierarchySpec | None = None,
                 distances: DistanceSpec | None = None):
        if distances is not None and hierarchy is None:
            raise ValueError("distances need a hierarchy to locate shared levels")
        if distances is not None and len(distances.distances) != hierarchy.ell:
            raise ValueError(f"distance spec has {len(distances.distances)} levels, "
                             f"hierarchy has {hierarchy.ell}")
        self.n, self.k = n, k
        self._ell = hierarchy.ell if hierarchy is not None else 0
        # PEs per module at each level, shared_level's arithmetic
        self._modules = (array("q", accumulate(hierarchy.levels, operator.mul))
                         if hierarchy is not None else None)
        self._dist = array("d", distances.distances) if distances is not None else None
        self._sums = array("d", [0.0]) * (_LEVEL_CUT + self._ell + k)
        self._floats = array("B", [0]) * len(self._sums)
        self._charge = library().charge_chunk

    def charge(self, chunk: CSR, assignment: array) -> None:
        """Charges ``chunk``. ``assignment`` (int32, typecode ``i``, one PE
        in [1, k] per node of the graph) must place its nodes and every node
        before them."""
        node_bits, all_node = _bits(chunk.node_float)
        edge_bits, all_edge = _bits(chunk.edge_float)
        self._charge(
            chunk.first, chunk.count, *map(address, (chunk.indptr, chunk.adj, chunk.adj_w,
                                                     chunk.node_w)),
            node_bits, all_node, edge_bits, all_edge, address(assignment), self._ell,
            address(self._modules), address(self._dist), address(self._sums),
            address(self._floats))

    def _value(self, i: int) -> int | float:
        x = float(self._sums[i])
        return x if self._floats[i] else int(x)

    @property
    def total_node_weight(self) -> int | float:
        return self._value(_NODE_TOTAL)

    def report(self) -> QualityReport:
        """The quality of the nodes charged so far."""
        blocks = _LEVEL_CUT + self._ell
        loads = self._sums[blocks:]
        max_weight = self._value(blocks + loads.index(max(loads)))
        return QualityReport(
            n=self.n,
            k=self.k,
            edge_cut=self._value(_CUT),
            total_edge_weight=self._value(_EDGE_TOTAL),
            max_block_weight=max_weight,
            imbalance=max_weight * self.k / self.total_node_weight - 1.0,
            mapping_cost=float(self._sums[_COST]) if self._dist is not None else None,
            per_layer_cut=([self._value(_LEVEL_CUT + i) for i in range(self._ell)]
                           if self._modules is not None else None),
        )


# charge_chunk's sums[] slots: four totals, the cut of each level, then the
# weight of each PE (see _descent.c)
_NODE_TOTAL, _EDGE_TOTAL, _CUT, _COST, _LEVEL_CUT = range(5)


def _bits(flag: bool | array) -> tuple[int | None, bool]:
    """A CSR float flag as charge_chunk takes it: per-weight bits, or NULL
    and the bit of every weight."""
    if isinstance(flag, bool):
        return None, flag
    return address(flag), False


def evaluate(
    source,
    assignment: Sequence[int],
    k: int | None = None,
    hierarchy: HierarchySpec | None = None,
    distances: DistanceSpec | None = None,
) -> QualityReport:
    """Score ``assignment`` against the graph in one streaming pass.

    Every node must carry a PE id in [1, k]. ``distances`` requires
    ``hierarchy``, with one distance per hierarchy level. The pass charges
    each CSR chunk to :class:`QualitySums`, as the partitioner's pass does,
    so each undirected edge is counted once, at its later endpoint, and the
    report equals the one a partitioning run gives for the same placement.
    """
    header, chunks = open_chunks(source)
    n = header.n
    if len(assignment) != n:
        raise ValueError(f"assignment has {len(assignment)} slots, graph has {n} nodes")
    labels = assignment
    if not isinstance(labels, array) or labels.typecode != "i":
        try:
            labels = array("q", assignment)
        except OverflowError:
            raise ValueError("a PE label lies outside the int64 range") from None
    if k is None:
        k = hierarchy.k if hierarchy is not None else max(labels)
    if k > K_LIMIT:
        raise ValueError(f"k={k} beyond supported {K_LIMIT}")
    if min(labels) < 1 or max(labels) > k:
        node, pe = next((i, pe) for i, pe in enumerate(labels) if not 1 <= pe <= k)
        if pe == 0:
            raise ValueError(f"node {node} is unassigned")
        raise ValueError(f"node {node} carries PE {pe} outside [1, {k}]")
    if labels.typecode != "i":
        labels = array("i", labels)
    sums = QualitySums(n, k, hierarchy, distances)
    for chunk in chunks:
        sums.charge(chunk, labels)
    return sums.report()


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
