"""Test-only references: exhaustive optima for tiny graphs, pass-count equivalence.

The exhaustive search enumerates every balanced assignment (node 0 pinned to
block 1 to strip label symmetry). Its minimum cut, or its minimum
communication cost J given a hierarchy and distances, is the quality floor no
streaming run can beat, flat or a tree descent, as long as the run records no
overflow: an overflowing run lies outside the enumerated set. The
equivalence check replays one configuration through the single-pass descent
and the level-per-sweep reference and demands identical placements; a
different reference configuration, such as another hashing seed, turns it
into a mutation probe.
"""

from __future__ import annotations

from dataclasses import dataclass

from streammap.graph_stream import InMemoryGraph
from streammap.hierarchy import (
    DistanceSpec,
    HierarchySpec,
    MultiSectionTree,
    compute_lmax,
    pe_distance,
)
from streammap.partitioner import RunConfig, multipass_reference, partition_oms

__all__ = ["TinyInstance", "brute_force_best", "check_equivalence"]

_MAX_NODES = 12
_MAX_BLOCKS = 4


@dataclass
class TinyInstance:
    """A graph small enough to enumerate: n <= 12, k <= 4."""

    graph: InMemoryGraph
    k: int
    eps: float = 0.0
    hierarchy: HierarchySpec | None = None
    distances: DistanceSpec | None = None

    def __post_init__(self) -> None:
        if self.graph.n > _MAX_NODES:
            raise ValueError(f"enumeration budget exceeded: n={self.graph.n} > {_MAX_NODES}")
        if self.k > _MAX_BLOCKS:
            raise ValueError(f"enumeration budget exceeded: k={self.k} > {_MAX_BLOCKS}")


def brute_force_best(instance: TinyInstance, objective: str = "cut") -> float:
    """Exact minimum cut (or communication cost) over all balanced assignments."""
    if objective not in ("cut", "J"):
        raise ValueError(f"unknown objective {objective!r}")
    graph = instance.graph
    k = instance.k
    n = graph.n
    total = graph.total_node_weight()
    lmax = compute_lmax(total, k, instance.eps)
    if objective == "J":
        if instance.hierarchy is None or instance.distances is None:
            raise ValueError("communication objective needs hierarchy and distances")
        dist = [
            [pe_distance(instance.hierarchy, instance.distances, x, y) for y in range(1, k + 1)]
            for x in range(1, k + 1)
        ]
    else:
        dist = [[0.0 if x == y else 1.0 for y in range(k)] for x in range(k)]

    # edges to earlier nodes only; cost accrues when the later endpoint is placed
    back_edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for rec in graph.records:
        for v, w in rec.neighbors:
            if v < rec.id:
                back_edges[rec.id].append((v, w))

    weights = [rec.weight for rec in graph.records]
    loads = [0.0] * k
    placement = [0] * n
    best = float("inf")

    def search(i: int, cost: float) -> None:
        nonlocal best
        if cost >= best:
            return
        if i == n:
            best = cost
            return
        cw = weights[i]
        choices = 1 if i == 0 else k  # pin node 0 in block 1
        for b in range(choices):
            if loads[b] + cw > lmax:
                continue
            added = 0.0
            for v, w in back_edges[i]:
                added += w * dist[placement[v]][b]
            loads[b] += cw
            placement[i] = b
            search(i + 1, cost + added)
            loads[b] -= cw
        return

    search(0, 0.0)
    if best == float("inf"):
        raise ValueError("no balanced assignment exists under the given capacity")
    return best


def check_equivalence(
    source,
    tree: MultiSectionTree,
    config: RunConfig,
    reference_config: RunConfig | None = None,
) -> tuple[bool, int | None]:
    """Compare the single-pass descent with the sweep-per-level reference.

    Returns (True, None) when every node lands on the same PE, otherwise
    (False, first divergent node id). A different ``reference_config`` turns
    this into a mutation probe.
    """
    got = partition_oms(source, tree, config)
    want = multipass_reference(source, tree, reference_config or config)
    mismatch = got.assignment != want.assignment
    if not mismatch.any():
        return True, None
    return False, int(mismatch.argmax())
