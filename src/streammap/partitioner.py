"""One-pass assignment drivers.

``partition_oms`` descends a multi-section tree: at each internal block the
node is scored only against that block's children, so a node reaches its
final block after depth-many small selections instead of one k-wide scan.
The descent stores one leaf id per node; ancestors are recovered from
covered PE ranges, never stored, and a neighbour's child at each level is
computed from its PE id. ``partition_flat``, the classical baseline that
scores every node against all k blocks (or hashes it straight to one), is
the same descent over a depth-1 tree with k leaves.

``RunConfig`` (algorithm, eps, seed, hybrid_h) is the whole run
configuration. One rule, :meth:`RunConfig.scored_levels`, says which tree
levels the algorithm scores: the levels at that depth or deeper are hashed.
Both drivers apply it, and every scalar selection is one
:func:`~streammap.scoring.select_block` call.

``multipass_reference`` realizes the same hierarchical split as repeated
sweeps over the input (one tree level per sweep). Because every decision in
a sweep depends only on nodes streamed earlier in that same sweep, its output
matches the single-pass descent node for node; the test suite leans on this
equivalence heavily.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph_stream import (
    GraphHeader,
    open_stream,
    peek_header,
    total_node_weight,
)
from .hierarchy import (
    HierarchySpec,
    MultiSectionTree,
    build_tree_explicit,
    build_tree_synth,
    compute_lmax,
)
from .scoring import ALGORITHMS, WIDE_FANOUT, WideGroup, select_block

__all__ = [
    "UNASSIGNED",
    "RunCounters",
    "RunConfig",
    "PartitionResult",
    "partition_flat",
    "partition_oms",
    "multipass_reference",
    "prepare_tree",
]

UNASSIGNED = 0  # PE ids are 1-based; 0 marks a node not yet placed


@dataclass
class RunCounters:
    """Work accounting for one run.

    ``score_evaluations`` counts candidates examined by scored selections
    (open or gated); ``hash_assignments`` counts hashed selections;
    ``edges_scanned`` counts adjacency entries read from the stream.
    """

    nodes_processed: int = 0
    edges_scanned: int = 0
    score_evaluations: int = 0
    hash_assignments: int = 0
    overflow_events: int = 0


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by all drivers.

    ``hybrid_h`` limits the scored levels of a tree descent: the top h
    levels use ``algorithm``, deeper levels fall back to hashing. ``None``
    scores every level.
    """

    algorithm: str = "fennel"
    eps: float = 0.03
    seed: int = 0
    hybrid_h: int | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected {ALGORITHMS}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.hybrid_h is not None and self.hybrid_h < 0:
            raise ValueError(f"hybrid_h must be >= 0, got {self.hybrid_h}")

    def scored_levels(self, depth: int) -> int:
        """How many top levels of a depth-``depth`` tree are scored; the
        levels below them are hashed."""
        if self.hybrid_h is not None and self.hybrid_h > depth:
            raise ValueError(f"hybrid_h={self.hybrid_h} exceeds tree depth {depth}")
        if self.algorithm == "hashing":
            return 0
        return depth if self.hybrid_h is None else self.hybrid_h


@dataclass
class PartitionResult:
    """Final placement plus run accounting."""

    assignment: np.ndarray  # int32, one 1-based PE id per node
    k: int
    lmax: int | float
    total_weight: int | float
    leaf_weights: list[int | float]
    counters: RunCounters
    algorithm: str
    mode: str
    assign_seconds: float = 0.0

    @property
    def n(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def max_leaf_weight(self) -> int | float:
        return max(self.leaf_weights)

    @property
    def imbalance(self) -> float:
        return self.max_leaf_weight * self.k / self.total_weight - 1.0


def _resolve_total(source, header: GraphHeader) -> int | float:
    if not header.has_node_weights:
        return header.n
    return total_node_weight(source)


def prepare_tree(
    source,
    hierarchy: HierarchySpec | None = None,
    k: int | None = None,
    base: int = 4,
    eps: float = 0.03,
) -> tuple[MultiSectionTree, GraphHeader]:
    """Build a capacity-stamped tree sized for ``source``.

    Exactly one of ``hierarchy`` and ``k`` must be given; ``k`` synthesizes a
    base-b tree. Penalty constants are stamped from the header's n and m.
    """
    if (hierarchy is None) == (k is None):
        raise ValueError("give exactly one of hierarchy or k")
    header = peek_header(source)
    total = _resolve_total(source, header)
    blocks = hierarchy.k if hierarchy is not None else k
    lmax = compute_lmax(total, blocks, eps)
    if hierarchy is not None:
        tree = build_tree_explicit(hierarchy, lmax)
    else:
        tree = build_tree_synth(k, base, lmax)
    tree.set_alphas(header.n, header.m)
    return tree, header


# ----------------------------------------------------------------------------
# Tree descent
# ----------------------------------------------------------------------------


def _result_from_tree(
    tree: MultiSectionTree,
    assignment: list[int],
    total: int | float,
    counters: RunCounters,
    config: RunConfig,
    mode: str,
    seconds: float,
) -> PartitionResult:
    arr = np.asarray(assignment, dtype=np.int32)
    if bool((arr == UNASSIGNED).any()):
        raise RuntimeError("pass ended with unassigned nodes")
    return PartitionResult(
        assignment=arr,
        k=tree.k,
        lmax=tree.lmax,
        total_weight=total,
        # a root-only tree (k=1) places every node on the root, whose weight
        # the drivers never update
        leaf_weights=tree.leaf_weights() if tree.depth else [total],
        counters=counters,
        algorithm=config.algorithm,
        mode=mode,
        assign_seconds=seconds,
    )


def partition_oms(source, tree: MultiSectionTree, config: RunConfig) -> PartitionResult:
    """Single-pass recursive multi-section over ``tree``.

    Each node descends from the root to a leaf, which is its PE. Resets tree
    weights, so a tree can be reused across runs. Candidate penalty
    constants must already be stamped (see :func:`prepare_tree`). The total
    node weight is summed during the pass, in stream order.
    """
    header = peek_header(source)
    scored_levels = config.scored_levels(tree.depth)
    algorithm = config.algorithm
    seed = config.seed
    tree.reset_weights()
    counters = RunCounters()
    assignment = [UNASSIGNED] * header.n
    wide: dict[int, WideGroup] = {}  # parent block id -> numpy form of its children
    total: int | float = 0
    started = time.perf_counter()
    for rec in open_stream(source):
        cw = rec.weight
        nid = rec.id
        total += cw
        counters.nodes_processed += 1
        counters.edges_scanned += len(rec.neighbors)
        nbr_pes: list[int] = []
        nbr_ws: list[int | float] = []
        if scored_levels:
            for v, w in rec.neighbors:
                pe = assignment[v]
                if pe != UNASSIGNED:
                    nbr_pes.append(pe)
                    nbr_ws.append(w)
        block = tree.root
        depth = 0
        while kids := tree.children_of(block):
            s = len(kids)
            if depth >= scored_levels:
                # levels below a hashed one hash too, so counts are never read
                j, overflow = select_block(kids, (), cw, "hashing", seed, nid, parent_id=block.id)
                counters.hash_assignments += 1
            else:
                # Siblings split the parent's range by _split_sizes: r children
                # of q+1 PEs, then children of q PEs.
                lo = block.cover_lo
                q, r = divmod(block.cover_hi - lo + 1, s)
                q1 = q + 1
                mid = lo + r * q1
                if s > WIDE_FANOUT:
                    group = wide.get(block.id)
                    if group is None:
                        group = wide[block.id] = WideGroup(kids, algorithm)
                    idx = [(pe - lo) // q1 if pe < mid else r + (pe - mid) // q for pe in nbr_pes]
                    j, overflow = group.select(idx, nbr_ws, cw)
                else:
                    counts = [0.0] * s
                    for t in range(len(nbr_pes)):
                        pe = nbr_pes[t]
                        if pe < mid:
                            counts[(pe - lo) // q1] += nbr_ws[t]
                        else:
                            counts[r + (pe - mid) // q] += nbr_ws[t]
                    j, overflow = select_block(
                        kids, counts, cw, algorithm, seed, nid, parent_id=block.id
                    )
                counters.score_evaluations += s
                chosen = kids[j]
                if nbr_pes and chosen.children:
                    lo, hi = chosen.cover_lo, chosen.cover_hi
                    nbr_ws = [w for pe, w in zip(nbr_pes, nbr_ws) if lo <= pe <= hi]
                    nbr_pes = [pe for pe in nbr_pes if lo <= pe <= hi]
            if overflow:
                counters.overflow_events += 1
            block = kids[j]
            block.weight += cw
            depth += 1
        assignment[nid] = block.cover_lo
    seconds = time.perf_counter() - started
    return _result_from_tree(tree, assignment, total, counters, config, "oms", seconds)


def multipass_reference(source, tree: MultiSectionTree, config: RunConfig) -> PartitionResult:
    """Hierarchical split as one full sweep per tree level.

    Sweep d refines every node one level deeper; nodes already sitting on a
    leaf carry their placement through later sweeps. ``tree`` comes from
    :func:`prepare_tree`, as for :func:`partition_oms`. Requires a
    re-openable source.
    """
    header = peek_header(source)
    total = _resolve_total(source, header)
    scored_levels = config.scored_levels(tree.depth)
    tree.reset_weights()
    counters = RunCounters()
    blocks = tree.blocks
    n = header.n
    current = [0] * n  # block id per node; starts at the root
    started = time.perf_counter()
    for depth in range(tree.depth):
        hashed = depth >= scored_levels
        algorithm = "hashing" if hashed else config.algorithm
        placed = [-1] * n  # this sweep's block id, -1 until the node passes by
        for rec in open_stream(source):
            counters.nodes_processed += 1
            counters.edges_scanned += len(rec.neighbors)
            nid = rec.id
            parent = blocks[current[nid]]
            if parent.is_leaf:
                placed[nid] = parent.id
                continue
            kids = tree.children_of(parent)
            s = len(kids)
            counts = [0.0] * s
            pid = parent.id
            for v, w in rec.neighbors:
                b = placed[v]
                if b >= 0 and blocks[b].parent == pid:
                    counts[blocks[b].pos] += w
            j, overflow = select_block(
                kids, counts, rec.weight, algorithm, config.seed, nid, parent_id=pid
            )
            if hashed:
                counters.hash_assignments += 1
            else:
                counters.score_evaluations += s
            if overflow:
                counters.overflow_events += 1
            chosen = kids[j]
            chosen.weight += rec.weight
            placed[nid] = chosen.id
        current = placed
    seconds = time.perf_counter() - started
    assignment = [blocks[b].cover_lo for b in current]
    return _result_from_tree(tree, assignment, total, counters, config, "multipass", seconds)


def partition_flat(source, k: int, config: RunConfig) -> PartitionResult:
    """Classical one-pass k-way partitioning: the descent of a depth-1 tree.

    Scored rules evaluate all k blocks per node (with numpy once k exceeds
    ``WIDE_FANOUT``); hashing places each node with a single hash plus a
    forward probe when its target is full. At k=1 the tree is its root
    alone, so nodes are placed without any selection being counted.
    """
    tree, _ = prepare_tree(source, k=k, base=max(k, 2), eps=config.eps)
    result = partition_oms(source, tree, config)
    result.mode = "flat"
    return result
