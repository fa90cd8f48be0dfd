"""One-pass assignment drivers.

``partition_flat`` is the classical baseline: every streamed node is scored
against all k blocks (or hashed straight to one). ``partition_oms`` descends
a multi-section tree instead: at each internal block the node is scored only
against that block's children, so a node reaches its final block after
depth-many small selections instead of one k-wide scan. The descent stores
one leaf id per node; ancestors are recovered from covered PE ranges, never
stored.

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
    NodeRecord,
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
    global_alpha,
)
from .scoring import GAMMA, NEG_INF, ScorerConfig, SubproblemView, hashing_assign, select_block

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
    tie_break: str = "weight-id"

    def __post_init__(self) -> None:
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.hybrid_h is not None and self.hybrid_h < 0:
            raise ValueError(f"hybrid_h must be >= 0, got {self.hybrid_h}")
        ScorerConfig(self.algorithm, self.seed, self.tie_break)  # validates names

    def scorer(self, algorithm: str | None = None) -> ScorerConfig:
        return ScorerConfig(algorithm or self.algorithm, self.seed, self.tie_break)


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


def _assign_node(
    rec: NodeRecord,
    tree: MultiSectionTree,
    assignment: list[int],
    main_cfg: ScorerConfig,
    hash_cfg: ScorerConfig,
    hybrid_h: int | None,
    counters: RunCounters,
) -> None:
    """Descend ``rec`` from the root to a leaf and record its PE."""
    counters.nodes_processed += 1
    counters.edges_scanned += len(rec.neighbors)
    nbr_pes: list[int] = []
    nbr_ws: list[int | float] = []
    for v, w in rec.neighbors:
        pe = assignment[v]
        if pe != UNASSIGNED:
            nbr_pes.append(pe)
            nbr_ws.append(w)
    block = tree.root
    depth = 0
    cw = rec.weight
    nid = rec.id
    while True:
        kids = tree.children_of(block)
        if not kids:
            break
        s = len(kids)
        counts = [0.0] * s
        for t in range(len(nbr_pes)):
            pe = nbr_pes[t]
            for j in range(s):
                kb = kids[j]
                if kb.cover_lo <= pe <= kb.cover_hi:
                    counts[j] += nbr_ws[t]
                    break
        cfg = main_cfg if (hybrid_h is None or depth < hybrid_h) else hash_cfg
        j, overflow = select_block(
            SubproblemView(kids, counts, cw), cfg, node_id=nid, parent_id=block.id
        )
        if cfg.algorithm == "hashing":
            counters.hash_assignments += 1
        else:
            counters.score_evaluations += s
        if overflow:
            counters.overflow_events += 1
        chosen = kids[j]
        chosen.weight += cw
        if nbr_pes and s > 1:
            lo, hi = chosen.cover_lo, chosen.cover_hi
            kept_pes: list[int] = []
            kept_ws: list[int | float] = []
            for t in range(len(nbr_pes)):
                pe = nbr_pes[t]
                if lo <= pe <= hi:
                    kept_pes.append(pe)
                    kept_ws.append(nbr_ws[t])
            nbr_pes, nbr_ws = kept_pes, kept_ws
        block = chosen
        depth += 1
    assignment[nid] = block.cover_lo


def _check_hybrid(config: RunConfig, depth: int) -> None:
    if config.hybrid_h is not None and config.hybrid_h > depth:
        raise ValueError(f"hybrid_h={config.hybrid_h} exceeds tree depth {depth}")


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

    Resets tree weights, so a tree can be reused across runs. Candidate
    penalty constants must already be stamped (see :func:`prepare_tree`).
    """
    header = peek_header(source)
    total = _resolve_total(source, header)
    _check_hybrid(config, tree.depth)
    tree.reset_weights()
    main_cfg = config.scorer()
    hash_cfg = config.scorer("hashing")
    counters = RunCounters()
    assignment = [UNASSIGNED] * header.n
    started = time.perf_counter()
    for rec in open_stream(source):
        _assign_node(rec, tree, assignment, main_cfg, hash_cfg, config.hybrid_h, counters)
    seconds = time.perf_counter() - started
    return _result_from_tree(tree, assignment, total, counters, config, "oms", seconds)


def multipass_reference(
    source,
    tree_or_spec: MultiSectionTree | HierarchySpec,
    config: RunConfig,
) -> PartitionResult:
    """Hierarchical split as one full sweep per tree level.

    Sweep d refines every node one level deeper; nodes already sitting on a
    leaf carry their placement through later sweeps. Requires a re-openable
    source.
    """
    header = peek_header(source)
    total = _resolve_total(source, header)
    if isinstance(tree_or_spec, HierarchySpec):
        lmax = compute_lmax(total, tree_or_spec.k, config.eps)
        tree = build_tree_explicit(tree_or_spec, lmax)
        tree.set_alphas(header.n, header.m)
    else:
        tree = tree_or_spec
    _check_hybrid(config, tree.depth)
    tree.reset_weights()
    main_cfg = config.scorer()
    hash_cfg = config.scorer("hashing")
    counters = RunCounters()
    blocks = tree.blocks
    n = header.n
    current = [0] * n  # block id per node; starts at the root
    started = time.perf_counter()
    for depth in range(tree.depth):
        cfg = main_cfg if (config.hybrid_h is None or depth < config.hybrid_h) else hash_cfg
        hashed = cfg.algorithm == "hashing"
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
                SubproblemView(kids, counts, rec.weight), cfg, node_id=nid, parent_id=pid
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


# ----------------------------------------------------------------------------
# Flat k-way baselines
# ----------------------------------------------------------------------------


def _vector_select(
    scores: np.ndarray, weights: np.ndarray, tie_break: str
) -> int:
    """Argmax with the same tie-break semantics as the scalar selection."""
    best = scores.max()
    if best == NEG_INF:
        return -1
    ties = np.flatnonzero(scores == best)
    if ties.shape[0] == 1 or tie_break == "id":
        return int(ties[0])
    order = np.lexsort((ties, weights[ties]))
    return int(ties[order[0]])


def partition_flat(source, k: int, config: RunConfig) -> PartitionResult:
    """Classical one-pass k-way partitioning.

    Scored rules evaluate all k blocks per node (vectorized, but arithmetic
    and tie-breaks match the scalar selection bit for bit); hashing places
    each node with a single hash plus a forward probe when its target is
    full.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    header = peek_header(source)
    total = _resolve_total(source, header)
    lmax = compute_lmax(total, k, config.eps)
    if k * lmax < total:
        raise AssertionError("capacity below total weight despite ceiling")
    counters = RunCounters()
    n = header.n
    assignment = [UNASSIGNED] * n
    weights = np.zeros(k, dtype=np.float64)
    hashing = config.algorithm == "hashing"
    fennel = config.algorithm == "fennel"
    alpha_gamma = global_alpha(n, header.m, k) * GAMMA
    counts = np.zeros(k, dtype=np.float64)
    started = time.perf_counter()
    if hashing:
        scorer = config.scorer()
        py_weights = [0.0] * k
        for rec in open_stream(source):
            counters.nodes_processed += 1
            counters.edges_scanned += len(rec.neighbors)
            counters.hash_assignments += 1
            cw = rec.weight
            start = hashing_assign(rec.id, k, scorer.seed, parent_id=0)
            j = -1
            for step in range(k):
                cand = (start + step) % k
                if py_weights[cand] + cw <= lmax:
                    j = cand
                    break
            if j < 0:
                counters.overflow_events += 1
                j = min(range(k), key=lambda b: (py_weights[b], b))
            assignment[rec.id] = j + 1
            py_weights[j] += cw
        weights[:] = py_weights
    else:
        for rec in open_stream(source):
            counters.nodes_processed += 1
            counters.edges_scanned += len(rec.neighbors)
            counters.score_evaluations += k
            cw = rec.weight
            touched = []
            for v, w in rec.neighbors:
                pe = assignment[v]
                if pe != UNASSIGNED:
                    counts[pe - 1] += w
                    touched.append(pe - 1)
            if fennel:
                scores = counts - alpha_gamma * np.sqrt(weights)
            else:
                scores = counts * (1.0 - weights / lmax)
            scores[weights + cw > lmax] = NEG_INF
            j = _vector_select(scores, weights, config.tie_break)
            if j < 0:
                counters.overflow_events += 1
                order = np.lexsort((np.arange(k), weights))
                j = int(order[0])
            assignment[rec.id] = j + 1
            weights[j] += cw
            if touched:
                counts[touched] = 0.0
    seconds = time.perf_counter() - started
    leaf_weights = [int(w) if float(w).is_integer() else float(w) for w in weights]
    return PartitionResult(
        assignment=np.asarray(assignment, dtype=np.int32),
        k=k,
        lmax=lmax,
        total_weight=total,
        leaf_weights=leaf_weights,
        counters=counters,
        algorithm=config.algorithm,
        mode="flat",
        assign_seconds=seconds,
    )
