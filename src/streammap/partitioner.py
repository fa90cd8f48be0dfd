"""One-pass assignment drivers.

``partition_oms`` descends a multi-section tree: at each internal block the
node is scored only against that block's children, so a node reaches its
final block after depth-many small selections instead of one k-wide scan.
The descent stores one leaf id per node; ancestors are recovered from
covered PE ranges, never stored, and a neighbour's child at each level is
computed from its PE id. ``partition_flat``, the classical baseline that
scores every node against all k blocks (or hashes it straight to one), is
the same descent over a depth-1 tree with k leaves.

The descent runs in a small C kernel, ``_descent.c``, which places one CSR
chunk of nodes (:func:`~streammap.graph_stream.open_chunks`) per call. It is
part of streammap's C library, which ``_native`` compiles with the system
``gcc`` on first use; a failed build raises OSError. Each placed chunk is
then charged to the run's quality (:class:`~streammap.metrics.QualitySums`),
so a run reports its quality without a second pass over the input.

``RunConfig`` (algorithm, eps, seed, hybrid_h) is the whole run
configuration. One rule, :meth:`RunConfig.scored_levels`, says which tree
levels the algorithm scores: the levels at that depth or deeper are hashed.
Both drivers apply it. The kernel repeats the arithmetic of
:func:`~streammap.scoring.select_block`, the one scalar selection call.

``multipass_reference`` realizes the same hierarchical split as repeated
sweeps over the input (one tree level per sweep), in Python, calling
``select_block`` for every selection. Because every decision in a sweep
depends only on nodes streamed earlier in that same sweep, its output
matches the single-pass descent node for node; the test suite leans on this
equivalence heavily, and it is what holds the kernel to the Python rule.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

from ._native import address, library
from .graph_stream import (
    CHUNK_NODES,
    GraphHeader,
    open_chunks,
    open_stream,
    peek_header,
    total_node_weight,
)
from .hierarchy import (
    DistanceSpec,
    HierarchySpec,
    MultiSectionTree,
    build_tree_explicit,
    build_tree_synth,
    compute_lmax,
)
from .metrics import QualityReport, QualitySums, evaluate
from .scoring import ALGORITHMS, select_block

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
    """Final placement, its quality, and run accounting.

    ``assignment`` is an ``array.array`` of int32 (typecode ``i``), one
    1-based PE id per node; ``np.frombuffer`` wraps it without a copy.
    ``assign_seconds`` times the pass without the quality charge, which
    ``evaluate_seconds`` times; ``tree_seconds`` times the tree's
    construction when the driver built it.
    """

    assignment: array
    k: int
    lmax: int | float
    total_weight: int | float
    leaf_weights: list[int | float]
    counters: RunCounters
    algorithm: str
    mode: str
    quality: QualityReport
    assign_seconds: float = 0.0
    evaluate_seconds: float = 0.0
    tree_seconds: float = 0.0

    @property
    def n(self) -> int:
        return len(self.assignment)

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
    assignment: list[int] | array,
    total: int | float,
    weight: array,
    counters: RunCounters,
    config: RunConfig,
    mode: str,
    quality: QualityReport,
    seconds: float,
    evaluate_seconds: float = 0.0,
) -> PartitionResult:
    arr = assignment if isinstance(assignment, array) else array("i", assignment)
    if UNASSIGNED in arr:
        raise RuntimeError("pass ended with unassigned nodes")
    # block weights are ints when every node weight was an int token
    cast = type(total)
    return PartitionResult(
        assignment=arr,
        k=tree.k,
        lmax=tree.lmax,
        total_weight=total,
        # a root-only tree (k=1) places every node on the root, whose weight
        # the drivers never update
        leaf_weights=([cast(w) for w in tree.leaf_weights(weight)] if tree.depth
                      else [total]),
        counters=counters,
        algorithm=config.algorithm,
        mode=mode,
        quality=quality,
        assign_seconds=seconds,
        evaluate_seconds=evaluate_seconds,
    )


def partition_oms(source, tree: MultiSectionTree, config: RunConfig,
                  hierarchy: HierarchySpec | None = None,
                  distances: DistanceSpec | None = None) -> PartitionResult:
    """Single-pass recursive multi-section over ``tree``.

    Each node descends from the root to a leaf, which is its PE. The descent
    runs in the compiled kernel (``_descent.c``), one call per CSR chunk of
    ``CHUNK_NODES`` nodes, on the tree's own arrays; it makes
    :func:`select_block`'s decisions bit for bit. It zeroes
    ``tree.weight`` first, so a tree can be reused across runs, and leaves
    each block's final weight there. Candidate penalty constants must
    already be stamped (see :func:`prepare_tree`). Each chunk is charged to
    :class:`~streammap.metrics.QualitySums` right after it is placed, so the
    result carries the quality that :func:`~streammap.metrics.evaluate`
    gives for its assignment, with the per-level cuts of ``hierarchy`` and
    the cost under ``distances`` when they are given, and the total node
    weight, with no second pass.
    """
    scored_levels = config.scored_levels(tree.depth)
    fennel = config.algorithm == "fennel"
    lib = library()
    blocks = len(tree.weight)
    tree.weight[:] = array("d", [0.0]) * blocks
    # each block's penalty term at weight 0: fennel's alpha * 1.5 * sqrt(0),
    # ldg's 1 - 0 / capacity; the kernel keeps it current as weights grow
    term = array("d", [0.0 if fennel else 1.0]) * blocks
    tree_args = (*map(address, (tree.first_kid, tree.kids, tree.lo, tree.hi, tree.capacity,
                                tree.alpha, tree.weight, term)),
                 tree.max_kids, scored_levels, fennel, config.seed % 2**64)
    counts = array("q", [0]) * 5  # RunCounters' fields, in order
    started = time.perf_counter()
    # every reader checks that there are n records with neighbours in [0, n)
    header, chunks = open_chunks(source, chunk_nodes=CHUNK_NODES)
    assignment = array("i", [0]) * header.n
    sums = QualitySums(header.n, tree.k, hierarchy, distances)
    run_args = (address(assignment), address(counts))
    charge_s = 0.0
    for chunk in chunks:
        if lib.place_chunk(*tree_args, chunk.first, chunk.count,
                           *map(address, (chunk.indptr, chunk.adj, chunk.adj_w, chunk.node_w)),
                           *run_args):
            raise MemoryError("descent kernel could not allocate its scratch buffers")
        charged = time.perf_counter()
        sums.charge(chunk, assignment)
        charge_s += time.perf_counter() - charged
    seconds = time.perf_counter() - started - charge_s
    counters = RunCounters(*counts)
    return _result_from_tree(tree, assignment, sums.total_node_weight, tree.weight, counters,
                             config, "oms", sums.report(), seconds, charge_s)


def multipass_reference(source, tree: MultiSectionTree, config: RunConfig) -> PartitionResult:
    """Hierarchical split as one full sweep per tree level.

    Sweep d refines every node one level deeper; nodes already sitting on a
    leaf carry their placement through later sweeps. ``tree`` comes from
    :func:`prepare_tree`, as for :func:`partition_oms`; its arrays are read,
    never written. Requires a re-openable source.
    """
    header = peek_header(source)
    total = _resolve_total(source, header)
    scored_levels = config.scored_levels(tree.depth)
    counters = RunCounters()
    first_kid, kids = tree.first_kid.tolist(), tree.kids.tolist()
    capacity, alpha = tree.capacity.tolist(), tree.alpha.tolist()
    weight: list[int | float] = [0] * len(kids)
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
            pid = current[nid]
            s = kids[pid]
            if s == 0:
                placed[nid] = pid
                continue
            first = first_kid[pid]
            counts = [0.0] * s
            for v, w in rec.neighbors:
                # a placed neighbour counts when its block is a child of pid
                c = placed[v] - first
                if 0 <= c < s:
                    counts[c] += w
            run = slice(first, first + s)
            j, overflow = select_block(weight[run], capacity[run], alpha[run], counts,
                                       rec.weight, algorithm, config.seed, nid, parent_id=pid)
            if hashed:
                counters.hash_assignments += 1
            else:
                counters.score_evaluations += s
            if overflow:
                counters.overflow_events += 1
            weight[first + j] += rec.weight
            placed[nid] = first + j
        current = placed
    seconds = time.perf_counter() - started
    lo = tree.lo.tolist()
    assignment = [lo[b] for b in current]
    quality = evaluate(source, assignment, k=tree.k)
    return _result_from_tree(tree, assignment, total, array("d", weight),
                             counters, config, "multipass", quality, seconds)


def partition_flat(source, k: int, config: RunConfig,
                   hierarchy: HierarchySpec | None = None,
                   distances: DistanceSpec | None = None) -> PartitionResult:
    """Classical one-pass k-way partitioning: the descent of a depth-1 tree.

    Scored rules evaluate all k blocks per node; hashing places each node
    with a single hash plus a forward probe when its target is full. At k=1
    the tree is its root alone, so nodes are placed without any selection
    being counted. ``hierarchy`` and ``distances`` only add to the charged
    quality, as for :func:`partition_oms`.
    """
    started = time.perf_counter()
    tree, _ = prepare_tree(source, k=k, base=max(k, 2), eps=config.eps)
    tree_seconds = time.perf_counter() - started
    result = partition_oms(source, tree, config, hierarchy, distances)
    result.mode, result.tree_seconds = "flat", tree_seconds
    return result
