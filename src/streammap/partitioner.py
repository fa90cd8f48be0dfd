"""One-pass assignment drivers.

``partition_oms`` descends a multi-section tree: at each internal block the
node is scored only against that block's children, so a node reaches its
final block after depth-many small selections instead of one k-wide scan.
The descent stores one leaf id per node; ancestors are recovered from
covered PE ranges, never stored, and a neighbour's child at each level is
computed from its PE id. ``partition_flat``, the classical baseline that
scores every node against all k blocks (or hashes it straight to one), is
the same descent over a depth-1 tree with k leaves.

The descent runs in a small C kernel, ``_descent.c``, which places a chunk
of streamed nodes per call. It is compiled with the system ``gcc`` on first
use and cached beside this module's bytecode; a failed build raises OSError.

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

import functools
import os
import time
import zlib
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .graph_stream import (
    GraphHeader,
    StreamFormatError,
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

# Nodes per kernel call. Larger chunks save little time and grow peak memory
# with the chunk's records and arrays (16384 nodes of rgg 100k: +16 MB).
CHUNK_NODES = 2048
# One adjacency entry as the kernel reads it (its Edge struct).
_EDGE = np.dtype([("node", np.int64), ("weight", np.float64)])

KERNEL_SOURCE = Path(__file__).with_name("_descent.c")
KERNEL_CACHE = Path(__file__).with_name("__pycache__")
# No -ffast-math or -march=native: contracted or reassociated arithmetic would
# round differently from Python's doubles and break equality with
# multipass_reference.
KERNEL_CC = ("gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")


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
    assignment: list[int] | np.ndarray,
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


@functools.cache
def _load_kernel():
    """The compiled descent kernel, built on first use.

    The library is cached as ``KERNEL_CACHE/_descent-<crc32 of the source>.so``,
    so an edited source builds anew and an unchanged one is loaded as is.
    Raises OSError, naming the compiler command, when the build fails.
    """
    import ctypes

    source = KERNEL_SOURCE.read_bytes()
    lib_path = KERNEL_CACHE / f"_descent-{zlib.crc32(source):08x}.so"
    if not lib_path.exists():
        _build_kernel(lib_path)
    lib = ctypes.CDLL(str(lib_path))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.place_chunk.argtypes = (
        [ptr] * 8 + [i64, i64, ctypes.c_int, ctypes.c_uint64, i64, i64] + [ptr] * 6
    )
    lib.place_chunk.restype = ctypes.c_int
    return lib


def _build_kernel(lib_path: Path) -> None:
    import subprocess

    command = [*KERNEL_CC, str(KERNEL_SOURCE), "-lm"]
    # a private name, then an atomic rename: concurrent builders never load a
    # half-written library
    tmp = lib_path.with_name(f"{lib_path.stem}.{os.getpid()}.tmp")
    try:
        KERNEL_CACHE.mkdir(exist_ok=True)
        done = subprocess.run([*command, "-o", str(tmp)], capture_output=True, text=True)
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or [f"exit status {done.returncode}"]
            raise OSError(lines[0])
        os.replace(tmp, lib_path)
    except OSError as exc:
        raise OSError(f"cannot build the descent kernel with `{' '.join(command)}`: {exc}") from None
    finally:
        if tmp.exists():
            tmp.unlink()


def partition_oms(source, tree: MultiSectionTree, config: RunConfig) -> PartitionResult:
    """Single-pass recursive multi-section over ``tree``.

    Each node descends from the root to a leaf, which is its PE. The descent
    runs in the compiled kernel (``_descent.c``), one call per chunk of
    ``CHUNK_NODES`` streamed nodes; it makes :func:`select_block`'s decisions
    bit for bit. Resets tree weights, so a tree can be reused across runs,
    and leaves each block's final weight in ``Block.weight``. Candidate
    penalty constants must already be stamped (see :func:`prepare_tree`).
    The total node weight is summed during the pass, in stream order.
    """
    header = peek_header(source)
    n = header.n
    scored_levels = config.scored_levels(tree.depth)
    fennel = config.algorithm == "fennel"
    lib = _load_kernel()
    blocks = tree.blocks
    nb = len(blocks)
    first_kid = np.fromiter((b.children[0] if b.children else 0 for b in blocks), np.int64, nb)
    kids = np.fromiter((len(b.children) for b in blocks), np.int64, nb)
    lo = np.fromiter((b.cover_lo for b in blocks), np.int64, nb)
    hi = np.fromiter((b.cover_hi for b in blocks), np.int64, nb)
    capacity = np.fromiter((b.capacity for b in blocks), np.float64, nb)
    alpha = np.fromiter((b.alpha for b in blocks), np.float64, nb)
    weight = np.zeros(nb)
    # each block's penalty term at weight 0: fennel's alpha * 1.5 * sqrt(0),
    # ldg's 1 - 0 / capacity; the kernel keeps it current as weights grow
    term = np.full(nb, 0.0 if fennel else 1.0)
    tree_args = (first_kid.ctypes.data, kids.ctypes.data, lo.ctypes.data, hi.ctypes.data,
                 capacity.ctypes.data, alpha.ctypes.data, weight.ctypes.data, term.ctypes.data,
                 int(kids.max()), scored_levels, fennel, config.seed % 2**64)
    assignment = np.zeros(n, dtype=np.int32)
    counts = np.zeros(5, dtype=np.int64)  # RunCounters' fields, in order
    total = np.zeros(1)
    run_args = (assignment.ctypes.data, counts.ctypes.data, total.ctypes.data)
    placed = 0
    ints = True  # every node weight so far is an int, so Python's sums would be ints
    started = time.perf_counter()
    records = iter(open_stream(source))
    while chunk := list(islice(records, CHUNK_NODES)):
        count = len(chunk)
        if placed + count > n:
            raise StreamFormatError(f"more records than n={n}")
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(r.neighbors) for r in chunk), np.int64, count), out=indptr[1:])
        adj = np.fromiter(chain.from_iterable(r.neighbors for r in chunk), _EDGE, int(indptr[-1]))
        if adj.shape[0] and not (0 <= adj["node"].min() and adj["node"].max() < n):
            raise StreamFormatError(f"a neighbour of nodes {placed}..{placed + count - 1} "
                                    f"lies outside [0, {n})")
        node_w = np.fromiter((r.weight for r in chunk), np.float64, count)
        ints = ints and all(isinstance(r.weight, int) for r in chunk)
        if lib.place_chunk(*tree_args, placed, count, indptr.ctypes.data, adj.ctypes.data,
                           node_w.ctypes.data, *run_args):
            raise MemoryError("descent kernel could not allocate its scratch buffers")
        placed += count
    seconds = time.perf_counter() - started
    cast = int if ints else float
    for b, w in zip(blocks, weight.tolist()):
        b.weight = cast(w)
    counters = RunCounters(*(int(c) for c in counts))
    return _result_from_tree(tree, assignment, cast(total[0]), counters, config, "oms", seconds)


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

    Scored rules evaluate all k blocks per node; hashing places each node
    with a single hash plus a forward probe when its target is full. At k=1
    the tree is its root alone, so nodes are placed without any selection
    being counted.
    """
    tree, _ = prepare_tree(source, k=k, base=max(k, 2), eps=config.eps)
    result = partition_oms(source, tree, config)
    result.mode = "flat"
    return result
