"""Candidate-block scoring for one streamed node within one subproblem.

:func:`select_block` picks one of a block's children for the node under the
rule its ``algorithm`` string names, one of ``ALGORITHMS``:

* additive-penalty greedy ("fennel"): neighbors_in_block - alpha * gamma *
  weight^(gamma-1) with gamma fixed at 3/2
* multiplicative-penalty greedy ("ldg"): neighbors_in_block * (1 - weight /
  capacity), using each candidate's own capacity
* "hashing": a stable mix of (node id, seed, parent block id), blind to
  adjacency

A candidate is open when the node still fits under its capacity. Selection
only ever returns a closed candidate when every sibling is closed, which is
reported as an overflow event. Ties break toward the lighter block, then the
lower block id; there is no other tie rule. The descent decides which rule a
tree level uses (see ``RunConfig.scored_levels``).

This module is the rule's Python statement. ``multipass_reference`` scores
with it, and the compiled descent behind ``partition_oms`` (``_descent.c``)
repeats its arithmetic operation for operation, which the tests check by
comparing the two drivers.
"""

from __future__ import annotations

import math
from typing import Sequence

from .hierarchy import Block

__all__ = [
    "ALGORITHMS",
    "GAMMA",
    "NEG_INF",
    "hashing_assign",
    "select_block",
]

ALGORITHMS = ("fennel", "ldg", "hashing")
GAMMA = 1.5
NEG_INF = float("-inf")

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # murmur3 finalizer; full avalanche over 64 bits
    x &= _M64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _M64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _M64
    x ^= x >> 33
    return x


def hashing_assign(node_id: int, s: int, seed: int, parent_id: int = 0) -> int:
    """Deterministic candidate index in [0, s), uniform over node ids.

    The parent block id is mixed in so sibling subproblems hash
    independently of each other.
    """
    if s < 1:
        raise ValueError(f"need at least one candidate, got {s}")
    return _mix64(node_id ^ _mix64(seed ^ _mix64(parent_id))) % s


def _min_weight_index(blocks: Sequence[Block]) -> int:
    best = 0
    bw = blocks[0].weight
    bid = blocks[0].id
    for j in range(1, len(blocks)):
        b = blocks[j]
        if b.weight < bw or (b.weight == bw and b.id < bid):
            best, bw, bid = j, b.weight, b.id
    return best


def select_block(
    blocks: Sequence[Block],
    counts: Sequence[float],
    node_weight: int | float,
    algorithm: str,
    seed: int = 0,
    node_id: int = 0,
    parent_id: int = 0,
) -> tuple[int, bool]:
    """Pick a candidate index; the flag reports an all-candidates-full overflow.

    ``counts[j]`` is the edge weight from the node into candidate j's
    subtree; hashing never reads it. Scored rules take the argmax over open
    candidates, ties going to the lighter block, then the lower block id.
    Hashing takes the hashed index when open, else probes forward
    cyclically. When nothing is open the lightest candidate wins and the
    overflow flag is set. An ``algorithm`` outside ``ALGORITHMS`` raises
    ValueError.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected {ALGORITHMS}")
    s = len(blocks)
    if s == 0:
        raise ValueError("empty candidate set")
    cw = node_weight

    if algorithm == "hashing":
        start = hashing_assign(node_id, s, seed, parent_id)
        for step in range(s):
            j = (start + step) % s
            b = blocks[j]
            if b.weight + cw <= b.capacity:
                return j, False
        return _min_weight_index(blocks), True

    fennel = algorithm == "fennel"
    best_j = -1
    best_score = NEG_INF
    best_w: int | float = 0
    best_id = -1
    for j in range(s):
        b = blocks[j]
        w = b.weight
        if w + cw > b.capacity:
            continue
        if fennel:
            score = counts[j] - (b.alpha * GAMMA) * math.sqrt(w)
        else:
            score = counts[j] * (1.0 - w / b.capacity)
        if (
            best_j < 0
            or score > best_score
            or (score == best_score and (w < best_w or (w == best_w and b.id < best_id)))
        ):
            best_j, best_score, best_w, best_id = j, score, w, b.id
    if best_j < 0:
        return _min_weight_index(blocks), True
    return best_j, False
