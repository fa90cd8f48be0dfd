"""Machine hierarchies, per-block capacities, and multi-section trees.

A hierarchy string like ``4:16:2`` reads bottom-up: each processor has 4
cores, each node 16 processors, each rack 2 nodes, for k = 128 processing
elements total. The matching distance string ``1:10:100`` gives the cost of
one unit of communication between PEs whose lowest shared module sits at each
level.

A multi-section tree arranges the k final blocks under nested super-blocks.
It is either derived from an explicit hierarchy (one tree level per hierarchy
layer) or synthesized for arbitrary k by recursive near-equal range splitting
with a branching base b. Every block covers a contiguous PE range
[cover_lo, cover_hi]; its capacity is t * lmax where t is the number of PEs
covered, and its score-penalty constant shrinks with sqrt(t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

__all__ = [
    "K_LIMIT",
    "HierarchySpec",
    "DistanceSpec",
    "Block",
    "MultiSectionTree",
    "parse_hierarchy",
    "parse_distances",
    "compute_lmax",
    "build_tree_explicit",
    "build_tree_synth",
    "global_alpha",
    "shared_level",
    "pe_distance",
]

# PE ids are stored as int32 in assignment arrays.
K_LIMIT = 2**31 - 1


@dataclass(frozen=True)
class HierarchySpec:
    """Branching factors a_1..a_ell, bottom layer first; k is their product."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("hierarchy needs at least one level")
        if any(a < 2 for a in self.levels):
            raise ValueError(f"every level must be >= 2, got {self.levels}")
        if self.k > K_LIMIT:
            raise ValueError(f"hierarchy defines k={self.k}, beyond supported {K_LIMIT}")

    @property
    def ell(self) -> int:
        return len(self.levels)

    @property
    def k(self) -> int:
        return math.prod(self.levels)


@dataclass(frozen=True)
class DistanceSpec:
    """Per-level communication distances d_1..d_ell."""

    distances: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.distances:
            raise ValueError("distance spec needs at least one level")
        if any(d < 0 for d in self.distances):
            raise ValueError(f"distances must be nonnegative, got {self.distances}")
        if any(a > b for a, b in zip(self.distances, self.distances[1:])):
            warnings.warn(
                f"distances {self.distances} are not monotonically nondecreasing",
                stacklevel=3,
            )


def parse_hierarchy(text: str) -> HierarchySpec:
    """Parse ``a1:a2:...:aell`` into a hierarchy, e.g. ``4:16:2`` -> k=128."""
    tokens = [t for t in text.split(":") if t != ""] if text else []
    if not tokens:
        raise ValueError(f"empty hierarchy string {text!r}")
    try:
        levels = tuple(int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"non-integer token in hierarchy string {text!r}") from None
    return HierarchySpec(levels)


def parse_distances(text: str) -> DistanceSpec:
    tokens = [t for t in text.split(":") if t != ""] if text else []
    if not tokens:
        raise ValueError(f"empty distance string {text!r}")
    try:
        distances = tuple(float(t) for t in tokens)
    except ValueError:
        raise ValueError(f"non-numeric token in distance string {text!r}") from None
    return DistanceSpec(distances)


def compute_lmax(total_node_weight: int | float, k: int, eps: float = 0.0) -> int:
    """Per-block capacity ceil((1 + eps) * total / k).

    Evaluated in exact rational arithmetic so boundary cases match hand
    arithmetic instead of drifting on binary rounding of eps.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    total = Fraction(total_node_weight) if isinstance(total_node_weight, int) else Fraction(
        str(total_node_weight)
    )
    if total <= 0:
        raise ValueError("total node weight must be positive")
    eps_frac = Fraction(eps) if isinstance(eps, int) else Fraction(str(eps))
    return int(math.ceil((1 + eps_frac) * total / k))


@dataclass(slots=True)
class Block:
    """One node of a multi-section tree.

    ``weight`` is the only field mutated during partitioning; every other
    field is frozen after construction. ``alpha`` is the additive-penalty
    constant used when this block is a scoring candidate; it is stamped per
    graph via :meth:`MultiSectionTree.set_alphas`.
    """

    id: int
    parent: int | None
    depth: int
    cover_lo: int
    cover_hi: int
    capacity: int | float
    pos: int = 0  # index within parent's children
    children: list[int] = field(default_factory=list)
    weight: int | float = 0
    alpha: float = 0.0

    @property
    def covered(self) -> int:
        return self.cover_hi - self.cover_lo + 1

    @property
    def is_leaf(self) -> bool:
        return not self.children


class MultiSectionTree:
    """Arena of blocks; blocks[0] is the root covering the full PE range.

    The root is virtual: it is never a scoring candidate and its weight is
    never updated, so the tracked weight cells are exactly the non-root
    blocks (at most 2k of them when every branching factor is >= 2).
    Children of any block occupy consecutive arena slots.
    """

    def __init__(self, blocks: list[Block], k: int, lmax: int | float):
        self.blocks = blocks
        self.k = k
        self.lmax = lmax
        self.depth = max(b.depth for b in blocks)
        self._kids: list[list[Block]] = [[blocks[c] for c in b.children] for b in blocks]

    @property
    def root(self) -> Block:
        return self.blocks[0]

    @property
    def num_weight_cells(self) -> int:
        return len(self.blocks) - 1

    def children_of(self, block: Block) -> list[Block]:
        return self._kids[block.id]

    def leaves(self) -> list[Block]:
        return [b for b in self.blocks if b.is_leaf]

    def leaf_weights(self) -> list[int | float]:
        out: list[int | float] = [0] * self.k
        for b in self.blocks:
            if b.is_leaf:
                out[b.cover_lo - 1] = b.weight
        return out

    def reset_weights(self) -> None:
        for b in self.blocks:
            b.weight = 0

    def set_alphas(self, n: int, m: int) -> None:
        """Stamp per-block penalty constants for a graph with n nodes, m edges."""
        a = global_alpha(n, m, self.k)
        for b in self.blocks:
            b.alpha = a / math.sqrt(b.covered)


def _split_sizes(t: int, parts: int) -> list[int]:
    # near-equal parts, larger first; reproduces floor-midpoint bisection at parts=2
    q, r = divmod(t, parts)
    return [q + 1] * r + [q] * (parts - r)


def _build_tree(k: int, lmax: int | float, fanout: Callable[[Block], int]) -> MultiSectionTree:
    """Recursive range splitting of PEs 1..k.

    A block covering t > 1 PEs gets ``fanout(block)`` children over
    near-equal contiguous subranges (sizes differing by at most one, larger
    parts first); recursion stops at singletons. Children take consecutive
    ids in depth-first order, and each block's capacity is t * lmax.
    """
    blocks = [Block(id=0, parent=None, depth=0, cover_lo=1, cover_hi=k, capacity=k * lmax)]

    def grow(parent: Block) -> None:
        t = parent.covered
        if t == 1:
            return
        lo = parent.cover_lo
        for pos, size in enumerate(_split_sizes(t, fanout(parent))):
            kid = Block(
                id=len(blocks),
                parent=parent.id,
                depth=parent.depth + 1,
                cover_lo=lo,
                cover_hi=lo + size - 1,
                capacity=size * lmax,
                pos=pos,
            )
            blocks.append(kid)
            parent.children.append(kid.id)
            lo += size
        for c in parent.children:
            grow(blocks[c])

    grow(blocks[0])
    return MultiSectionTree(blocks, k=k, lmax=lmax)


def build_tree_explicit(spec: HierarchySpec, lmax: int | float) -> MultiSectionTree:
    """Tree mirroring an explicit hierarchy.

    The root splits into a_ell super-blocks, each of those into a_{ell-1},
    down to the k leaves; a block containing t final blocks gets capacity
    t * lmax.
    """
    return _build_tree(spec.k, lmax, lambda b: spec.levels[spec.ell - 1 - b.depth])


def build_tree_synth(k: int, base: int, lmax: int | float) -> MultiSectionTree:
    """Synthesized tree for arbitrary k via recursive base-b range splitting.

    A block covering t > 1 final blocks gets min(b, t) children.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > K_LIMIT:
        raise ValueError(f"k={k} beyond supported {K_LIMIT}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    return _build_tree(k, lmax, lambda b: min(base, b.covered))


def global_alpha(n: int, m: int, k: int) -> float:
    """Additive-penalty constant sqrt(k) * m / n^(3/2) for a k-way split."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0 or k < 1:
        raise ValueError("need m >= 0 and k >= 1")
    return math.sqrt(k) * m / n**1.5


def shared_level(spec: HierarchySpec, x: int, y: int) -> int:
    """Lowest hierarchy level whose module contains both PEs; 0 when x == y."""
    k = spec.k
    if not (1 <= x <= k and 1 <= y <= k):
        raise ValueError(f"PE ids must lie in [1, {k}], got {x}, {y}")
    if x == y:
        return 0
    ex, ey = x - 1, y - 1
    module = 1
    for level, a in enumerate(spec.levels, start=1):
        module *= a
        if ex // module == ey // module:
            return level
    raise AssertionError("unreachable: top-level module spans all PEs")


def pe_distance(spec: HierarchySpec, dist: DistanceSpec, x: int, y: int) -> float:
    """Communication distance between PEs x and y (0 for x == y).

    Computed arithmetically from the PE ids; no k x k matrix is ever built.
    """
    if len(dist.distances) != spec.ell:
        raise ValueError(
            f"distance spec has {len(dist.distances)} levels, hierarchy has {spec.ell}"
        )
    level = shared_level(spec, x, y)
    if level == 0:
        return 0.0
    return dist.distances[level - 1]
