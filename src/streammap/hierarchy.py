"""Machine hierarchies, per-block capacities, and multi-section trees.

A hierarchy string like ``4:16:2`` reads bottom-up: each processor has 4
cores, each node 16 processors, each rack 2 nodes, for k = 128 processing
elements total. The matching distance string ``1:10:100`` gives the cost of
one unit of communication between PEs whose lowest shared module sits at each
level.

A multi-section tree arranges the k final blocks under nested super-blocks.
It is either derived from an explicit hierarchy (one tree level per hierarchy
layer) or synthesized for arbitrary k by recursive near-equal range splitting
with a branching base b. Every block covers a contiguous PE range [lo, hi];
its capacity is t * lmax where t is the number of PEs covered, and its
score-penalty constant shrinks with sqrt(t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "K_LIMIT",
    "HierarchySpec",
    "DistanceSpec",
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


class MultiSectionTree:
    """A multi-section tree as one array per block field; block 0 is the root.

    Block b covers PEs ``lo[b]`` .. ``hi[b]`` and has ``kids[b]`` children,
    which hold the consecutive ids ``first_kid[b]`` .. ``first_kid[b] +
    kids[b] - 1`` (``first_kid`` is 0 for a leaf). ``capacity[b]`` is the
    number of PEs covered times lmax, and ``alpha[b]`` the score-penalty
    constant of the block as a candidate, stamped per graph by
    :meth:`set_alphas`. ``weight`` is filled by the descent. The root is
    never a candidate and its weight never changes, so the weight cells are
    the non-root blocks, at most 2k of them when every fan-out is >= 2.
    """

    def __init__(self, first_kid: list[int], kids: list[int], lo: list[int], hi: list[int],
                 k: int, lmax: int | float, depth: int):
        self.first_kid = np.array(first_kid, dtype=np.int64)
        self.kids = np.array(kids, dtype=np.int64)
        self.lo = np.array(lo, dtype=np.int64)
        self.hi = np.array(hi, dtype=np.int64)
        self.capacity = (self.hi - self.lo + 1).astype(np.float64) * lmax
        self.alpha = np.zeros(self.lo.shape[0])
        self.weight = np.zeros(self.lo.shape[0])
        self.k = k
        self.lmax = lmax
        self.depth = depth
        self.max_kids = int(self.kids.max())

    @property
    def num_weight_cells(self) -> int:
        return self.lo.shape[0] - 1

    def leaf_weights(self, weight: np.ndarray) -> np.ndarray:
        """Per PE, in PE order, the entry of ``weight`` (one per block) at its leaf."""
        leaf = self.kids == 0
        out = np.zeros(self.k)
        out[self.lo[leaf] - 1] = weight[leaf]
        return out

    def set_alphas(self, n: int, m: int) -> None:
        """Stamp per-block penalty constants for a graph with n nodes, m edges."""
        self.alpha = global_alpha(n, m, self.k) / np.sqrt(self.hi - self.lo + 1)


def _split_sizes(t: int, parts: int) -> list[int]:
    # near-equal parts, larger first; reproduces floor-midpoint bisection at parts=2
    q, r = divmod(t, parts)
    return [q + 1] * r + [q] * (parts - r)


def _build_tree(k: int, lmax: int | float, fanout: Callable[[int, int], int]) -> MultiSectionTree:
    """Recursive range splitting of PEs 1..k.

    A block at depth d covering t > 1 PEs gets ``fanout(d, t)`` children
    over near-equal contiguous subranges (sizes differing by at most one,
    larger parts first); splitting stops at singletons. Ids are handed out
    depth first: a block's children take consecutive ids when it is split,
    and the subtree of each child is split before its next sibling.
    """
    first_kid, kids, lo, hi = [0], [0], [1], [k]
    depth = 0
    stack = [(0, 0)] if k > 1 else []  # (block, its depth), blocks still to split
    while stack:
        b, d = stack.pop()
        t = hi[b] - lo[b] + 1
        sizes = _split_sizes(t, fanout(d, t))
        first_kid[b], kids[b] = len(lo), len(sizes)
        split = []
        start = lo[b]
        for size in sizes:
            if size > 1:
                split.append((len(lo), d + 1))
            lo.append(start)
            start += size
            hi.append(start - 1)
        first_kid += [0] * len(sizes)
        kids += [0] * len(sizes)
        depth = max(depth, d + 1)
        stack += reversed(split)
    return MultiSectionTree(first_kid, kids, lo, hi, k, lmax, depth)


def build_tree_explicit(spec: HierarchySpec, lmax: int | float) -> MultiSectionTree:
    """Tree mirroring an explicit hierarchy.

    The root splits into a_ell super-blocks, each of those into a_{ell-1},
    down to the k leaves; a block containing t final blocks gets capacity
    t * lmax.
    """
    return _build_tree(spec.k, lmax, lambda depth, t: spec.levels[spec.ell - 1 - depth])


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
    return _build_tree(k, lmax, lambda depth, t: min(base, t))


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
