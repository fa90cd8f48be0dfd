from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_depths, children
from streammap.hierarchy import (
    DistanceSpec,
    HierarchySpec,
    build_tree_explicit,
    build_tree_synth,
    compute_lmax,
    global_alpha,
    parse_distances,
    parse_hierarchy,
    pe_distance,
    shared_level,
)

specs = st.lists(st.integers(2, 6), min_size=1, max_size=4).map(tuple)


class TestParsing:
    def test_three_level_hierarchy(self):
        spec = parse_hierarchy("4:16:2")
        assert spec.ell == 3
        assert spec.k == 128
        assert spec.levels == (4, 16, 2)

    def test_single_level(self):
        spec = parse_hierarchy("4")
        assert (spec.ell, spec.k) == (1, 4)

    def test_level_below_two_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            parse_hierarchy("4:1:2")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_hierarchy("")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_hierarchy("4:a:2")

    def test_k_overflow_rejected(self):
        with pytest.raises(ValueError, match="beyond supported"):
            parse_hierarchy(":".join(["2"] * 40))

    def test_distances_parse(self):
        d = parse_distances("1:10:100")
        assert d.distances == (1.0, 10.0, 100.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            parse_distances("1:-2")

    def test_non_monotone_distances_warn_not_fail(self):
        with pytest.warns(UserWarning, match="not monotonically"):
            d = parse_distances("10:1")
        assert d.distances == (10.0, 1.0)


class TestCapacity:
    def test_three_percent_slack(self):
        assert compute_lmax(100, 4, 0.03) == 26

    def test_exact_division(self):
        assert compute_lmax(100, 4, 0.0) == 25

    def test_ceiling_of_half(self):
        assert compute_lmax(7, 2, 0.0) == 4

    def test_rational_eps_boundary_is_exact(self):
        # 1.1 * 100 / 10 is exactly 11; binary eps must not bump it to 12
        assert compute_lmax(100, 10, 0.1) == 11

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            compute_lmax(100, 0, 0.0)
        with pytest.raises(ValueError):
            compute_lmax(100, 4, -0.1)

    @settings(max_examples=60, deadline=None)
    @given(total=st.integers(1, 10**6), k=st.integers(1, 512),
           eps=st.sampled_from([0.0, 0.03, 0.1, 0.5]))
    def test_capacity_is_minimal_feasible_ceiling(self, total, k, eps):
        cap = compute_lmax(total, k, eps)
        assert cap * k >= total
        from fractions import Fraction
        exact = (1 + Fraction(str(eps))) * total / k
        assert cap - 1 < exact <= cap


class TestExplicitTree:
    def test_two_by_two_shape(self):
        tree = build_tree_explicit(parse_hierarchy("2:2"), 10)
        assert [tree.capacity[c] for c in children(tree, 0)] == [20, 20]
        for c in children(tree, 0):
            assert [tree.capacity[g] for g in children(tree, c)] == [10, 10]
        assert tree.num_weight_cells == 6 <= 2 * tree.k

    def test_4_16_2_layer_sizes(self):
        tree = build_tree_explicit(parse_hierarchy("4:16:2"), 1)
        assert Counter(block_depths(tree)[1:]) == {1: 2, 2: 32, 3: 128}
        assert tree.kids.count(0) == 128
        assert tree.num_weight_cells == 162

    def test_single_level_two_leaves(self):
        tree = build_tree_explicit(parse_hierarchy("2"), 5)
        leaves = np.asarray(tree.kids) == 0
        assert int(leaves.sum()) == 2
        assert (np.asarray(tree.capacity)[leaves] == 5).all()

    def test_child_count_matches_level(self):
        spec = parse_hierarchy("3:5:2")
        tree = build_tree_explicit(spec, 1)
        for b, depth in enumerate(block_depths(tree)):
            if tree.kids[b]:
                assert tree.kids[b] == spec.levels[spec.ell - 1 - depth]

    @settings(max_examples=50, deadline=None)
    @given(levels=specs)
    def test_block_count_bound(self, levels):
        spec = HierarchySpec(levels)
        tree = build_tree_explicit(spec, 1)
        expected = sum(math.prod(levels[i:]) for i in range(len(levels)))
        # expected counts layer i as prod of a_i..a_ell in top-down layer terms
        total = sum(
            math.prod(levels[len(levels) - d:]) for d in range(1, len(levels) + 1)
        )
        assert tree.num_weight_cells == expected == total
        assert tree.num_weight_cells <= 2 * spec.k

    @settings(max_examples=50, deadline=None)
    @given(levels=specs, lmax=st.integers(1, 50))
    def test_children_capacities_sum_to_parent(self, levels, lmax):
        tree = build_tree_explicit(HierarchySpec(levels), lmax)
        for b in np.flatnonzero(tree.kids):
            assert sum(tree.capacity[c] for c in children(tree, b)) == tree.capacity[b]

    @settings(max_examples=50, deadline=None)
    @given(levels=specs)
    def test_children_contiguous_in_arena(self, levels):
        # the sibling runs first_kid[b] .. first_kid[b] + kids[b] - 1 cover
        # every non-root id exactly once
        tree = build_tree_explicit(HierarchySpec(levels), 1)
        nb = len(tree.kids)
        assert sorted(c for b in range(nb) for c in children(tree, b)) == list(range(1, nb))


class TestSynthTree:
    def test_k5_bisection_splits_three_two(self):
        tree = build_tree_synth(5, 2, 7)
        caps = [tree.capacity[c] for c in children(tree, 0)]
        assert caps == [21, 14]  # covers 3 then 2 final blocks
        assert sorted(caps) == [2 * 7, 3 * 7]

    def test_k4_perfect_binary(self):
        tree = build_tree_synth(4, 2, 3)
        leaves = np.asarray(tree.kids) == 0
        assert tree.depth == 2
        assert (np.asarray(tree.capacity)[leaves] == 3).all()
        assert int(leaves.sum()) == 4

    def test_k6_base4_split(self):
        tree = build_tree_synth(6, 4, 1)
        covered = np.asarray(tree.hi) - np.asarray(tree.lo) + 1
        assert [covered[c] for c in children(tree, 0)] == [2, 2, 1, 1]
        for c in children(tree, 0):
            if covered[c] == 2:
                assert tree.kids[c] == 2

    def test_k1_singleton(self):
        tree = build_tree_synth(1, 4, 9)
        assert tree.kids[0] == 0
        assert tree.num_weight_cells == 0

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 200), base=st.integers(2, 6))
    def test_leaves_partition_range_and_depth_bound(self, k, base):
        tree = build_tree_synth(k, base, 1)
        kids, lo, hi = np.asarray(tree.kids), np.asarray(tree.lo), np.asarray(tree.hi)
        leaves = kids == 0
        assert sorted(zip(lo[leaves].tolist(), hi[leaves].tolist())) == \
            [(i, i) for i in range(1, k + 1)]
        if k > 1:
            assert tree.depth <= math.ceil(math.log(k, base)) + 1
        assert ((2 <= kids[~leaves]) & (kids[~leaves] <= base)).all()
        assert tree.num_weight_cells <= 2 * k

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 128), base=st.integers(2, 5), lmax=st.integers(1, 9))
    def test_capacity_is_covered_times_lmax(self, k, base, lmax):
        tree = build_tree_synth(k, base, lmax)
        covered = np.asarray(tree.hi) - np.asarray(tree.lo) + 1
        assert (np.asarray(tree.capacity) == covered * lmax).all()


class TestAlpha:
    def test_global_alpha_value(self):
        assert global_alpha(1000, 10000, 16) == pytest.approx(1.26491, abs=1e-5)

    def test_layer_two_alpha_is_half(self):
        # levels 4:16:2 -> a block one level above the leaves covers 4 PEs
        spec = parse_hierarchy("4:16:2")
        tree = build_tree_explicit(spec, 1)
        tree.set_alphas(1000, 10000)
        a = global_alpha(1000, 10000, spec.k)
        above_leaves = [b for b, d in enumerate(block_depths(tree)) if d == spec.ell - 1]
        assert above_leaves and all(tree.hi[b] - tree.lo[b] + 1 == 4 for b in above_leaves)
        assert all(tree.alpha[b] == a / 2 for b in above_leaves)

    def test_leaf_alpha_is_global(self):
        for tree in (build_tree_explicit(parse_hierarchy("2:2:2"), 1),
                     build_tree_synth(8, 3, 1)):
            tree.set_alphas(50, 200)
            leaves = np.asarray(tree.kids) == 0
            assert (np.asarray(tree.alpha)[leaves] == global_alpha(50, 200, 8)).all()

    def test_zero_edges_degenerate(self):
        assert global_alpha(10, 0, 4) == 0.0

    def test_regular_synth_matches_explicit_layer_rule(self):
        # k = 4^3 regular tree: per-block constant equals the per-layer rule exactly
        k, n, m = 64, 5000, 20000
        synth = build_tree_synth(k, 4, 1)
        synth.set_alphas(n, m)
        explicit = build_tree_explicit(parse_hierarchy("4:4:4"), 1)
        explicit.set_alphas(n, m)

        def by_range(tree):
            return dict(zip(zip(tree.lo.tolist(), tree.hi.tolist()), tree.alpha.tolist()))

        assert by_range(synth) == by_range(explicit)
        a = global_alpha(n, m, k)
        for b, depth in enumerate(block_depths(explicit)):
            prod_below = 4 ** depth  # covered = k / 4^depth
            assert explicit.alpha[b] == a / math.sqrt(k / prod_below)


class TestDistance:
    def test_two_by_two_examples(self):
        spec = parse_hierarchy("2:2")
        d = parse_distances("1:10")
        assert pe_distance(spec, d, 1, 2) == 1
        assert pe_distance(spec, d, 1, 3) == 10
        assert pe_distance(spec, d, 2, 2) == 0

    def test_top_level_crossing(self):
        spec = parse_hierarchy("4:16:2")
        d = parse_distances("1:10:100")
        assert pe_distance(spec, d, 1, 65) == 100

    def test_out_of_range_pe(self):
        spec = parse_hierarchy("2:2")
        d = parse_distances("1:10")
        with pytest.raises(ValueError, match="PE ids"):
            pe_distance(spec, d, 0, 1)
        with pytest.raises(ValueError, match="PE ids"):
            pe_distance(spec, d, 1, 5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="levels"):
            pe_distance(parse_hierarchy("2:2"), DistanceSpec((1.0,)), 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(levels=specs, data=st.data())
    def test_symmetry_and_zero_diagonal(self, levels, data):
        spec = HierarchySpec(levels)
        d = DistanceSpec(tuple(float(i + 1) for i in range(spec.ell)))
        x = data.draw(st.integers(1, spec.k))
        y = data.draw(st.integers(1, spec.k))
        assert pe_distance(spec, d, x, y) == pe_distance(spec, d, y, x)
        assert pe_distance(spec, d, x, x) == 0

    def test_levels_agree_with_explicit_tree_ancestry(self):
        # lowest shared module level == depth where tree paths merge
        spec = parse_hierarchy("3:2:2")
        tree = build_tree_explicit(spec, 1)

        def path_blocks(pe: int) -> list[int]:
            ids = []
            b = 0
            while tree.kids[b]:
                for c in children(tree, b):
                    if tree.lo[c] <= pe <= tree.hi[c]:
                        ids.append(c)
                        b = c
                        break
            return ids

        for x in range(1, spec.k + 1):
            for y in range(x + 1, spec.k + 1):
                px, py = path_blocks(x), path_blocks(y)
                shared_depth = 0
                for bx, by in zip(px, py):
                    if bx != by:
                        break
                    shared_depth += 1
                assert shared_level(spec, x, y) == spec.ell - shared_depth
