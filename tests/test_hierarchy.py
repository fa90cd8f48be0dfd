from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        root = tree.root
        assert [tree.blocks[c].capacity for c in root.children] == [20, 20]
        for c in root.children:
            kid = tree.blocks[c]
            assert [tree.blocks[g].capacity for g in kid.children] == [10, 10]
        assert tree.num_weight_cells == 6 <= 2 * tree.k

    def test_4_16_2_layer_sizes(self):
        tree = build_tree_explicit(parse_hierarchy("4:16:2"), 1)
        by_depth: dict[int, int] = {}
        for b in tree.blocks[1:]:
            by_depth[b.depth] = by_depth.get(b.depth, 0) + 1
        assert by_depth == {1: 2, 2: 32, 3: 128}
        assert len(tree.leaves()) == 128
        assert tree.num_weight_cells == 162

    def test_single_level_two_leaves(self):
        tree = build_tree_explicit(parse_hierarchy("2"), 5)
        leaves = tree.leaves()
        assert len(leaves) == 2
        assert all(b.capacity == 5 for b in leaves)

    def test_child_count_matches_level(self):
        spec = parse_hierarchy("3:5:2")
        tree = build_tree_explicit(spec, 1)
        for b in tree.blocks:
            if b.is_leaf:
                continue
            expected = spec.levels[spec.ell - 1 - b.depth]
            assert len(b.children) == expected

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
        for b in tree.blocks:
            if not b.is_leaf:
                assert sum(tree.blocks[c].capacity for c in b.children) == b.capacity

    @settings(max_examples=50, deadline=None)
    @given(levels=specs)
    def test_children_contiguous_in_arena(self, levels):
        tree = build_tree_explicit(HierarchySpec(levels), 1)
        for b in tree.blocks:
            if b.children:
                first = b.children[0]
                assert b.children == list(range(first, first + len(b.children)))


class TestSynthTree:
    def test_k5_bisection_splits_three_two(self):
        tree = build_tree_synth(5, 2, 7)
        caps = [tree.blocks[c].capacity for c in tree.root.children]
        assert caps == [21, 14]  # covers 3 then 2 final blocks
        assert sorted(caps) == [2 * 7, 3 * 7]

    def test_k4_perfect_binary(self):
        tree = build_tree_synth(4, 2, 3)
        assert tree.depth == 2
        assert all(b.capacity == 3 for b in tree.leaves())
        assert len(tree.leaves()) == 4

    def test_k6_base4_split(self):
        tree = build_tree_synth(6, 4, 1)
        sizes = [tree.blocks[c].covered for c in tree.root.children]
        assert sizes == [2, 2, 1, 1]
        for c in tree.root.children:
            kid = tree.blocks[c]
            if kid.covered == 2:
                assert len(kid.children) == 2

    def test_k1_singleton(self):
        tree = build_tree_synth(1, 4, 9)
        assert tree.root.is_leaf
        assert tree.num_weight_cells == 0

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 200), base=st.integers(2, 6))
    def test_leaves_partition_range_and_depth_bound(self, k, base):
        tree = build_tree_synth(k, base, 1)
        leaves = sorted(tree.leaves(), key=lambda b: b.cover_lo)
        assert [(b.cover_lo, b.cover_hi) for b in leaves] == [(i, i) for i in range(1, k + 1)]
        if k > 1:
            assert tree.depth <= math.ceil(math.log(k, base)) + 1
        for b in tree.blocks:
            if not b.is_leaf:
                assert 2 <= len(b.children) <= base
        assert tree.num_weight_cells <= 2 * k

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 128), base=st.integers(2, 5), lmax=st.integers(1, 9))
    def test_capacity_is_covered_times_lmax(self, k, base, lmax):
        tree = build_tree_synth(k, base, lmax)
        for b in tree.blocks:
            assert b.capacity == b.covered * lmax


class TestAlpha:
    def test_global_alpha_value(self):
        assert global_alpha(1000, 10000, 16) == pytest.approx(1.26491, abs=1e-5)

    def test_layer_two_alpha_is_half(self):
        # levels 4:16:2 -> a block one level above the leaves covers 4 PEs
        spec = parse_hierarchy("4:16:2")
        tree = build_tree_explicit(spec, 1)
        tree.set_alphas(1000, 10000)
        a = global_alpha(1000, 10000, spec.k)
        above_leaves = [b for b in tree.blocks if b.depth == spec.ell - 1]
        assert above_leaves and all(b.covered == 4 for b in above_leaves)
        assert all(b.alpha == a / 2 for b in above_leaves)

    def test_leaf_alpha_is_global(self):
        for tree in (build_tree_explicit(parse_hierarchy("2:2:2"), 1),
                     build_tree_synth(8, 3, 1)):
            tree.set_alphas(50, 200)
            assert all(b.alpha == global_alpha(50, 200, 8) for b in tree.leaves())

    def test_zero_edges_degenerate(self):
        assert global_alpha(10, 0, 4) == 0.0

    def test_regular_synth_matches_explicit_layer_rule(self):
        # k = 4^3 regular tree: per-block constant equals the per-layer rule exactly
        k, n, m = 64, 5000, 20000
        synth = build_tree_synth(k, 4, 1)
        synth.set_alphas(n, m)
        explicit = build_tree_explicit(parse_hierarchy("4:4:4"), 1)
        explicit.set_alphas(n, m)
        by_range_synth = {(b.cover_lo, b.cover_hi): b.alpha for b in synth.blocks}
        by_range_expl = {(b.cover_lo, b.cover_hi): b.alpha for b in explicit.blocks}
        assert by_range_synth == by_range_expl
        a = global_alpha(n, m, k)
        for b in explicit.blocks[1:]:
            prod_below = 4 ** b.depth  # covered = k / 4^depth
            assert b.alpha == a / math.sqrt(k / prod_below)


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
            b = tree.root
            while not b.is_leaf:
                for c in b.children:
                    kb = tree.blocks[c]
                    if kb.cover_lo <= pe <= kb.cover_hi:
                        ids.append(kb.id)
                        b = kb
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
