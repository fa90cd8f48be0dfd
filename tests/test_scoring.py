from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammap.scoring import GAMMA, hashing_assign, select_block


def view(counts, weights, capacities, alphas=None, node_weight=1):
    """Positional arguments of ``select_block`` before the algorithm."""
    return weights, capacities, alphas or [0.0] * len(weights), counts, node_weight


def winner(v, alg="fennel"):
    j, overflow = select_block(*v, alg)
    assert not overflow
    return j


def assert_tie(alg, a, b):
    """Two (count, weight, capacity, alpha) candidates of equal weight score
    exactly the same: the tie goes to the lower index, so index 0 wins
    whichever of them comes first."""
    assert a[1] == b[1]
    for first, second in ((a, b), (b, a)):
        counts, weights, caps, alphas = zip(first, second)
        assert winner(view(list(counts), list(weights), list(caps), list(alphas)), alg) == 0


# Fennel and ldg scores are pinned through ``select_block``: a candidate's
# score is read off an exact tie with a reference candidate of the same
# weight. A fennel reference at alpha 0 scores its count; an ldg reference
# scores count * (1 - weight / capacity) with every factor exact in binary.


class TestFennelScore:
    def test_zero_weight_block_scores_neighbor_count(self):
        # no penalty at weight 0, however large alpha is
        v = view([3.0, 2.5], [0, 0], [100, 100], alphas=[5.0, 0.0])
        assert winner(v) == 0
        v = view([2.5, 3.0], [0, 0], [100, 100], alphas=[5.0, 0.0])
        assert winner(v) == 1

    def test_pure_penalty(self):
        # a weight-4 block at alpha 1 pays exactly 1.5 * sqrt(4) = 3
        assert_tie("fennel", (3.0, 4, 100, 1.0), (0.0, 4, 100, 0.0))
        v = view([3.0, 0.0], [4, 0], [100, 100], alphas=[1.0, 1.0])
        assert winner(v) == 1

    def test_full_block_gets_sentinel(self):
        # the full block loses to an open one that scores far below zero
        v = view([9.0, 0.0], [10, 99], [10, 1000], alphas=[1.0, 10.0])
        assert winner(v) == 1

    def test_gamma_fixed(self):
        # penalty alpha * GAMMA * weight^(GAMMA - 1): 1.5 * sqrt(16) = 6
        assert GAMMA == 1.5
        assert_tie("fennel", (6.0, 16, 100, 1.0), (0.0, 16, 100, 0.0))
        v = view([6.0, 0.0], [16, 0], [100, 100], alphas=[1.0, 1.0])
        assert winner(v) == 1

    @settings(max_examples=60, deadline=None)
    @given(w1=st.integers(0, 50), w2=st.integers(0, 50), count=st.floats(0, 10),
           alpha=st.floats(0.001, 5))
    def test_strictly_decreasing_in_weight(self, w1, w2, count, alpha):
        if w1 == w2:
            return
        lo, hi = sorted([w1, w2])
        # the lighter block's score, carried by a penalty-free reference at
        # the heavier weight; the heavier block comes first, so it would win
        # a tie
        light = count - (alpha * GAMMA) * math.sqrt(lo)
        v = view([count, light], [hi, hi], [1000, 1000], alphas=[alpha, 0.0])
        assert winner(v) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        c1=st.integers(0, 40).map(lambda x: x / 4),
        c2=st.integers(0, 40).map(lambda x: x / 4),
        w=st.integers(0, 50),
    )
    def test_strictly_increasing_in_neighbors(self, c1, c2, w):
        # quarter-integer counts keep differences representable in float64;
        # at equal weights a tie would go to index 0
        if c1 == c2:
            return
        lo, hi = sorted([c1, c2])
        v = view([lo, hi], [w, w], [1000, 1000], alphas=[1.0, 1.0])
        assert winner(v) == 1


class TestLdgScore:
    def test_half_full_block(self):
        # 3 neighbours at half capacity score exactly 3 * (1 - 10/20) = 1.5,
        # as do 2 at a quarter: 2 * (1 - 10/40)
        assert_tie("ldg", (3.0, 10, 20, 0.0), (2.0, 10, 40, 0.0))
        v = view([3.0, 1.5], [10, 0], [20, 20])
        assert winner(v, "ldg") == 1

    def test_full_block_scores_zero(self):
        # a full block is never chosen while a sibling is open, neighbours or not
        v = view([7.0, 0.0], [20, 19], [20, 20])
        assert winner(v, "ldg") == 1

    def test_no_neighbors_scores_zero(self):
        # without neighbours ldg scores zero whatever the capacity and the
        # weight; between different weights the tie-break takes the lighter
        assert_tie("ldg", (0.0, 3, 20, 0.0), (0.0, 3, 40, 0.0))
        v = view([0.0, 0.0], [3, 0], [20, 20])
        assert winner(v, "ldg") == 1

    def test_uses_own_heterogeneous_capacity(self):
        # 2 neighbours at weight 6 score 2 * (1 - 6/12) = 1.0 under capacity
        # 12 and 2 * (1 - 6/48) = 1.75 under capacity 48; the references
        # score 4 * (1 - 6/8) = 1.0 and 3.5 * (1 - 6/12) = 1.75
        for cap, ref in ((12, (4.0, 6, 8, 0.0)), (48, (3.5, 6, 12, 0.0))):
            assert_tie("ldg", (2.0, 6, cap, 0.0), ref)
        # a shared capacity would tie these two, and a tie goes to index 0
        v = view([2.0, 2.0], [5, 5], [10, 40])
        assert winner(v, "ldg") == 1


class TestHashing:
    def test_single_candidate(self):
        assert hashing_assign(123, 1, 7) == 0

    def test_deterministic(self):
        for node in (0, 1, 99, 12345):
            assert hashing_assign(node, 4, 3, 17) == hashing_assign(node, 4, 3, 17)

    def test_parent_mixes_the_hash(self):
        picks_a = [hashing_assign(i, 4, 0, parent_id=1) for i in range(200)]
        picks_b = [hashing_assign(i, 4, 0, parent_id=2) for i in range(200)]
        assert picks_a != picks_b

    def test_seed_changes_assignment(self):
        picks_a = [hashing_assign(i, 4, 0) for i in range(200)]
        picks_b = [hashing_assign(i, 4, 1) for i in range(200)]
        assert picks_a != picks_b

    def test_uniform_within_four_sigma(self):
        # binomial(1e5, 1/4): sigma = sqrt(n p (1-p)) ~ 136.9; 4 sigma ~ 548
        n, s = 100_000, 4
        counts = [0] * s
        for i in range(n):
            counts[hashing_assign(i, s, seed=42)] += 1
        sigma = math.sqrt(n * 0.25 * 0.75)
        for c in counts:
            assert abs(c - n / s) <= 4 * sigma

    def test_needs_candidates(self):
        with pytest.raises(ValueError):
            hashing_assign(1, 0, 0)


class TestSelectBlock:
    def test_tie_broken_by_lower_weight(self):
        # equal scores, weights 5 vs 3: pick the lighter one
        v = view([2.0, 2.0], [5, 3], [100, 100], alphas=[0.0, 0.0])
        assert select_block(*v, "fennel") == (1, False)

    def test_full_block_never_beats_open_one(self):
        v = view([9.0, 0.5], [10, 2], [10, 10], alphas=[0.0, 0.0])
        assert select_block(*v, "fennel") == (1, False)
        assert select_block(*v, "ldg") == (1, False)

    def test_all_full_returns_min_weight_with_overflow(self):
        v = view([0.0, 0.0], [30, 29], [30, 29], alphas=[0.0, 0.0])
        assert select_block(*v, "fennel") == (1, True)

    def test_all_zero_counts_returns_lowest_id(self):
        v = view([0.0, 0.0, 0.0], [4, 4, 4], [10, 10, 10], alphas=[1.0] * 3)
        for alg in ("fennel", "ldg"):
            j, _ = select_block(*v, alg)
            assert j == 0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_block([], [], [], [], 1, "fennel")

    def test_unknown_algorithm_rejected(self):
        # no rule runs for a name outside ALGORITHMS, not even ldg's
        with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
            select_block(*view([1.0, 0.0], [0, 0], [5, 5]), "nope")

    def test_hashing_respects_capacity_by_probing(self):
        weights, caps = [5, 0, 5, 5], [5, 5, 5, 5]
        j, overflow = select_block(*view([0.0] * 4, weights, caps), "hashing", seed=0, node_id=3)
        assert weights[j] + 1 <= caps[j]
        assert not overflow

    def test_hashing_all_full_overflows_to_lightest(self):
        v = view([0.0] * 3, [6, 5, 7], [5, 5, 5])
        assert select_block(*v, "hashing", node_id=5) == (1, True)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        alg=st.sampled_from(["fennel", "ldg"]),
        s=st.integers(1, 6),
    )
    def test_choice_is_min_of_score_weight_index(self, data, alg, s):
        # the choice is the minimum of (-score, weight, index) over the open
        # candidates; with none open, the minimum of (weight, index)
        counts = data.draw(
            st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.5]), min_size=s, max_size=s)
        )
        weights = data.draw(st.lists(st.integers(0, 6), min_size=s, max_size=s))
        caps = data.draw(st.lists(st.integers(4, 9), min_size=s, max_size=s))
        alpha = 0.7

        def score(j):
            if alg == "fennel":
                return counts[j] - (alpha * GAMMA) * math.sqrt(weights[j])
            return counts[j] * (1.0 - weights[j] / caps[j])

        choice = select_block(*view(counts, weights, caps, alphas=[alpha] * s), alg)
        open_ = [j for j in range(s) if weights[j] + 1 <= caps[j]]
        if open_:
            assert choice == (min(open_, key=lambda j: (-score(j), weights[j], j)), False)
        else:
            assert choice == (min(range(s), key=lambda j: (weights[j], j)), True)
