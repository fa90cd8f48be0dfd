from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_edges, triangle
from streammap.graph_stream import GraphHeader, InMemoryGraph, NodeRecord, random_geometric
from streammap.hierarchy import parse_distances, parse_hierarchy, shared_level
from streammap.metrics import (
    ProfilePoint,
    aggregate,
    arithmetic_mean,
    evaluate,
    geometric_mean,
    improvement,
    performance_profile,
)


class TestEvaluate:
    def test_triangle_cut_two(self):
        report = evaluate(triangle(), [1, 1, 2], k=2)
        assert report.edge_cut == 2
        assert report.total_edge_weight == 3

    def test_all_in_one_leaf(self):
        report = evaluate(triangle(), [1, 1, 1], k=2)
        assert report.edge_cut == 0
        assert report.mapping_cost is None

    def test_mapping_cost_uses_level_distance(self):
        spec = parse_hierarchy("2:2")
        dist = parse_distances("1:10")
        g = InMemoryGraph(
            GraphHeader(2, 1, has_edge_weights=True),
            [NodeRecord(0, 1, ((1, 5),)), NodeRecord(1, 1, ((0, 5),))],
        )
        same_processor = evaluate(g, [1, 2], hierarchy=spec, distances=dist)
        assert same_processor.mapping_cost == 5 * 1
        cross = evaluate(g, [1, 3], hierarchy=spec, distances=dist)
        assert cross.mapping_cost == 5 * 10

    def test_per_layer_cut_sums_to_edge_cut(self):
        g = random_geometric(200, seed=3)
        spec = parse_hierarchy("2:2:2")
        assignment = [(i % spec.k) + 1 for i in range(g.n)]
        report = evaluate(g, assignment, hierarchy=spec)
        assert sum(report.per_layer_cut) == report.edge_cut
        assert len(report.per_layer_cut) == spec.ell

    def test_layer_attribution_exact(self):
        # PEs 1,2 share level 1; PEs 1,3 first share level 2
        spec = parse_hierarchy("2:2")
        g = graph_from_edges(3, [(0, 1), (0, 2)])
        report = evaluate(g, [1, 2, 3], hierarchy=spec)
        assert report.per_layer_cut == [1, 1]

    def test_single_level_unit_distance_equals_cut(self):
        g = random_geometric(150, seed=6)
        spec = parse_hierarchy("4")
        dist = parse_distances("1")
        assignment = [(i % 4) + 1 for i in range(g.n)]
        report = evaluate(g, assignment, hierarchy=spec, distances=dist)
        assert report.mapping_cost == report.edge_cut

    def test_raising_one_distance_never_lowers_cost(self):
        g = random_geometric(150, seed=8)
        spec = parse_hierarchy("2:2:2")
        assignment = [(i * 3 % spec.k) + 1 for i in range(g.n)]
        base = evaluate(g, assignment, hierarchy=spec,
                        distances=parse_distances("1:5:20")).mapping_cost
        for bumped in ("2:5:20", "1:6:20", "1:5:25"):
            cost = evaluate(g, assignment, hierarchy=spec,
                            distances=parse_distances(bumped)).mapping_cost
            assert cost >= base

    def test_mapping_cost_at_least_cut_times_min_distance(self):
        g = random_geometric(150, seed=9)
        spec = parse_hierarchy("2:4")
        dist = parse_distances("2:7")
        assignment = [(i % spec.k) + 1 for i in range(g.n)]
        report = evaluate(g, assignment, hierarchy=spec, distances=dist)
        assert report.mapping_cost >= report.edge_cut * 2

    def test_balance_fields(self):
        report = evaluate(triangle(), [1, 1, 2], k=2)
        assert report.max_block_weight == 2
        assert report.imbalance == pytest.approx(2 * 2 / 3 - 1)

    def test_unassigned_node_rejected(self):
        with pytest.raises(ValueError, match="unassigned"):
            evaluate(triangle(), [1, 0, 1], k=2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            evaluate(triangle(), [1, 3, 1], k=2)
        for huge in (2**63, 10**20):
            with pytest.raises(ValueError, match="outside"):
                evaluate(triangle(), [1, huge, 1], k=2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            evaluate(triangle(), [1, 1], k=2)

    def test_distances_require_hierarchy(self):
        with pytest.raises(ValueError, match="hierarchy"):
            evaluate(triangle(), [1, 1, 2], distances=parse_distances("1"))

    def test_sums_in_node_order_like_a_loop(self):
        # 0.1-type weights round differently in another order, so this holds
        # every total to the order of a Python loop over the records
        g = random_geometric(3000, seed=4)
        rnd = random.Random(4)
        edge_w: dict[tuple[int, int], float] = {}
        records = [
            NodeRecord(r.id, rnd.choice([0.1, 0.7, 1, 1.3]), tuple(
                (v, edge_w.setdefault((min(r.id, v), max(r.id, v)), rnd.choice([0.1, 0.3, 1, 2])))
                for v, _ in r.neighbors))
            for r in g.records
        ]
        weighted = InMemoryGraph(GraphHeader(g.n, g.m, True, True), records)
        spec, dist = parse_hierarchy("4:4:2"), parse_distances("1:10:100")
        assignment = [rnd.randint(1, spec.k) for _ in range(g.n)]
        report = evaluate(weighted, assignment, hierarchy=spec, distances=dist)
        cut = total_edge = cost = 0.0
        per_layer = [0.0] * spec.ell
        block = [0] * spec.k
        for rec in records:
            block[assignment[rec.id] - 1] += rec.weight
            for v, w in rec.neighbors:
                if v < rec.id:
                    continue
                total_edge += w
                pu, pv = assignment[rec.id], assignment[v]
                if pu != pv:
                    cut += w
                    level = shared_level(spec, pu, pv)
                    per_layer[level - 1] += w
                    cost += w * dist.distances[level - 1]
        assert (report.edge_cut, report.total_edge_weight, report.mapping_cost) == (
            cut, total_edge, cost)
        assert report.per_layer_cut == per_layer
        assert report.max_block_weight == max(block)

    def test_independent_of_adjacency_order(self):
        g = random_geometric(120, seed=5)
        shuffled = InMemoryGraph(
            g.header,
            [NodeRecord(r.id, r.weight, tuple(reversed(r.neighbors))) for r in g.records],
        )
        assignment = [(i % 3) + 1 for i in range(g.n)]
        assert evaluate(g, assignment).to_dict() == evaluate(shuffled, assignment).to_dict()


class TestImprovement:
    def test_doubling(self):
        assert improvement(100, 200) == 100.0

    def test_equal_is_zero(self):
        assert improvement(7, 7) == 0.0

    def test_halving(self):
        assert improvement(200, 100) == -50.0

    def test_zero_reference_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            improvement(0, 10)


class TestAggregate:
    def test_geometric_of_two(self):
        assert aggregate([[1], [100]]) == pytest.approx(10.0)

    def test_arithmetic_within_instance(self):
        assert aggregate([[2, 4]]) == pytest.approx(3.0)

    def test_identity(self):
        assert aggregate([[3]]) == pytest.approx(3.0)

    def test_scalars_accepted(self):
        assert aggregate([4.0, 9.0]) == pytest.approx(6.0)

    def test_geometric_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_means_reject_empty(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.1, 100), min_size=1, max_size=6))
    def test_geometric_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) * (1 - 1e-9) <= gm <= max(values) * (1 + 1e-9)


class TestPerformanceProfile:
    def test_single_algorithm_all_best(self):
        profiles = performance_profile({"a": [3.0, 5.0]}, taus=[1.0])
        assert profiles["a"] == [ProfilePoint(1.0, 1.0)]

    def test_two_algorithms_one_instance(self):
        profiles = performance_profile({"a": [1.0], "b": [2.0]}, taus=[1.0, 2.0])
        assert [p.fraction for p in profiles["a"]] == [1.0, 1.0]
        assert [p.fraction for p in profiles["b"]] == [0.0, 1.0]

    def test_identical_values_all_fraction_one(self):
        profiles = performance_profile({"a": [4.0, 4.0], "b": [4.0, 4.0]}, taus=[1.0])
        assert profiles["a"][0].fraction == 1.0
        assert profiles["b"][0].fraction == 1.0

    def test_auto_grid_reaches_one(self):
        profiles = performance_profile({"a": [1.0, 8.0], "b": [2.0, 4.0]})
        for points in profiles.values():
            fractions = [p.fraction for p in points]
            assert fractions == sorted(fractions)
            assert fractions[-1] == 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="instance counts"):
            performance_profile({"a": [1.0], "b": [1.0, 2.0]})

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            performance_profile({"a": [0.0]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            performance_profile({})
        with pytest.raises(ValueError):
            performance_profile({"a": []})

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), instances=st.integers(1, 6))
    def test_fraction_monotone_in_tau(self, data, instances):
        values = {
            name: data.draw(st.lists(st.floats(0.5, 50), min_size=instances, max_size=instances))
            for name in ("x", "y", "z")
        }
        taus = sorted(data.draw(st.lists(st.floats(1, 60), min_size=1, max_size=8)))
        profiles = performance_profile(values, taus=taus)
        for points in profiles.values():
            fractions = [p.fraction for p in points]
            assert fractions == sorted(fractions)
