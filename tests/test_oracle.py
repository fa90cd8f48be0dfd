from __future__ import annotations

import pytest

from conftest import complete_graph, four_cycle, graph_from_edges, path_graph
from streammap.graph_stream import random_geometric, ring
from streammap.hierarchy import parse_distances, parse_hierarchy
from streammap.metrics import evaluate
from streammap.oracle import TinyInstance, brute_force_best, check_equivalence
from streammap.partitioner import RunConfig, partition_flat, partition_oms, prepare_tree
from streammap.scoring import hashing_assign


class TestBruteForce:
    def test_four_cycle_two_blocks(self):
        assert brute_force_best(TinyInstance(four_cycle(), k=2)) == 2

    def test_single_block_is_free(self):
        assert brute_force_best(TinyInstance(four_cycle(), k=1)) == 0

    def test_complete_graph_k4_split(self):
        # any balanced 2+2 split of K4 cuts 4 of its 6 edges
        assert brute_force_best(TinyInstance(complete_graph(4), k=2)) == 4

    def test_path_cut_one(self):
        assert brute_force_best(TinyInstance(path_graph(6), k=2)) == 1

    def test_mapping_objective(self):
        spec = parse_hierarchy("2:2")
        dist = parse_distances("1:10")
        inst = TinyInstance(path_graph(4), k=4, hierarchy=spec, distances=dist)
        # optimal: consecutive pairs on sibling PEs -> 1 + 10 + 1
        assert brute_force_best(inst, objective="J") == 12

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            TinyInstance(random_geometric(20, seed=0), k=2)
        with pytest.raises(ValueError, match="budget"):
            TinyInstance(four_cycle(), k=8)

    def test_infeasible_capacity_detected(self):
        inst = TinyInstance(graph_from_edges(3, []), k=1, eps=0.0)
        # k=1 always fits; shrink via impossible k-free check instead
        assert brute_force_best(inst) == 0

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            brute_force_best(TinyInstance(four_cycle(), k=2), objective="latency")


class TestStreamingNeverBeatsOptimum:
    @pytest.mark.parametrize("alg", ["fennel", "ldg", "hashing"])
    def test_cut_at_least_optimal(self, alg):
        instances = [
            TinyInstance(four_cycle(), k=2),
            TinyInstance(path_graph(8), k=2),
            TinyInstance(ring(8), k=4),
            TinyInstance(complete_graph(5), k=3, eps=0.5),
            TinyInstance(graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), k=2),
        ]
        for inst in instances:
            best = brute_force_best(inst)
            cfg = RunConfig(algorithm=alg, eps=inst.eps, seed=1)
            flat = partition_flat(inst.graph, inst.k, cfg)
            cut = evaluate(inst.graph, flat.assignment, k=inst.k).edge_cut
            assert cut >= best
            if inst.k >= 2:
                tree, _ = prepare_tree(inst.graph, k=inst.k, base=2, eps=inst.eps)
                oms = partition_oms(inst.graph, tree, cfg)
                cut_oms = evaluate(inst.graph, oms.assignment, k=inst.k).edge_cut
                assert cut_oms >= best

    # Only runs without overflow are compared: an overflowing run can land
    # outside the balanced assignments the enumeration ranges over.
    @pytest.mark.parametrize("alg", ["fennel", "ldg", "hashing"])
    def test_tree_descent_cut_at_least_optimal(self, alg):
        graphs = [
            (ring(8), 0.03),
            (path_graph(9), 0.03),
            (complete_graph(6), 0.5),
            (graph_from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 6)]), 0.3),
        ]
        # explicit 2:2, then synthesized (k, base)
        shapes = [parse_hierarchy("2:2"), (3, 3), (4, 3), (3, 4), (4, 4)]
        for shape in shapes:
            compared = 0
            for graph, eps in graphs:
                if isinstance(shape, tuple):
                    k = shape[0]
                    tree, _ = prepare_tree(graph, k=k, base=shape[1], eps=eps)
                else:
                    k = shape.k
                    tree, _ = prepare_tree(graph, hierarchy=shape, eps=eps)
                best = brute_force_best(TinyInstance(graph, k=k, eps=eps))
                for hybrid in (None, 1):
                    config = RunConfig(alg, eps=eps, seed=1, hybrid_h=hybrid)
                    res = partition_oms(graph, tree, config)
                    if res.counters.overflow_events:
                        continue
                    assert evaluate(graph, res.assignment, k=k).edge_cut >= best
                    compared += 1
            assert compared > 0, shape

    @pytest.mark.parametrize("alg", ["fennel", "ldg", "hashing"])
    def test_mapping_cost_at_least_optimal(self, alg):
        spec = parse_hierarchy("2:2")
        dist = parse_distances("1:10")
        compared = 0
        for graph, eps in ((path_graph(8), 0.0), (ring(8), 0.03), (complete_graph(6), 0.5)):
            inst = TinyInstance(graph, k=4, eps=eps, hierarchy=spec, distances=dist)
            best = brute_force_best(inst, "J")
            tree, _ = prepare_tree(graph, hierarchy=spec, eps=eps)
            for hybrid in (None, 1):
                res = partition_oms(graph, tree, RunConfig(alg, eps=eps, seed=1, hybrid_h=hybrid))
                if res.counters.overflow_events:
                    continue
                report = evaluate(graph, res.assignment, k=4, hierarchy=spec, distances=dist)
                assert report.mapping_cost >= best
                compared += 1
        assert compared > 0


class TestCheckEquivalence:
    def test_deterministic_config_passes(self):
        g = random_geometric(180, seed=4)
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("3:2"), eps=0.03)
        ok, first = check_equivalence(g, tree, RunConfig())
        assert ok
        assert first is None

    def test_single_level_trivially_passes(self):
        g = random_geometric(120, seed=1)
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("4"), eps=0.03)
        ok, _ = check_equivalence(g, tree, RunConfig(algorithm="ldg"))
        assert ok

    def test_perturbed_seed_diverges_at_first_differing_hash(self):
        # eps=2 leaves room for every node in either block, so each node lands
        # where it hashes under the root (block id 0): seed 0 and seed 2 agree
        # on nodes 0-3 and first differ at node 4
        g = path_graph(6)
        assert [hashing_assign(i, 2, 0) for i in range(6)] == [0, 0, 1, 0, 1, 1]
        assert [hashing_assign(i, 2, 2) for i in range(6)] == [0, 0, 1, 0, 0, 0]
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("2"), eps=2.0)
        mutated = RunConfig(algorithm="hashing", seed=2, eps=2.0)
        ok, first = check_equivalence(
            g, tree, RunConfig(algorithm="hashing", eps=2.0), reference_config=mutated
        )
        assert not ok
        assert first == 4
