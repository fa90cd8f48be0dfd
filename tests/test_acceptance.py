"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints a
single verdict line (visible with ``pytest -s``). Expected values marked by
hand traces or enumeration live next to the assertions that pin them.
"""

from __future__ import annotations

import time

import pytest

from conftest import children, complete_graph, four_cycle, graph_from_edges, path_graph
from oracle import TinyInstance, brute_force_best, check_equivalence
from streammap.graph_stream import InMemoryGraph, grid2d, random_geometric, ring
from streammap.hierarchy import (
    build_tree_synth,
    parse_distances,
    parse_hierarchy,
)
from streammap.metrics import evaluate, geometric_mean, improvement
from streammap.partitioner import (
    RunConfig,
    multipass_reference,
    partition_flat,
    partition_oms,
    prepare_tree,
)


def _verdict(num: int, description: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# Shared corpora ---------------------------------------------------------------


def equivalence_graphs() -> list[tuple[str, InMemoryGraph]]:
    graphs = [
        ("ring17", ring(17)),
        ("ring40", ring(40)),
        ("ring500", ring(500)),
        ("grid5x7", grid2d(5, 7)),
        ("grid8x8", grid2d(8, 8)),
        ("grid12x10", grid2d(12, 10)),
        ("path30", path_graph(30)),
        ("rgg60", random_geometric(60, seed=0)),
        ("rgg150", random_geometric(150, seed=1)),
        ("rgg300", random_geometric(300, seed=2)),
        ("rgg800", random_geometric(800, seed=3)),
        ("grid50x100", grid2d(50, 100)),
        ("rgg5000", random_geometric(5000, seed=4)),
    ]
    assert all(g.n <= 5000 for _, g in graphs)
    return graphs


HIERARCHIES = ["2:2", "4:2", "3:3", "2:2:2", "6"]
QUALITY_SEEDS = {
    "grid64x64": lambda: grid2d(64, 64),
    "grid100x40": lambda: grid2d(100, 40),
    "ring4096": lambda: ring(4096),
    "ring2000": lambda: ring(2000),
    "rgg3000": lambda: random_geometric(3000, seed=1),
    "rgg1500": lambda: random_geometric(1500, seed=7),
}
MAPPING_EXTRAS = {
    "grid48x48": lambda: grid2d(48, 48),
    "grid30x80": lambda: grid2d(30, 80),
    "rgg2500": lambda: random_geometric(2500, seed=3),
    "ring3000": lambda: ring(3000),
}


@pytest.fixture(scope="module")
def quality_corpus():
    return {name: make() for name, make in QUALITY_SEEDS.items()}


@pytest.fixture(scope="module")
def mapping_corpus(quality_corpus):
    corpus = dict(quality_corpus)
    corpus.update({name: make() for name, make in MAPPING_EXTRAS.items()})
    return corpus


# Criteria ----------------------------------------------------------------------


def test_criterion_01_single_pass_equals_multipass():
    started = time.perf_counter()
    cases = 0
    for gname, graph in equivalence_graphs():
        for spec_text in HIERARCHIES + (["4:16:2"] if graph.n >= 500 else []):
            spec = parse_hierarchy(spec_text)
            if spec.k > graph.n:
                continue
            for algorithm in ("fennel", "ldg"):
                seed = cases % 5
                config = RunConfig(algorithm=algorithm, seed=seed)
                tree, _ = prepare_tree(graph, hierarchy=spec, eps=config.eps)
                ok, first = check_equivalence(graph, tree, config)
                assert ok, (
                    f"divergence on {gname} S={spec_text} {algorithm} "
                    f"seed={seed} at node {first}"
                )
                cases += 1
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "single pass equals level-per-sweep reference",
        cases >= 100 and elapsed < 60,
        f"{cases} cases node-for-node identical in {elapsed:.1f}s",
    )


def test_criterion_02_flat_degeneracy():
    checked = 0
    for gname, graph in equivalence_graphs():
        # 100 lies above the fan-out from which sibling groups are scored with numpy
        for k in (2, 6, 13, 100):
            spec = parse_hierarchy(str(k))
            for algorithm in ("fennel", "ldg"):
                config = RunConfig(algorithm=algorithm, seed=checked % 3)
                tree, _ = prepare_tree(graph, hierarchy=spec, eps=config.eps)
                oms = partition_oms(graph, tree, config)
                flat = partition_flat(graph, k, config)
                assert oms.assignment.tolist() == flat.assignment.tolist(), (
                    f"{gname} k={k} {algorithm}: single-level descent != flat"
                )
                # flat runs through the descent, so the sweeps are the independent check
                ref = multipass_reference(graph, tree, config)
                assert ref.assignment.tolist() == flat.assignment.tolist(), (
                    f"{gname} k={k} {algorithm}: one-level sweep != flat"
                )
                checked += 1
    _verdict(2, "single-level descent degenerates to flat", True,
             f"{checked} graph/k/scorer combos exactly equal")


def test_criterion_03_weight_cell_bound():
    tested = []
    for spec_text in HIERARCHIES + ["4:16:2", "8:8", "2:2:2:2:2"]:
        spec = parse_hierarchy(spec_text)
        tree = prepare_tree(ring(max(3, spec.k)), hierarchy=spec, eps=0.03)[0]
        tested.append((spec_text, tree.num_weight_cells, 2 * spec.k))
        assert tree.num_weight_cells <= 2 * spec.k
    for k, base in [(5, 2), (11, 3), (64, 4), (100, 4), (129, 2), (4096, 4)]:
        tree = build_tree_synth(k, base, 1)
        tested.append((f"k={k},b={base}", tree.num_weight_cells, 2 * k))
        assert tree.num_weight_cells <= 2 * k
    tree_4_16_2 = build_tree_explicit_4_16_2()
    assert tree_4_16_2.num_weight_cells == 162  # 128 + 32 + 2, within 2k = 256
    _verdict(3, "block-weight cells within 2k", True,
             f"{len(tested)} trees bounded; 4:16:2 has exactly 162 cells")


def build_tree_explicit_4_16_2():
    from streammap.hierarchy import build_tree_explicit

    return build_tree_explicit(parse_hierarchy("4:16:2"), 1)


def test_criterion_04_scored_candidate_reduction():
    started = time.perf_counter()
    n = 2**17
    graph = grid2d(512, 256)
    assert graph.n == n
    k = 4096
    config = RunConfig(algorithm="fennel", eps=0.03)
    flat = partition_flat(graph, k, config)
    assert flat.counters.score_evaluations == n * k
    tree, _ = prepare_tree(graph, k=k, base=4, eps=0.03)
    nh = partition_oms(graph, tree, config)
    bound = n * 4 * 7
    assert nh.counters.score_evaluations <= bound
    ratio = flat.counters.score_evaluations / nh.counters.score_evaluations
    assert ratio >= 146
    assert max(nh.leaf_weights) <= nh.lmax and nh.counters.overflow_events == 0
    elapsed = time.perf_counter() - started
    _verdict(
        4,
        "candidate-evaluation reduction at n=2^17, k=4096",
        elapsed < 60,
        f"flat={flat.counters.score_evaluations} nh={nh.counters.score_evaluations} "
        f"({ratio:.0f}x fewer, bound {bound}) in {elapsed:.1f}s",
    )


def test_criterion_05_sequential_balance(mapping_corpus):
    checked = 0
    for gname, graph in mapping_corpus.items():
        for algorithm in ("fennel", "ldg", "hashing"):
            config = RunConfig(algorithm=algorithm, eps=0.03, seed=1)
            flat = partition_flat(graph, 64, config)
            assert flat.counters.overflow_events == 0, (gname, algorithm, "flat")
            assert flat.max_leaf_weight <= flat.lmax, (gname, algorithm, "flat")
            tree, _ = prepare_tree(graph, k=64, base=4, eps=0.03)
            nh = partition_oms(graph, tree, config)
            assert nh.counters.overflow_events == 0, (gname, algorithm, "nh")
            assert nh.max_leaf_weight <= nh.lmax, (gname, algorithm, "nh")
            spec = parse_hierarchy("4:16:2")
            mtree, _ = prepare_tree(graph, hierarchy=spec, eps=0.03)
            oms = partition_oms(graph, mtree, config)
            assert oms.counters.overflow_events == 0, (gname, algorithm, "oms")
            assert oms.max_leaf_weight <= oms.lmax, (gname, algorithm, "oms")
            checked += 3
    _verdict(5, "sequential runs stay balanced at eps=0.03", True,
             f"{checked} runs, zero overflow events, every leaf within capacity")


def test_criterion_06_cut_quality_direction(quality_corpus):
    started = time.perf_counter()
    k = 64
    fennel_cuts, hashing_cuts, nh_cuts = [], [], []
    for graph in quality_corpus.values():
        config = RunConfig(eps=0.03, seed=0)
        fennel_cuts.append(evaluate(
            graph, partition_flat(graph, k, config).assignment, k=k).edge_cut)
        hashing_cuts.append(evaluate(
            graph,
            partition_flat(graph, k, RunConfig(algorithm="hashing", eps=0.03, seed=0)).assignment,
            k=k).edge_cut)
        tree, _ = prepare_tree(graph, k=k, base=4, eps=0.03)
        nh_cuts.append(evaluate(
            graph, partition_oms(graph, tree, config).assignment, k=k).edge_cut)
    # paper-style final scores: geometric mean over instances, then compare
    fennel_score = geometric_mean([float(c) for c in fennel_cuts])
    hashing_score = geometric_mean([float(c) for c in hashing_cuts])
    nh_score = geometric_mean([float(c) for c in nh_cuts])
    gain_over_hashing = improvement(fennel_score, hashing_score)
    nh_overhead = (nh_score / fennel_score - 1.0) * 100.0
    elapsed = time.perf_counter() - started
    _verdict(
        6,
        "edge-cut quality direction at k=64",
        len(fennel_cuts) >= 5 and gain_over_hashing >= 50.0
        and nh_overhead <= 15.0 and elapsed < 120,
        f"{len(fennel_cuts)} graphs: scored-greedy beats hashing by "
        f"{gain_over_hashing:.0f}% (>= 50%); tree descent cuts {nh_overhead:+.1f}% "
        f"vs flat (<= +15%) in {elapsed:.1f}s",
    )


def test_criterion_07_mapping_quality_direction(mapping_corpus):
    spec = parse_hierarchy("4:16:2")
    dist = parse_distances("1:10:100")
    wins = 0
    details = []
    for gname, graph in mapping_corpus.items():
        config = RunConfig(eps=0.03)
        tree, _ = prepare_tree(graph, hierarchy=spec, eps=0.03)
        oms_j = evaluate(graph, partition_oms(graph, tree, config).assignment,
                         hierarchy=spec, distances=dist).mapping_cost
        flat_j = evaluate(graph, partition_flat(graph, spec.k, config).assignment,
                          hierarchy=spec, distances=dist).mapping_cost
        wins += oms_j <= flat_j
        details.append(f"{gname}:{oms_j:.0f}vs{flat_j:.0f}")
    share = wins / len(mapping_corpus)
    _verdict(
        7,
        "hierarchical mapping cost beats flat placement",
        share >= 0.70,
        f"{wins}/{len(mapping_corpus)} instances with J(oms) <= J(flat) "
        f"({share:.0%}, need >= 70%)",
    )


def test_criterion_08_heterogeneous_capacities():
    lmax = 7
    tree = build_tree_synth(5, 2, lmax)
    caps = [int(tree.capacity[c]) for c in children(tree, 0)]
    assert sorted(caps) == [2 * lmax, 3 * lmax]
    _verdict(8, "k=5 bisection splits capacity 3L/2L", True,
             f"top-level capacities {caps} with lmax={lmax}")


def test_criterion_10_streaming_never_beats_enumeration():
    instances = [
        ("4cycle-k2", TinyInstance(four_cycle(), k=2)),
        ("K4-k2", TinyInstance(complete_graph(4), k=2)),
        ("path8-k2", TinyInstance(path_graph(8), k=2)),
        ("ring8-k4", TinyInstance(ring(8), k=4)),
        ("ring6-k3", TinyInstance(ring(6), k=3)),
        ("twopaths-k2", TinyInstance(
            graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), k=2)),
        ("K5-k3", TinyInstance(complete_graph(5), k=3, eps=0.5)),
    ]
    four_cycle_optimum = brute_force_best(TinyInstance(four_cycle(), k=2))
    assert four_cycle_optimum == 2
    checked = 0
    for name, inst in instances:
        optimum = brute_force_best(inst)
        for algorithm in ("fennel", "ldg", "hashing"):
            config = RunConfig(algorithm=algorithm, eps=inst.eps, seed=2)
            flat = partition_flat(inst.graph, inst.k, config)
            flat_cut = evaluate(inst.graph, flat.assignment, k=inst.k).edge_cut
            assert flat_cut >= optimum, (name, algorithm, flat_cut, optimum)
            if inst.k >= 2:
                tree, _ = prepare_tree(inst.graph, k=inst.k, base=2, eps=inst.eps)
                oms = partition_oms(inst.graph, tree, config)
                oms_cut = evaluate(inst.graph, oms.assignment, k=inst.k).edge_cut
                assert oms_cut >= optimum, (name, algorithm, oms_cut, optimum)
            checked += 1
    _verdict(10, "streaming cut never beats enumerated optimum", True,
             f"{checked} instance/scorer pairs; 4-cycle optimum pinned at 2")
