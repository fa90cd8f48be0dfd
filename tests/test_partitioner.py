from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import metis_graphs, path_graph, triangle
from streammap import _native, partitioner
from streammap.cli import main
from streammap.graph_stream import (
    GraphHeader,
    InMemoryGraph,
    NodeRecord,
    StreamFormatError,
    grid2d,
    random_geometric,
    ring,
    total_node_weight,
    write_metis,
)
from streammap.hierarchy import HierarchySpec, parse_hierarchy
from streammap.partitioner import (
    CHUNK_NODES,
    RunConfig,
    multipass_reference,
    partition_flat,
    partition_oms,
    prepare_tree,
)


class TestFlat:
    def test_single_block_takes_everything(self):
        g = path_graph(6)
        res = partition_flat(g, 1, RunConfig())
        assert res.assignment.tolist() == [1] * 6
        assert res.leaf_weights == [6]
        # a root-only tree makes no selection, scored or hashed
        for alg in ("fennel", "ldg", "hashing"):
            counters = partition_flat(g, 1, RunConfig(algorithm=alg)).counters
            assert counters.score_evaluations == 0
            assert counters.hash_assignments == 0
            assert counters.nodes_processed == 6

    def test_triangle_fennel_trace(self):
        # alpha = sqrt(3)*3/3^1.5 = 1, so after node 0 lands in block 1 the
        # penalty 1.5*sqrt(1) beats a single shared edge and nodes spread out
        res = partition_flat(triangle(), 3, RunConfig(eps=10.0))
        assert res.assignment.tolist() == [1, 2, 3]

    def test_path_ldg_fills_contiguously(self):
        res = partition_flat(path_graph(8), 4, RunConfig(algorithm="ldg", eps=0.0))
        assert res.assignment.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_hashing_deterministic_across_runs(self):
        g = random_geometric(200, seed=4)
        cfg = RunConfig(algorithm="hashing", seed=1)
        a = partition_flat(g, 4, cfg)
        b = partition_flat(g, 4, cfg)
        assert a.assignment.tolist() == b.assignment.tolist()

    def test_fennel_score_evaluations_exactly_nk(self):
        g = grid2d(10, 10)
        res = partition_flat(g, 7, RunConfig())
        assert res.counters.score_evaluations == 100 * 7
        assert res.counters.nodes_processed == 100
        assert res.counters.edges_scanned == 2 * g.m

    def test_balance_gate_holds(self):
        for alg in ("fennel", "ldg", "hashing"):
            res = partition_flat(grid2d(9, 9), 4, RunConfig(algorithm=alg, eps=0.03))
            assert res.max_leaf_weight <= res.lmax
            assert res.counters.overflow_events == 0

    def test_conservation(self):
        res = partition_flat(ring(50), 6, RunConfig(algorithm="ldg"))
        assert sum(res.leaf_weights) == 50

    def test_infeasible_k_rejected(self):
        with pytest.raises(ValueError):
            partition_flat(ring(5), 0, RunConfig())


class TestOms:
    def test_path_two_by_two_ldg_trace(self):
        g = path_graph(8)
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("2:2"), eps=0.0)
        res = partition_oms(g, tree, RunConfig(algorithm="ldg", eps=0.0))
        assert res.assignment.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]
        assert res.leaf_weights == [2, 2, 2, 2]
        assert res.counters.overflow_events == 0

    @pytest.mark.parametrize("alg", ["fennel", "ldg", "hashing"])
    def test_single_level_tree_equals_flat(self, alg):
        g = random_geometric(300, seed=8)
        cfg = RunConfig(algorithm=alg, seed=5)
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("6"), eps=cfg.eps)
        oms = partition_oms(g, tree, cfg)
        flat = partition_flat(g, 6, cfg)
        assert oms.assignment.tolist() == flat.assignment.tolist()
        assert oms.leaf_weights == flat.leaf_weights
        # flat is itself a descent; the sweeps are the independent reference
        for k in (6, 100):
            tree, _ = prepare_tree(g, hierarchy=parse_hierarchy(str(k)), eps=cfg.eps)
            flat = partition_flat(g, k, cfg)
            ref = multipass_reference(g, tree, cfg)
            assert flat.assignment.tolist() == ref.assignment.tolist()
            assert flat.leaf_weights == ref.leaf_weights
            assert flat.counters == ref.counters

    def test_all_layers_hashed_equals_layerwise_hashing(self):
        g = random_geometric(150, seed=2)
        spec = parse_hierarchy("2:3")
        cfg = RunConfig(algorithm="fennel", seed=9, hybrid_h=0, eps=0.5)
        tree, _ = prepare_tree(g, hierarchy=spec, eps=0.5)
        res = partition_oms(g, tree, cfg)
        pure = partition_oms(g, tree, RunConfig(algorithm="hashing", seed=9, eps=0.5))
        assert res.assignment.tolist() == pure.assignment.tolist()
        assert res.counters.score_evaluations == 0
        assert res.counters.hash_assignments == 2 * g.n

    def test_score_evaluations_sum_of_levels(self):
        g = random_geometric(400, seed=1)
        spec = parse_hierarchy("4:2:3")  # a node scores 3 + 2 + 4 candidates
        tree, _ = prepare_tree(g, hierarchy=spec, eps=0.03)
        res = partition_oms(g, tree, RunConfig())
        assert res.counters.score_evaluations == g.n * (4 + 2 + 3)

    def test_hybrid_counter_accounting(self):
        g = random_geometric(300, seed=6)
        spec = parse_hierarchy("4:2:3")
        tree, _ = prepare_tree(g, hierarchy=spec, eps=0.03)
        res = partition_oms(g, tree, RunConfig(hybrid_h=1))
        # top level scores a_3 = 3 candidates; two lower levels hash once each
        assert res.counters.score_evaluations == g.n * 3
        assert res.counters.hash_assignments == g.n * 2

    def test_root_only_tree_holds_all_weight(self):
        g = ring(5)
        tree, _ = prepare_tree(g, k=1, eps=0.0)
        for run in (partition_oms, multipass_reference):
            res = run(g, tree, RunConfig(eps=0.0))
            assert res.assignment.tolist() == [1] * 5
            assert res.leaf_weights == [5]
            assert res.imbalance == 0.0

    def test_hybrid_h_beyond_depth_rejected(self):
        g = path_graph(8)
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("2:2"), eps=0.0)
        with pytest.raises(ValueError, match="hybrid_h"):
            partition_oms(g, tree, RunConfig(hybrid_h=3))

    def test_memory_proxy_bounds(self):
        g = random_geometric(300, seed=3)
        for spec_text in ("4:16:2", "2:2:2", "8"):
            spec = parse_hierarchy(spec_text)
            tree, _ = prepare_tree(g, hierarchy=spec, eps=0.03)
            assert tree.num_weight_cells <= 2 * spec.k
            res = partition_oms(g, tree, RunConfig())
            assert len(res.assignment) == g.n

    def test_balance_on_internal_blocks(self):
        g = grid2d(12, 12)
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("2:2:2"), eps=0.03)
        res = partition_oms(g, tree, RunConfig())
        assert all(w <= c for w, c in zip(tree.weight[1:], tree.capacity[1:]))
        assert res.counters.overflow_events == 0


class TestMultipass:
    def test_single_level_equals_flat(self):
        g = random_geometric(250, seed=7)
        cfg = RunConfig(algorithm="ldg")
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("5"), eps=cfg.eps)
        ref = multipass_reference(g, tree, cfg)
        flat = partition_flat(g, 5, cfg)
        assert ref.assignment.tolist() == flat.assignment.tolist()

    def test_matches_descent_on_path_trace(self):
        g = path_graph(8)
        cfg = RunConfig(algorithm="ldg", eps=0.0)
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("2:2"), eps=cfg.eps)
        ref = multipass_reference(g, tree, cfg)
        assert ref.assignment.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]

    @pytest.mark.parametrize("alg", ["fennel", "ldg", "hashing"])
    def test_matches_descent_everywhere(self, alg):
        g = random_geometric(350, seed=10)
        spec = parse_hierarchy("3:2:2")
        cfg = RunConfig(algorithm=alg, seed=3)
        tree, _ = prepare_tree(g, hierarchy=spec, eps=0.03)
        oms = partition_oms(g, tree, cfg)
        ref = multipass_reference(g, tree, cfg)
        assert oms.assignment.tolist() == ref.assignment.tolist()

    def test_matches_descent_on_heterogeneous_tree(self):
        g = random_geometric(220, seed=12)
        tree, _ = prepare_tree(g, k=11, base=3, eps=0.03)
        cfg = RunConfig()
        oms = partition_oms(g, tree, cfg)
        ref = multipass_reference(g, tree, cfg)
        assert oms.assignment.tolist() == ref.assignment.tolist()

    def test_matches_descent_under_hybrid(self):
        g = random_geometric(220, seed=13)
        tree, _ = prepare_tree(g, hierarchy=parse_hierarchy("2:2:2"), eps=0.1)
        cfg = RunConfig(hybrid_h=1, seed=2)
        oms = partition_oms(g, tree, cfg)
        ref = multipass_reference(g, tree, cfg)
        assert oms.assignment.tolist() == ref.assignment.tolist()


class TestCounters:
    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(eps=-0.1)
        with pytest.raises(ValueError):
            RunConfig(algorithm="nope")


class TestWeightedNodes:
    def test_capacity_gate_respects_node_weights(self, tmp_graph_file):
        # edgeless stream, node weights 3,1,2,2; eps=0.25 gives capacity 5 and
        # the greedy fill lands exactly on [1,2,2,1]
        path = tmp_graph_file("4 0 10\n3\n1\n2\n2\n", "weighted.graph")
        res = partition_flat(str(path), 2, RunConfig(eps=0.25))
        assert res.total_weight == 8
        assert res.lmax == 5
        assert res.assignment.tolist() == [1, 2, 2, 1]
        assert res.leaf_weights == [5, 3]
        assert res.max_leaf_weight <= res.lmax
        assert res.counters.overflow_events == 0

    def test_total_weight_comes_from_the_assign_pass(self, tmp_graph_file, monkeypatch):
        # fractional weights: the pass must sum in stream order to stay bit-equal
        path = str(tmp_graph_file("4 2 10\n0.1 2\n0.2 1\n0.3 4\n3 3\n", "wt.graph"))
        passes = []
        monkeypatch.setattr(partitioner, "total_node_weight",
                            lambda source: passes.append(source) or total_node_weight(source))
        tree, _ = prepare_tree(path, k=2, base=2, eps=0.25)
        passes.clear()
        res = partition_oms(path, tree, RunConfig(eps=0.25))
        assert passes == []
        assert res.total_weight == total_node_weight(path)
        flat = partition_flat(path, 2, RunConfig(eps=0.25))
        assert len(passes) == 1
        assert flat.total_weight == res.total_weight

    def test_tree_descent_conserves_node_weight(self, tmp_graph_file):
        path = tmp_graph_file("4 0 10\n3\n1\n2\n2\n", "weighted2.graph")
        tree, _ = prepare_tree(str(path), k=2, base=2, eps=0.25)
        res = partition_oms(str(path), tree, RunConfig(eps=0.25))
        assert sum(res.leaf_weights) == 8


class TestDeterminism:
    @pytest.mark.parametrize("alg", ["fennel", "ldg", "hashing"])
    def test_repeated_runs_identical(self, alg):
        g = random_geometric(250, seed=6)
        tree, _ = prepare_tree(g, k=12, base=3, eps=0.03)
        cfg = RunConfig(algorithm=alg, seed=9)
        first = partition_oms(g, tree, cfg)
        second = partition_oms(g, tree, cfg)
        assert first.assignment.tolist() == second.assignment.tolist()
        assert first.counters == second.counters


# Explicit hierarchies as level lists; synthesized trees as (k, base). The
# last three draw sibling groups wider than 64: a depth-1 synthesized tree
# (base >= k), a wide top level over uneven children (base < k), and a wide
# explicit bottom level alone or under two or three parents.
tree_shapes = st.one_of(
    st.lists(st.integers(2, 4), min_size=1, max_size=3).map(lambda lv: HierarchySpec(tuple(lv))),
    st.tuples(st.integers(1, 40), st.integers(2, 8)),
    st.integers(1, 150).flatmap(lambda k: st.tuples(st.just(k), st.integers(max(k, 2), 160))),
    st.integers(66, 150).flatmap(lambda k: st.tuples(st.just(k), st.integers(65, k - 1))),
    st.tuples(st.integers(65, 150), st.sampled_from([(), (2,), (3,)])).map(
        lambda t: HierarchySpec((t[0], *t[1]))
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    shape=tree_shapes,
    alg=st.sampled_from(["fennel", "ldg", "hashing"]),
    eps=st.sampled_from([0.0, 0.03, 0.5]),
    # the hash masks the seed to 64 bits, so -1 and 2**64 + 5 must hash alike
    # in both drivers
    seed=st.one_of(st.integers(0, 3), st.sampled_from([-1, 2**64 + 5])),
)
def test_descent_always_matches_multipass(data, shape, alg, eps, seed):
    # The descent narrows each neighbour list level by level and resolves
    # children by PE range; the multipass sweeps look neighbours up by block
    # parent. Equality checks one neighbour count against the other. Wide
    # trees get graphs large enough that blocks hold several nodes, so their
    # scores, not only the capacity gate, decide placements.
    k = shape.k if isinstance(shape, HierarchySpec) else shape[0]
    if k <= 64:
        graph = data.draw(metis_graphs(max_n=40))
    else:
        graph = data.draw(metis_graphs(min_n=min(2 * k, 300), max_n=300))
    if isinstance(shape, HierarchySpec):
        tree, _ = prepare_tree(graph, hierarchy=shape, eps=eps)
    else:
        tree, _ = prepare_tree(graph, k=shape[0], base=shape[1], eps=eps)
    hybrid = data.draw(st.one_of(st.none(), st.integers(0, tree.depth)))
    config = RunConfig(algorithm=alg, eps=eps, seed=seed, hybrid_h=hybrid)
    oms = partition_oms(graph, tree, config)
    ref = multipass_reference(graph, tree, config)
    assert oms.assignment.tolist() == ref.assignment.tolist()
    assert oms.leaf_weights == ref.leaf_weights
    for field in ("score_evaluations", "hash_assignments", "overflow_events"):
        assert getattr(oms.counters, field) == getattr(ref.counters, field)
    assert sum(oms.leaf_weights) == oms.total_weight
    assert max(oms.leaf_weights) <= oms.lmax or oms.counters.overflow_events > 0


def _fractional(graph: InMemoryGraph, seed: int) -> InMemoryGraph:
    """``graph`` as fmt 11, with fractional node and edge weights."""
    rnd = random.Random(seed)
    edge_w: dict[tuple[int, int], float] = {}
    records = []
    for rec in graph.records:
        nbrs = tuple(
            (v, edge_w.setdefault((min(rec.id, v), max(rec.id, v)), rnd.choice([0.3, 0.5, 1, 2])))
            for v, _ in rec.neighbors
        )
        records.append(NodeRecord(rec.id, rnd.choice([0.1, 0.5, 1, 1.25, 3]), nbrs))
    h = graph.header
    return InMemoryGraph(GraphHeader(h.n, h.m, True, True), records)


@pytest.fixture(scope="module")
def chunked_graphs(tmp_path_factory):
    """Graphs of several kernel chunks, each preloaded and as a written file."""
    root = tmp_path_factory.mktemp("chunked")
    rgg = random_geometric(5000, seed=31)
    graphs = {
        "rgg": rgg,
        "fractional": _fractional(rgg, seed=32),
        # every chunk has zero adjacency entries
        "edgeless": InMemoryGraph(GraphHeader(3 * CHUNK_NODES + 5, 0),
                                  [NodeRecord(i, 1, ()) for i in range(3 * CHUNK_NODES + 5)]),
    }
    out = {}
    for name, graph in graphs.items():
        assert graph.n > CHUNK_NODES
        path = root / f"{name}.graph"
        write_metis(graph, path)
        out[name] = (graph, str(path))
    return out


@pytest.mark.parametrize("graph_name", ["rgg", "fractional", "edgeless"])
@pytest.mark.parametrize("shape", [(200, 6), parse_hierarchy("4:5:3")], ids=["synth", "explicit"])
def test_descent_across_chunk_boundaries(chunked_graphs, graph_name, shape):
    # Nodes see neighbours placed in earlier kernel calls; streamed and
    # preloaded sources must agree with the sweeps node for node.
    graph, path = chunked_graphs[graph_name]
    if isinstance(shape, HierarchySpec):
        tree, _ = prepare_tree(graph, hierarchy=shape)
    else:
        tree, _ = prepare_tree(graph, k=shape[0], base=shape[1])
    configs = [RunConfig(algorithm=alg, seed=7, hybrid_h=h)
               for alg in ("fennel", "ldg") for h in (None, 1)]
    configs.append(RunConfig(algorithm="hashing", seed=7))
    for config in configs:
        ref = multipass_reference(graph, tree, config)
        for source in (graph, path):
            oms = partition_oms(source, tree, config)
            assert oms.assignment.tolist() == ref.assignment.tolist()
            assert oms.leaf_weights == ref.leaf_weights
            assert oms.total_weight == ref.total_weight
            for field in ("score_evaluations", "hash_assignments", "overflow_events"):
                assert getattr(oms.counters, field) == getattr(ref.counters, field)


@pytest.mark.parametrize("nbr", [3, -1])
def test_hand_built_graph_cannot_send_the_kernel_out_of_bounds(nbr):
    # the kernel indexes the assignment by neighbour id and node id
    bad = InMemoryGraph(GraphHeader(3, 1), [NodeRecord(0, 1, ((nbr, 1),)),
                                            NodeRecord(1, 1, ()), NodeRecord(2, 1, ())])
    tree, _ = prepare_tree(bad, k=2)
    with pytest.raises(StreamFormatError, match=r"lies outside \[0, 3\)"):
        partition_oms(bad, tree, RunConfig())
    extra = InMemoryGraph(GraphHeader(2, 0), [NodeRecord(i, 1, ()) for i in range(3)])
    with pytest.raises(StreamFormatError, match="more records than n=2"):
        partition_oms(extra, tree, RunConfig())


class TestKernelBuild:
    """The build of streammap's C library (``_native``), which holds the kernel."""

    @pytest.fixture(autouse=True)
    def fresh_load(self):
        _native.library.cache_clear()
        yield
        _native.library.cache_clear()

    def test_failed_build_is_one_line_oserror(self, tmp_path, monkeypatch, capsys):
        gcc = _native.CC
        monkeypatch.setattr(_native, "CACHE", tmp_path / "cache")
        monkeypatch.setattr(_native, "CC", (str(tmp_path / "no-cc"), "-O2"))
        with pytest.raises(OSError, match="no-cc -O2") as missing:
            _native.library()
        assert "\n" not in str(missing.value)
        # a compiler that fails; the CLI reports it as an I/O failure
        monkeypatch.setattr(_native, "CC", ("false",))
        graph = tmp_path / "ring.graph"
        write_metis(ring(10), graph)
        assert main(["partition", "--input", str(graph), "--k", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot build streammap's C library with `false ")
        assert "Traceback" not in err and err.count("\n") == 1
        # a cache directory that cannot be written: here it cannot even be made
        monkeypatch.setattr(_native, "CC", gcc)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setattr(_native, "CACHE", blocker / "__pycache__")
        with pytest.raises(OSError, match="cannot build streammap's C library with `gcc "):
            _native.library()
        assert main(["partition", "--input", str(graph), "--k", "2"]) == 1

    def test_built_library_is_reused(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setattr(_native, "CACHE", cache)
        _native.library()
        built = [p.name for p in cache.iterdir()]
        assert len(built) == 1 and re.fullmatch(r"_native-[0-9a-f]{8}\.so", built[0])
        # a rebuild would fail now, so a second load must come from the cache
        _native.library.cache_clear()
        monkeypatch.setattr(_native, "CC", ("false",))
        _native.library()
        g = ring(12)
        tree, _ = prepare_tree(g, k=3)
        assert partition_oms(g, tree, RunConfig()).assignment.tolist() == \
            multipass_reference(g, tree, RunConfig()).assignment.tolist()
        assert [p.name for p in cache.iterdir()] == built

    def test_build_leaves_exactly_one_library(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        stale = ["_native-00000000.so", "_native-deadbeef.so", "_descent-6c13c79b.so"]
        kept = ["_native-0.so", "other-12345678.so", "graph_stream.cpython-311.pyc"]
        for name in stale + kept:
            (cache / name).write_bytes(b"")
        monkeypatch.setattr(_native, "CACHE", cache)
        _native.library()
        names = sorted(p.name for p in cache.iterdir())
        built = [name for name in names if name not in kept]
        assert len(built) == 1 and re.fullmatch(r"_native-[0-9a-f]{8}\.so", built[0])
        assert built[0] not in stale
        assert sorted(set(names) - set(built)) == sorted(kept)
