from __future__ import annotations

import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import metis_graphs
from streammap.graph_stream import (
    GraphHeader,
    InMemoryGraph,
    NodeRecord,
    StreamFormatError,
    generate_graph,
    grid2d,
    load_graph,
    open_stream,
    random_geometric,
    ring,
    total_node_weight,
    write_metis,
)

TINY = "3 2\n2 3\n1\n2\n"


class TestParsing:
    def test_tiny_file_header_and_records(self):
        stream = open_stream(io.StringIO(TINY))
        assert stream.header.n == 3
        assert stream.header.m == 2
        records = list(stream)
        assert [r.id for r in records] == [0, 1, 2]
        assert [v for v, _ in records[0].neighbors] == [1, 2]
        assert len(records[1].neighbors) == 1
        assert len(records[2].neighbors) == 1

    def test_single_isolated_node(self):
        records = list(open_stream(io.StringIO("1 0\n\n")))
        assert len(records) == 1
        assert records[0].neighbors == ()

    def test_neighbor_zero_out_of_range(self):
        with pytest.raises(StreamFormatError, match="out of range"):
            list(open_stream(io.StringIO("2 1\n0\n1\n")))

    def test_neighbor_beyond_n_out_of_range(self):
        with pytest.raises(StreamFormatError, match="out of range"):
            list(open_stream(io.StringIO("2 1\n3\n1\n")))

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(StreamFormatError, match="duplicate neighbor"):
            list(open_stream(io.StringIO("3 2\n2 2\n1\n\n")))

    def test_self_loop_rejected(self):
        with pytest.raises(StreamFormatError, match="self loop"):
            list(open_stream(io.StringIO("2 1\n1\n1\n")))

    def test_sanitize_drops_self_loops_and_duplicates(self):
        records = list(open_stream(io.StringIO("2 1\n1 2 2\n1\n"), sanitize=True))
        assert [v for v, _ in records[0].neighbors] == [1]

    def test_non_numeric_token(self):
        with pytest.raises(StreamFormatError, match="non-numeric"):
            list(open_stream(io.StringIO("3 2\n2 x\n1\n2\n")))

    def test_more_records_than_n(self):
        with pytest.raises(StreamFormatError, match="more records"):
            list(open_stream(io.StringIO("2 1\n2\n1\n1\n")))

    def test_fewer_records_than_n(self):
        with pytest.raises(StreamFormatError, match="fewer records"):
            list(open_stream(io.StringIO("3 2\n2 3\n1\n")))

    def test_degree_sum_must_match_2m(self):
        with pytest.raises(StreamFormatError, match="2m"):
            list(open_stream(io.StringIO("3 1\n2 3\n1\n2\n")))

    def test_malformed_header(self):
        with pytest.raises(StreamFormatError, match="header"):
            open_stream(io.StringIO("3\n"))
        with pytest.raises(StreamFormatError):
            open_stream(io.StringIO(""))

    def test_bad_fmt_rejected(self):
        with pytest.raises(StreamFormatError, match="fmt"):
            open_stream(io.StringIO("2 1 7\n2\n1\n"))

    def test_comments_skipped(self):
        text = "% a comment\n3 2\n% another\n2 3\n1\n2\n"
        records = list(open_stream(io.StringIO(text)))
        assert [r.id for r in records] == [0, 1, 2]

    def test_node_weights_parsed(self):
        text = "2 1 10\n5 2\n3 1\n"
        records = list(open_stream(io.StringIO(text)))
        assert [r.weight for r in records] == [5, 3]
        assert records[0].neighbors == ((1, 1),)

    def test_edge_weights_parsed(self):
        text = "2 1 1\n2 7\n1 7\n"
        records = list(open_stream(io.StringIO(text)))
        assert records[0].neighbors == ((1, 7),)

    def test_both_weights_parsed(self):
        text = "2 1 11\n4 2 9\n6 1 9\n"
        records = list(open_stream(io.StringIO(text)))
        assert records[0].weight == 4
        assert records[1].neighbors == ((0, 9),)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(StreamFormatError, match="positive"):
            list(open_stream(io.StringIO("2 1 1\n2 0\n1 1\n")))


class TestStreamBehavior:
    def test_next_node_idempotent_at_end(self):
        stream = open_stream(io.StringIO("1 0\n\n"))
        assert next(stream, None) is not None
        assert next(stream, None) is None
        assert next(stream, None) is None

    def test_rereading_file_is_bit_stable(self, tmp_graph_file):
        path = tmp_graph_file(TINY)
        first = list(open_stream(path))
        second = list(open_stream(path))
        assert first == second

    def test_degree_sum_is_twice_m(self):
        g = grid2d(5, 4)
        assert sum(len(r.neighbors) for r in g.records) == 2 * g.m

    def test_total_node_weight_defaults_to_n(self, tmp_graph_file):
        path = tmp_graph_file(TINY)
        assert total_node_weight(path) == 3

    def test_total_node_weight_sums_weighted_stream(self, tmp_graph_file):
        path = tmp_graph_file("2 1 10\n5 2\n3 1\n", "w.graph")
        assert total_node_weight(path) == 8


class TestGenerators:
    def test_grid_4x4_counts(self):
        g = grid2d(4, 4)
        assert (g.n, g.m) == (16, 24)

    def test_ring_5_counts(self):
        g = ring(5)
        assert (g.n, g.m) == (5, 5)

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            ring(2)

    def test_grid_nonpositive(self):
        with pytest.raises(ValueError):
            grid2d(0, 4)

    def test_rgg_deterministic_for_seed(self):
        a = random_geometric(256, seed=11)
        b = random_geometric(256, seed=11)
        assert a.records == b.records
        c = random_geometric(256, seed=12)
        assert a.records != c.records

    def test_rgg_adjacency_symmetric(self):
        g = random_geometric(200, seed=3)
        nbrs = {r.id: {v for v, _ in r.neighbors} for r in g.records}
        for u, vs in nbrs.items():
            for v in vs:
                assert u in nbrs[v]

    def test_generate_graph_dispatch_and_aliases(self):
        assert generate_graph("grid2d", rows=2, cols=3).n == 6
        assert generate_graph("grid", rows=2, cols=3).n == 6
        assert generate_graph("rgg", n=10, seed=1).n == 10
        assert generate_graph("random-geometric-like", n=10, seed=1).n == 10
        with pytest.raises(ValueError, match="unknown graph kind"):
            generate_graph("torus", n=4)

    def test_metis_roundtrip(self, tmp_path):
        g = random_geometric(64, seed=5)
        path = tmp_path / "round.graph"
        write_metis(g, path)
        back = load_graph(path)
        assert back.header == g.header
        assert back.records == g.records


@settings(max_examples=60, deadline=None)
@given(graph=metis_graphs(max_n=25))
def test_metis_round_trip_every_format(graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round.graph"
        write_metis(graph, path)
        back = load_graph(path)
        assert back.header == graph.header
        assert back.records == graph.records
        # a clean file has nothing to sanitize
        assert load_graph(path, sanitize=True).records == back.records


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8))
def test_grid_edge_count_formula(rows, cols):
    g = grid2d(rows, cols)
    assert g.m == rows * (cols - 1) + (rows - 1) * cols
    assert sum(len(r.neighbors) for r in g.records) == 2 * g.m


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 120), seed=st.integers(0, 5))
def test_rgg_roundtrips_through_metis(n, seed):
    g = random_geometric(n, seed=seed)
    text = "\n".join(g.to_metis_lines()) + "\n"
    back = load_graph(io.StringIO(text))
    assert back.records == g.records
