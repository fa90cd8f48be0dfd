from __future__ import annotations

import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import metis_graphs
from streammap import graph_stream
from streammap.graph_stream import (
    GraphHeader,
    InMemoryGraph,
    NodeRecord,
    StreamFormatError,
    generate_graph,
    grid2d,
    load_graph,
    open_chunks,
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


@pytest.mark.parametrize("text", [
    "2 1 1\n2 2.0\n1 2.0\n",
    "3 2 11\n1.0 2 2.0 3 1\n2 1 2.0\n0.5 1 1\n",
])
def test_metis_round_trip_keeps_weight_types(tmp_path, text):
    # a float token such as 2.0 must not come back as the int 2
    graph = load_graph(io.StringIO(text))
    path = tmp_path / "round.graph"
    write_metis(graph, path)
    back = load_graph(path)
    assert back.header == graph.header
    assert _joined([back.csr]) == _joined([graph.csr])
    assert [type(r.weight) for r in back.records] == [type(r.weight) for r in graph.records]
    assert [type(w) for r in back.records for _, w in r.neighbors] == [
        type(w) for r in graph.records for _, w in r.neighbors]


def test_sanitized_graph_writes_the_m_of_its_entries(tmp_path):
    # the file's m of 5 counted entries that sanitize dropped; the header
    # keeps it, since it sets fennel's alpha, but the written file must load
    graph = load_graph(io.StringIO("2 5\n2 2\n1\n"), sanitize=True)
    assert graph.header.m == 5
    path = tmp_path / "round.graph"
    write_metis(graph, path)
    assert path.read_text().splitlines()[0] == "2 1"
    assert load_graph(path).records == graph.records


def test_odd_entry_count_cannot_be_written(tmp_path):
    # one entry, for an edge only node 1 lists: no m makes that file valid
    graph = load_graph(io.StringIO("2 1\n2\n\n"), sanitize=True)
    path = tmp_path / "odd.graph"
    with pytest.raises(ValueError, match="cannot write 1 adjacency entries"):
        write_metis(graph, path)
    assert not path.exists()


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


class TestFormatErrors:
    """Errors name the physical line; both readers word them alike."""

    @staticmethod
    def errors(text: str) -> set[str]:
        """The error of each reader: Python over a text handle and a file, C over the file."""
        out = set()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.graph"
            path.write_bytes(text.encode("latin-1"))
            for read in (lambda: list(open_stream(io.StringIO(text))),
                         lambda: list(open_stream(path)),
                         lambda: load_graph(path)):
                with pytest.raises(StreamFormatError) as caught:
                    read()
                out.add(str(caught.value))
        return out

    def test_line_numbers_count_comments_and_blank_lines(self):
        text = "% one\n% two\n3 2\n2 3\n1 x\n2\n"
        assert self.errors(text) == {"line 5: non-numeric neighbor token 'x'"}
        assert self.errors("% one\n\n3 2 10\n1 2 3\n% three\n\n") == {
            "line 6: missing node weight"}

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "Infinity"])
    def test_non_finite_weights_rejected(self, token):
        assert self.errors(f"2 1 10\n{token} 2\n1 1\n") == {
            f"line 2: node weight must be finite, got {token}"}
        assert self.errors(f"2 1 1\n2 1\n1 {token}\n") == {
            f"line 3: edge weight must be finite, got {token}"}

    def test_record_count_must_be_n(self):
        assert self.errors("2 1\n2\n1\n% c\n\n") == {"more records than n=2"}
        assert self.errors("3 1\n2\n1\n% c\n") == {"fewer records than n=3: got 2"}

    def test_non_ascii_byte_names_its_line(self):
        assert self.errors("3 2\n2\n1 3\n2 \xc3\xa9\n") == {"line 4: non-ASCII character"}
        assert self.errors("% caf\xe9\n1 0\n\n") == {"line 1: non-ASCII character"}


class TestCReader:
    def test_plain_file_needs_no_python_parse(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Python reader parsed a plain line")

        text = ("% a comment\r\n\r\n4 3 11\r\n2 2 1\r1 1 1 3 0.5\r\n% mid\n"
                "7.5e-1 2 0.5\t4 2\n\t3  3 2  ")
        path = tmp_path / "plain.graph"
        path.write_bytes(text.encode())
        want = InMemoryGraph(*_python_read(path))
        monkeypatch.setattr(graph_stream, "_parse_body_line", refuse)
        got = load_graph(path)
        assert got.header == want.header == GraphHeader(4, 3, True, True)
        assert got.records == want.records
        assert [type(r.weight) for r in got.records] == [int, int, float, int]
        assert [type(w) for r in got.records for _, w in r.neighbors] == [int, int, float, float,
                                                                          int, int]

    def test_reader_hands_the_rest_to_python(self, tmp_path):
        # "+5" and "1_0" are Python ints, outside the C grammar; the types of
        # both readers' weights survive the join into one graph
        path = tmp_path / "odd.graph"
        path.write_text("3 2 11\n1 2 2 3 1\n+5 1 2\n1_0 1 1\n")
        graph = load_graph(path)
        assert [r.weight for r in graph.records] == [1, 5, 10]
        assert graph.csr.node_float is False
        assert graph.records[1].neighbors == ((0, 2),)
        assert [type(w) for r in graph.records for _, w in r.neighbors] == [int, int, int, int]
        path.write_text("3 2 11\n1 2 0.5 3 1\n+5 1 0.5\n1_0 1 1\n")
        graph = load_graph(path)
        assert [type(w) for r in graph.records for _, w in r.neighbors] == [float, int, float, int]

    def test_line_ends_split_across_reads(self, tmp_path, monkeypatch):
        text = b"% c\r\n3 2\r\n2 3\r\r\n1\r\n1\r\n"
        path = tmp_path / "crlf.graph"
        path.write_bytes(text.replace(b"\r\r", b"\r"))
        want = list(open_stream(path))
        for block in range(1, len(text) + 1):
            monkeypatch.setattr(graph_stream, "READ_BLOCK", block)
            assert load_graph(path).records == want

    def test_rows_longer_than_the_room_for_them(self, tmp_path):
        # m = 0 sizes a whole-file read for no entries; sanitize lets the
        # rows of K4 through, and a regrown row must not see its own
        # earlier entries as duplicates
        path = tmp_path / "k4.graph"
        path.write_text("4 0\n2 3 4\n1 3 4 3\n1 2 4\n1 2 3\n")
        graph = load_graph(path, sanitize=True)
        assert graph.records == list(open_stream(path, sanitize=True))
        assert [len(r.neighbors) for r in graph.records] == [3, 3, 3, 3]


def _python_read(path, sanitize=False) -> tuple[GraphHeader, list[NodeRecord]]:
    stream = open_stream(path, sanitize)
    return stream.header, list(stream)


def _joined(chunks) -> tuple[list, ...]:
    """One node list of each CSR field, over consecutive chunks."""
    degrees, adj, node_w, node_floats, edge_floats = [], [], [], [], []
    for c in chunks:
        bounds = c.indptr.tolist()
        degrees += [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        adj += list(zip(c.adj[c.entries()].tolist(), c.adj_w[c.entries()].tolist()))
        node_w += c.node_w.tolist()
        node_floats += c.node_floats().tolist()
        edge_floats += c.edge_floats().tolist()
    return degrees, adj, node_w, node_floats, edge_floats


# Tokens outside the C reader's grammar, or breaking a rule of the format.
# The Python reader takes some of them ("+5", "1_0", a 70-digit int) and
# rejects the rest.
_ODD_NEIGHBOURS = ["+2", "1_0", "002", "0", "-1", "1.0", "x", "12345678901234567890", "\xe9"]
_WEIGHTS = ["1", "2", "7", "0.5", "3.25", "007", ".5", "1.", "1e3", "2E-1", "12345678901234567890"]
_ODD_WEIGHTS = ["+5", "1_0", "0x1p3", "inf", "nan", "-inf", "0", "0.0", "-1", "1e400", "1e-400",
                "9" * 70, "1e", "x", "\xe9", "\x0c3"]


@st.composite
def metis_texts(draw):
    """METIS files in all four fmts as bytes, mostly well formed.

    Lines end in LF, CRLF or a lone CR, with comments, blank lines, odd
    separators, self loops and duplicates, and now and then a token drawn
    from the oddities above, a wrong m or a missing or extra line.
    """
    n = draw(st.integers(1, 8))
    fmt = draw(st.sampled_from([0, 1, 10, 11]))
    odd = draw(st.sampled_from([0.0, 0.03, 0.2]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    pick = rnd.choice

    def weight() -> str:
        return pick(_ODD_WEIGHTS) if rnd.random() < odd else pick(_WEIGHTS)

    adj: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    m = 0
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < 0.4:
                w = weight()
                adj[u].append((v, w))
                adj[v].append((u, w))
                m += 1
    lines = [pick(["% top", "", " \t"]) for _ in range(rnd.randrange(3))]
    # a wrong m; m = 0 also leaves a whole-file read no room for any entry
    header = f"{n} {pick([m - 1, m + 1, 0]) if rnd.random() < odd else m}"
    lines.append(f"{header} {fmt}" if fmt or rnd.random() < 0.5 else header)
    for u in range(n):
        entries = list(adj[u])
        rnd.shuffle(entries)
        if rnd.random() < 0.15:
            entries.append((u, weight()))  # self loop
        if entries and rnd.random() < 0.15:
            entries.append(pick(entries))  # duplicate
        tokens = [weight()] if fmt >= 10 else []
        for v, w in entries:
            tokens.append(pick(_ODD_NEIGHBOURS) if rnd.random() < odd else str(v + 1))
            if fmt % 10 == 1:
                tokens.append(w)
        sep = pick([" ", " ", "\t", "  "])
        lines.append(pick(["", " "]) + sep.join(tokens) + pick(["", " ", "\t"]))
        if rnd.random() < 0.2:
            lines.append("% c " + weight())
    if rnd.random() < odd:
        lines.insert(rnd.randrange(len(lines) + 1), pick(["", "1", "x"]))
    eol = [pick(["\n", "\r\n", "\r"])]
    ends = [eol[0] if rnd.random() < 0.8 else pick(["\n", "\r\n", "\r"]) for _ in lines]
    if rnd.random() < 0.2:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("latin-1")


@settings(max_examples=400, deadline=None)
@given(text=metis_texts(), sanitize=st.booleans(), chunk_nodes=st.sampled_from([1, 3, None]),
       block=st.sampled_from([1, 2, 7, 64, 1 << 18]))
def test_c_reader_matches_python_reader(text, sanitize, chunk_nodes, block):
    def python():
        header, records = _python_read(path, sanitize)
        return header, _joined([InMemoryGraph(header, records).csr])

    def native():
        if chunk_nodes is None:
            graph = load_graph(path, sanitize)
            return graph.header, _joined([graph.csr])
        header, chunks = open_chunks(path, sanitize, chunk_nodes)
        return header, _joined(chunks)

    def outcome(read):
        try:
            return read()
        except StreamFormatError as exc:
            return str(exc)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.graph"
        path.write_bytes(text)
        saved = graph_stream.READ_BLOCK
        graph_stream.READ_BLOCK = block  # buffer ends fall inside lines and CRLFs
        try:
            assert outcome(native) == outcome(python)
        finally:
            graph_stream.READ_BLOCK = saved
