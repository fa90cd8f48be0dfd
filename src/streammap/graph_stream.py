"""Vertex streams over METIS adjacency files plus deterministic graph generators.

A graph source is consumed one node at a time: the header announces ``n`` and
``m`` up front, then each node arrives with its full adjacency list (both
directions of every undirected edge are present). Sources can be a file path,
an open text handle, or an :class:`InMemoryGraph`; paths and in-memory graphs
can be re-opened for multi-pass consumers.

File format (METIS adjacency):
  * first non-comment line: ``n m [fmt]`` with ``fmt`` in {0, 1, 10, 11};
    the tens digit flags node weights, the ones digit edge weights
  * ``%``-prefixed lines are comments and are skipped anywhere
  * line i (1-based over non-comment body lines) describes node i: an optional
    node weight, then whitespace-separated 1-indexed neighbor ids, each
    followed by an edge weight when flagged
  * exactly ``n`` body lines must be present; an empty line is an isolated node
  * weights are positive finite numbers; the text is ASCII, and errors name
    the physical line, counting comments and blank lines

Two readers implement the format. :func:`open_stream` is the Python reader
and the format's definition: it yields :class:`NodeRecord` rows and words
every :class:`StreamFormatError`. :func:`open_chunks` yields the nodes as
:class:`CSR` arrays, the form the partitioner, the evaluator and the weight
sums read. For a path it runs the C reader (``_reader.c``), which accepts
only plain lines and hands the rest of the file, from the first line it
does not accept, to the Python reader; so both readers accept the same
files, give the same weights and int/float types, and raise the same
errors.
"""

from __future__ import annotations

import io
import math
import operator
import os
import re
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, islice
from pathlib import Path
from typing import Iterator

from . import _native
from ._native import address

__all__ = [
    "CHUNK_NODES",
    "StreamFormatError",
    "GraphHeader",
    "NodeRecord",
    "GraphStream",
    "CSR",
    "WeightSum",
    "InMemoryGraph",
    "open_stream",
    "open_chunks",
    "load_graph",
    "total_node_weight",
    "generate_graph",
    "grid2d",
    "ring",
    "random_geometric",
    "write_metis",
]

# Nodes per chunk of open_chunks, and so per call of the descent kernel.
# Larger chunks save little time and grow peak memory with the chunk's arrays.
CHUNK_NODES = 2048
# Bytes per read when the C reader streams a file.
READ_BLOCK = 1 << 18


class StreamFormatError(ValueError):
    """Raised for malformed headers, bad body lines, or record-count mismatches."""


@dataclass(frozen=True)
class GraphHeader:
    """Stream header: node count, undirected edge count, weight flags."""

    n: int
    m: int
    has_node_weights: bool = False
    has_edge_weights: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise StreamFormatError(f"node count must be >= 1, got {self.n}")
        if self.m < 0:
            raise StreamFormatError(f"edge count must be >= 0, got {self.m}")


@dataclass(frozen=True, slots=True)
class NodeRecord:
    """One streamed node: 0-based id, positive weight, (neighbor, weight) pairs."""

    id: int
    weight: int | float
    neighbors: tuple[tuple[int, int | float], ...]


def _parse_weight(token: str, what: str, line_no: int) -> int | float:
    try:
        value: int | float = int(token)
    except ValueError:
        try:
            value = float(token)
        except ValueError:
            raise StreamFormatError(
                f"line {line_no}: non-numeric {what} token {token!r}"
            ) from None
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the range of a double
        finite = False
    if not finite:
        raise StreamFormatError(f"line {line_no}: {what} must be finite, got {token}")
    if value <= 0:
        raise StreamFormatError(f"line {line_no}: {what} must be positive, got {token}")
    return value


def _parse_header_line(line: str) -> GraphHeader:
    tokens = line.split()
    if len(tokens) not in (2, 3):
        raise StreamFormatError(f"malformed header {line!r}: expected 'n m [fmt]'")
    try:
        n = int(tokens[0])
        m = int(tokens[1])
    except ValueError:
        raise StreamFormatError(f"malformed header {line!r}: non-numeric field") from None
    fmt = 0
    if len(tokens) == 3:
        try:
            fmt = int(tokens[2])
        except ValueError:
            raise StreamFormatError(f"malformed header {line!r}: bad fmt field") from None
        if fmt not in (0, 1, 10, 11):
            raise StreamFormatError(f"unsupported fmt {fmt}; expected 0, 1, 10 or 11")
    return GraphHeader(n=n, m=m, has_node_weights=fmt >= 10, has_edge_weights=fmt % 10 == 1)


def _parse_body_line(
    line: str, node_id: int, header: GraphHeader, line_no: int, sanitize: bool
) -> NodeRecord:
    tokens = line.split()
    pos = 0
    weight: int | float = 1
    if header.has_node_weights:
        if not tokens:
            raise StreamFormatError(f"line {line_no}: missing node weight")
        weight = _parse_weight(tokens[0], "node weight", line_no)
        pos = 1
    rest = tokens[pos:]
    if header.has_edge_weights and len(rest) % 2 != 0:
        raise StreamFormatError(f"line {line_no}: dangling neighbor without edge weight")
    step = 2 if header.has_edge_weights else 1
    neighbors: list[tuple[int, int | float]] = []
    seen: set[int] = set()
    for i in range(0, len(rest), step):
        try:
            raw = int(rest[i])
        except ValueError:
            raise StreamFormatError(
                f"line {line_no}: non-numeric neighbor token {rest[i]!r}"
            ) from None
        if raw < 1 or raw > header.n:
            raise StreamFormatError(
                f"line {line_no}: neighbor index out of range: {raw} not in [1, {header.n}]"
            )
        nbr = raw - 1
        if nbr == node_id:
            if sanitize:
                continue
            raise StreamFormatError(f"line {line_no}: self loop on node {raw}")
        if nbr in seen:
            if sanitize:
                continue
            raise StreamFormatError(f"line {line_no}: duplicate neighbor {raw}")
        seen.add(nbr)
        ew: int | float = 1
        if header.has_edge_weights:
            ew = _parse_weight(rest[i + 1], "edge weight", line_no)
        neighbors.append((nbr, ew))
    return NodeRecord(id=node_id, weight=weight, neighbors=tuple(neighbors))


def _check_ascii(line: str, line_no: int) -> None:
    # files are decoded with surrogateescape, so a non-ASCII byte shows here
    if not line.isascii():
        raise StreamFormatError(f"line {line_no}: non-ASCII character")


class GraphStream:
    """Single-pass iterator of :class:`NodeRecord` in ascending id order.

    Once exhausted it stays exhausted. File streams verify on exhaustion
    that exactly ``n`` records were seen and that the degree sum equals
    ``2m``.
    """

    def __init__(self, header: GraphHeader, records: Iterator[NodeRecord]):
        self.header = header
        self._records = records
        self._done = False

    def __iter__(self) -> GraphStream:
        return self

    def __next__(self) -> NodeRecord:
        if self._done:
            raise StopIteration
        try:
            return next(self._records)
        except StopIteration:
            self._done = True
            raise


def _check_end(header: GraphHeader, records: int, degree_sum: int, sanitize: bool) -> None:
    if records < header.n:
        raise StreamFormatError(f"fewer records than n={header.n}: got {records}")
    if not sanitize and degree_sum != 2 * header.m:
        raise StreamFormatError(
            f"adjacency entries sum to {degree_sum}, expected 2m={2 * header.m}"
        )


def _file_records(
    lines: Iterator[str],
    header: GraphHeader,
    sanitize: bool,
    handle: io.TextIOBase | None,
    line_no: int,
    node_id: int = 0,
    degree_sum: int = 0,
) -> Iterator[NodeRecord]:
    """Records of the body ``lines``; ``line_no`` is the physical line number
    of the line before them, and ``node_id`` and ``degree_sum`` resume a body
    read partly by the C reader."""
    try:
        for line in lines:
            line_no += 1
            _check_ascii(line, line_no)
            if line.startswith("%"):
                continue
            if node_id >= header.n:
                raise StreamFormatError(f"more records than n={header.n}")
            record = _parse_body_line(line, node_id, header, line_no, sanitize)
            degree_sum += len(record.neighbors)
            yield record
            node_id += 1
        _check_end(header, node_id, degree_sum, sanitize)
    finally:
        if handle is not None:
            handle.close()


def _open_lines(
    source: str | Path | io.TextIOBase,
) -> tuple[Iterator[str], GraphHeader, io.TextIOBase | None, int]:
    """Lines after the header, the header, the handle opened here (if any)
    and the header's physical line number."""
    owned: io.TextIOBase | None = None
    if isinstance(source, (str, Path)):
        handle: io.TextIOBase = open(source, "r", encoding="ascii", errors="surrogateescape")
        owned = handle
    else:
        handle = source
    lines = iter(handle)
    try:
        for line_no, line in enumerate(lines, start=1):
            _check_ascii(line, line_no)
            if line.startswith("%") or not line.split():
                continue
            return lines, _parse_header_line(line), owned, line_no
        raise StreamFormatError("empty source: no header line found")
    except Exception:
        if owned is not None:
            owned.close()
        raise


# ----------------------------------------------------------------------------
# CSR arrays
# ----------------------------------------------------------------------------


def _zeros(typecode: str, count: int) -> array:
    """An ``array.array`` of ``count`` zeros."""
    return array(typecode, [0]) * count


@dataclass(frozen=True)
class CSR:
    """Nodes ``first .. first + count - 1`` in compressed sparse rows.

    Node ``first + i`` has weight ``node_w[i]`` and the adjacency entries
    ``indptr[i] .. indptr[i + 1] - 1``: entry e goes to the 0-based
    neighbour ``adj[e]`` with weight ``adj_w[e]``. The fields are
    ``array.array`` buffers that the C library reads by address: ``indptr``
    and ``adj`` of int64 (typecode ``q``), ``adj_w`` and ``node_w`` of
    doubles. Whether each weight came from an int or a float token is kept,
    because a reported sum is an int exactly when every summand was an int
    token. ``node_float`` and ``edge_float`` are False when every weight of
    their kind was an int token, True when every one was a float token, and
    otherwise an array of 0/1 bytes (typecode ``B``) indexed like ``node_w``
    and like ``adj``.
    """

    first: int
    indptr: array
    adj: array
    adj_w: array
    node_w: array
    node_float: bool | array = False
    edge_float: bool | array = False

    @property
    def count(self) -> int:
        return len(self.indptr) - 1

    def entries(self) -> slice:
        """The range of ``adj`` that these nodes' rows cover."""
        return slice(self.indptr[0], self.indptr[-1])

    def node_floats(self) -> array:
        """Per node: 1 when its weight was a float token, else 0."""
        if isinstance(self.node_float, bool):
            return array("B", [self.node_float]) * self.count
        return self.node_float

    def edge_floats(self) -> array:
        """Per entry of ``adj[self.entries()]``: 1 when its weight was a float token."""
        if isinstance(self.edge_float, bool):
            return array("B", [self.edge_float]) * (self.indptr[-1] - self.indptr[0])
        return self.edge_float[self.entries()]

    def slices(self, size: int) -> Iterator[CSR]:
        """Chunks of at most ``size`` nodes that share the adjacency arrays;
        each gets a copy of its part of the per-node arrays."""
        for lo in range(0, self.count, size):
            hi = min(lo + size, self.count)
            node_float = self.node_float
            if not isinstance(node_float, bool):
                node_float = node_float[lo:hi]
            yield CSR(self.first + lo, self.indptr[lo:hi + 1], self.adj, self.adj_w,
                      self.node_w[lo:hi], node_float, self.edge_float)


def _any(bits: bool | array) -> bool:
    """Whether any weight is marked as a float token."""
    return bits if isinstance(bits, bool) else 1 in bits.tobytes()


def _flag(bits: array) -> bool | array:
    """The compact form of per-entry float bits: False, True or the bits."""
    raw = bits.tobytes()  # a bytes search runs in C, unlike a scan of the array
    if 1 not in raw:
        return False
    return True if 0 not in raw else bits


def _concat(chunks: list[CSR]) -> CSR:
    """One CSR of consecutive chunks, from node 0."""
    if len(chunks) == 1:
        return chunks[0]
    indptr, adj, adj_w = array("q", [0]), array("q"), array("d")
    node_w, node_float, edge_float = array("d"), array("B"), array("B")
    for c in chunks:
        span = c.entries()
        shift = len(adj) - span.start
        indptr.extend(x + shift for x in c.indptr[1:])
        adj.extend(c.adj[span])
        adj_w.extend(c.adj_w[span])
        node_w.extend(c.node_w)
        node_float.extend(c.node_floats())
        edge_float.extend(c.edge_floats())
    return CSR(0, indptr, adj, adj_w, node_w, _flag(node_float), _flag(edge_float))


def _csr_of(records: list[NodeRecord], first: int) -> CSR:
    """The CSR of consecutive records, node ``first`` first."""
    indptr = array("q", accumulate((len(r.neighbors) for r in records), initial=0))
    adj = array("q", [v for r in records for v, _ in r.neighbors])
    adj_w = array("d", [w for r in records for _, w in r.neighbors])
    node_w = array("d", [r.weight for r in records])
    node_float = array("B", [isinstance(r.weight, float) for r in records])
    edge_float = array("B", [isinstance(w, float) for r in records for _, w in r.neighbors])
    return CSR(first, indptr, adj, adj_w, node_w, _flag(node_float), _flag(edge_float))


def _record_chunks(records: Iterator[NodeRecord], first: int,
                   chunk_nodes: int | None) -> Iterator[CSR]:
    while batch := list(islice(records, chunk_nodes)):
        yield _csr_of(batch, first)
        first += len(batch)


def _typed(values: array, floats: bool | array) -> list[int | float]:
    """``values`` as Python numbers: an int for each int token, a float for each float token."""
    out = values.tolist()
    if isinstance(floats, bool):
        return out if floats else list(map(int, out))
    return [x if f else int(x) for x, f in zip(out, floats.tolist())]


def _rows(csr: CSR) -> Iterator[NodeRecord]:
    node_w = _typed(csr.node_w, csr.node_float)
    nodes = csr.adj.tolist()
    weights = _typed(csr.adj_w, csr.edge_float)
    bounds = csr.indptr.tolist()
    for i in range(csr.count):
        lo, hi = bounds[i], bounds[i + 1]
        yield NodeRecord(csr.first + i, node_w[i], tuple(zip(nodes[lo:hi], weights[lo:hi])))


class WeightSum:
    """A running sum of weights, added left to right as Python's ``+=`` adds.

    Its :attr:`value` is an int exactly when every summand was an int token,
    so it equals, in value and type, the sum a loop over the weights in the
    same order would give.
    """

    def __init__(self) -> None:
        self._sum = 0.0
        self._floats = False

    def add(self, values: array, floats: bool | array) -> None:
        """Adds ``values`` in order; ``floats`` marks those from float tokens."""
        if values:
            # one addition at a time, left to right; sum() may compensate
            self._sum = reduce(operator.add, values, self._sum)
            self._floats = self._floats or _any(floats)

    @property
    def value(self) -> int | float:
        return self._sum if self._floats else int(self._sum)


class InMemoryGraph:
    """Fully materialized graph that can be re-streamed at will.

    It holds the whole graph as one :class:`CSR` (:attr:`csr`). The rows as
    :class:`NodeRecord` (:attr:`records`) serve the Python references and
    tests, and are built on first access. A graph built from records builds
    its arrays on first use, and checks then that the records carry ids
    0 .. n - 1 in order and neighbours in [0, n), so a hand-built graph cannot
    send the kernel out of bounds. Arrays come only from the readers and the
    generators, which check them as they build them.
    """

    def __init__(self, header: GraphHeader, records: list[NodeRecord]):
        self.header = header
        self._records: list[NodeRecord] | None = records
        self._csr: CSR | None = None

    @classmethod
    def _of(cls, header: GraphHeader, csr: CSR) -> InMemoryGraph:
        graph = cls(header, [])
        graph._records, graph._csr = None, csr
        return graph

    def __repr__(self) -> str:
        return f"InMemoryGraph({self.header!r})"

    @property
    def n(self) -> int:
        return self.header.n

    @property
    def m(self) -> int:
        return self.header.m

    @property
    def csr(self) -> CSR:
        if self._csr is None:
            self._csr = self._checked_csr()
        return self._csr

    @property
    def records(self) -> list[NodeRecord]:
        if self._records is None:
            self._records = list(_rows(self._csr))
        return self._records

    def _checked_csr(self) -> CSR:
        n = self.header.n
        for i, rec in enumerate(self._records):
            if rec.id != i:
                raise StreamFormatError(f"record {i} carries id {rec.id}")
        if len(self._records) > n:
            raise StreamFormatError(f"more records than n={n}")
        if len(self._records) < n:
            raise StreamFormatError(f"fewer records than n={n}: got {len(self._records)}")
        csr = _csr_of(self._records, 0)
        if csr.adj and not (0 <= min(csr.adj) and max(csr.adj) < n):
            raise StreamFormatError(f"a neighbour lies outside [0, {n})")
        return csr

    def total_node_weight(self) -> int | float:
        if not self.header.has_node_weights:
            return self.header.n
        total = WeightSum()
        total.add(self.csr.node_w, self.csr.node_float)
        return total.value

    def open(self) -> GraphStream:
        return GraphStream(self.header, iter(self.records))

    def to_metis_lines(self) -> Iterator[str]:
        """The graph as METIS text, header first.

        The header's m is half the adjacency entries written, not
        ``header.m``: a sanitized graph keeps its file's m, which may count
        the entries it dropped. An odd entry count cannot be written as a
        valid file, so it raises ValueError.
        """
        h = self.header
        entries = (sum(len(rec.neighbors) for rec in self._records)
                   if self._records is not None else len(self.csr.adj))
        if entries % 2:
            raise ValueError(f"cannot write {entries} adjacency entries as METIS: "
                             "an undirected graph lists each edge twice")
        fmt = (10 if h.has_node_weights else 0) + (1 if h.has_edge_weights else 0)
        yield f"{h.n} {entries // 2} {fmt}" if fmt else f"{h.n} {entries // 2}"
        # rows of a graph of arrays are made one at a time, not kept
        for rec in self._records if self._records is not None else _rows(self.csr):
            # str writes an int token as an int and a float one as a float
            # (2.0, not 2), so the file reads back with the same weight types
            parts: list[str] = []
            if h.has_node_weights:
                parts.append(str(rec.weight))
            for nbr, ew in rec.neighbors:
                parts.append(str(nbr + 1))
                if h.has_edge_weights:
                    parts.append(str(ew))
            yield " ".join(parts)


# ----------------------------------------------------------------------------
# Opening sources
# ----------------------------------------------------------------------------


def open_stream(
    source: str | Path | io.TextIOBase | InMemoryGraph,
    sanitize: bool = False,
) -> GraphStream:
    """Open a one-pass stream of :class:`NodeRecord` over ``source``.

    This is the Python reader. Text handles can only be consumed once; pass
    a path or an :class:`InMemoryGraph` to re-open.
    """
    if isinstance(source, InMemoryGraph):
        return source.open()
    lines, header, owned, line_no = _open_lines(source)
    return GraphStream(header, _file_records(lines, header, sanitize, owned, line_no))


def open_chunks(
    source: str | Path | io.TextIOBase | InMemoryGraph,
    sanitize: bool = False,
    chunk_nodes: int | None = CHUNK_NODES,
) -> tuple[GraphHeader, Iterator[CSR]]:
    """The header of ``source`` and its nodes as :class:`CSR` chunks.

    Chunks hold at most ``chunk_nodes`` nodes each, or all of them for
    ``None``, and come in node order. An :class:`InMemoryGraph` yields
    slices of its arrays. A path is read by the C reader, with the Python
    reader taking over at the first line the C reader does not accept. A
    text handle is read by the Python reader. Every source is validated as
    :func:`open_stream` validates it. A file of fewer bytes than n, which
    cannot hold n records, raises its error before the header is returned,
    so no caller sizes an array by its n.
    """
    if isinstance(source, InMemoryGraph):
        csr = source.csr
        return source.header, csr.slices(chunk_nodes or csr.count)
    if isinstance(source, (str, Path)):
        chunks = _native_chunks(source, sanitize, chunk_nodes)
        return next(chunks), chunks
    stream = open_stream(source, sanitize)
    return stream.header, _record_chunks(stream, 0, chunk_nodes)


_EOL = re.compile(rb"\r\n?|\n")
_PLAIN = re.compile(rb"[\t -~]*")


def _plain_header(buf: bytes, final: bool) -> tuple[GraphHeader, int, int] | None:
    """The header of the text starting ``buf``, its physical line number and
    the offset after it, if every line up to it is plain ASCII. None leaves
    the text to the Python reader. ``final`` says ``buf`` is the whole text."""
    pos = line_no = 0
    while (eol := _EOL.search(buf, pos)) is not None:
        if eol.group() == b"\r" and eol.end() == len(buf) and not final:
            return None
        line = buf[pos:eol.start()]
        line_no += 1
        if not _PLAIN.fullmatch(line):
            return None
        pos = eol.end()
        if line[:1] != b"%" and line.strip(b" \t"):
            return _parse_header_line(line.decode() + "\n"), line_no, pos
    return None


# read_chunk's state[] slots and return codes (see _reader.c)
_POS, _LINE, _NODE, _DEGREES, _COUNT, _EDGES = range(6)
_HAND_OFF, _NO_ROOM = 1, 2


def _native_chunks(path: str | Path, sanitize: bool,
                   chunk_nodes: int | None) -> Iterator[GraphHeader | CSR]:
    """The header of the file at ``path``, then its CSR chunks."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        buf = handle.read(READ_BLOCK)
        final = len(buf) < READ_BLOCK
        found = _plain_header(buf, final)
        # a file too short for n records goes to the Python reader, which
        # reports it without sizing arrays by n
        if found is None or found[0].n > size:
            stream = open_stream(path, sanitize)
            if stream.header.n > size:
                for _ in stream:  # raises: the file cannot hold n records
                    pass
            yield stream.header
            yield from _record_chunks(stream, 0, chunk_nodes)
            return
        header, line_no, pos = found
        yield header
        read_chunk = _native.library().read_chunk
        n = header.n
        max_count = chunk_nodes or n
        # whole files: room for 2m entries, or as many as the bytes can hold
        cap = 16 * max_count if chunk_nodes else min(2 * header.m, size // 2) + 1
        seen = _zeros("q", n)
        state = array("q", [pos, line_no, 0, 0, 0, 0])
        offset = 0  # file offset of buf[0]
        while True:
            indptr = _zeros("q", max_count + 1)
            node_w, node_float = _zeros("d", max_count), _zeros("B", max_count)
            adj, adj_w, edge_float = _zeros("q", cap), _zeros("d", cap), _zeros("B", cap)
            state[_COUNT] = state[_EDGES] = 0
            while True:
                status = read_chunk(
                    buf, len(buf), final, n, header.has_node_weights, header.has_edge_weights,
                    sanitize, address(seen), address(state), max_count, cap,
                    *map(address, (indptr, adj, adj_w, node_w, node_float, edge_float)))
                if status == _NO_ROOM:
                    for a in (adj, adj_w, edge_float):  # grown in place
                        a.frombytes(bytes(a.itemsize * cap))
                    cap *= 2
                    continue
                ended = status == _HAND_OFF or (final and state[_POS] == len(buf))
                if ended or state[_COUNT] == max_count:
                    break
                more = handle.read(READ_BLOCK)
                offset += state[_POS]
                buf = buf[state[_POS]:] + more
                state[_POS] = 0
                final = len(more) < READ_BLOCK
            count, edges = state[_COUNT], state[_EDGES]
            if count:
                # truncated in place: a sliced copy would double a whole file's arrays
                for a, keep in ((indptr, count + 1), (node_w, count), (node_float, count),
                                (adj, edges), (adj_w, edges), (edge_float, edges)):
                    del a[keep:]
                yield CSR(state[_NODE] - count, indptr, adj, adj_w, node_w, _flag(node_float),
                          _flag(edge_float))
            if ended:
                break
        if status == _HAND_OFF:
            handle.seek(offset + state[_POS])
            text = io.TextIOWrapper(handle, encoding="ascii", errors="surrogateescape")
            node_id = state[_NODE]
            records = _file_records(text, header, sanitize, None, state[_LINE], node_id,
                                    state[_DEGREES])
            yield from _record_chunks(records, node_id, chunk_nodes)
        else:
            _check_end(header, state[_NODE], state[_DEGREES], sanitize)


def load_graph(source: str | Path | io.TextIOBase | InMemoryGraph, sanitize: bool = False) -> InMemoryGraph:
    """Parse and validate an entire source into memory."""
    if isinstance(source, InMemoryGraph):
        return source
    header, chunks = open_chunks(source, sanitize, chunk_nodes=None)
    return InMemoryGraph._of(header, _concat(list(chunks)))


def peek_header(source: str | Path | io.TextIOBase | InMemoryGraph) -> GraphHeader:
    if isinstance(source, InMemoryGraph):
        return source.header
    if isinstance(source, (str, Path)):
        _, header, owned, _ = _open_lines(source)
        if owned is not None:
            owned.close()
        return header
    raise TypeError("cannot peek a one-shot text handle; load it first")


def total_node_weight(source: str | Path | io.TextIOBase | InMemoryGraph) -> int | float:
    """Total node weight of a source; unweighted streams cost nothing (it is n).

    Weights are added in node order, as the partitioner's running total adds them.
    """
    if isinstance(source, InMemoryGraph):
        return source.total_node_weight()
    header = peek_header(source)
    if not header.has_node_weights:
        return header.n
    total = WeightSum()
    for chunk in open_chunks(source)[1]:
        total.add(chunk.node_w, chunk.node_float)
    return total.value


def write_metis(graph: InMemoryGraph, path: str | Path) -> None:
    lines = graph.to_metis_lines()
    header = next(lines)  # a graph that cannot be written raises before the file is made
    with open(path, "w", encoding="ascii") as out:
        out.write(header + "\n")
        for line in lines:
            out.write(line)
            out.write("\n")


# ----------------------------------------------------------------------------
# Generators. All produce simple undirected graphs with unit weights and
# symmetric adjacency, deterministic for a fixed seed.
# ----------------------------------------------------------------------------


def _graph_from_adjacency(adj: list[list[int]]) -> InMemoryGraph:
    n = len(adj)
    indptr = array("q", accumulate(map(len, adj), initial=0))
    nbrs = array("q", chain.from_iterable(adj))
    csr = CSR(0, indptr, nbrs, array("d", [1.0]) * len(nbrs), array("d", [1.0]) * n)
    return InMemoryGraph._of(GraphHeader(n=n, m=len(nbrs) // 2), csr)


def grid2d(rows: int, cols: int) -> InMemoryGraph:
    """rows x cols lattice with 4-neighborhood, row-major node ids."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    adj: list[list[int]] = [[] for _ in range(rows * cols)]
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                adj[u].append(u + 1)
                adj[u + 1].append(u)
            if r + 1 < rows:
                adj[u].append(u + cols)
                adj[u + cols].append(u)
    for a in adj:
        a.sort()
    return _graph_from_adjacency(adj)


def ring(n: int) -> InMemoryGraph:
    """Cycle on n >= 3 nodes."""
    if n < 3:
        raise ValueError("ring needs at least 3 nodes")
    adj = [sorted(((i - 1) % n, (i + 1) % n)) for i in range(n)]
    return _graph_from_adjacency(adj)


def random_geometric(n: int, radius: float | None = None, seed: int = 0) -> InMemoryGraph:
    """Random points in the unit square, edges between pairs within ``radius``.

    The default radius shrinks as sqrt(ln n / n) so the expected degree stays
    moderate as n grows. Uses cell bucketing, so construction is near-linear
    for sensible radii.
    """
    if n < 1:
        raise ValueError("node count must be positive")
    if radius is None:
        radius = 0.55 * math.sqrt(math.log(n) / n) if n > 1 else 0.0
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    import numpy as np  # its generator fixes the points, and so every rgg file's bytes

    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    adj: list[list[int]] = [[] for _ in range(n)]
    if radius > 0 and n > 1:
        cell = radius
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, (cx, cy) in enumerate(np.floor(pts / cell).astype(np.int64).tolist()):
            buckets.setdefault((cx, cy), []).append(i)
        # Python floats: the same doubles as numpy's, without a scalar per access
        xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
        r2 = radius * radius
        for (cx, cy), members in buckets.items():
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    other = buckets.get((cx + dx, cy + dy))
                    if other is None:
                        continue
                    for i in members:
                        xi, yi = xs[i], ys[i]
                        for j in other:
                            if j <= i:
                                continue
                            ddx = xi - xs[j]
                            ddy = yi - ys[j]
                            if ddx * ddx + ddy * ddy <= r2:
                                adj[i].append(j)
                                adj[j].append(i)
        for a in adj:
            a.sort()
    return _graph_from_adjacency(adj)


_GENERATORS = {
    "grid2d": lambda params: grid2d(int(params["rows"]), int(params["cols"])),
    "ring": lambda params: ring(int(params["n"])),
    "random-geometric-like": lambda params: random_geometric(
        int(params["n"]), params.get("radius"), int(params.get("seed", 0))
    ),
}
_GENERATOR_ALIASES = {"grid": "grid2d", "rgg": "random-geometric-like"}


def generate_graph(kind: str, **params) -> InMemoryGraph:
    """Build a named graph family: grid2d, ring, or random-geometric-like."""
    key = _GENERATOR_ALIASES.get(kind, kind)
    try:
        make = _GENERATORS[key]
    except KeyError:
        raise ValueError(f"unknown graph kind {kind!r}") from None
    return make(params)
