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
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "StreamFormatError",
    "GraphHeader",
    "NodeRecord",
    "GraphStream",
    "InMemoryGraph",
    "open_stream",
    "load_graph",
    "total_node_weight",
    "generate_graph",
    "grid2d",
    "ring",
    "random_geometric",
    "write_metis",
]


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


def _file_records(
    lines: Iterator[str],
    header: GraphHeader,
    sanitize: bool,
    handle: io.TextIOBase | None,
) -> Iterator[NodeRecord]:
    try:
        node_id = 0
        line_no = 1  # header consumed the first meaningful line already
        degree_sum = 0
        for line in lines:
            line_no += 1
            if line.startswith("%"):
                continue
            if node_id >= header.n:
                raise StreamFormatError(f"more records than n={header.n}")
            record = _parse_body_line(line, node_id, header, line_no, sanitize)
            degree_sum += len(record.neighbors)
            yield record
            node_id += 1
        if node_id < header.n:
            raise StreamFormatError(f"fewer records than n={header.n}: got {node_id}")
        if not sanitize and degree_sum != 2 * header.m:
            raise StreamFormatError(
                f"adjacency entries sum to {degree_sum}, expected 2m={2 * header.m}"
            )
    finally:
        if handle is not None:
            handle.close()


def _open_lines(
    source: str | Path | io.TextIOBase,
) -> tuple[Iterator[str], GraphHeader, io.TextIOBase | None]:
    owned: io.TextIOBase | None = None
    if isinstance(source, (str, Path)):
        handle: io.TextIOBase = open(source, "r", encoding="ascii")
        owned = handle
    else:
        handle = source
    lines = iter(handle)
    try:
        for line in lines:
            if line.startswith("%") or not line.split():
                continue
            return lines, _parse_header_line(line), owned
    except Exception:
        if owned is not None:
            owned.close()
        raise
    if owned is not None:
        owned.close()
    raise StreamFormatError("empty source: no header line found")


@dataclass
class InMemoryGraph:
    """Fully materialized graph that can be re-streamed at will."""

    header: GraphHeader
    records: list[NodeRecord] = field(repr=False)

    def __post_init__(self) -> None:
        for i, rec in enumerate(self.records):
            if rec.id != i:
                raise StreamFormatError(f"record {i} carries id {rec.id}")

    @property
    def n(self) -> int:
        return self.header.n

    @property
    def m(self) -> int:
        return self.header.m

    def total_node_weight(self) -> int | float:
        if not self.header.has_node_weights:
            return self.header.n
        return sum(rec.weight for rec in self.records)

    def open(self) -> GraphStream:
        return GraphStream(self.header, iter(self.records))

    def to_metis_lines(self) -> Iterator[str]:
        h = self.header
        fmt = (10 if h.has_node_weights else 0) + (1 if h.has_edge_weights else 0)
        yield f"{h.n} {h.m} {fmt}" if fmt else f"{h.n} {h.m}"
        for rec in self.records:
            parts: list[str] = []
            if h.has_node_weights:
                parts.append(_fmt_num(rec.weight))
            for nbr, ew in rec.neighbors:
                parts.append(str(nbr + 1))
                if h.has_edge_weights:
                    parts.append(_fmt_num(ew))
            yield " ".join(parts)


def _fmt_num(x: int | float) -> str:
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return str(x)


def open_stream(
    source: str | Path | io.TextIOBase | InMemoryGraph,
    sanitize: bool = False,
) -> GraphStream:
    """Open a one-pass stream over ``source``.

    Text handles can only be consumed once; pass a path or an
    :class:`InMemoryGraph` to re-open.
    """
    if isinstance(source, InMemoryGraph):
        return source.open()
    lines, header, owned = _open_lines(source)
    return GraphStream(header, _file_records(lines, header, sanitize, owned))


def load_graph(source: str | Path | io.TextIOBase | InMemoryGraph, sanitize: bool = False) -> InMemoryGraph:
    """Parse and validate an entire source into memory."""
    if isinstance(source, InMemoryGraph):
        return source
    stream = open_stream(source, sanitize=sanitize)
    return InMemoryGraph(stream.header, list(stream))


def peek_header(source: str | Path | io.TextIOBase | InMemoryGraph) -> GraphHeader:
    if isinstance(source, InMemoryGraph):
        return source.header
    if isinstance(source, (str, Path)):
        _, header, owned = _open_lines(source)
        if owned is not None:
            owned.close()
        return header
    raise TypeError("cannot peek a one-shot text handle; load it first")


def total_node_weight(source: str | Path | io.TextIOBase | InMemoryGraph) -> int | float:
    """Total node weight of a source; unweighted streams cost nothing (it is n)."""
    header = peek_header(source) if not isinstance(source, InMemoryGraph) else source.header
    if isinstance(source, InMemoryGraph):
        return source.total_node_weight()
    if not header.has_node_weights:
        return header.n
    return sum(rec.weight for rec in open_stream(source))


def write_metis(graph: InMemoryGraph, path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as out:
        for line in graph.to_metis_lines():
            out.write(line)
            out.write("\n")


# ----------------------------------------------------------------------------
# Generators. All produce simple undirected graphs with unit weights and
# symmetric adjacency, deterministic for a fixed seed.
# ----------------------------------------------------------------------------


def _graph_from_adjacency(adj: list[list[int]]) -> InMemoryGraph:
    n = len(adj)
    degree_sum = sum(len(a) for a in adj)
    header = GraphHeader(n=n, m=degree_sum // 2)
    records = [
        NodeRecord(id=i, weight=1, neighbors=tuple((v, 1) for v in adj[i]))
        for i in range(n)
    ]
    return InMemoryGraph(header, records)


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
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    adj: list[list[int]] = [[] for _ in range(n)]
    if radius > 0 and n > 1:
        cell = radius
        buckets: dict[tuple[int, int], list[int]] = {}
        cells = np.floor(pts / cell).astype(np.int64)
        for i in range(n):
            buckets.setdefault((int(cells[i, 0]), int(cells[i, 1])), []).append(i)
        r2 = radius * radius
        for (cx, cy), members in buckets.items():
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    other = buckets.get((cx + dx, cy + dy))
                    if other is None:
                        continue
                    for i in members:
                        xi, yi = pts[i, 0], pts[i, 1]
                        for j in other:
                            if j <= i:
                                continue
                            ddx = xi - pts[j, 0]
                            ddy = yi - pts[j, 1]
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
