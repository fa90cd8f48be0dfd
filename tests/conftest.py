from __future__ import annotations

import io
import random

import pytest
from hypothesis import strategies as st

from streammap.graph_stream import GraphHeader, InMemoryGraph, NodeRecord, load_graph


def graph_from_edges(n: int, edges: list[tuple[int, int]]) -> InMemoryGraph:
    """Unit-weight graph from an undirected edge list on nodes 0..n-1."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    records = [
        NodeRecord(i, 1, tuple((v, 1) for v in sorted(adj[i]))) for i in range(n)
    ]
    return InMemoryGraph(GraphHeader(n, len(edges)), records)


def path_graph(n: int) -> InMemoryGraph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def triangle() -> InMemoryGraph:
    return graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])


def four_cycle() -> InMemoryGraph:
    return graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def complete_graph(n: int) -> InMemoryGraph:
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def children(tree, b: int) -> range:
    """Ids of block ``b``'s children in a multi-section tree."""
    first = int(tree.first_kid[b])
    return range(first, first + int(tree.kids[b]))


def block_depths(tree) -> list[int]:
    """Depth of every block of ``tree``, by id; the root is at depth 0."""
    depth = [0] * tree.kids.shape[0]
    # a child's id is always above its parent's
    for b in range(len(depth)):
        for c in children(tree, b):
            depth[c] = depth[b] + 1
    return depth


@st.composite
def metis_graphs(draw, max_n=30, min_n=1):
    """Random simple graph in any METIS format, parsed from its text.

    Edges come from a seeded random source at a drawn density, so graphs are
    dense enough for neighbour counts to decide placements. Node and edge
    weights are drawn when the format flags them; 0.5 keeps fractional edge
    weights in the mix (exact in binary, so sums agree).
    """
    n = draw(st.integers(min_n, max_n))
    fmt = draw(st.sampled_from([0, 1, 10, 11]))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    edge_weights = [1, 2, 3, 7, 0.5]
    adj: list[list[str]] = [[] for _ in range(n)]
    m = 0
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < density:
                w = f" {rnd.choice(edge_weights)}" if fmt % 10 == 1 else ""
                adj[u].append(f"{v + 1}{w}")
                adj[v].append(f"{u + 1}{w}")
                m += 1
    lines = [f"{n} {m} {fmt}"]
    for u in range(n):
        node_w = [str(rnd.randint(1, 5))] if fmt >= 10 else []
        lines.append(" ".join(node_w + adj[u]))
    return load_graph(io.StringIO("\n".join(lines) + "\n"))


@pytest.fixture
def tmp_graph_file(tmp_path):
    """Write METIS text to a temp file and return its path."""

    def write(text: str, name: str = "g.graph"):
        p = tmp_path / name
        p.write_text(text, encoding="ascii")
        return p

    return write
