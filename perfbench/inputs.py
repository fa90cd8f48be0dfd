"""Seeded benchmark inputs, built through the public streammap API and cached.

Each graph is generated from (kind, params, seed), written as a METIS file
with ``write_metis`` and cached under that key, so the parent commit and a
change measure identical bytes. Alongside the file the benchmark keeps its
own copy of the graph as numpy edge arrays; the verifier recomputes quality
from those arrays and never from the program's parser.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import streammap as sm

from verify import GraphInput, read_arrays, sha256_of

# Graphs kept in the cache, most recently used first. The two rgg workloads
# share one graph per seed.
CACHE_KEEP = 12


def rgg(n: int, seed: int) -> sm.InMemoryGraph:
    """Unit-weight random geometric graph with the library's default radius."""
    return sm.random_geometric(n, seed=seed)


def weighted_mesh(rows: int, cols: int, seed: int) -> sm.InMemoryGraph:
    """rows x cols 4-neighbour grid, node weights 1-4, symmetric edge weights 1-10."""
    grid = sm.grid2d(rows, cols)
    rng = np.random.default_rng(seed)
    node_w = rng.integers(1, 5, size=grid.n).tolist()
    u, v, _ = _edges(grid)
    edge_w = rng.integers(1, 11, size=u.shape[0]).tolist()
    weight_of = dict(zip(zip(u.tolist(), v.tolist()), edge_w))
    records = [
        sm.NodeRecord(
            id=rec.id,
            weight=node_w[rec.id],
            neighbors=tuple(
                (x, weight_of[(rec.id, x) if rec.id < x else (x, rec.id)])
                for x, _ in rec.neighbors
            ),
        )
        for rec in grid.records
    ]
    header = sm.GraphHeader(n=grid.n, m=grid.m, has_node_weights=True, has_edge_weights=True)
    return sm.InMemoryGraph(header, records)


GENERATORS = {"rgg": rgg, "mesh-w": weighted_mesh}


def _edges(graph: sm.InMemoryGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u: list[int] = []
    v: list[int] = []
    w: list[int] = []
    for rec in graph.records:
        for x, ew in rec.neighbors:
            if x > rec.id:
                u.append(rec.id)
                v.append(x)
                w.append(ew)
    return (np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64),
            np.asarray(w, dtype=np.int64))


def cache_stem(kind: str, params: dict, seed: int) -> str:
    parts = "-".join(f"{key}{params[key]}" for key in sorted(params))
    return f"{kind}-{parts}-s{seed}"


def _generate(kind: str, params: dict, seed: int, graph_path: Path, arrays_path: Path) -> None:
    graph = GENERATORS[kind](**params, seed=seed)
    u, v, w = _edges(graph)
    node_w = np.asarray([rec.weight for rec in graph.records], dtype=np.int64)
    # Write to temporary names and rename, so an interrupted run leaves no
    # half-written file under a cache key.
    tmp_graph = graph_path.with_suffix(".graph.tmp")
    sm.write_metis(graph, tmp_graph)
    tmp_arrays = arrays_path.with_suffix(".npz.tmp")
    with open(tmp_arrays, "wb") as handle:
        np.savez(handle, **{key: a.astype(np.int32) for key, a in
                            (("node_w", node_w), ("u", u), ("v", v), ("w", w))})
    os.replace(tmp_arrays, arrays_path)
    os.replace(tmp_graph, graph_path)


def _evict(cache_dir: Path, keep: Path) -> None:
    graphs = sorted(cache_dir.glob("*.graph"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in [p for p in graphs if p != keep][CACHE_KEEP - 1:]:
        old.unlink()
        old.with_suffix(".npz").unlink(missing_ok=True)


def load_input(kind: str, params: dict, seed: int, cache_dir: Path) -> tuple[GraphInput, float]:
    """Return the cached graph for (kind, params, seed), generating it on a miss.

    The second value is the generation time in seconds (0 on a cache hit); it
    is reported but excluded from every metric.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    stem = cache_stem(kind, params, seed)
    graph_path = cache_dir / f"{stem}.graph"
    arrays_path = cache_dir / f"{stem}.npz"
    started = time.perf_counter()
    if graph_path.exists() and arrays_path.exists():
        os.utime(graph_path)
        gen_s = 0.0
    else:
        _generate(kind, params, seed, graph_path, arrays_path)
        gen_s = time.perf_counter() - started
    _evict(cache_dir, graph_path)
    return read_arrays(graph_path), gen_s


def main(argv: list[str]) -> int:
    """``inputs.py SPEC``: SPEC is JSON {kind, params, seed, cache_dir}; prints the input."""
    spec = json.loads(argv[0])
    graph, gen_s = load_input(spec["kind"], spec["params"], spec["seed"], Path(spec["cache_dir"]))
    print(json.dumps({"path": str(graph.path), "sha256": sha256_of(graph.path),
                      "n": graph.n, "m": graph.m, "gen_s": gen_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
