"""Traced CLI job: times the calls into each streammap layer from outside.

Run as ``python perfbench/tracer.py TRACE_JSON -- <streammap cli arguments>``.
It wraps public names at the module attributes where callers look them up,
runs ``streammap.cli.main(argv)`` in this process and writes the trace as
JSON. Coarse calls become spans (name, start, end, parent); per-node calls
are folded into a count and seconds per key, charged to the enclosing span,
so memory stays bounded. A hook whose target no longer exists is recorded as
absent, and the metrics that depend on it are left out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

pc = time.perf_counter

# Coarse calls: one span each.
SPAN_HOOKS = (
    "cli.load_graph",
    "cli.prepare_tree",
    "cli.partition_oms",
    "cli.partition_flat",
    "cli.evaluate",
    "partitioner.total_node_weight",
)
# Stream openers whose record iteration is timed per record.
STREAM_HOOKS = ("partitioner.open_stream", "metrics.open_stream")
# Per-node calls: counted and timed, never stored one by one.
CALL_HOOKS = ("partitioner.select_block", "metrics.shared_level")
ALL_HOOKS = SPAN_HOOKS + STREAM_HOOKS + CALL_HOOKS

PARTITION_CALLS = ("cli.partition_oms", "cli.partition_flat")
MAX_LEVELS = 5  # deepest tree among the workloads: k=1024 in base 4

# Metric -> hook groups it needs: present only when every group has at least
# one installed hook.
NEEDS = {
    "graph_stream.load_s": [("cli.load_graph",)],
    "graph_stream.next_s": [STREAM_HOOKS],
    "graph_stream.records": [STREAM_HOOKS],
    "graph_stream.opens": [("cli.load_graph",), STREAM_HOOKS, ("partitioner.total_node_weight",)],
    "graph_stream.total_weight_s": [("partitioner.total_node_weight",)],
    "hierarchy.prepare_tree_s": [("cli.prepare_tree",)],
    "hierarchy.blocks": [("cli.prepare_tree",)],
    "hierarchy.shared_level_calls": [("metrics.shared_level",)],
    "hierarchy.shared_level_s": [("metrics.shared_level",)],
    "scoring.select_calls": [("partitioner.select_block",)],
    "scoring.select_s": [("partitioner.select_block",)],
    "partitioner.assign_s": [PARTITION_CALLS],
    "partitioner.self_s": [PARTITION_CALLS, ("partitioner.open_stream",), ("partitioner.select_block",),
                           ("partitioner.total_node_weight",)],
    "metrics.evaluate_s": [("cli.evaluate",)],
    "metrics.self_s": [("cli.evaluate",), ("metrics.open_stream",), ("metrics.shared_level",)],
    "cli.self_s": [("cli.load_graph",), ("cli.prepare_tree",), PARTITION_CALLS, ("cli.evaluate",)],
}
for _d in range(MAX_LEVELS):
    NEEDS[f"partitioner.level{_d}.select_calls"] = [("partitioner.select_block",)]
    NEEDS[f"partitioner.level{_d}.select_s"] = [("partitioner.select_block",)]
# Counts the job's own report carries: key in run.counters.
REPORT_COUNTS = {
    "scoring.candidates": "score_evaluations",
    "scoring.overflow_events": "overflow_events",
    "partitioner.edges_scanned": "edges_scanned",
}


class Tracer:
    """Spans and per-node accumulators for one in-process CLI run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.level_calls: dict[int, int] = defaultdict(int)
        self.level_seconds: dict[int, float] = defaultdict(float)
        self.candidates = 0
        self.opens = 0
        self.blocks = 0
        self.depth_of: list[int] | None = None
        self.absent: list[str] = []

    # -- recording -------------------------------------------------------

    def run_span(self, name: str, fn, *args, **kwargs):
        span = {"name": name, "parent": self.stack[-1]["id"] if self.stack else None,
                "id": len(self.spans), "inner": defaultdict(float)}
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = pc()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = pc()
            self.stack.pop()

    def charge(self, key: str, seconds: float, calls: int, span: dict | None) -> None:
        self.seconds[key] += seconds
        self.calls[key] += calls
        if span is not None:
            span["inner"][key] += seconds

    # -- wrappers --------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            if name in ("cli.load_graph", "partitioner.total_node_weight"):
                self.opens += 1
            result = self.run_span(name, fn, *args, **kwargs)
            if name == "cli.prepare_tree":
                self._note_tree(result)
            return result
        return traced

    def _note_tree(self, result) -> None:
        tree = result[0] if isinstance(result, tuple) else result
        blocks = getattr(tree, "blocks", None)
        if blocks is not None:
            self.blocks = len(blocks)
            self.depth_of = [getattr(b, "depth", -1) for b in blocks]

    def stream_wrapper(self, fn):
        tracer = self

        class TimedStream:
            """The opened stream, with each record fetch timed."""

            def __init__(self, inner):
                self._inner = inner
                self._span = tracer.stack[-1] if tracer.stack else None

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

            def __iter__(self):
                it = iter(self._inner)
                spent = 0.0
                count = 0
                try:
                    while True:
                        t0 = pc()
                        try:
                            rec = next(it)
                        except StopIteration:
                            spent += pc() - t0
                            return
                        spent += pc() - t0
                        count += 1
                        yield rec
                finally:
                    tracer.charge("graph_stream.next", spent, count, self._span)

        def opened(*args, **kwargs):
            tracer.opens += 1
            return TimedStream(fn(*args, **kwargs))
        return opened

    def select_wrapper(self, fn):
        def select(*args, **kwargs):
            t0 = pc()
            result = fn(*args, **kwargs)
            dt = pc() - t0
            self.charge("scoring.select", dt, 1, self.stack[-1] if self.stack else None)
            view = args[0] if args else kwargs.get("view")
            self.candidates += len(getattr(view, "blocks", ()))
            parent = kwargs.get("parent_id", args[3] if len(args) > 3 else None)
            if self.depth_of is not None and parent is not None and 0 <= parent < len(self.depth_of):
                depth = self.depth_of[parent]
                self.level_calls[depth] += 1
                self.level_seconds[depth] += dt
            return result
        return select

    def call_wrapper(self, key: str, fn):
        def counted(*args, **kwargs):
            t0 = pc()
            result = fn(*args, **kwargs)
            self.charge(key, pc() - t0, 1, self.stack[-1] if self.stack else None)
            return result
        return counted

    def install(self) -> None:
        for hook in ALL_HOOKS:
            module_name, attr = hook.split(".")
            try:
                module = importlib.import_module(f"streammap.{module_name}")
            except ImportError:
                self.absent.append(hook)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(hook)
                continue
            if hook in SPAN_HOOKS:
                wrapped = self.span_wrapper(hook, fn)
            elif hook in STREAM_HOOKS:
                wrapped = self.stream_wrapper(fn)
            elif hook == "partitioner.select_block":
                wrapped = self.select_wrapper(fn)
            else:
                wrapped = self.call_wrapper("hierarchy.shared_level", fn)
            setattr(module, attr, wrapped)

    def to_json(self) -> dict:
        """Everything ``layer_metrics`` needs; json turns the int depth keys into strings."""
        return {"spans": self.spans, "calls": self.calls, "seconds": self.seconds,
                "level_calls": self.level_calls, "level_seconds": self.level_seconds,
                "candidates": self.candidates, "opens": self.opens, "blocks": self.blocks,
                "absent": self.absent}


def _self_times(spans: list[dict]) -> dict[int, float]:
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] - sum(s["inner"].values())
            for s in spans}


def layer_metrics(trace: dict, job_s: float, run_s: float,
                  counters: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from one trace, plus the wall-time accounting.

    ``job_s`` is the traced process's wall time and ``run_s`` the untraced
    median of the same job. The accounting maps each share of ``job_s`` to
    its owner; the shares sum to ``job_s``.
    """
    spans = trace["spans"]
    own = _self_times(spans)

    def total(names, self_only=False):
        return sum(own[s["id"]] if self_only else s["end"] - s["start"]
                   for s in spans if s["name"] in names)

    main = [s for s in spans if s["name"] == "cli.main"]
    main_s = main[0]["end"] - main[0]["start"]
    seconds = trace["seconds"]
    calls = trace["calls"]
    m = {
        "graph_stream.load_s": total(("cli.load_graph",)),
        "graph_stream.next_s": seconds.get("graph_stream.next", 0.0),
        "graph_stream.records": calls.get("graph_stream.next", 0),
        "graph_stream.opens": trace["opens"],
        "graph_stream.total_weight_s": total(("partitioner.total_node_weight",)),
        "hierarchy.prepare_tree_s": total(("cli.prepare_tree",)),
        "hierarchy.blocks": trace["blocks"],
        "hierarchy.shared_level_calls": calls.get("hierarchy.shared_level", 0),
        "hierarchy.shared_level_s": seconds.get("hierarchy.shared_level", 0.0),
        "scoring.select_calls": calls.get("scoring.select", 0),
        "scoring.select_s": seconds.get("scoring.select", 0.0),
        "partitioner.assign_s": total(PARTITION_CALLS),
        "partitioner.self_s": total(PARTITION_CALLS, self_only=True),
        "metrics.evaluate_s": total(("cli.evaluate",)),
        "metrics.self_s": total(("cli.evaluate",), self_only=True),
        "cli.self_s": total(("cli.main",), self_only=True),
    }
    for d in range(MAX_LEVELS):
        m[f"partitioner.level{d}.select_calls"] = trace["level_calls"].get(str(d), 0)
        m[f"partitioner.level{d}.select_s"] = trace["level_seconds"].get(str(d), 0.0)
    absent = set(trace["absent"])
    metrics = {name: value for name, value in m.items()
               if all(any(h not in absent for h in group) for group in NEEDS[name])}
    for name, key in REPORT_COUNTS.items():
        if key in counters:
            metrics[name] = counters[key]
    metrics["trace.job_s"] = job_s
    metrics["trace.startup_s"] = job_s - main_s
    metrics["trace.overhead_s"] = job_s - run_s

    accounting = {"startup (interpreter, imports, hooks, exit)": job_s - main_s}
    for s in spans:
        accounting[f"{s['name']} self"] = accounting.get(f"{s['name']} self", 0.0) + own[s["id"]]
    for key, value in seconds.items():
        accounting[key] = value
    return metrics, accounting


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <streammap cli arguments>", file=sys.stderr)
        return 2
    out, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("streammap.cli")
    code = tracer.run_span("cli.main", cli.main, cli_argv)
    with open(out, "w", encoding="ascii") as handle:
        json.dump(tracer.to_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
