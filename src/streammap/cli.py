"""Command-line frontend.

Subcommands:
  gen        write a generated benchmark graph in adjacency format
  partition  flat one-pass k-way baselines (fennel, ldg, hashing), run as
             the descent of a depth-1 tree with k leaves
  map        hierarchical multi-section along an explicit machine hierarchy
  nh         multi-section over a synthesized base-b tree for arbitrary k
  eval       re-score an existing partition file
  bench      repetitions over instances and algorithms, CSV + profiles

Outputs: a partition file holds one 1-based PE id per line in node order;
reports are JSON with a "quality" object (reproducible from the partition
file alone via ``eval``) and a "run" object (counters, timings, config).
Exit codes: 0 success, 1 I/O or format failure, 2 bad flags, 3 infeasible
configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from .graph_stream import (
    StreamFormatError,
    generate_graph,
    load_graph,
    peek_header,
    write_metis,
)
from .hierarchy import DistanceSpec, HierarchySpec, parse_distances, parse_hierarchy
from .metrics import (
    aggregate,
    evaluate,
    improvement,
    performance_profile,
    report_json,
    write_profile_csv,
)
from .partitioner import (
    PartitionResult,
    RunConfig,
    partition_flat,
    partition_oms,
    prepare_tree,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="graph file (METIS adjacency)")
    p.add_argument("--eps", type=float, default=0.03, help="allowed imbalance (default 0.03)")
    p.add_argument("--seed", type=int, default=0, help="hashing seed")
    p.add_argument("--preload", action="store_true", help="read the graph into memory first")
    p.add_argument("--output", help="partition file to write (one PE id per line)")
    p.add_argument("--report", help="JSON report file to write")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streammap", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark graph")
    gen.add_argument("--kind", required=True, choices=["grid2d", "ring", "rgg"])
    gen.add_argument("--rows", type=int, help="grid rows")
    gen.add_argument("--cols", type=int, help="grid cols")
    gen.add_argument("--n", type=int, help="node count for ring/rgg")
    gen.add_argument("--radius", type=float, help="rgg connection radius (default shrinks with n)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output graph path")
    gen.set_defaults(func=cmd_gen)

    part = sub.add_parser("partition", help="flat k-way one-pass baselines")
    _add_common_run_flags(part)
    part.add_argument("--algorithm", default="fennel", choices=["fennel", "ldg", "hashing"])
    part.add_argument("--k", type=int, required=True, help="number of blocks")
    part.set_defaults(func=cmd_run, hierarchy=None, distances=None, base=None, hybrid_h=None)

    mp = sub.add_parser("map", help="multi-section along an explicit hierarchy")
    _add_common_run_flags(mp)
    mp.add_argument("--algorithm", default="fennel", choices=["fennel", "ldg", "hashing"])
    mp.add_argument("--hierarchy", required=True, help="machine hierarchy, e.g. 4:16:2")
    mp.add_argument("--distances", help="per-level distances, e.g. 1:10:100")
    mp.add_argument("--hybrid-h", type=int, dest="hybrid_h",
                    help="score only the top h levels, hash the rest")
    mp.set_defaults(func=cmd_run, k=None, base=None)

    nh = sub.add_parser("nh", help="multi-section over a synthesized tree")
    _add_common_run_flags(nh)
    nh.add_argument("--algorithm", default="fennel", choices=["fennel", "ldg", "hashing"])
    nh.add_argument("--k", type=int, required=True, help="number of blocks")
    nh.add_argument("--base", type=int, default=4, help="tree branching base (default 4)")
    nh.add_argument("--hybrid-h", type=int, dest="hybrid_h",
                    help="score only the top h levels, hash the rest")
    nh.set_defaults(func=cmd_run, hierarchy=None, distances=None)

    ev = sub.add_parser("eval", help="score an existing partition file")
    ev.add_argument("--input", required=True, help="graph file")
    ev.add_argument("--partition", required=True, help="partition file to score")
    ev.add_argument("--k", type=int, help="number of blocks (default: max label)")
    ev.add_argument("--hierarchy", help="machine hierarchy for communication cost")
    ev.add_argument("--distances", help="per-level distances")
    ev.add_argument("--report", help="JSON report file to write")
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="repetition benchmark over instances")
    bench.add_argument("--config", help="key=value file; explicit flags win")
    bench.add_argument("--input", action="append", default=None, help="graph file (repeatable)")
    bench.add_argument("--algorithms", default=None,
                       help="comma list from fennel,ldg,hashing,nh-oms,oms")
    bench.add_argument("--k", type=int, default=None)
    bench.add_argument("--hierarchy", default=None)
    bench.add_argument("--distances", default=None)
    bench.add_argument("--base", type=int, default=None)
    bench.add_argument("--eps", type=float, default=None)
    bench.add_argument("--reps", type=int, default=None, help="repetitions per pair (default 10)")
    bench.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    bench.add_argument("--out-csv", dest="out_csv", default=None, help="per-run CSV path")
    bench.add_argument("--profile-csv", dest="profile_csv", default=None)
    bench.add_argument("--summary-json", dest="summary_json", default=None)
    bench.set_defaults(func=cmd_bench)

    return parser


# ----------------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------------


def _load_input(args) -> tuple[object, float]:
    started = time.perf_counter()
    if getattr(args, "preload", False):
        source: object = load_graph(args.input)
    else:
        peek_header(args.input)  # fail fast on unreadable/malformed input
        source = args.input
    return source, time.perf_counter() - started


def _write_partition(path: str, result: PartitionResult) -> None:
    labels = result.assignment
    with open(path, "w", encoding="ascii") as out:
        # one join per block of lines: a write per line takes longer than the
        # placement, and one string of all lines would grow peak memory
        for lo in range(0, labels.shape[0], 8192):
            out.write("\n".join(map(str, labels[lo:lo + 8192].tolist())) + "\n")


def _read_partition(path: str, n: int) -> list[int]:
    """Labels of a partition file, which must hold exactly ``n`` integer lines."""
    labels = []
    line_no = 0
    # a non-ASCII byte decodes to a surrogate, which int() rejects below
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if len(labels) == n:
                raise StreamFormatError(f"{path}: line {line_no}: more labels than n={n}")
            try:
                labels.append(int(line))
            except ValueError:
                raise StreamFormatError(
                    f"{path}: line {line_no}: non-integer label {line!r}"
                ) from None
    if len(labels) < n:
        raise StreamFormatError(
            f"{path}: file ends at line {line_no} with {len(labels)} labels, expected n={n}"
        )
    return labels


def _emit(args, result: PartitionResult, parse_s: float,
          extra_run: dict | None = None) -> int:
    """Writes the partition and the report; the quality is the one the
    placing pass charged, so the source is not read again."""
    quality = result.quality
    run = {
        "algorithm": result.algorithm,
        "mode": result.mode,
        "k": result.k,
        "lmax": result.lmax,
        "seed": args.seed,
        "eps": args.eps,
        "counters": vars(result.counters).copy(),
        "overflow_events": result.counters.overflow_events,
        "timings": {
            "parse_s": parse_s,
            "assign_s": result.assign_seconds,
            "evaluate_s": result.evaluate_seconds,
        },
    }
    if extra_run:
        run.update(extra_run)
    payload = {"quality": quality.to_dict(), "run": run}
    if args.output:
        _write_partition(args.output, result)
    if args.report:
        Path(args.report).write_text(report_json(payload) + "\n", encoding="ascii")
    print(
        f"{result.mode}/{result.algorithm}: k={result.k} cut={quality.edge_cut}"
        + (f" J={quality.mapping_cost}" if quality.mapping_cost is not None else "")
        + f" max_load={quality.max_block_weight} (lmax={result.lmax})"
        + f" overflow={result.counters.overflow_events}"
    )
    return EXIT_OK


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "grid2d":
        if args.rows is None or args.cols is None:
            raise ValueError("grid2d needs --rows and --cols")
        graph = generate_graph("grid2d", rows=args.rows, cols=args.cols)
    elif args.kind == "ring":
        if args.n is None:
            raise ValueError("ring needs --n")
        graph = generate_graph("ring", n=args.n)
    else:
        if args.n is None:
            raise ValueError("rgg needs --n")
        graph = generate_graph("rgg", n=args.n, radius=args.radius, seed=args.seed)
    write_metis(graph, args.out)
    print(f"wrote {args.out}: n={graph.n} m={graph.m}")
    return EXIT_OK


def _partition(source, config: RunConfig, k: int | None = None, base: int | None = None,
               explicit: HierarchySpec | None = None,
               hierarchy: HierarchySpec | None = None,
               distances: DistanceSpec | None = None) -> PartitionResult:
    """Plan and run one partitioning; every subcommand that partitions comes here.

    The tree is that of the ``explicit`` hierarchy when one is given, else a
    synthesized base-b tree for ``k`` blocks when ``base`` is given, else
    the depth-1 tree of the flat k-way baseline. ``hierarchy`` and
    ``distances`` only add per-level cuts and the communication cost to the
    quality the pass charges.
    """
    if explicit is not None:
        tree, _ = prepare_tree(source, hierarchy=explicit, eps=config.eps)
    elif base is not None:
        tree, _ = prepare_tree(source, k=k, base=base, eps=config.eps)
    else:
        return partition_flat(source, k, config, hierarchy, distances)
    return partition_oms(source, tree, config, hierarchy, distances)


def cmd_run(args) -> int:
    """Shared handler of ``partition``, ``map`` and ``nh``."""
    source, parse_s = _load_input(args)
    spec = parse_hierarchy(args.hierarchy) if args.hierarchy is not None else None
    dist = parse_distances(args.distances) if args.distances else None
    config = RunConfig(algorithm=args.algorithm, eps=args.eps, seed=args.seed,
                       hybrid_h=args.hybrid_h)
    result = _partition(source, config, k=args.k, base=args.base, explicit=spec,
                        hierarchy=spec, distances=dist)
    if spec is not None:
        extra_run = {"hierarchy": args.hierarchy, "distances": args.distances}
    elif args.base is not None:
        extra_run = {"base": args.base}
    else:
        extra_run = None
    return _emit(args, result, parse_s, extra_run=extra_run)


def cmd_eval(args) -> int:
    labels = _read_partition(args.partition, peek_header(args.input).n)
    spec = parse_hierarchy(args.hierarchy) if args.hierarchy else None
    dist = parse_distances(args.distances) if args.distances else None
    quality = evaluate(args.input, labels, k=args.k, hierarchy=spec, distances=dist)
    payload = {"quality": quality.to_dict()}
    if args.report:
        Path(args.report).write_text(report_json(payload) + "\n", encoding="ascii")
    print(
        f"eval: k={quality.k} cut={quality.edge_cut}"
        + (f" J={quality.mapping_cost}" if quality.mapping_cost is not None else "")
        + f" max_load={quality.max_block_weight} imbalance={quality.imbalance:.4f}"
    )
    return EXIT_OK


_BENCH_DEFAULTS = {
    "algorithms": "fennel,ldg,hashing,nh-oms",
    "k": None,
    "hierarchy": None,
    "distances": None,
    "base": 4,
    "eps": 0.03,
    "reps": 10,
    "seed": 0,
    "out_csv": None,
    "profile_csv": None,
    "summary_json": None,
}
_BENCH_TYPES = {"k": int, "base": int, "reps": int, "seed": int, "eps": float}


def _load_bench_config(path: str) -> dict:
    values: dict = {}
    for raw in Path(path).read_text(encoding="ascii").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "input":
            values.setdefault("input", []).append(value)
            continue
        if key not in _BENCH_DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _BENCH_TYPES.get(key, str)(value)
    return values


def _bench_settings(args) -> dict:
    config = _load_bench_config(args.config) if args.config else {}
    settings = dict(_BENCH_DEFAULTS)
    settings["input"] = []
    settings.update(config)
    for key in list(settings):
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if not settings["input"]:
        raise ValueError("bench needs at least one --input (flag or config)")
    return settings


def _bench_run(alg: str, source, settings, spec, dist, seed: int) -> PartitionResult:
    """One repetition; its quality is charged with the bench's hierarchy and
    distances, whatever tree ``alg`` descends."""
    config = RunConfig(
        algorithm="fennel" if alg in ("nh-oms", "oms") else alg,
        eps=settings["eps"], seed=seed,
    )
    if alg == "oms" and spec is None:
        raise ValueError("algorithm 'oms' needs --hierarchy")
    return _partition(source, config, k=spec.k if spec is not None else settings["k"],
                      base=settings["base"] if alg == "nh-oms" else None,
                      explicit=spec if alg == "oms" else None,
                      hierarchy=spec, distances=dist)


def cmd_bench(args) -> int:
    settings = _bench_settings(args)
    algorithms = [a.strip() for a in settings["algorithms"].split(",") if a.strip()]
    spec = parse_hierarchy(settings["hierarchy"]) if settings["hierarchy"] else None
    dist = parse_distances(settings["distances"]) if settings["distances"] else None
    if spec is None and settings["k"] is None:
        raise ValueError("bench needs --k or --hierarchy")
    rows: list[dict] = []
    cut_by_alg: dict[str, list[float]] = {a: [] for a in algorithms}
    j_by_alg: dict[str, list[float]] = {a: [] for a in algorithms}
    for path in settings["input"]:
        source = load_graph(path)
        instance = Path(path).stem
        for alg in algorithms:
            cuts: list[float] = []
            js: list[float] = []
            for rep in range(settings["reps"]):
                seed = settings["seed"] + rep
                result = _bench_run(alg, source, settings, spec, dist, seed)
                quality = result.quality
                cuts.append(float(quality.edge_cut))
                if quality.mapping_cost is not None:
                    js.append(quality.mapping_cost)
                rows.append({
                    "instance": instance,
                    "algorithm": alg,
                    "k": result.k,
                    "seed": seed,
                    "cut": quality.edge_cut,
                    "J": quality.mapping_cost if quality.mapping_cost is not None else "",
                    "max_load": quality.max_block_weight,
                    "score_evals": result.counters.score_evaluations,
                    "wall_ms": result.assign_seconds * 1000.0,
                })
            cut_by_alg[alg].append(sum(cuts) / len(cuts))
            if js:
                j_by_alg[alg].append(sum(js) / len(js))
    if settings["out_csv"]:
        with open(settings["out_csv"], "w", newline="", encoding="ascii") as out:
            writer = csv.DictWriter(out, fieldnames=[
                "instance", "algorithm", "k", "seed", "cut", "J",
                "max_load", "score_evals", "wall_ms",
            ])
            writer.writeheader()
            writer.writerows(rows)
    summary: dict = {"instances": settings["input"], "algorithms": algorithms,
                     "reps": settings["reps"], "geomean_cut": {}, "geomean_J": {}}
    for alg in algorithms:
        if all(c > 0 for c in cut_by_alg[alg]):
            summary["geomean_cut"][alg] = aggregate(cut_by_alg[alg])
        if j_by_alg[alg] and all(j > 0 for j in j_by_alg[alg]):
            summary["geomean_J"][alg] = aggregate(j_by_alg[alg])
    if "hashing" in algorithms:
        summary["cut_improvement_over_hashing"] = {}
        for alg in algorithms:
            if alg == "hashing":
                continue
            pairs = zip(cut_by_alg[alg], cut_by_alg["hashing"])
            vals = [improvement(a, b) for a, b in pairs if a > 0]
            if vals:
                summary["cut_improvement_over_hashing"][alg] = sum(vals) / len(vals)
    if settings["summary_json"]:
        Path(settings["summary_json"]).write_text(report_json(summary) + "\n", encoding="ascii")
    if settings["profile_csv"]:
        profiles = performance_profile(cut_by_alg)
        write_profile_csv(profiles, settings["profile_csv"])
    for alg in algorithms:
        mean_cut = summary["geomean_cut"].get(alg)
        line = f"bench {alg}: geomean cut={mean_cut:.1f}" if mean_cut else f"bench {alg}:"
        if alg in summary["geomean_J"]:
            line += f" geomean J={summary['geomean_J'][alg]:.1f}"
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (StreamFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
