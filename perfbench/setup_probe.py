"""Set-up probe: the work a CLI job does before it places its first node.

Run as ``python perfbench/setup_probe.py GRAPH [--preload] [--hierarchy H |
--k K --base B] --eps EPS``. It imports streammap, opens the input the way
the CLI does (``peek_header``, or ``load_graph`` with ``--preload``), builds
the tree with ``prepare_tree`` when the job has one, then exits at once. The
parent times it from spawn to exit; no tracing hook is installed.
"""

from __future__ import annotations

import argparse
import os
import sys

import streammap.cli as cli
from streammap.hierarchy import parse_hierarchy


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("input")
    parser.add_argument("--preload", action="store_true")
    parser.add_argument("--hierarchy")
    parser.add_argument("--k", type=int)
    parser.add_argument("--base", type=int)
    parser.add_argument("--eps", type=float, required=True)
    args = parser.parse_args(argv)
    if args.preload:
        source = cli.load_graph(args.input)
    else:
        cli.peek_header(args.input)
        source = args.input
    if args.hierarchy:
        cli.prepare_tree(source, hierarchy=parse_hierarchy(args.hierarchy), eps=args.eps)
    elif args.k:
        cli.prepare_tree(source, k=args.k, base=args.base, eps=args.eps)
    # Skip interpreter teardown: the job would place its first node here.
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv[1:])
