"""``python -m repro.whatif`` — capacity planning from the shell.

Sweeps a parametric profile space over a seeded workload mix and
prints the report table; ``--output`` writes the schema-validated JSON
report.  Example — "what's the smallest pool meeting p95 ≤ 3 ms for
the contention-heavy mix at 8 clients?"::

    python -m repro.whatif --mix contention-heavy --clients 8 \\
        --pool-pages 16 32 64 128 --slo-p95-ms 3.0 \\
        --output whatif.json
"""

from __future__ import annotations

import argparse
import json
import sys

from ..service.core import MODES
from .space import TINY_POOL_BASE, ProfileSpace
from .sweep import MIXES, GeneratedWorkload, WhatIfSweep

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.whatif",
        description="Price a seeded workload mix on a parametric space "
                    "of hypothetical machines (pure cost-model "
                    "arithmetic; nothing executes unless spot checks "
                    "are requested).")
    workload = parser.add_argument_group("workload")
    workload.add_argument("--mix", choices=sorted(MIXES),
                          default="contention-heavy",
                          help="seeded workload mix (default: "
                               "contention-heavy)")
    workload.add_argument("--scale", type=int, default=512,
                          help="base table rows (default: 512)")
    workload.add_argument("--queries", type=int, default=32,
                          help="queries in the stream (default: 32)")
    workload.add_argument("--clients", type=int, default=8,
                          help="concurrent clients (default: 8)")
    workload.add_argument("--seed", type=int, default=0,
                          help="workload seed (default: 0)")

    space = parser.add_argument_group(
        "space axes (give at least one; values form a cross-product)")
    space.add_argument("--l1-kb", type=float, nargs="+", metavar="KB",
                       help="L1 capacities to sweep")
    space.add_argument("--l2-kb", type=float, nargs="+", metavar="KB",
                       help="L2 capacities to sweep")
    space.add_argument("--mem-ns", type=float, nargs="+", metavar="NS",
                       help="random memory latencies to sweep")
    space.add_argument("--pool-pages", type=int, nargs="+", metavar="N",
                       help="buffer-pool sizes to sweep (uses the tiny "
                            "pool base profile)")
    space.add_argument("--cores", type=int, nargs="+", metavar="N",
                       help="core counts (co-run batch caps) to sweep")
    space.add_argument("--budget", type=int, nargs="+", metavar="BYTES",
                       help="per-operator memory budgets to sweep "
                            "(0 = unbudgeted)")

    sweep = parser.add_argument_group("sweep")
    sweep.add_argument("--policy", choices=MODES,
                       default="interference-aware",
                       help="batch-formation policy (default: "
                            "interference-aware)")
    sweep.add_argument("--slo-p95-ms", type=float, default=None,
                       metavar="MS",
                       help="ask the recommender for the smallest "
                            "config meeting this p95")
    sweep.add_argument("--spot-check", choices=("none", "frontier", "all"),
                       default="none",
                       help="verify rows on the trace-driven simulator "
                            "(default: none)")
    sweep.add_argument("--output", metavar="PATH", default=None,
                       help="write the schema-validated JSON report here")
    return parser


def _axes(args: argparse.Namespace) -> dict:
    axes: dict = {}
    if args.l1_kb:
        axes["l1_kb"] = list(args.l1_kb)
    if args.l2_kb:
        axes["l2_kb"] = list(args.l2_kb)
    if args.mem_ns:
        axes["mem_ns"] = list(args.mem_ns)
    if args.pool_pages:
        axes["pool_pages"] = list(args.pool_pages)
    if args.cores:
        axes["cores"] = list(args.cores)
    if args.budget:
        axes["memory_budget"] = [None if b == 0 else b
                                 for b in args.budget]
    return axes


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    axes = _axes(args)
    if not axes:
        parser.error("give at least one space axis "
                     "(--l1-kb/--l2-kb/--mem-ns/--pool-pages/"
                     "--cores/--budget)")
    # Pool and budget sweeps need data caches below the pool being
    # swept; the tiny pool base satisfies every ordering invariant.
    base = (dict(TINY_POOL_BASE)
            if ("pool_pages" in axes or "memory_budget" in axes)
            else None)
    space = ProfileSpace(axes, base=base, name="cli")
    workload = GeneratedWorkload(seed=args.seed, scale=args.scale,
                                 mix=args.mix, n_queries=args.queries,
                                 clients=args.clients)
    sweep = WhatIfSweep(space, workload, mode=args.policy)
    slo_ns = (args.slo_p95_ms * 1e6
              if args.slo_p95_ms is not None else None)
    report = sweep.run(slo_p95_ns=slo_ns, spot_check=args.spot_check)
    print(report.render())
    if args.output:
        payload = report.to_json()
        from ..obs.schema import validate_whatif_report
        problems = validate_whatif_report(payload)
        if problems:
            print("schema problems:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    if slo_ns is not None and report.recommendation is None:
        print("no config meets the requested p95 target",
              file=sys.stderr)
        return 2
    return 0
