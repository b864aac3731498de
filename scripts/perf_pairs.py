"""Alternating parent/change pairs of ``benchmarks/perf`` — the protocol a
wall-clock claim is judged by.

    python scripts/perf_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload serve_contention --seed 7 --pairs 10

Each pair runs ``benchmarks/perf/run.py --workload W --seed N --trace 0``
once in each tree (every tree runs its *own* copy of the benchmark
against its own ``src/``), and the side that goes first alternates from
pair to pair so a drift in host speed is charged to both.  Printed: one
row per pair, each side's median and quartiles for every end-to-end
metric, how many pairs the change won on ``wall_ops_per_s`` (ties count
for neither), whether that median gain exceeds the parent's own
interquartile spread, each end-to-end metric's median move against
the bound ``BENCHMARK.json`` declares for it (``within`` /
``LEFT BOUND``), and whether the two ``sim_digest``s match.  The exit
status is non-zero when a metric left its bound or the digests differ.

A gain may be claimed when the change wins at least nine pairs in ten
and the medians differ by more than the parent's spread; ``sim_*`` must
be equal, not close.  Run it for the claimed workload on seed 7 and on
the held-out seed 11, and for every other workload to show no metric
left its bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

CLAIMED = "wall_ops_per_s"
ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_once(tree: pathlib.Path, args, out: pathlib.Path) -> dict:
    """One untraced benchmark run of ``tree``; returns its report."""
    command = [sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--out", str(out)]
    subprocess.run(command, check=True, cwd=tree, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def bound_verdicts(bounded: list[dict], medians: dict
                   ) -> list[tuple[str, float, float, float, float, bool]]:
    """Each bounded metric against its bound — ``wall_ops_per_s``
    too: on a workload the change bypasses it is a no-regression metric
    like the rest, and a gain reads as a negative move.

    ``bounded`` is ``BENCHMARK.json``'s ``end_to_end`` list and
    ``medians`` maps ``(metric, side)`` to that side's median.  A row is
    ``(metric, parent median, change median, move, bound, within)``:
    ``move`` is how far the change's median went the *wrong* way (down
    for a higher-is-better metric), as a share of the parent's median,
    so a negative move is an improvement."""
    rows = []
    for spec in bounded:
        name = spec["name"]
        if (name, "parent") not in medians:
            continue
        parent, change = medians[name, "parent"], medians[name, "change"]
        worse = parent - change if spec["better"] == "higher" \
            else change - parent
        move = worse / abs(parent) if parent \
            else float("inf") if worse > 0 else 0.0
        rows.append((name, parent, change, move, spec["bound"],
                     move <= spec["bound"]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path,
                        help="checkout of the parent commit")
    parser.add_argument("change", type=pathlib.Path,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7; 11 is held out)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed seconds per run (BENCHMARK.json's "
                        "run_seconds; default 15)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    pairs: list[tuple[float, float]] = []
    print(f"{args.workload}  seed {args.seed}  {args.pairs} pairs  "
          f"{args.seconds:g} s per run")
    print(f"{'pair':>4}  {'first':<6}  {'parent':>10}  {'change':>10}  "
          f"{'ratio':>6}   ({CLAIMED})")
    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch) / "report.json"
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args, out))
            base, new = (runs[side][-1]["end_to_end"][CLAIMED]["value"]
                         for side in ("parent", "change"))
            pairs.append((base, new))
            print(f"{pair + 1:>4}  {order[0]:<6}  {base:>10.4g}  "
                  f"{new:>10.4g}  {new / base:>6.3f}", flush=True)

    print(f"\n{'metric':<22}{'side':<8}{'median':>12}{'q1':>12}{'q3':>12}")
    spreads = {}
    for metric in runs["parent"][0]["end_to_end"]:
        for side in ("parent", "change"):
            values = [run["end_to_end"][metric]["value"]
                      for run in runs[side]]
            if None in values:
                continue
            q1, median, q3 = spreads[metric, side] = quartiles(values)
            print(f"{metric:<22}{side:<8}{median:>12.6g}{q1:>12.6g}"
                  f"{q3:>12.6g}")

    wins = sum(c > p for p, c in pairs)
    losses = sum(c < p for p, c in pairs)
    p_q1, p_median, p_q3 = spreads[CLAIMED, "parent"]
    c_median = spreads[CLAIMED, "change"][1]
    print(f"\n{CLAIMED}: change won {wins}/{len(pairs)} pairs, lost "
          f"{losses}; median {p_median:.4g} -> {c_median:.4g} "
          f"({c_median / p_median:.3f}x of the parent's); the difference "
          f"{c_median - p_median:+.4g} is "
          f"{'beyond' if c_median - p_median > p_q3 - p_q1 else 'within'} "
          f"the parent's interquartile spread {p_q3 - p_q1:.4g}")
    failed = {side: sum(run["failed"] for run in runs[side])
              for side in runs}
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
    reps = {side: sorted(run["reps"] for run in runs[side]) for side in runs}
    print(f"reps per run (each run keeps its reps' reports, so "
          f"peak_rss_mb grows with them): parent {reps['parent']}, "
          f"change {reps['change']}")
    bounded = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    verdicts = bound_verdicts(
        bounded, {key: median for key, (_, median, _) in spreads.items()})
    print("\nmedian moves against the BENCHMARK.json bounds "
          "(+ is worse):")
    for name, parent, change, move, bound, within in verdicts:
        print(f"  {name:<22}{parent:>12.6g} -> {change:<12.6g}"
              f"{move:>+8.1%}  (bound {bound:.0%})  "
              f"{'within' if within else 'LEFT BOUND'}")
    in_bounds = all(within for *_, within in verdicts)
    digests = {side: {run["sim_digest"] for run in runs[side]}
               for side in runs}
    same = digests["parent"] == digests["change"] \
        and len(digests["parent"]) == 1
    print(f"sim_digest: {'equal' if same else 'DIFFERENT'} "
          f"(parent {sorted(digests['parent'])}, "
          f"change {sorted(digests['change'])})")
    return 0 if same and in_bounds else 1


if __name__ == "__main__":
    sys.exit(main())
