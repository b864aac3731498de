"""Compare two reports of run.py, one row per (workload, end-to-end metric).

    python benchmarks/perf/compare.py A.json B.json
    python benchmarks/perf/compare.py --selfcheck [--seed 7] [--reps 9] [--smoke]

A is the base, B the candidate.  Each row shows both sides' median
with quartiles, B's change as a share of A, the metric's bound and a
verdict:

* ``regressed`` / ``improved`` — B's median is worse / better than A's
  by more than the bound;
* ``unchanged`` — within the bound;
* ``unresolved`` — the run-to-run spread of a side is wider than the
  bound *and* the two sides' quartile ranges overlap: the runs cannot
  tell.

Metrics of the simulated clock (``sim_*``, ``model_error``) and
``failed_fraction`` repeat exactly for one seed, so when both reports
ran the same seed and sizes any difference decides the verdict.  The
exit code is non-zero if any row regressed.  ``--selfcheck`` runs the
whole benchmark twice on the current tree and applies the same rule.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

from run import END_TO_END, HERE


def load(path) -> dict:
    """``workload -> report`` from a combined or single-workload file."""
    data = json.loads(pathlib.Path(path).read_text())
    return data.get("workloads") or {data["workload"]: data}


def verdict(name: str, a: dict, b: dict, same_inputs: bool) -> tuple:
    """``(change as a share of A, bound applied, verdict)`` for one
    metric."""
    _, better, bound, exact = END_TO_END[name]
    if exact and same_inputs:
        bound = 0.0
    if a["value"] is None or b["value"] is None:
        return None, bound, ("n/a" if a["value"] == b["value"]
                             else "unresolved")
    change = ((b["value"] - a["value"]) / a["value"] if a["value"]
              else float(b["value"] != 0))
    worse = -change if better == "higher" else change
    spreads = [(side["q3"] - side["q1"]) / side["value"]
               for side in (a, b) if "q1" in side and side["value"]]
    overlap = ("q1" in a and "q1" in b
               and a["q1"] <= b["q3"] and b["q1"] <= a["q3"])
    if spreads and max(spreads) > bound and overlap:
        return change, bound, "unresolved"
    if worse > bound:
        return change, bound, "regressed"
    if worse < -bound:
        return change, bound, "improved"
    return change, bound, "unchanged"


def _cell(entry: dict) -> str:
    if entry["value"] is None:
        return "n/a"
    text = f"{entry['value']:.5g}"
    if "q1" in entry:
        text += f" ({entry['q1']:.5g}..{entry['q3']:.5g})"
    return text


def compare(a: dict, b: dict) -> list[tuple]:
    """Rows ``(workload, metric, A, B, change, bound, verdict)``."""
    rows = []
    for workload in a:
        if workload not in b:
            continue
        left, right = a[workload], b[workload]
        same_inputs = (left["seed"], left["sizes"]) == (right["seed"],
                                                        right["sizes"])
        for name in END_TO_END:
            one, other = left["end_to_end"][name], right["end_to_end"][name]
            rows.append((workload, name, _cell(one), _cell(other),
                         *verdict(name, one, other, same_inputs)))
        if same_inputs and left["sim_digest"] != right["sim_digest"]:
            print(f"{workload}: sim_digest differs "
                  f"({left['sim_digest'][:12]} vs {right['sim_digest'][:12]})")
    return rows


def render(rows: list[tuple]) -> str:
    lines = [f"{'workload':<18}{'metric':<20}{'A median (q1..q3)':<34}"
             f"{'B median (q1..q3)':<34}{'B vs A':>9}{'bound':>8}  verdict"]
    for workload, name, left, right, change, bound, outcome in rows:
        delta = "" if change is None else f"{change:+.2%}"
        lines.append(f"{workload:<18}{name:<20}{left:<34}{right:<34}"
                     f"{delta:>9}{bound:>8.2%}  {outcome}")
    return "\n".join(lines)


def selfcheck(passthrough: list[str]) -> tuple[dict, dict]:
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        sides = []
        for side in "AB":
            out = pathlib.Path(scratch) / f"{side}.json"
            subprocess.run([sys.executable, str(HERE / "run.py"), "--out",
                            str(out), *passthrough], check=True)
            sides.append(load(out))
    return sides[0], sides[1]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--selfcheck" in argv:
        # everything else on the line is run.py's
        a, b = selfcheck([arg for arg in argv if arg != "--selfcheck"])
    else:
        parser = argparse.ArgumentParser(
            description=__doc__.split("\n\n")[0],
            epilog="--selfcheck [run.py options]: run the benchmark "
            "twice on this tree and compare the two")
        parser.add_argument("a", metavar="A.json", help="the base")
        parser.add_argument("b", metavar="B.json", help="the candidate")
        args = parser.parse_args(argv)
        a, b = load(args.a), load(args.b)
    rows = compare(a, b)
    print(render(rows))
    return int(any(row[-1] == "regressed" for row in rows))


if __name__ == "__main__":
    sys.exit(main())
