"""Host wall-clock + simulated-clock benchmark with a per-layer breakdown.

    python benchmarks/perf/run.py [--seed 7] [--reps 9] [--smoke] [--out FILE]
    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in a fresh subprocess of its
own (so ``peak_rss_mb`` is per workload), traced, and one JSON report
with a manifest is written.  With ``--workload`` the one workload runs
in this process and the last line of standard output is the JSON object
``BENCHMARK.json`` describes: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.

Two clocks are kept apart everywhere: ``wall_*``, ``setup_s`` and
``peak_rss_mb`` are the host's (noisy, bounded); ``sim_*`` and
``model_error`` belong to the simulated machine and repeat exactly for
one seed.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# the program under test is imported from the checkout this file is in
sys.path[:0] = [str(HERE), str(ROOT / "src")]

WORKLOADS = ("serve_contention", "serve_small_hot", "session_mixed",
             "plan_whatif")

#: Fresh interpreters started per run to time the set-up.
SETUP_PROBES = 5
#: With ``--seconds``, reps go on until the time is used up *and* this
#: many are in: a median needs them on a slow host too.
MIN_REPS = 5
DEFAULT_REPS = 9

#: name -> (unit, better, bound, repeats exactly for one seed).  The
#: bound is the share of the base's median by which the metric may get
#: worse before that counts as a regression.  It is sized from the
#: spread of ten runs on ten seeds (README.md): this host's speed
#: drifts by +-10% for tens of seconds at a time, and the order of a
#: stream moves a burst's median latency by as much.  compare.py asks
#: the exact ones for equality when both sides ran the same seed.
END_TO_END = {
    "wall_ops_per_s": ("ops/s", "higher", 0.25, False),
    "wall_op_ms_p50": ("ms", "lower", 0.25, False),
    "wall_op_ms_p95": ("ms", "lower", 0.25, False),
    "setup_s": ("s", "lower", 0.25, False),
    "peak_rss_mb": ("MB", "lower", 0.25, False),
    "failed_fraction": ("ratio", "lower", 0.0, True),
    "sim_makespan_ms": ("sim_ms", "lower", 0.10, True),
    "sim_latency_ms_p50": ("sim_ms", "lower", 0.25, True),
    "sim_latency_ms_p95": ("sim_ms", "lower", 0.10, True),
    "model_error": ("ratio", "lower", 0.25, True),
}

#: Per-layer metric suffix -> unit (``simulator.misses.<level>`` and
#: everything that is a plain count fall through to ``count``).
LAYER_UNITS = (("_us_p50", "us"), ("_us_per_call", "us"),
               ("_ms_p50", "ms"), ("_ms_per_plan", "ms"),
               ("_ms_per_query", "ms"), ("ns_per_access", "ns"),
               ("_per_wall_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"),
               ("_share", "ratio"), ("cpu_per_wall", "ratio"),
               ("mean_batch_size", "ratio"),
               ("accesses_per_entry", "ratio"))


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in LAYER_UNITS
                 if name.endswith(suffix)), "count")


def calibration_s() -> float:
    """Best of three runs of a fixed pure-Python loop: how fast this
    host runs the interpreter, for reading wall numbers across hosts."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc + i * i) & 0xFFFF
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb() -> float:
    """This process's own resident-set high-water mark.  Not
    ``ru_maxrss``: across ``exec`` that keeps the peak of the forking
    parent, so a child of a big process would report the parent."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def spread(values: list[float]) -> dict:
    """Median with quartiles, minimum and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "n": len(values)}


def setup_probe(args) -> None:
    """What a fresh interpreter pays before it serves this workload at
    speed: import the stack, build catalog and tenants, run a
    reduced-size warm-up rep.  The parent times the whole process."""
    import workloads
    workload = workloads.make(args.workload, args.seed, smoke=True)
    workload.run(workload.build())


def time_setup(args) -> list[float]:
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    walls = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return walls


def measure(workload, args) -> list:
    """The timed reps: fresh program state each, no tracer, no spans."""
    reps = []
    started = time.perf_counter()
    while (len(reps) < args.reps if args.seconds is None
           else len(reps) < MIN_REPS
           or time.perf_counter() - started < args.seconds):
        state = workload.build()
        gc.collect()
        reps.append(workload.run(state))
    if len({rep.digest for rep in reps}) != 1:
        raise SystemExit(f"{workload.name}: sim_digest differs between "
                         "reps — the simulated results are not repeatable")
    return reps


def end_to_end(workload, reps, setup_walls) -> dict:
    walls = [rep.wall_s for rep in reps]
    failed = sum(rep.failed for rep in reps)
    out = {
        "wall_ops_per_s": spread([workload.ops / wall for wall in walls]),
        "wall_op_ms_p50": {"value": None},
        "wall_op_ms_p95": {"value": None},
        "setup_s": spread(setup_walls),
        "peak_rss_mb": {"value": peak_rss_mb()},
        "failed_fraction": {"value": failed / (workload.ops * len(reps))},
        **{name: {"value": value} for name, value in reps[0].sim.items()},
    }
    if reps[0].op_ms is not None:
        from repro.service import percentile
        pooled = [ms for rep in reps for ms in rep.op_ms]
        for q in (50, 95):
            out[f"wall_op_ms_p{q}"] = {"value": percentile(pooled, float(q)),
                                       "n": len(pooled)}
    for name, entry in out.items():
        entry["unit"] = END_TO_END[name][0]
    return out


def run_workload(args) -> dict:
    """One workload in this process; returns its report."""
    setup_walls = time_setup(args)
    import workloads
    workload = workloads.make(args.workload, args.seed, args.smoke)
    if not args.smoke:
        warm = workloads.make(args.workload, args.seed, smoke=True)
        warm.run(warm.build())
    reps = measure(workload, args)
    report = {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "sizes": workload.sizes, "ops_per_rep": workload.ops,
        "reps": len(reps), "rep_wall_s": [rep.wall_s for rep in reps],
        "attempted": workload.ops * len(reps),
        "failed": sum(rep.failed for rep in reps),
        "sim_digest": reps[0].digest,
        "end_to_end": end_to_end(workload, reps, setup_walls),
    }
    if args.trace:
        import layers
        rep_wall_s = statistics.median(report["rep_wall_s"])
        measured, spans = layers.trace(workload, rep_wall_s)
        measured["host.calibration_s"] = calibration_s()
        report["per_layer"] = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(measured.items())}
        report["spans"] = spans.chrome_trace()
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"{report['reps']} reps x {report['ops_per_rep']} ops  "
          f"sim_digest {report['sim_digest']}")
    for section in ("end_to_end", "per_layer"):
        for name, entry in report.get(section, {}).items():
            value = entry["value"]
            text = "n/a" if value is None else f"{value:.6g}"
            line = f"  {name:<34}{text:>14} {entry['unit']}"
            if "q1" in entry:
                line += (f"   q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
                         f"min {entry['min']:.6g}  n={entry['n']}")
            print(line)


def contract_line(report: dict, trace: bool) -> str:
    """The one-line result ``BENCHMARK.json`` describes: exactly the
    metrics it lists for this ``--trace`` setting, a per-layer metric
    this workload does not have reading 0 (none of that work ran)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    have = report["per_layer" if trace else "end_to_end"]
    metrics = {}
    for wanted in spec["per_layer" if trace else "end_to_end"]:
        entry = have.get(wanted["name"]) \
            or report["end_to_end"].get(wanted["name"]) or {}
        metrics[wanted["name"]] = {"value": entry.get("value") or 0,
                                   "unit": wanted["unit"]}
    return json.dumps({"correct": report["failed"] == 0,
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def manifest(args, reports: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # an exported checkout
    return {
        "interpreter": sys.version, "platform": platform.platform(),
        "nproc": os.cpu_count(), "git_sha": sha, "seed": args.seed,
        "smoke": args.smoke, "reps": args.reps, "seconds": args.seconds,
        "setup_probes": 1 if args.smoke else SETUP_PROBES,
        "sizes": {name: r["sizes"] for name, r in reports.items()},
        "host.calibration_s": calibration_s(),
    }


def run_all(args) -> dict:
    """Every workload, each in a fresh interpreter, traced."""
    reports = {}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for name in WORKLOADS:
            out = pathlib.Path(scratch) / f"{name}.json"
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--trace", "1", "--out", str(out)]
            command += ["--smoke"] if args.smoke else []
            command += (["--seconds", str(args.seconds)]
                        if args.seconds is not None
                        else ["--reps", str(args.reps)])
            subprocess.run(command, check=True)
            reports[name] = json.loads(out.read_text())
            # spans stay with single-workload runs: four workloads'
            # worth would bury the numbers
            reports[name]["span_count"] = len(reports[name].pop("spans"))
    return {"kind": "perf_report", "schema_version": 1,
            "manifest": manifest(args, reports), "workloads": reports}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload, in this process "
                        "(default: all, a subprocess each)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7; 11 is held out)")
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--reps", type=int, help="timed reps per workload "
                        f"(default {DEFAULT_REPS}; 1 with --smoke)")
    length.add_argument("--seconds", type=float, help="time reps for this "
                        f"long instead (at least {MIN_REPS} reps)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: also run the traced pass "
                        "and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 of the stream lengths, one rep")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the JSON report here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and args.reps is None:
        args.reps = 1 if args.smoke else DEFAULT_REPS
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload is None:
        report = run_all(args)
        out = args.out or HERE / "results" / "latest.json"
    else:
        report = run_workload(args)
        print_report(report)
        out = args.out
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.workload is not None:
        print(contract_line(report, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
