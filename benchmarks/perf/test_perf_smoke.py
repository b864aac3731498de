"""Smoke test of the perf benchmark: one ``--smoke`` run (1 rep, about
1/20 of the stream lengths) must produce exactly the workloads and
metrics ``BENCHMARK.json`` names, with layers that add up and
simulated results that repeat.

That every staged replay reproduces the server's per-batch
``measured_memory_ns`` is checked by run.py itself (it exits non-zero
otherwise), so the fixture's ``check=True`` covers it.
"""

import json
import pathlib
import statistics
import subprocess
import sys

import pytest

import compare
import layers
import run
import workloads

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                    "--out", str(out)], check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def test_report_has_the_named_workloads_and_metrics(report):
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(report["workloads"]) == sorted(run.WORKLOADS)
    bounded = {m["name"]: m for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m for m in SPEC["per_layer"]}
    for name, metric in bounded.items():
        unit, better, bound, _ = run.END_TO_END[name]
        assert (metric["unit"], metric["better"], metric["bound"]) \
            == (unit, better, bound)
    for workload in report["workloads"].values():
        assert set(workload["end_to_end"]) == set(run.END_TO_END)
        for name, metric in bounded.items():
            entry = workload["end_to_end"][name]
            assert entry["unit"] == metric["unit"]
            assert entry["value"], f"{name} must be measured and never 0"
        # every per-layer metric measured is one BENCHMARK.json names
        for name, entry in workload["per_layer"].items():
            assert entry["unit"] == per_layer[name]["unit"], name
        assert workload["failed"] == 0
        assert workload["end_to_end"]["failed_fraction"]["value"] == 0
    # and each one named is measured by at least one workload
    measured = set().union(*(set(w["per_layer"]) | set(w["end_to_end"])
                             for w in report["workloads"].values()))
    assert set(per_layer) <= measured


def test_serve_layers_and_glue_sum_to_the_rep_wall(report):
    for name in ("serve_contention", "serve_small_hot"):
        workload = report["workloads"][name]
        metrics = {k: v["value"] for k, v in workload["per_layer"].items()}
        total = sum(metrics[layer] for layer in layers.SERVE_LAYERS)
        wall = statistics.median(workload["rep_wall_s"])
        assert total + metrics["server.glue_s"] == pytest.approx(wall)
        assert metrics["server.glue_share"] \
            == pytest.approx(metrics["server.glue_s"] / wall)
    whatif = report["workloads"]["plan_whatif"]["per_layer"]
    assert whatif["simulator.accesses"]["value"] == 0


def test_sim_digest_repeats_across_runs_and_moves_with_the_seed(report):
    for name, workload in report["workloads"].items():
        again = workloads.make(name, workload["seed"], smoke=True)
        assert again.run(again.build()).digest == workload["sim_digest"]
    other = workloads.make("plan_whatif", 11, smoke=True)
    assert other.run(other.build()).digest \
        != report["workloads"]["plan_whatif"]["sim_digest"]


def test_a_report_compared_with_itself_is_unchanged(report):
    rows = compare.compare(report["workloads"], report["workloads"])
    assert len(rows) == len(run.WORKLOADS) * len(run.END_TO_END)
    assert {row[-1] for row in rows} <= {"unchanged", "n/a"}
