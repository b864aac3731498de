"""``scripts/perf_pairs.py``'s bound verdicts, on fabricated medians:
the judgement a no-regression claim rests on must not itself drift."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perf_pairs", ROOT / "scripts" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

BOUNDED = [
    {"name": "wall_ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.25},
    {"name": "sim_makespan_ms", "better": "lower", "bound": 0.1},
    {"name": "hit_ratio", "better": "higher", "bound": 0.1},
]


def _medians(**pairs):
    return {(name, side): value for name, (parent, change) in pairs.items()
            for side, value in (("parent", parent), ("change", change))}


def test_moves_are_judged_in_the_worse_direction():
    rows = perf_pairs.bound_verdicts(BOUNDED, _medians(
        wall_ops_per_s=(1000.0, 800.0),  # higher is better, fell 20 %
        setup_s=(0.40, 0.49),            # +22.5 % slower: within 25 %
        peak_rss_mb=(60.0, 76.0),        # +26.7 %: out
        sim_makespan_ms=(30.0, 30.0),    # must not move, did not
        hit_ratio=(0.8, 0.7)))           # higher is better, fell 12.5 %
    verdict = {name: (round(move, 4), within)
               for name, _, _, move, _, within in rows}
    assert verdict == {"wall_ops_per_s": (0.2, True),
                       "setup_s": (0.225, True),
                       "peak_rss_mb": (0.2667, False),
                       "sim_makespan_ms": (0.0, True),
                       "hit_ratio": (0.125, False)}


def test_an_improvement_is_a_negative_move_and_always_within():
    rows = perf_pairs.bound_verdicts(BOUNDED, _medians(
        setup_s=(0.40, 0.10), hit_ratio=(0.5, 0.9)))
    assert [(name, within) for name, *_, within in rows] == \
        [("setup_s", True), ("hit_ratio", True)]
    assert all(move < 0 for _, _, _, move, _, _ in rows)


def test_unmeasured_metrics_and_a_zero_base():
    rows = perf_pairs.bound_verdicts(BOUNDED, _medians(
        setup_s=(0.0, 0.0), peak_rss_mb=(0.0, 1.0)))
    assert [(name, move, within) for name, _, _, move, _, within in rows] \
        == [("setup_s", 0.0, True), ("peak_rss_mb", float("inf"), False)]


def test_the_declared_bounds_are_the_ones_judged():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert perf_pairs.CLAIMED in {spec["name"] for spec in declared}
    for spec in declared:
        assert spec["better"] in ("higher", "lower") and spec["bound"] >= 0
