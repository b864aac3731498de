"""Every price the warm pricing path hands out equals, bit for bit, what
a cold one computes.

A what-if sweep, a server and an executor price through two memos: the
process-wide miss memo under :class:`~repro.core.CostModel` and the
per-model ⊙ memo of :class:`~repro.service.InterferenceModel`.  Here
every ``co_run`` question a sweep asks, and every optimizer candidate it
costs, is asked again of a fresh model on an empty miss memo, and every
field (derived totals included) must carry the same float bits.  The
sweeps are the ``plan_whatif`` benchmark workload at its smoke size on
two seeds, and a memory-budget sweep of the out-of-core mix on the
buffer-pool machine.  The miss memo's counters after one cold
full-size ``plan_whatif`` rep are pinned too: they say how many
questions the sweep asks and how many distinct ones.

The structural guard at the end holds a repeated question to a hit that
walks no tree and no parent chain."""

import importlib.util
import pathlib
import sys

import pytest

from repro.core import (
    CacheState,
    CostModel,
    DataRegion,
    RTrav,
    Seq,
    STrav,
    cost,
    miss_memo_clear,
    miss_memo_info,
)
from repro.query import Optimizer
from repro.service import InterferenceModel
from repro.whatif import (
    TINY_POOL_BASE,
    GeneratedWorkload,
    ProfileSpace,
    WhatIfSweep,
)

_spec = importlib.util.spec_from_file_location(
    "perf_workloads", pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "perf" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(autouse=True)
def empty_memo():
    miss_memo_clear()
    yield
    miss_memo_clear()


def plan_whatif(seed: int, smoke: bool) -> WhatIfSweep:
    """The ``plan_whatif`` workload of ``benchmarks/perf`` (at about 1/20
    of its size when ``smoke``), built as one of its reps builds it."""
    return workloads.make("plan_whatif", seed, smoke=smoke).build()


def budget_sweep() -> WhatIfSweep:
    workload = GeneratedWorkload(seed=7, scale=128, mix="out-of-core",
                                 n_queries=8, clients=4)
    space = ProfileSpace({"memory_budget": [None, 256, 1024], "cores": [2]},
                         base=TINY_POOL_BASE)
    return WhatIfSweep(space, workload)


SWEEPS = {
    "plan_whatif-seed7": lambda: plan_whatif(7, smoke=True),
    "plan_whatif-seed11": lambda: plan_whatif(11, smoke=True),
    "tiny-pool-budgets": budget_sweep,
}


def bits(value):
    """``value`` with every float replaced by its exact hex spelling."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    return value


def prediction_bits(prediction) -> dict:
    return {name: bits(getattr(prediction, name)) for name in (
        "memory_ns", "cpu_ns", "solo_memory_ns", "batch_memory_ns",
        "serial_memory_ns", "slowdown", "makespan_ns")}


def estimate_bits(estimate) -> dict:
    return {"levels": [(lc.name, bits(lc.misses.seq), bits(lc.misses.rand),
                        bits(lc.time_ns)) for lc in estimate.levels],
            **{name: bits(getattr(estimate, name))
               for name in ("cpu_ns", "memory_ns", "total_ns")}}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_warm_price_equals_a_cold_one(name, monkeypatch):
    co_runs: dict = {}
    candidates: list = []
    co_run, candidate = InterferenceModel.co_run, Optimizer._candidate

    def spy_co_run(self, plans):
        prediction = co_run(self, plans)
        key = (id(self), *map(id, plans))
        co_runs.setdefault(key, (self.hierarchy, tuple(plans), prediction))
        return prediction

    def spy_candidate(self, root):
        found = candidate(self, root)
        candidates.append((self.model.hierarchy, found))
        return found

    monkeypatch.setattr(InterferenceModel, "co_run", spy_co_run)
    monkeypatch.setattr(Optimizer, "_candidate", spy_candidate)
    SWEEPS[name]().run()
    monkeypatch.undo()
    assert co_runs and candidates
    assert any(len(plans) > 1 for _, plans, _ in co_runs.values())
    for hierarchy, plans, prediction in co_runs.values():
        miss_memo_clear()
        fresh = InterferenceModel(hierarchy).co_run(plans)
        assert prediction_bits(prediction) == prediction_bits(fresh)
    for hierarchy, found in candidates:
        miss_memo_clear()
        fresh = found.plan.estimate(CostModel(hierarchy))
        assert estimate_bits(found.estimate) == estimate_bits(fresh)


@pytest.mark.parametrize("seed, expected", [(7, (3965, 520, 520)),
                                            (11, (3563, 475, 475))])
def test_one_cold_rep_asks_the_same_questions(seed, expected):
    sweep = plan_whatif(seed, smoke=False)
    miss_memo_clear()
    sweep.run(slo_p95_ns=5e6)
    assert miss_memo_info() == expected


class TestRepeatedQuestionWalksNothing:
    """Once a tree has been answered at a geometry, asking again is a
    hit that calls neither ``_same_pattern`` nor ``_same_region``."""

    @staticmethod
    def tree(parent: DataRegion) -> Seq:
        return Seq.of(STrav(parent.subregion("S", n=8)),
                      RTrav(parent.subregion("T", n=8)),
                      STrav(DataRegion("X", n=512, w=8)))

    @pytest.fixture
    def walks(self, monkeypatch):
        counts = {"_same_pattern": 0, "_same_region": 0}
        for name in counts:
            original = getattr(cost, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cost, name, counted)
        return counts

    def test_every_entry_point(self, tiny, walks):
        model = CostModel(tiny)
        parent = DataRegion("P", n=16, w=8)
        first, rebuilt = self.tree(parent), self.tree(parent)
        other = Seq.of(RTrav(DataRegion("Y", n=64, w=8)),
                       STrav(DataRegion("Z", n=32, w=8)))
        state = CacheState.of((parent, 1.0))
        level = tiny.all_levels[-1]
        questions = [
            lambda: model.estimate(first),
            lambda: model.estimate(rebuilt),
            lambda: model.level_misses(rebuilt, level, state),
            lambda: model.sequential_estimates([first, None, other]),
            lambda: model.concurrent_estimates([rebuilt, other]),
        ]
        answers = [ask() for ask in questions]
        for ask, answer in zip(questions, answers):
            walks.update(dict.fromkeys(walks, 0))
            before = miss_memo_info()
            assert ask() == answer
            after = miss_memo_info()
            assert after.misses == before.misses
            assert after.hits > before.hits
            assert walks == {"_same_pattern": 0, "_same_region": 0}
