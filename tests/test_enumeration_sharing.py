"""The exhaustive plan space is a function of the machine's geometry.

``Optimizer._alternatives`` reads capacities, line and page sizes, the
budget and the planner config, never a latency or the clock: the join
advisor's candidate specs and partition counts, the sort advisor's
``stop_bytes`` / ``needs_external`` and the aggregate admissibility rule
are all sized from geometry.  So two machines that differ only in
latencies and clock enumerate the same plans in the same order, and a
plan cache may keep one enumeration per geometry and re-rank it per
machine.  The dynamic program is not covered: it prunes sub-plans by
cost, so latencies reach its plan space.
"""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro import Session
from repro.core import DataRegion
from repro.db import grouped_keys, random_permutation
from repro.hardware import (
    disk_extended,
    disk_extended_scaled,
    modern_x86,
    origin2000,
    origin2000_scaled,
    parametric_profile,
    tiny_test_machine,
)
from repro.query import (
    Aggregate,
    Filter,
    Join,
    Optimizer,
    PlannerConfig,
    Relation,
    Sort,
)
from repro.query.physical import plan_signature

STOCK = {
    "origin2000": origin2000,
    "origin2000_scaled": origin2000_scaled,
    "modern_x86": modern_x86,
    "tiny_test_machine": tiny_test_machine,
    "disk_extended": disk_extended,
    "disk_extended_scaled": disk_extended_scaled,
}

#: Geometry knobs of :func:`parametric_profile` (the rest are prices).
GEOMETRY = {
    "l1_kb": [0.25, 2.0, 32.0],
    "l2_kb": [1.0, 64.0, 4096.0],
    "l2_line": [32, 128],
    "tlb_entries": [4, 8, 64],
    "pool_pages": [None, 65536],
}


def _even(v):
    return v % 2 == 0


def repriced(hierarchy, factors, cpu_mhz):
    """``hierarchy`` with every level's latencies scaled by its factor
    and another clock: the same geometry, other prices."""
    names = [level.name for level in hierarchy.all_levels]
    twin = hierarchy.scaled_latencies(
        {name: (f, f) for name, f in zip(names, factors)})
    return replace(twin, cpu_speed_mhz=cpu_mhz)


factors = st.lists(st.sampled_from([0.1, 0.5, 2.0, 10.0, 100.0]),
                   min_size=5, max_size=5)
clocks = st.sampled_from([100.0, 250.0, 3000.0])


@st.composite
def stock_twins(draw):
    hierarchy = STOCK[draw(st.sampled_from(sorted(STOCK)))]()
    return hierarchy, repriced(hierarchy, draw(factors), draw(clocks))


@st.composite
def parametric_twins(draw):
    geometry = {knob: draw(st.sampled_from(values))
                for knob, values in GEOMETRY.items()}
    if geometry["l2_kb"] < geometry["l1_kb"]:
        geometry["l2_kb"] = geometry["l1_kb"]

    def prices():
        seq = draw(st.sampled_from([1.0, 8.0, 50.0]))
        mem = draw(st.sampled_from([50.0, 400.0, 1600.0]))
        return dict(l1_seq_ns=seq, l1_rand_ns=3 * seq, mem_ns=mem,
                    tlb_ns=draw(st.sampled_from([30.0, 228.0])),
                    pool_seq_ns=draw(st.sampled_from([1e3, 2e4])),
                    pool_rand_ns=draw(st.sampled_from([2.5e4, 5e6])),
                    cpu_mhz=draw(clocks))

    return (parametric_profile(**geometry, **prices()),
            parametric_profile(**geometry, **prices()))


def relation(name, n, sorted_flag=False):
    return Relation.of_region(DataRegion(name, n=n, w=8),
                              sorted=sorted_flag)


@st.composite
def exhaustive_trees(draw):
    """A logical tree of at most three base relations (the exhaustive
    method's size)."""
    sizes = st.sampled_from([16, 300, 1024, 4096, 50_000, 1_000_000])
    r, s, t = (relation(name, draw(sizes), draw(st.booleans()))
               for name in "RST")
    groups = draw(st.sampled_from([4, 64, 4096]))
    return draw(st.sampled_from([
        Filter(r, _even, 0.25),
        Sort(r),
        Aggregate(r, groups=groups),
        Join(r, s),
        Join(Join(r, s), t),
        Join(Filter(r, _even, 0.5), Join(s, t)),
        Aggregate(Join(r, s), groups=groups),
        Sort(Join(r, Filter(s, _even, 0.125))),
        Join(r, s, match_fraction=0.5),
    ]))


def signatures(hierarchy, config, tree, use_dp=False):
    return [plan_signature(node) for node in
            Optimizer(hierarchy, config)._alternatives(tree, use_dp)]


configs = st.builds(PlannerConfig,
                    include_nested_loop=st.booleans(),
                    memory_budget=st.sampled_from([None, 256, 4096,
                                                   1 << 20]))


@given(st.one_of(stock_twins(), parametric_twins()), configs,
       exhaustive_trees())
def test_exhaustive_enumeration_is_a_function_of_geometry(twins, config,
                                                         tree):
    first, second = twins
    assert signatures(first, config, tree) \
        == signatures(second, config, tree)


#: Four relations (the DP's size) whose pruned plan space moves with
#: the price of a memory miss and the clock.
DP_TREE = Join(Join(Join(relation("R0", 1000), relation("R1", 2000)),
                    relation("R2", 50_000)), relation("R3", 300))
DP_TWINS = (parametric_profile(),
            parametric_profile(l1_seq_ns=1.0, l1_rand_ns=1.0, mem_ns=10.0,
                               tlb_ns=1.0, cpu_mhz=2000.0))


def test_dp_enumeration_is_not_covered():
    config = PlannerConfig()
    first, second = DP_TWINS
    assert signatures(first, config, DP_TREE, use_dp=True) \
        != signatures(second, config, DP_TREE, use_dp=True)


def make_session(hierarchy):
    session = Session(hierarchy=hierarchy)
    for seed, name in enumerate(("orders", "customers", "parts"), 1):
        session.create_table(name, random_permutation(512, seed=seed))
    session.create_table("events", grouped_keys(512, groups=32, seed=4))
    session.predicate("even", _even)
    return session


class TestLatencyOnlySwitch:
    """After ``set_hierarchy`` to a machine of equal geometry, a compile
    re-ranks the stored enumeration: no ``_alternatives`` call, the
    plan (and every candidate's estimate) a cold compile returns, and
    plan-cache counters that still count the re-rank as a miss."""

    TEXTS = ("join(join(orders, customers), parts)",
             "aggregate(join(filter(orders, even, sel=0.5), customers), "
             "groups=256)",
             "sort(parts)",
             "aggregate(events, groups=32)")

    @pytest.fixture
    def enumerations(self, monkeypatch):
        calls = []
        alternatives = Optimizer._alternatives

        def counted(self, op, use_dp):
            calls.append(op)
            return alternatives(self, op, use_dp)

        monkeypatch.setattr(Optimizer, "_alternatives", counted)
        return calls

    @staticmethod
    def ranking(planned):
        return [(c.signature, c.total_ns.hex(), c.memory_ns.hex())
                for c in planned]

    @pytest.mark.parametrize("text", TEXTS)
    def test_a_re_rank_is_a_cold_compile(self, text, enumerations):
        first, second = DP_TWINS
        session = make_session(first)
        session.compile(text)
        session.set_hierarchy(second)
        enumerations.clear()
        planned = session.compile(text)
        assert enumerations == []
        assert session.last_compile_cached is False
        stats = session.stats()
        assert (stats["hits"], stats["misses"]) == (0, 2)
        assert (session.compile_hits, session.compile_misses) == (0, 2)
        cold = make_session(second).compile(text)
        assert self.ranking(planned) == self.ranking(cold)
        enumerations.clear()
        # switching back serves the first machine's ranking from the
        # cache, as before
        session.set_hierarchy(first)
        session.compile(text)
        assert session.last_compile_cached is True
        assert enumerations == []

    def test_a_publish_that_clears_the_cache_re_ranks(self, enumerations):
        # what a recalibration publish does: switch to the repriced
        # machine, then retire every ranked plan explicitly
        first, second = DP_TWINS
        session = make_session(first)
        for text in self.TEXTS:
            session.compile(text)
        session.set_hierarchy(second)
        assert session.plan_cache.clear() == len(self.TEXTS)
        enumerations.clear()
        planned = [session.compile(text) for text in self.TEXTS]
        assert enumerations == []
        cold = make_session(second)
        assert [self.ranking(p) for p in planned] \
            == [self.ranking(cold.compile(text)) for text in self.TEXTS]

    def test_a_dp_tree_enumerates_again(self, enumerations):
        first, second = DP_TWINS
        session = make_session(first)
        session.compile(DP_TREE)
        session.set_hierarchy(second)
        enumerations.clear()
        planned = session.compile(DP_TREE)
        assert enumerations
        cold = make_session(second).compile(DP_TREE)
        assert self.ranking(planned) == self.ranking(cold)

    def test_another_geometry_enumerates_again(self, enumerations):
        session = make_session(DP_TWINS[0])
        session.compile(self.TEXTS[0])
        session.set_hierarchy(parametric_profile(l2_kb=128.0))
        enumerations.clear()
        session.compile(self.TEXTS[0])
        assert enumerations
