"""The miss memo under :class:`~repro.core.CostModel`: sound (a hit
returns what an empty memo computes, to the bit), keyed by what the
evaluator reads (pattern tree in part order, region parent chains,
level geometry, incoming state) and by nothing else (no latency, no
hierarchy), bounded, and safe to price through from several threads."""

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.core import (  # noqa: E402
    BasicPattern,
    CacheState,
    Conc,
    CostModel,
    DataRegion,
    RAcc,
    RTrav,
    Seq,
    STrav,
    cost,
    miss_memo_clear,
    miss_memo_info,
)
from repro.core.misses import level_dims  # noqa: E402
from repro.hardware import (  # noqa: E402
    origin2000_scaled,
    parametric_profile,
    tiny_test_machine,
)
from repro.hardware.profiles import TINY_MACHINE  # noqa: E402
from test_properties import (  # noqa: E402
    basic_pattern_st,
    pattern_tree_st,
    region_st,
)

LEVELS = (*tiny_test_machine().all_levels, *origin2000_scaled().all_levels)


@pytest.fixture(autouse=True)
def empty_memo():
    miss_memo_clear()
    yield
    miss_memo_clear()


def flat(i: int) -> Conc:
    """A compound of basic patterns only: one memo entry per level."""
    return Conc.of(STrav(DataRegion(f"A{i}", n=64 + i, w=8)),
                   RTrav(DataRegion(f"B{i}", n=32, w=16)))


class TestSoundness:
    @given(tree=pattern_tree_st(), probe=basic_pattern_st(),
           level=st.sampled_from(LEVELS),
           entries=st.lists(st.tuples(region_st, st.floats(0.0, 1.0)),
                            max_size=2))
    def test_hit_equals_empty_memo_to_the_bit(self, tree, probe, level,
                                              entries):
        dims, state = level_dims(level), CacheState.of(*entries)

        def price():
            # the probe is priced in the state the tree's evaluation —
            # on the second call, its memo entry — hands on
            pair, left = cost._recall(tree, dims, state)
            return pair, repr(left), cost._recall(probe, dims, left)[0]

        miss_memo_clear()  # the fixture runs once, not per example
        first = price()
        again = price()
        miss_memo_clear()
        assert first == again == price()
        if not isinstance(tree, BasicPattern):
            assert miss_memo_info() == (0, 1, 1)

    def test_equal_patterns_under_different_parents_do_not_share(self, tiny):
        # ``DataRegion.__eq__`` ignores ``parent``; the state rules walk
        # it: a sweep inside a cache-sized parent leaves the sibling
        # resident, one inside an oversized parent does not
        def under(parent: DataRegion) -> Seq:
            return Seq.of(STrav(parent.subregion("S", n=8)),
                          RTrav(parent.subregion("T", n=8)))

        fits = under(DataRegion("P", n=16, w=8))
        spills = under(DataRegion("P", n=4096, w=8))
        assert fits == spills and hash(fits) == hash(spills)
        model = CostModel(tiny)
        alone = {}
        for name, pattern in (("fits", fits), ("spills", spills)):
            miss_memo_clear()
            alone[name] = model.misses(pattern)
        assert alone["fits"] != alone["spills"]
        for order in ((fits, spills), (spills, fits)):
            miss_memo_clear()
            priced = {id(p): model.misses(p) for p in order}
            assert priced[id(fits)] == alone["fits"]
            assert priced[id(spills)] == alone["spills"]
            assert miss_memo_info().hits == 0

    def test_equal_states_under_different_parents_do_not_share(self, tiny):
        # a resident piece of the region helps a random traversal; an
        # equally named region that is no part of it does not
        whole = DataRegion("P", n=64, w=8)
        pattern = Conc.of(RTrav(whole), STrav(DataRegion("X", n=8, w=8)))
        piece = CacheState.of((whole.subregion("S", n=32), 1.0))
        stranger = CacheState.of((DataRegion("S", n=32, w=8), 1.0))
        assert piece == stranger
        model, level = CostModel(tiny), tiny.level("L2")
        helped = model.level_misses(pattern, level, piece)
        miss_memo_clear()
        assert model.level_misses(pattern, level, stranger) != helped
        assert model.level_misses(pattern, level, piece) == helped
        assert miss_memo_info().hits == 0

    def test_keyed_by_geometry_not_latency(self, tiny):
        doubled = parametric_profile(**{
            **TINY_MACHINE, "l1_seq_ns": 4.0, "l1_rand_ns": 12.0,
            "mem_ns": 100.0, "mem_seq_ns": 40.0, "tlb_ns": 60.0})
        pattern = Seq.of(flat(0), flat(1), RAcc(DataRegion("H", 512, 16),
                                                r=300))
        slow, fast = CostModel(doubled), CostModel(tiny)
        here = fast.estimate(pattern)
        misses = miss_memo_info().misses
        assert misses > 0
        there = slow.estimate(pattern)
        assert miss_memo_info().misses == misses
        assert miss_memo_info().hits == len(tiny.all_levels)
        assert [lc.misses for lc in there.levels] == \
            [lc.misses for lc in here.levels]
        assert there.memory_ns == 2 * here.memory_ns != 0.0

    def test_part_order_is_in_the_key(self, tiny):
        a, b = flat(0).parts
        model = CostModel(tiny)
        model.estimate(Conc.of(a, b))
        model.estimate(Conc.of(b, a))
        assert miss_memo_info() == (0, 2 * len(tiny.all_levels),
                                    2 * len(tiny.all_levels))

    def test_twin_verdicts_are_only_positive(self, tiny):
        # a rebuilt tree hits (and is remembered as congruent); an equal
        # tree under another parent chain still does not
        def build(parent_n: int) -> Seq:
            parent = DataRegion("P", n=parent_n, w=8)
            return Seq.of(STrav(parent.subregion("S", n=8)),
                          RTrav(parent.subregion("T", n=8)))

        model = CostModel(tiny)
        first, rebuilt, other = build(16), build(16), build(4096)
        expected = model.misses(first)
        for _ in range(2):
            assert model.misses(rebuilt) == expected
        assert miss_memo_info().hits == 2 * len(tiny.all_levels)
        assert model.misses(other) != expected
        assert model.misses(rebuilt) == expected
        # the verdict hangs on the tree that asked, never on the memo's:
        # a session's trees must die with it
        asked = weakref.ref(rebuilt)
        del rebuilt
        gc.collect()
        assert asked() is None and first._twin is None


class TestBound:
    def test_size_never_exceeds_the_cap_and_oldest_leaves_first(
            self, tiny, monkeypatch):
        monkeypatch.setattr(cost, "MISS_MEMO_ENTRIES", 2)
        model, level = CostModel(tiny), tiny.all_levels[0]
        a, b, c = flat(0), flat(1), flat(2)

        def lookup(pattern) -> str:
            before = miss_memo_info()
            model.level_misses(pattern, level)
            after = miss_memo_info()
            assert after.entries <= 2
            return "hit" if after.hits > before.hits else "miss"

        assert [lookup(p) for p in (a, b, c)] == ["miss"] * 3  # drops a
        assert [lookup(p) for p in (c, b)] == ["hit", "hit"]
        assert lookup(a) == "miss"  # drops b, the oldest left
        assert [lookup(p) for p in (c, a, b)] == ["hit", "hit", "miss"]

    def test_recomputed_after_eviction_equals_remembered(
            self, tiny, monkeypatch):
        model = CostModel(tiny)
        patterns = [Seq.of(flat(i), flat(i + 1)) for i in range(6)]
        remembered = [model.misses(p) for p in patterns]
        monkeypatch.setattr(cost, "MISS_MEMO_ENTRIES", 3)
        miss_memo_clear()
        for _ in range(2):
            assert [model.misses(p) for p in patterns] == remembered
            assert miss_memo_info().entries <= 3

    def test_four_threads_price_through_a_churning_memo(
            self, tiny, monkeypatch):
        """The server's compile runs and its dispatch run price
        concurrently.  With the cap at 8 and 18 + 54 distinct keys in
        rotation nearly every lookup inserts and evicts; an eviction
        outside the lock raises within a few thousand of them (two
        threads delete the same oldest key, or "dictionary changed size
        during iteration")."""
        monkeypatch.setattr(cost, "MISS_MEMO_ENTRIES", 8)
        model, levels = CostModel(tiny), tiny.all_levels
        parts = [flat(i) for i in range(6)]
        batches = [[parts[i], parts[(i + 1) % 6], parts[(i + 3) % 6]]
                   for i in range(6)]

        def shared(batch):
            return [[lc.misses for lc in estimate.levels]
                    for estimate in model.concurrent_estimates(batch)]

        solo = [[model.level_misses(part, level) for level in levels]
                for part in parts]
        together = [shared(batch) for batch in batches]
        miss_memo_clear()
        barrier = threading.Barrier(4)

        def worker(offset: int) -> None:
            barrier.wait(timeout=30)
            for turn in range(offset, offset + 1000):
                for i, part in enumerate(parts):
                    j = turn % len(levels)
                    assert model.level_misses(part, levels[j]) == solo[i][j]
                assert shared(batches[turn % 6]) == together[turn % 6]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(worker, range(4)))
        finally:
            sys.setswitchinterval(interval)
        assert miss_memo_info().entries <= 8
