"""Unit tests for the set-associative LRU cache simulation."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import CacheLevel, disk_extended_scaled, tiny_test_machine
from repro.simulator import BufferPoolSim, MemorySystem
from repro.simulator.cache import (
    HIT, RAND_MISS, SEQ_MISS, STREAM_WINDOW, CacheSim,
)


def make_sim(capacity=256, line=16, assoc=2, seq=2.0, rand=6.0):
    return CacheSim(CacheLevel(
        name="C", capacity=capacity, line_size=line, associativity=assoc,
        seq_miss_latency_ns=seq, rand_miss_latency_ns=rand,
    ))


class TestBasics:
    def test_first_access_misses(self):
        sim = make_sim()
        assert sim.probe(0) != HIT

    def test_second_access_hits(self):
        sim = make_sim()
        sim.probe(0)
        assert sim.probe(0) == HIT

    def test_counters(self):
        sim = make_sim()
        sim.probe(0)
        sim.probe(0)
        sim.probe(1)
        assert sim.hits == 1
        assert sim.misses == 2
        assert sim.accesses == 3

    def test_reset_clears_contents(self):
        sim = make_sim()
        sim.probe(0)
        sim.reset()
        assert sim.probe(0) != HIT
        assert sim.misses == 1

    def test_reset_counters_keeps_contents(self):
        sim = make_sim()
        sim.probe(0)
        sim.reset_counters()
        assert sim.probe(0) == HIT
        assert sim.misses == 0

    def test_contains_has_no_lru_side_effect(self):
        sim = make_sim(capacity=32, line=16, assoc=2)
        sim.probe(0)   # set 0
        sim.probe(2)   # set 0 (2 % 2 == 0)
        assert sim.contains(0)
        # Touch via contains only; 0 must still be the LRU victim.
        sim.probe(4)   # set 0 again -> evicts 0
        assert not sim.contains(0)

    def test_resident_lines(self):
        sim = make_sim()
        for ln in range(5):
            sim.probe(ln)
        assert sim.resident_lines() == 5

    def test_lines_of_spanning(self):
        sim = make_sim(line=16)
        assert list(sim.lines_of(addr=8, nbytes=16)) == [0, 1]
        assert list(sim.lines_of(addr=0, nbytes=16)) == [0]

    def test_lines_of_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_sim().lines_of(0, 0)


class TestLRUAndAssociativity:
    def test_capacity_eviction(self):
        # 16 lines, fully covering then one more in the same set.
        sim = make_sim(capacity=256, line=16, assoc=16)  # fully assoc.
        for ln in range(16):
            sim.probe(ln)
        sim.probe(16)  # evicts LRU line 0
        assert not sim.contains(0)
        assert sim.contains(16)

    def test_lru_order_respects_rehits(self):
        sim = make_sim(capacity=256, line=16, assoc=16)
        for ln in range(16):
            sim.probe(ln)
        sim.probe(0)       # 0 becomes MRU; 1 is now LRU
        sim.probe(16)      # evicts 1, not 0
        assert sim.contains(0)
        assert not sim.contains(1)

    def test_direct_mapped_conflict(self):
        sim = make_sim(capacity=64, line=16, assoc=1)  # 4 sets
        sim.probe(0)
        sim.probe(4)  # same set (4 % 4 == 0): evicts 0
        assert not sim.contains(0)

    def test_two_way_tolerates_one_conflict(self):
        sim = make_sim(capacity=64, line=16, assoc=2)  # 2 sets
        sim.probe(0)
        sim.probe(2)  # same set, second way
        assert sim.contains(0)
        assert sim.contains(2)
        sim.probe(4)  # same set: evicts 0 (LRU)
        assert not sim.contains(0)

    def test_conflict_miss_despite_free_capacity(self):
        # Alternating between two addresses mapped to the same set of a
        # direct-mapped cache misses every time (paper Section 2.1).
        sim = make_sim(capacity=64, line=16, assoc=1)
        misses = 0
        for _ in range(10):
            if sim.probe(0) != HIT:
                misses += 1
            if sim.probe(4) != HIT:
                misses += 1
        assert misses == 20

    def test_fully_associative_avoids_conflicts(self):
        sim = make_sim(capacity=64, line=16, assoc=0)
        for _ in range(10):
            sim.probe(0)
            sim.probe(4)
        assert sim.misses == 2


class TestMissClassification:
    def test_ascending_stream_is_sequential(self):
        sim = make_sim()
        sim.probe(10)           # first miss: random
        for ln in range(11, 20):
            assert sim.probe(ln) == SEQ_MISS

    def test_descending_stream_is_sequential(self):
        sim = make_sim()
        sim.probe(20)
        for ln in range(19, 10, -1):
            assert sim.probe(ln) == SEQ_MISS

    def test_scattered_misses_are_random(self):
        sim = make_sim(capacity=64, line=16, assoc=1)
        assert sim.probe(0) == RAND_MISS
        assert sim.probe(100) == RAND_MISS
        assert sim.probe(37) == RAND_MISS

    def test_interleaved_streams_all_sequential(self):
        # Three merge-join style cursors: each stream continues to be
        # recognised despite interleaving.
        sim = make_sim(capacity=64, line=16, assoc=1)
        bases = (0, 1000, 2000)
        for base in bases:
            sim.probe(base)
        seq = 0
        for step in range(1, 20):
            for base in bases:
                if sim.probe(base + step) == SEQ_MISS:
                    seq += 1
        assert seq == 3 * 19

    def test_miss_time_accumulates_by_kind(self):
        sim = make_sim(seq=2.0, rand=6.0)
        sim.probe(0)    # random
        sim.probe(1)    # sequential
        assert sim.miss_time_ns() == pytest.approx(8.0)


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(st.integers(min_value=0, max_value=63),
                      min_size=1, max_size=200))
def test_property_resident_never_exceeds_capacity(lines):
    sim = make_sim(capacity=128, line=16, assoc=2)  # 8 lines
    for ln in lines:
        sim.probe(ln)
    assert sim.resident_lines() <= 8


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(st.integers(min_value=0, max_value=1000),
                      min_size=1, max_size=200))
def test_property_repeat_of_trace_with_large_cache_all_hits(lines):
    sim = make_sim(capacity=16 * 1024 * 16, line=16, assoc=0)
    for ln in lines:
        sim.probe(ln)
    before = sim.misses
    for ln in lines:
        assert sim.probe(ln) == HIT
    assert sim.misses == before


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(st.integers(min_value=0, max_value=100),
                      min_size=1, max_size=100))
def test_property_miss_count_equals_distinct_lines_when_fitting(lines):
    sim = make_sim(capacity=128 * 16, line=16, assoc=0)  # 128 lines > range
    for ln in lines:
        sim.probe(ln)
    assert sim.misses == len(set(lines))


# ----------------------------------------------------------------------
# The simulator against a textbook LRU written here, independently of
# it: every other simulator property compares one entry point with
# another, and all of them end in ``CacheSim.probe``.
# ----------------------------------------------------------------------

class TextbookLRU:
    """One ``OrderedDict`` per set (LRU first, MRU last), the EDO
    window as a FIFO of recent miss lines, and a dirty set whose
    evictions count write-backs."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.recent = OrderedDict()
        self.dirty = set()
        self.hits = self.seq_misses = self.rand_misses = 0
        self.write_backs = 0

    def probe(self, line, write):
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            outcome = HIT
        else:
            if len(s) == self.ways:
                victim, _ = s.popitem(last=False)
                if victim in self.dirty:
                    self.dirty.remove(victim)
                    self.write_backs += 1
            s[line] = None
            neighbour = next((n for n in (line - 1, line + 1)
                              if n in self.recent), None)
            if neighbour is not None:
                del self.recent[neighbour]
                self.seq_misses += 1
                outcome = SEQ_MISS
            else:
                if len(self.recent) == STREAM_WINDOW:
                    self.recent.popitem(last=False)
                self.rand_misses += 1
                outcome = RAND_MISS
            self.recent[line] = None
        if write:
            self.dirty.add(line)
        return outcome

    def contains(self, line):
        return line in self.sets[line % self.num_sets]

    def resident_lines(self):
        return sum(len(s) for s in self.sets)


#: Associativities drawn; 0 is fully associative.
WAYS = [1, 2, 3, 4, 8, 0]


@st.composite
def lru_cases(draw):
    """A geometry (ways, set count, plain cache or buffer pool) and a
    stream of ``(line, write)`` probes over a span a few times the
    capacity, so sets fill, evict and re-hit their non-MRU ways."""
    ways = draw(st.sampled_from(WAYS))
    if ways:
        num_sets = draw(st.sampled_from([1, 2, 3, 4, 8]))
        lines = num_sets * ways
    else:
        num_sets = 1
        lines = draw(st.integers(min_value=1, max_value=24))
    level = CacheLevel(name="C", capacity=lines * 16, line_size=16,
                       associativity=ways, seq_miss_latency_ns=2.0,
                       rand_miss_latency_ns=6.0)
    pool = draw(st.booleans())
    span = draw(st.integers(min_value=1, max_value=4 * lines + 4))
    stream = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=span), st.booleans()),
        max_size=250))
    return level, pool, num_sets, stream


def assert_same_state(sim, ref, span):
    assert (sim.hits, sim.seq_misses, sim.rand_misses) == \
        (ref.hits, ref.seq_misses, ref.rand_misses)
    assert sim.resident_lines() == ref.resident_lines()
    assert [sim.contains(ln) for ln in range(span + 2)] == \
        [ref.contains(ln) for ln in range(span + 2)]
    if isinstance(sim, BufferPoolSim):
        assert (sim.write_backs, sim.dirty_pages) == \
            (ref.write_backs, len(ref.dirty))


class TestTextbookLRU:
    @settings(max_examples=200)
    @given(case=lru_cases())
    def test_probe_equals_textbook_lru(self, case):
        level, pool, num_sets, stream = case
        sim = (BufferPoolSim if pool else CacheSim)(level)
        ref = TextbookLRU(num_sets, level.effective_associativity)
        span = max((ln for ln, _ in stream), default=0)
        for line, write in stream:
            assert sim.probe(line, write) == ref.probe(line, write)
        assert_same_state(sim, ref, span)

    def test_negative_line_is_rejected(self):
        """``-1`` pads the ways of a set that is not full, so no line
        may take it (or any negative tag)."""
        sim = make_sim(capacity=64, line=16, assoc=2)
        for line in (-1, -5):
            with pytest.raises(ValueError):
                sim.probe(line)
            assert not sim.contains(line)
        assert (sim.accesses, sim.resident_lines()) == (0, 0)

    @given(case=lru_cases(), cut=st.integers(min_value=0, max_value=250))
    def test_reset_after_partial_fill(self, case, cut):
        level, pool, num_sets, stream = case
        sim = (BufferPoolSim if pool else CacheSim)(level)
        ref = TextbookLRU(num_sets, level.effective_associativity)
        span = max((ln for ln, _ in stream), default=0)
        for line, write in stream[:cut]:
            sim.probe(line, write)
        sim.reset()
        assert_same_state(sim, ref, span)
        for line, write in stream[cut:]:
            assert sim.probe(line, write) == ref.probe(line, write)
        assert_same_state(sim, ref, span)

    @given(steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 11),
                  st.integers(min_value=1, max_value=24), st.booleans()),
        min_size=1, max_size=60),
        cut=st.integers(min_value=0, max_value=60))
    def test_batch_closure_taken_before_reset_stays_exact(self, steps, cut):
        """``reset()`` clears the sets in place: an accessor bound to
        them before the reset still drives the live cache after it."""
        for machine in (tiny_test_machine(), disk_extended_scaled()):
            batched = MemorySystem(machine)
            fused = batched.batch()
            for addr, nbytes, write in steps[:cut]:
                fused(addr, nbytes, write)
            batched.reset()
            reference = MemorySystem(machine)
            for addr, nbytes, write in steps[cut:]:
                fused(addr, nbytes, write)
                reference.access(addr, nbytes, write=write)
            assert repr(batched.snapshot()) == repr(reference.snapshot())
            assert batched.elapsed_ns == reference.elapsed_ns
            assert (batched.pool is None) or \
                (batched.pool.write_backs, batched.pool.dirty_pages) == \
                (reference.pool.write_backs, reference.pool.dirty_pages)
            assert [sim.resident_lines() for sim in batched.caches] == \
                [sim.resident_lines() for sim in reference.caches]
