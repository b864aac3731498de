"""Unit tests for the multi-level memory-system simulation."""

import pytest

from repro.hardware import CacheLevel, MemoryHierarchy, tiny_test_machine
from repro.simulator import MemorySystem


@pytest.fixture
def mem(tiny):
    return MemorySystem(tiny)


class TestCascade:
    def test_cold_access_misses_all_levels(self, mem):
        mem.access(0, 1)
        assert mem.cache("L1").misses == 1
        assert mem.cache("L2").misses == 1
        assert mem.cache("TLB").misses == 1

    def test_warm_access_hits_l1_only(self, mem):
        mem.access(0, 1)
        mem.access(0, 1)
        assert mem.cache("L1").hits == 1
        assert mem.cache("L2").accesses == 1  # not re-probed on L1 hit

    def test_l1_miss_l2_hit(self, mem):
        # Touch 17 L1 lines (16-line L1) so line 0 is evicted from L1
        # but stays in the 32-line L2.
        for i in range(17):
            mem.access(i * 16, 1)
        l2_before = mem.cache("L2").misses
        mem.access(0, 1)
        assert mem.cache("L2").misses == l2_before  # L2 hit
        # Lines 0 and 1 share L2 line 0 (L2 line = 32 B): re-access of
        # L1 line 0 hits L2.
        assert mem.cache("L2").hits >= 1

    def test_access_spanning_two_l1_lines(self, mem):
        mem.access(8, 16)  # bytes 8..23 span L1 lines 0 and 1
        assert mem.cache("L1").misses == 2
        # Both L1 lines live in the single 32-byte L2 line 0.
        assert mem.cache("L2").misses == 1

    def test_wide_access_spanning_pages(self, mem):
        mem.access(0, 256)  # two 128-byte pages
        assert mem.cache("TLB").misses == 2

    def test_negative_address_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.access(-1, 1)

    def test_zero_bytes_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.access(0, 0)

    def test_read_write_cost_identically(self, tiny):
        a, b = MemorySystem(tiny), MemorySystem(tiny)
        a.read(0, 8)
        b.write(0, 8)
        assert a.elapsed_ns == b.elapsed_ns


class TestTiming:
    def test_cold_single_access_time(self, mem):
        # Random miss on L1 (6), L2 (50) and TLB (30) = 86 ns.
        mem.access(0, 1)
        assert mem.elapsed_ns == pytest.approx(86.0)

    def test_sequential_sweep_cheaper_than_random(self, tiny):
        import random
        seq = MemorySystem(tiny)
        for i in range(0, 4096, 16):
            seq.access(i, 1)
        rnd = MemorySystem(tiny)
        order = list(range(0, 4096, 16))
        random.Random(5).shuffle(order)
        for i in order:
            rnd.access(i, 1)
        assert seq.elapsed_ns < rnd.elapsed_ns

    def test_elapsed_matches_per_level_miss_times(self, mem):
        for i in range(0, 2048, 8):
            mem.access(i, 8)
        total = sum(sim.miss_time_ns() for sim in mem.caches + mem.tlbs)
        assert mem.elapsed_ns == pytest.approx(total)


class TestSnapshots:
    def test_snapshot_delta(self, mem):
        mem.access(0, 1)
        before = mem.snapshot()
        mem.access(1024, 1)
        delta = mem.snapshot() - before
        assert delta.accesses == 1
        assert delta.misses("L1") == 1

    def test_snapshot_as_dict(self, mem):
        mem.access(0, 1)
        d = mem.snapshot().as_dict()
        assert d["L1"]["rand_misses"] == 1

    def test_reset(self, mem):
        mem.access(0, 1)
        mem.reset()
        assert mem.elapsed_ns == 0.0
        assert mem.accesses == 0
        assert mem.cache("L1").misses == 0

    @pytest.mark.parametrize("touch", [
        lambda m: None,
        lambda m: m.access(0, 1),
        lambda m: m.access_range(0, 8, count=64),
        lambda m: m.batch()(96),
        lambda m: m.replay([(0, 8), (4096, 8, True)]),
        lambda m: m.replay([(0, 8), (-8, 8)]),  # stops at a bad entry
    ])
    def test_reset_walks_the_levels_only_of_a_touched_machine(
            self, disk_scaled, monkeypatch, touch):
        from repro.simulator.cache import CacheSim

        mem = MemorySystem(disk_scaled)
        try:
            touch(mem)
        except ValueError:
            pass
        touched = mem.snapshot() != MemorySystem(disk_scaled).snapshot() \
            or any(s[0] != -1 for sim in mem.caches + mem.tlbs
                   for s in sim._sets)
        walked = []
        reset = CacheSim.reset
        monkeypatch.setattr(CacheSim, "reset",
                            lambda sim: walked.append(sim) or reset(sim))
        mem.reset()
        assert bool(walked) == touched
        fresh = MemorySystem(disk_scaled)
        assert mem.snapshot() == fresh.snapshot()
        assert [sim._sets for sim in mem.caches + mem.tlbs] \
            == [sim._sets for sim in fresh.caches + fresh.tlbs]
        assert mem.pool.dirty_pages == 0
        walked.clear()
        mem.reset()  # nothing touched it since
        assert walked == []

    def test_batch_closure_counts_no_stale_hit_after_reset(self, scaled):
        """``reset()`` rewinds ``accesses``, so a fused accessor taken
        before it must not read an equal count as "my line is still
        MRU": here the reset and the access to another page evicted
        it, and a fresh machine misses on every level."""
        mem = MemorySystem(scaled)
        fused = mem.batch()
        fused(4096)
        mem.reset()
        mem.access(1 << 20)
        fused(4096)
        fresh = MemorySystem(scaled)
        fresh.access(1 << 20)
        fresh.access(4096)
        assert mem.snapshot() == fresh.snapshot()
        # and the shortcut still serves the closure's own next access
        fused(4096 + 8)
        fresh.access(4096 + 8)
        assert mem.snapshot() == fresh.snapshot()

    def test_unknown_level_raises(self, mem):
        with pytest.raises(KeyError):
            mem.cache("L7")

    def test_level_mismatch_subtraction_raises(self, mem):
        from repro.simulator.counters import LevelCounters
        a = LevelCounters("L1", 0, 0, 0)
        b = LevelCounters("L2", 0, 0, 0)
        with pytest.raises(ValueError):
            a - b


class TestKnownTraces:
    def test_sequential_sweep_miss_counts(self, tiny):
        """A 4 KB sweep at stride 8: 256 L1 misses, 128 L2 misses,
        32 TLB misses — the |R| = ||R||/Z rule, exactly."""
        mem = MemorySystem(tiny)
        for i in range(0, 4096, 8):
            mem.access(i, 8)
        assert mem.cache("L1").misses == 4096 // 16
        assert mem.cache("L2").misses == 4096 // 32
        assert mem.cache("TLB").misses == 4096 // 128

    def test_sweep_misses_mostly_sequential(self, tiny):
        mem = MemorySystem(tiny)
        for i in range(0, 4096, 8):
            mem.access(i, 8)
        l1 = mem.cache("L1")
        assert l1.seq_misses >= l1.misses - 1  # first miss is random

    def test_repeated_fitting_sweep_no_new_misses(self, tiny):
        mem = MemorySystem(tiny)
        for i in range(0, 128, 8):   # 128 B fits all levels
            mem.access(i, 8)
        misses = mem.cache("L1").misses
        for _ in range(3):
            for i in range(0, 128, 8):
                mem.access(i, 8)
        assert mem.cache("L1").misses == misses
