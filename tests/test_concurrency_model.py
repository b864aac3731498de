"""⊙ composition with three and more concurrent patterns.

Covers the Eq. 5.3 cache division the concurrent workload service
builds on: proportional shares by footprint, the per-part attribution
(:meth:`CostModel.concurrent_estimates`) summing exactly to the
compound estimate, degenerate shapes (single part, negligible-footprint
part), and model-vs-simulator agreement when three independent access
traces are replayed truly interleaved (one access per cursor per turn —
the concurrency ⊙ describes) through the cache simulator.
"""

import pytest

from repro.core import (
    Conc,
    CostModel,
    DataRegion,
    RAcc,
    RTrav,
    STrav,
    cache_shares,
    conc,
    footprint_lines,
    seq,
)
from repro.service.executor import replay_interleaved
from repro.simulator import MemorySystem, canonical_trace
from repro.simulator.memory import Segment


class TestCacheShares:
    def test_shares_proportional_to_footprints(self, tiny):
        line = tiny.levels[0].line_size  # 16 B
        # 32, 64, 160 lines -> shares 1/8, 2/8, 5/8
        parts = [RAcc(DataRegion(n, lines * line, w=1), r=8)
                 for n, lines in (("A", 32), ("B", 64), ("C", 160))]
        shares = cache_shares(parts, line)
        assert shares == pytest.approx([32 / 256, 64 / 256, 160 / 256])
        assert sum(shares) == pytest.approx(1.0)

    def test_single_part_gets_whole_cache(self):
        part = RTrav(DataRegion("R", n=64, w=8))
        assert cache_shares([part], 16) == [1.0]

    def test_strav_footprint_is_one_line(self):
        """A single sequential traversal never revisits a line
        (Section 5.2), so its competitive footprint is one line no
        matter the region size."""
        big = DataRegion("big", n=1 << 20, w=8)
        assert footprint_lines(STrav(big), 32) == 1.0
        shares = cache_shares([STrav(big), RTrav(DataRegion("r", 63, 8))],
                              32)
        # the huge sequential stream claims almost nothing
        assert shares[0] < 0.1


class TestConcurrentEstimates:
    def test_per_part_attribution_sums_to_compound(self, tiny):
        model = CostModel(tiny)
        parts = [STrav(DataRegion("A", n=512, w=8)),
                 RTrav(DataRegion("B", n=256, w=8)),
                 RAcc(DataRegion("C", n=256, w=8), r=512)]
        per_part = model.concurrent_estimates(parts)
        compound = model.estimate(Conc.of(*parts))
        assert len(per_part) == 3
        for level in tiny.all_levels:
            total = sum(e.level(level.name).misses.total for e in per_part)
            assert total == pytest.approx(compound.misses(level.name))
        assert sum(e.memory_ns for e in per_part) == \
            pytest.approx(compound.memory_ns)

    def test_single_part_equals_standalone(self, tiny):
        model = CostModel(tiny)
        part = RTrav(DataRegion("R", n=512, w=8))
        (shared,) = model.concurrent_estimates([part])
        assert shared.memory_ns == pytest.approx(
            model.estimate(part).memory_ns)
        # Conc.of with one part is likewise the identity
        assert model.estimate(Conc.of(part)).memory_ns == \
            pytest.approx(model.estimate(part).memory_ns)

    def test_negligible_footprint_part_stays_finite(self, tiny):
        """A one-line-footprint sequential stream among big random
        competitors: its share tends to zero, yet its cost stays the
        compulsory-miss cost (sequential misses are capacity-
        independent), and nothing degenerates."""
        model = CostModel(tiny)
        stream = STrav(DataRegion("S", n=1024, w=8))
        hogs = [RAcc(DataRegion(f"H{i}", n=1024, w=8), r=2048)
                for i in range(2)]
        per_part = model.concurrent_estimates([stream] + hogs)
        solo = model.estimate(stream).memory_ns
        assert per_part[0].memory_ns == pytest.approx(solo, rel=0.25)
        for estimate in per_part:
            assert estimate.memory_ns > 0
            assert estimate.memory_ns < float("inf")

    def test_contention_inflates_random_parts(self, tiny):
        """Three random traversals that each fit the cache alone but
        not together: every part must be predicted strictly more
        expensive co-run than standalone."""
        model = CostModel(tiny)
        parts = [RTrav(DataRegion(f"R{i}", n=64, w=8)) for i in range(3)]
        per_part = model.concurrent_estimates(parts)
        for part, shared in zip(parts, per_part):
            assert shared.memory_ns > model.estimate(part).memory_ns


class TestHelpers:
    def test_seq_conc_skip_none(self):
        r = DataRegion("R", n=64, w=8)
        a, b = STrav(r), RTrav(r)
        assert seq(None, a, None) is a
        assert conc(None) is None
        assert seq(a, None, b).parts == (a, b)
        assert conc(a, None, b).parts == (a, b)
        assert isinstance(conc(a, b), Conc)


class TestModelVsSimulator:
    """Three concurrent cursors, replayed truly interleaved (one access
    per cursor per turn) against the Eq. 5.3 division — per-level miss
    agreement within the tolerance of the deep model-vs-simulator
    suite."""

    def _traces_and_patterns(self, w=8):
        nA, nB, nC = 256, 128, 128
        gap = 4096
        baseA = gap
        baseB = baseA + nA * w + gap
        baseC = baseB + nB * w + gap
        A = DataRegion("A", n=nA, w=w)
        B = DataRegion("B", n=nB, w=w)
        C = DataRegion("C", n=nC, w=w)
        patterns = [STrav(A), RTrav(B), RAcc(C, r=2 * nC)]
        traces = [Segment(canonical_trace(pattern, base, seed))
                  for pattern, base, seed in zip(patterns,
                                                 (baseA, baseB, baseC),
                                                 (0, 1, 2))]
        return patterns, traces

    def test_three_way_misses_all_levels(self, tiny):
        model = CostModel(tiny)
        patterns, traces = self._traces_and_patterns()
        mem = MemorySystem(tiny)
        mem.replay_interleaved(traces, 1)  # quantum 1: true concurrency
        snap = mem.snapshot()
        compound = Conc.of(*patterns)
        for level in tiny.all_levels:
            predicted = model.level_misses(compound, level).total
            measured = snap.misses(level.name)
            assert predicted == pytest.approx(measured, rel=0.35, abs=4), (
                level.name, measured, predicted)

    def test_replay_interleaved_elapsed_matches_model(self, tiny):
        model = CostModel(tiny)
        patterns, traces = self._traces_and_patterns()
        replay = replay_interleaved(tiny, traces, quantum=1)
        predicted = model.estimate(Conc.of(*patterns)).memory_ns
        assert predicted == pytest.approx(replay.total_ns, rel=0.35)
        # attribution invariants of the replay itself
        assert sum(replay.memory_ns) == pytest.approx(replay.total_ns)
        assert max(replay.finish_ns) == pytest.approx(replay.total_ns)
        for finish in replay.finish_ns:
            assert finish <= replay.total_ns + 1e-9