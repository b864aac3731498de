"""Equations 4.8 (random access) and 4.9 (interleaved multi-cursor)."""

import math

import pytest

from repro.core import (
    BI,
    RANDOM,
    SEQUENTIAL,
    UNI,
    DataRegion,
    LevelGeometry,
    MissPair,
    Nest,
    RAcc,
    RTrav,
    STrav,
    basic_pattern_misses,
    racc_count,
    racc_distinct_lines,
    rtrav_count,
    strav_count,
)
from repro.hardware import tiny_test_machine
from repro.simulator import MemorySystem, canonical_trace
from repro.simulator.memory import Segment

GEO = LevelGeometry(line_size=16, capacity=256.0, num_lines=16.0)


class TestRAccLines:
    def test_distinct_bounded_by_r_and_n(self):
        r = DataRegion("R", n=100, w=16)
        distinct, lines = racc_distinct_lines(r, 16, GEO, r=10)
        assert distinct <= 10
        assert lines <= r.lines(16)

    def test_lines_never_below_one(self):
        r = DataRegion("R", n=100, w=1)
        _, lines = racc_distinct_lines(r, 1, GEO, r=1)
        assert lines >= 1.0

    def test_sparse_items_one_line_each(self):
        # w = 64 >> Z: no sharing; lines = D * lines_per_item(u).
        r = DataRegion("R", n=100, w=64)
        distinct, lines = racc_distinct_lines(r, 8, GEO, r=50)
        assert lines == pytest.approx(distinct * (1 + 7 / 16))

    def test_saturating_access_touches_all_lines(self):
        r = DataRegion("R", n=64, w=16)
        _, lines = racc_distinct_lines(r, 16, GEO, r=100_000)
        assert lines == pytest.approx(r.lines(16), rel=0.01)


class TestRAccCount:
    def test_fitting_table_compulsory_only(self):
        r = DataRegion("R", n=16, w=16)  # 16 lines = cache
        count = racc_count(r, 16, GEO, r=1000)
        assert count <= 16 + 1e-9

    def test_exceeding_table_grows_with_r(self):
        r = DataRegion("R", n=256, w=16)  # 16x cache
        low = racc_count(r, 16, GEO, r=300)
        high = racc_count(r, 16, GEO, r=3000)
        assert high > low

    def test_misses_at_most_one_per_access_plus_compulsory(self):
        r = DataRegion("R", n=256, w=16)
        count = racc_count(r, 16, GEO, r=1000)
        assert count <= 1000 + r.lines(16)

    def test_matches_simulator_fitting(self):
        hw = tiny_test_machine()
        mem = MemorySystem(hw)
        n, w, hits = 16, 16, 500
        pattern = RAcc(DataRegion("R", n, w), r=hits)
        mem.replay(Segment(canonical_trace(pattern, 4096, seed=9)))
        predicted = racc_count(DataRegion("R", n, w), w, GEO, r=hits)
        measured = mem.cache("L1").misses
        # Compulsory only; allow one line of slack for unlucky draws.
        assert measured <= predicted + 2

    def test_matches_simulator_exceeding(self):
        hw = tiny_test_machine()
        n, w, hits = 128, 16, 1000   # 2 KB region over 256 B L1
        counts = []
        pattern = RAcc(DataRegion("R", n, w), r=hits)
        for seed in range(5):
            mem = MemorySystem(hw)
            mem.replay(Segment(canonical_trace(pattern, 4096, seed)))
            counts.append(mem.cache("L1").misses)
        measured = sum(counts) / len(counts)
        predicted = racc_count(DataRegion("R", n, w), w, GEO, r=hits)
        assert measured == pytest.approx(predicted, rel=0.2)


class TestNest:
    def region(self, n=256, w=16):
        return DataRegion("R", n=n, w=w)

    def test_local_random_behaves_like_whole_region_rtrav(self):
        r = self.region()
        nest = Nest(r, m=8, local="r_trav", order=RANDOM)
        pair = basic_pattern_misses(nest, GEO)
        assert pair.seq == 0.0
        assert pair.rand == pytest.approx(rtrav_count(r, 16, GEO))

    def test_degenerate_to_sequential(self):
        # m = R.n with a sequential global order is a plain s_trav.
        r = self.region()
        nest = Nest(r, m=r.n, local="r_trav", order=SEQUENTIAL)
        pair = basic_pattern_misses(nest, GEO)
        assert pair.seq == pytest.approx(strav_count(r, 16, GEO))

    def test_few_cursors_compulsory_only(self):
        # m * ceil(u/Z) = 4 <= 16 lines: |R| misses.
        r = self.region()
        nest = Nest(r, m=4, local="s_trav", order=RANDOM)
        pair = basic_pattern_misses(nest, GEO)
        assert pair.total == pytest.approx(r.lines(16))

    def test_many_cursors_thrash(self):
        # m = 64 > 16 lines: extra random misses appear.
        r = self.region()
        few = basic_pattern_misses(Nest(r, m=4, local="s_trav", order=RANDOM), GEO)
        many = basic_pattern_misses(Nest(r, m=64, local="s_trav", order=RANDOM), GEO)
        assert many.total > few.total

    def test_sequential_order_yields_sequential_misses(self):
        """Sequential-order cursors miss at sequential latency except
        each cursor's stream-establishing first miss."""
        r = self.region()
        nest = Nest(r, m=4, local="s_trav", order=SEQUENTIAL)
        pair = basic_pattern_misses(nest, GEO)
        assert pair.rand == 4.0  # one stream start per cursor
        assert pair.seq == pytest.approx(pair.total - 4.0)

    def test_random_order_few_streams_ride_prefetch(self):
        """Up to STREAM_WINDOW interleaved sequential cursors each form
        their own ascending stream, which a non-blocking memory system
        overlaps at sequential latency (the paper's merge-join
        observation, Section 2.2) — exactly what the simulator's EDO
        classifier recognises."""
        from repro.core import STREAM_WINDOW
        r = self.region()
        nest = Nest(r, m=4, local="s_trav", order=RANDOM)
        pair = basic_pattern_misses(nest, GEO)
        assert pair.rand == 4.0  # only the stream starts pay random
        assert pair.seq == pytest.approx(pair.total - 4.0)
        assert 4 <= STREAM_WINDOW

    def test_random_order_many_streams_miss_randomly(self):
        """Beyond the stream window the cursors defeat the prefetch
        overlap: base misses turn random."""
        from repro.core import STREAM_WINDOW
        r = self.region()
        nest = Nest(r, m=2 * STREAM_WINDOW, local="s_trav", order=RANDOM)
        pair = basic_pattern_misses(nest, GEO)
        assert pair.seq == 0.0 and pair.rand > 0

    def test_wide_items_counted_per_item(self):
        r = DataRegion("R", n=64, w=64)
        nest = Nest(r, m=4, local="s_trav", order=RANDOM, u=8)
        pair = basic_pattern_misses(nest, GEO)
        assert pair.total == pytest.approx(64 * (1 + 7 / 16))

    def test_simulator_partition_style_thrash(self):
        """m cursors round-robin: misses jump once m exceeds the line
        count, as in Figure 7d."""
        hw = tiny_test_machine()

        def run(m):
            mem = MemorySystem(hw)
            pattern = Nest(self.region(), m=m, local="s_trav", order=RANDOM)
            mem.replay(Segment(canonical_trace(pattern, 4096, seed=4)))
            return mem.cache("L1").misses

        assert run(32) > run(4) * 0.9  # both at least compulsory
        # Model agrees on ordering.
        r = self.region()
        few = basic_pattern_misses(Nest(r, m=4, local="s_trav", order=RANDOM), GEO)
        many = basic_pattern_misses(Nest(r, m=32, local="s_trav", order=RANDOM), GEO)
        assert many.total >= few.total


class TestMissPair:
    def test_add(self):
        assert (MissPair(1, 2) + MissPair(3, 4)) == MissPair(4, 6)

    def test_scale(self):
        assert MissPair(2, 4).scaled(0.5) == MissPair(1, 2)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            MissPair(1, 1).scaled(-1)

    def test_time(self):
        assert MissPair(10, 5).time_ns(2.0, 4.0) == pytest.approx(40.0)

    def test_total(self):
        assert MissPair(1.5, 2.5).total == 4.0
