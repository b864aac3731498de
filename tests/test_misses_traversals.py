"""Equations 4.2-4.7: traversal miss counts, checked by hand and against
the trace-driven simulator."""

import math

import pytest

from repro.core import (
    BI,
    UNI,
    DataRegion,
    LevelGeometry,
    RSTrav,
    RTrav,
    STrav,
    lines_per_item,
    rrtrav_count,
    rstrav_count,
    rtrav_count,
    strav_count,
)
from repro.hardware import tiny_test_machine
from repro.simulator import MemorySystem, canonical_trace
from repro.simulator.memory import Segment

#: L1 of the tiny machine: Z=16, C=256, 16 lines.
GEO = LevelGeometry(line_size=16, capacity=256.0, num_lines=16.0)


class TestLinesPerItem:
    def test_one_byte_never_straddles(self):
        assert lines_per_item(1, 32) == 1.0

    def test_full_line_straddles_unless_aligned(self):
        # u = Z: only the aligned position avoids a second line.
        assert lines_per_item(32, 32) == pytest.approx(1 + 31 / 32)

    def test_line_plus_one_always_two_lines(self):
        assert lines_per_item(33, 32) == pytest.approx(2.0)

    def test_half_line(self):
        assert lines_per_item(16, 32) == pytest.approx(1 + 15 / 32)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lines_per_item(0, 32)

    def test_exhaustive_average_matches_formula(self):
        # Enumerate all Z alignments for several u and compare.
        z = 32
        for u in (1, 3, 8, 16, 31, 32, 33, 48, 64, 65):
            total = 0
            for align in range(z):
                first = align // z
                last = (align + u - 1) // z
                total += last - first + 1
            assert total / z == pytest.approx(lines_per_item(u, z))


class TestSTrav:
    def test_gap_below_line_loads_all_lines(self):
        # R.w - u = 0 < Z: |R| lines (Eq. 4.2).
        r = DataRegion("R", n=64, w=16)
        assert strav_count(r, 16, GEO) == 64  # 1024 B / 16 B

    def test_gap_below_line_ignores_u(self):
        r = DataRegion("R", n=64, w=16)
        assert strav_count(r, 8, GEO) == strav_count(r, 16, GEO)

    def test_gap_at_least_line_per_item(self):
        # w=32, u=8: gap 24 >= 16: per-item lines (Eq. 4.3).
        r = DataRegion("R", n=10, w=32)
        assert strav_count(r, 8, GEO) == pytest.approx(10 * lines_per_item(8, 16))

    def test_matches_simulator_dense(self):
        hw = tiny_test_machine()
        mem = MemorySystem(hw)
        n, w = 128, 8
        region = DataRegion("R", n=n, w=w)
        mem.replay(Segment(canonical_trace(STrav(region), 4096)))
        predicted = strav_count(region, w, GEO)
        assert mem.cache("L1").misses == predicted

    def test_matches_simulator_sparse_average(self):
        # Gap >= Z: average over alignments within 5%.
        hw = tiny_test_machine()
        n, w, u = 64, 48, 8
        total = 0
        for align in range(0, 16, 2):
            mem = MemorySystem(hw)
            pattern = STrav(DataRegion("R", n=n, w=w), u)
            mem.replay(Segment(canonical_trace(pattern, 4096 + align)))
            total += mem.cache("L1").misses
        measured = total / 8
        predicted = strav_count(DataRegion("R", n=n, w=w), u, GEO)
        assert measured == pytest.approx(predicted, rel=0.05)


class TestRTrav:
    def test_fitting_region_equals_sequential(self):
        # ||R|| <= C: same count as s_trav (Section 4.4 invariant).
        r = DataRegion("R", n=16, w=16)   # 256 B = C
        assert rtrav_count(r, 16, GEO) == strav_count(r, 16, GEO)

    def test_exceeding_region_costs_more_than_sequential(self):
        # w < Z so several items share a line; random order loses the
        # sharing once the region outgrows the cache (Eq. 4.4 extra term).
        r = DataRegion("R", n=64, w=8)   # 512 B > 256 B
        assert rtrav_count(r, 8, GEO) > strav_count(r, 8, GEO)

    def test_gap_at_least_line_equals_sequential(self):
        # Eq. 4.5 == Eq. 4.3 (Section 4.4 invariant).
        r = DataRegion("R", n=100, w=64)
        assert rtrav_count(r, 8, GEO) == strav_count(r, 8, GEO)

    def test_extra_misses_bounded_by_accesses(self):
        r = DataRegion("R", n=1000, w=16)
        assert rtrav_count(r, 16, GEO) <= r.n + r.lines(16)

    def test_matches_simulator_when_fitting(self):
        hw = tiny_test_machine()
        mem = MemorySystem(hw)
        n, w = 16, 16
        region = DataRegion("R", n=n, w=w)
        mem.replay(Segment(canonical_trace(RTrav(region), 4096, seed=3)))
        predicted = rtrav_count(region, w, GEO)
        assert mem.cache("L1").misses == predicted

    def test_matches_simulator_when_exceeding_no_sharing(self):
        # w = Z: one item per line, all misses compulsory.
        hw = tiny_test_machine()
        mem = MemorySystem(hw)
        n, w = 64, 16
        region = DataRegion("R", n=n, w=w)
        mem.replay(Segment(canonical_trace(RTrav(region), 4096, seed=3)))
        predicted = rtrav_count(region, w, GEO)
        assert mem.cache("L1").misses == predicted

    def test_matches_simulator_when_exceeding_with_sharing(self):
        # w < Z and ||R|| = 2C: the Eq. 4.4 extra term kicks in; expect
        # agreement within 25% averaged over seeds.
        hw = tiny_test_machine()
        n, w = 64, 8
        region = DataRegion("R", n=n, w=w)
        counts = []
        for seed in range(8):
            mem = MemorySystem(hw)
            mem.replay(Segment(canonical_trace(RTrav(region), 4096, seed)))
            counts.append(mem.cache("L1").misses)
        measured = sum(counts) / len(counts)
        predicted = rtrav_count(region, w, GEO)
        assert measured == pytest.approx(predicted, rel=0.25)


class TestRSTrav:
    def test_single_traversal_equals_strav(self):
        r = DataRegion("R", n=100, w=16)
        assert rstrav_count(r, 16, GEO, r=1, direction=UNI) == strav_count(r, 16, GEO)

    def test_fitting_region_only_first_traversal_pays(self):
        r = DataRegion("R", n=16, w=16)  # 16 lines = cache
        assert rstrav_count(r, 16, GEO, r=5, direction=UNI) == strav_count(r, 16, GEO)

    def test_unidirectional_pays_full_each_sweep(self):
        r = DataRegion("R", n=64, w=16)  # 64 lines > 16
        m1 = strav_count(r, 16, GEO)
        assert rstrav_count(r, 16, GEO, r=3, direction=UNI) == 3 * m1

    def test_bidirectional_saves_cache_tail(self):
        r = DataRegion("R", n=64, w=16)
        m1 = strav_count(r, 16, GEO)
        expected = m1 + 2 * (m1 - 16)
        assert rstrav_count(r, 16, GEO, r=3, direction=BI) == expected

    def test_bidirectional_never_beats_one_sweep(self):
        r = DataRegion("R", n=64, w=16)
        assert (rstrav_count(r, 16, GEO, r=2, direction=BI)
                >= strav_count(r, 16, GEO))

    def test_simulator_confirms_bidirectional_saving(self):
        hw = tiny_test_machine()
        n, w = 64, 16
        uni, bi = MemorySystem(hw), MemorySystem(hw)
        for mem, direction in ((uni, UNI), (bi, BI)):
            pattern = RSTrav(DataRegion("R", n, w), r=3, direction=direction)
            mem.replay(Segment(canonical_trace(pattern, 4096)))
        assert bi.cache("L1").misses < uni.cache("L1").misses
        predicted_uni = rstrav_count(DataRegion("R", n, w), w, GEO, 3, UNI)
        assert uni.cache("L1").misses == predicted_uni

    def test_unknown_direction_raises(self):
        r = DataRegion("R", n=64, w=16)
        with pytest.raises(ValueError):
            rstrav_count(r, 16, GEO, r=2, direction="diagonal")


class TestRRTrav:
    def test_single_equals_rtrav(self):
        r = DataRegion("R", n=100, w=16)
        assert rrtrav_count(r, 16, GEO, r=1) == rtrav_count(r, 16, GEO)

    def test_fitting_region_free_repeats(self):
        r = DataRegion("R", n=16, w=16)
        assert rrtrav_count(r, 16, GEO, r=10) == rtrav_count(r, 16, GEO)

    def test_partial_reuse_formula(self):
        r = DataRegion("R", n=64, w=16)
        m1 = rtrav_count(r, 16, GEO)
        expected = m1 + 2 * (m1 - 16 * 16 / m1)
        assert rrtrav_count(r, 16, GEO, r=3) == pytest.approx(expected)

    def test_repeats_cheaper_than_independent_traversals(self):
        r = DataRegion("R", n=32, w=16)  # 2x cache: some reuse
        assert rrtrav_count(r, 16, GEO, r=4) < 4 * rtrav_count(r, 16, GEO)
