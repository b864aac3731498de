"""Allocator, columns, context and the unary operators."""

import pytest

from repro.db import (
    Allocator,
    Column,
    Database,
    project,
    scan,
    select,
    uniform_ints,
)


class TestAllocator:
    def test_monotonic(self):
        alloc = Allocator()
        a = alloc.allocate(100)
        b = alloc.allocate(100)
        assert b >= a + 100

    def test_alignment(self):
        alloc = Allocator(base=1)
        addr = alloc.allocate(10, alignment=64)
        assert addr % 64 == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Allocator().allocate(0)

    def test_bytes_allocated(self):
        alloc = Allocator()
        alloc.allocate(100)
        alloc.allocate(28)
        assert alloc.bytes_allocated == 128

    def test_a_watched_run_relocates_by_its_alignments(self):
        """What the trace cache relies on: a run started a multiple of
        its alignments higher hands out the same addresses shifted, and
        ``advance`` leaves the allocator where the run does."""
        def run(alloc):
            return [alloc.allocate(n, alignment=a)
                    for n, a in ((5, None), (24, 16), (3, 1))]

        first = Allocator(base=100)
        with first.watch() as alignments:
            addresses = run(first)
        assert alignments == {8, 16, 1}
        span = first.next_address - 100
        for shift in (16, 48):
            again = Allocator(base=100 + shift)
            assert run(again) == [a + shift for a in addresses]
            skipped = Allocator(base=100 + shift)
            skipped.advance(span, first.bytes_allocated)
            assert (skipped.next_address, skipped.bytes_allocated) == \
                (again.next_address, again.bytes_allocated)


class TestColumn:
    def test_item_address(self):
        col = Column("c", width=8, address=1000, values=[1, 2, 3])
        assert col.item_address(2) == 1016

    def test_region_matches_geometry(self):
        col = Column("c", width=8, address=0, values=[0] * 10)
        region = col.region()
        assert region.n == 10 and region.w == 8

    def test_read_reports_access(self, tiny):
        db = Database(tiny)
        col = db.create_column("c", [1, 2, 3], width=8)
        before = db.mem.accesses
        assert col.read(db.mem, 1) == 2
        assert db.mem.accesses == before + 1

    def test_write_updates_value(self, tiny):
        db = Database(tiny)
        col = db.create_column("c", [1, 2, 3], width=8)
        col.write(db.mem, 0, 42)
        assert col.peek(0) == 42

    def test_swap(self, tiny):
        db = Database(tiny)
        col = db.create_column("c", [1, 2], width=8)
        col.swap(db.mem, 0, 1)
        assert col.values == [2, 1]

    def test_empty_column_allowed(self):
        # Join/selection results may be empty; the region view falls back
        # to one item (regions are never empty in the model).
        col = Column("c", width=8, address=0, values=[])
        assert col.n == 0
        assert col.region().n == 1


class TestDatabase:
    def test_columns_do_not_overlap(self, tiny):
        db = Database(tiny)
        a = db.create_column("a", [0] * 100, width=8)
        b = db.create_column("b", [0] * 100, width=8)
        assert b.address >= a.address + a.size

    def test_creation_is_not_measured(self, tiny):
        db = Database(tiny)
        db.create_column("a", [0] * 100, width=8)
        assert db.mem.accesses == 0

    def test_measure_delta(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", list(range(16)), width=8)
        with db.measure() as result:
            scan(db, col)
        assert result[0].accesses == 16

    def test_reset_clears_counters(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", [1], width=8)
        scan(db, col)
        db.reset()
        assert db.mem.accesses == 0

    def test_execute_measured_cold_resets_counters(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", list(range(16)), width=8)
        scan(db, col)  # pollute caches and counters
        assert db.mem.accesses == 16

        class ScanPlan:
            def execute(self, database):
                return scan(database, col)

        _, delta = db.execute_measured(ScanPlan())
        # cold=True resets first: the delta is the plan's own accesses
        # and the global counters restart from zero
        assert delta.accesses == 16
        assert db.mem.accesses == 16

    def test_execute_measured_warm_keeps_state(self, tiny):
        """``cold=False`` must not reset: counters accumulate across
        runs and the second (warm-cache) run misses less."""
        db = Database(tiny)
        col = db.create_column("a", list(range(16)), width=8)

        class ScanPlan:
            def execute(self, database):
                return scan(database, col)

        _, cold_delta = db.execute_measured(ScanPlan())
        _, warm_delta = db.execute_measured(ScanPlan(), cold=False)
        # no reset happened: global counters hold both runs' accesses
        assert db.mem.accesses == cold_delta.accesses + warm_delta.accesses
        # the column is L1/L2-resident after the cold run
        assert warm_delta.misses("L1") < cold_delta.misses("L1")
        assert warm_delta.elapsed_ns < cold_delta.elapsed_ns

    def test_register_and_lookup_catalog(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", [1, 2], width=8)
        assert db.register(col) is col
        assert db.column("a") is col
        db.register(col, name="alias")
        assert db.column("alias") is col
        with pytest.raises(KeyError, match="no registered table"):
            db.column("missing")

    def test_set_hierarchy_keeps_catalog_and_data(self, tiny):
        from repro.hardware import origin2000_scaled
        db = Database(tiny)
        col = db.register(db.create_column("a", [3, 1, 2], width=8))
        scan(db, col)
        db.set_hierarchy(origin2000_scaled())
        assert db.hierarchy.name != tiny.name
        assert db.column("a").values == [3, 1, 2]
        assert db.mem.accesses == 0  # fresh (cold) memory system


class TestScanSelectProject:
    def test_scan_checksum(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", [1, 2, 3], width=8)
        assert scan(db, col) == 6

    def test_scan_touches_each_item_once(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", list(range(64)), width=8)
        with db.measure() as result:
            scan(db, col)
        assert result[0].accesses == 64
        # Dense column: |R| L1 misses.
        assert result[0].misses("L1") == col.size // 16

    def test_scan_used_bytes_validated(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", [1], width=8)
        with pytest.raises(ValueError):
            scan(db, col, used_bytes=16)

    def test_select_filters(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", list(range(10)), width=8)
        out = select(db, col, lambda v: v % 2 == 0)
        assert out.values == [0, 2, 4, 6, 8]

    def test_select_empty_result(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", [1, 3], width=8)
        out = select(db, col, lambda v: v > 10)
        assert out.values == []

    def test_project_copies(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", [7, 8], width=8)
        out = project(db, col, used_bytes=4)
        assert out.values == [7, 8]
        assert out.width == 4

    def test_project_validates_u(self, tiny):
        db = Database(tiny)
        col = db.create_column("a", [7], width=8)
        with pytest.raises(ValueError):
            project(db, col, used_bytes=9)
