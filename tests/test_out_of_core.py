"""The out-of-core execution tier (paper Section 7, executed).

Covers the disk-extended stack end to end: the buffer-pool simulator
level, the spilling operators (external merge sort, grace hash join,
spilling hash aggregate), budget-aware plan enumeration and explain,
session budget plumbing and cache keys, and the acceptance criterion —
a join+aggregate whose footprint exceeds the memory budget compiles to
a spilling plan, executes correctly, and its predicted pool-level cost
agrees with the buffer-pool simulator replay within the established
0.35 model-vs-simulator band.
"""

import collections

import pytest

from repro import Session
from repro.core import (
    CostModel,
    DataRegion,
    partition_capacity,
    spill_partition_count,
    spill_run_count,
)
from repro.db import (
    Database,
    GraceJoinResult,
    external_merge_sort,
    grace_hash_join,
    grouped_keys,
    hash_join,
    is_sorted,
    random_permutation,
    spilling_hash_aggregate,
)
from repro.hardware import (
    CacheLevel,
    MemoryHierarchy,
    disk_extended,
    disk_extended_scaled,
    modern_x86,
)
from repro.optimizer import AggregateAdvisor, JoinAdvisor, SortAdvisor
from repro.query import PlannerConfig, capture_measured
from repro.query.physical import (
    ExternalSortNode,
    GraceHashJoinNode,
    SpillingAggregateNode,
)
from repro.service.executor import record_trace, replay_interleaved
from repro.simulator import BufferPoolSim, MemorySystem

#: The repo's established model-vs-simulator relative tolerance.
BAND = 0.35


@pytest.fixture
def disk():
    """The simulation-sized disk-extended profile."""
    return disk_extended_scaled()


def within_band(predicted: float, measured: float, rel: float = BAND) -> bool:
    return abs(predicted - measured) <= rel * max(measured, 1.0)


# ----------------------------------------------------------------------
# Profiles: the buffer pool as one more cache level.
# ----------------------------------------------------------------------

class TestDiskProfiles:
    def test_disk_extended_marks_pool(self):
        hw = disk_extended(modern_x86())
        assert hw.has_buffer_pool
        assert hw.buffer_pool is hw.levels[-1]
        assert hw.buffer_pool.name == "BufferPool"
        assert hw.buffer_pool.is_pool and not hw.buffer_pool.is_tlb

    def test_scaled_profile_is_simulation_sized(self, disk):
        pool = disk.buffer_pool
        assert pool is not None
        assert pool.capacity <= 64 * 1024
        # seek/transfer ratio stays disk-like
        assert pool.rand_miss_latency_ns / pool.seq_miss_latency_ns >= 10

    def test_pure_memory_profiles_have_no_pool(self, disk):
        assert modern_x86().buffer_pool is None
        assert not modern_x86().has_buffer_pool

    def test_pool_must_be_outermost(self, disk):
        pool = disk.buffer_pool
        inner = disk.levels[:-1]
        with pytest.raises(ValueError, match="outermost"):
            MemoryHierarchy(name="bad", levels=(pool,) + inner)

    def test_pool_flag_survives_capacity_scaling(self, disk):
        shrunk = disk.scaled_capacities(2)
        assert shrunk.has_buffer_pool
        assert shrunk.buffer_pool.is_pool

    def test_pool_changes_fingerprint(self, disk):
        base = disk_extended_scaled()
        no_flag = MemoryHierarchy(
            name=base.name,
            levels=base.levels[:-1] + (CacheLevel(
                name="BufferPool",
                capacity=base.buffer_pool.capacity,
                line_size=base.buffer_pool.line_size,
                associativity=0,
                seq_miss_latency_ns=base.buffer_pool.seq_miss_latency_ns,
                rand_miss_latency_ns=base.buffer_pool.rand_miss_latency_ns,
            ),),
            tlbs=base.tlbs,
            cpu_speed_mhz=base.cpu_speed_mhz,
        )
        assert base.fingerprint() != no_flag.fingerprint()

    def test_pool_rejected_as_tlb(self):
        with pytest.raises(ValueError, match="data level"):
            CacheLevel(name="P", capacity=1024, line_size=128,
                       is_tlb=True, is_pool=True)


# ----------------------------------------------------------------------
# Buffer-pool simulation.
# ----------------------------------------------------------------------

class TestBufferPoolSim:
    def test_memory_system_instantiates_pool_sim(self, disk):
        mem = MemorySystem(disk)
        assert isinstance(mem.pool, BufferPoolSim)
        assert mem.pool is mem.caches[-1]
        # pure-memory hierarchies have no pool
        assert MemorySystem(modern_x86()).pool is None

    def test_writes_mark_pages_dirty_and_evictions_write_back(self, disk):
        mem = MemorySystem(disk)
        pool = mem.pool
        page = disk.buffer_pool.line_size
        pages = disk.buffer_pool.num_lines
        for i in range(pages):
            mem.write(i * page, 8)
        assert pool.dirty_pages == pages
        assert pool.write_backs == 0
        # one more page forces an eviction of a dirty page
        mem.write(pages * page, 8)
        assert pool.write_backs == 1
        assert pool.dirty_pages == pages  # evicted dirty out, new dirty in

    def test_reads_do_not_dirty(self, disk):
        mem = MemorySystem(disk)
        for i in range(disk.buffer_pool.num_lines * 2):
            mem.read(i * disk.buffer_pool.line_size, 8)
        assert mem.pool.dirty_pages == 0
        assert mem.pool.write_backs == 0

    def test_flush_counts_and_clears(self, disk):
        mem = MemorySystem(disk)
        mem.write(0, 8)
        mem.write(disk.buffer_pool.line_size, 8)
        assert mem.pool.flush() == 2
        assert mem.pool.dirty_pages == 0
        assert mem.pool.write_backs == 2

    def test_reset_clears_pool_state(self, disk):
        mem = MemorySystem(disk)
        mem.write(0, 8)
        mem.reset()
        assert mem.pool.dirty_pages == 0
        assert mem.pool.write_backs == 0

    def test_replay_returns_counter_delta(self, disk):
        trace = [(i * 8, 8) for i in range(512)]
        mem = MemorySystem(disk)
        delta = mem.replay(trace)
        direct = MemorySystem(disk)
        for addr, nbytes in trace:
            direct.access(addr, nbytes)
        snap = direct.snapshot()
        assert delta.accesses == snap.accesses == 512
        for level in disk.all_levels:
            assert delta.misses(level.name) == snap.misses(level.name)
        assert delta.elapsed_ns == snap.elapsed_ns

    def test_replay_accepts_write_flag(self, disk):
        mem = MemorySystem(disk)
        mem.replay([(0, 8, True), (8, 8, False)])
        assert mem.pool.dirty_pages == 1

    def test_interleaved_replay_forwards_the_write_flag(self, disk):
        """Write-carrying entries (3- and 6-field) through the
        interleaved replay dirty and write back the same pool pages as
        the one-trace replay and as direct execution."""
        pages = 2 * disk.buffer_pool.num_lines  # sweep twice the pool
        page = disk.buffer_pool.line_size
        trace = [(i * page, 8, True) for i in range(pages)] \
            + [("range", 0, 8, page, pages, True), (0, 8), (8, 8, False)]
        direct = MemorySystem(disk)
        for i in range(pages):
            direct.write(i * page, 8)
        direct.access_range(0, 8, page, pages, write=True)
        direct.read(0, 8)
        direct.read(8, 8)
        assert direct.pool.write_backs >= pages
        solo = MemorySystem(disk)
        solo.replay(trace)
        interleaved = MemorySystem(disk)
        interleaved.replay_interleaved([trace], quantum=7)
        for mem in (solo, interleaved):
            assert mem.pool.write_backs == direct.pool.write_backs
            assert mem.pool.dirty_pages == direct.pool.dirty_pages
            assert mem.snapshot() == direct.snapshot()
        # the service entry point used to crash unpacking these entries
        assert replay_interleaved(disk, [trace], quantum=7).counters \
            == direct.snapshot()


# ----------------------------------------------------------------------
# Spill policy (shared between engine, pattern builders, advisors).
# ----------------------------------------------------------------------

class TestSpillPolicy:
    def test_run_count_covers_input(self):
        U = DataRegion("U", n=1000, w=8)
        r = spill_run_count(U, 1024)
        assert r == 8  # 8000 bytes over 1 KB runs
        assert spill_run_count(U, 10**9) == 1

    def test_partition_count_is_power_of_two_and_fits(self):
        for table in (100, 4096, 65536):
            for budget in (512, 1000, 4096):
                m = spill_partition_count(table, budget)
                assert m & (m - 1) == 0
                assert table / m <= budget
                assert m == 1 or table / (m // 2) > budget  # minimal

    def test_partition_capacity_has_slack(self):
        assert partition_capacity(1024, 8) > 1024 // 8
        # and the engine allocates exactly that
        db = Database(disk_extended_scaled())
        col = db.create_column("U", random_permutation(1024, seed=5), width=8)
        from repro.db import partition
        parts = partition(db, col, 8)
        first = parts.clusters[0]
        second = parts.clusters[1]
        allocated_items = (second.address - first.address) // col.width
        assert allocated_items == partition_capacity(1024, 8)


# ----------------------------------------------------------------------
# Spilling operators: correctness.
# ----------------------------------------------------------------------

class TestSpillingOperators:
    def test_external_merge_sort_sorts(self, disk):
        db = Database(disk)
        col = db.create_column("U", random_permutation(777, seed=3), width=8)
        out = external_merge_sort(db, col, memory_budget=1024)
        assert out is not col  # merged into a fresh column
        assert is_sorted(out)
        assert out.values == sorted(range(777))

    def test_external_merge_sort_degenerates_in_place(self, disk):
        db = Database(disk)
        col = db.create_column("U", random_permutation(64, seed=4), width=8)
        out = external_merge_sort(db, col, memory_budget=1 << 20)
        assert out is col  # fits: plain in-place quick-sort
        assert is_sorted(col)

    def test_grace_hash_join_matches_plain_hash_join(self, disk):
        db = Database(disk)
        outer = db.create_column("U", random_permutation(512, seed=5), width=8)
        inner = db.create_column("V", random_permutation(512, seed=6), width=8)
        result = grace_hash_join(db, outer, inner, memory_budget=2048)
        assert isinstance(result, GraceJoinResult)
        assert result.partitions > 1
        joined = set()
        for out_col, outer_cluster, inner_cluster in zip(
                result.outputs, result.outer_parts.clusters,
                result.inner_parts.clusters):
            for i, j in out_col.values:
                joined.add((outer_cluster.values[i], inner_cluster.values[j]))
        ref_db = Database(disk)
        ref_outer = ref_db.create_column("U", list(outer.values), width=8)
        ref_inner = ref_db.create_column("V", list(inner.values), width=8)
        ref_out, _ = hash_join(ref_db, ref_outer, ref_inner)
        ref = {(ref_outer.values[i], ref_inner.values[table_payload])
               for i, table_payload in ref_out.values}
        assert joined == ref

    def test_grace_hash_join_degenerates_to_hash_join(self, disk):
        db = Database(disk)
        outer = db.create_column("U", random_permutation(64, seed=7), width=8)
        inner = db.create_column("V", random_permutation(64, seed=8), width=8)
        out, table = grace_hash_join(db, outer, inner, memory_budget=1 << 20)
        assert table is None
        assert out.n == 64

    def test_grace_tables_sized_from_planned_capacity(self, disk):
        """Per-partition tables follow the shared capacity policy, not
        each cluster's binomially varying fill — so the execution stays
        coupled to its pattern description."""
        db = Database(disk)
        outer = db.create_column("U", random_permutation(1024, seed=9), width=8)
        inner = db.create_column("V", random_permutation(1024, seed=10), width=8)
        result = grace_hash_join(db, outer, inner, memory_budget=2048)
        m = result.partitions
        from repro.core import hash_capacity
        expected_capacity = hash_capacity(partition_capacity(1024, m), 0.5)
        # all tables were sized identically (checked indirectly: every
        # partition pair joined fine with uniform capacity)
        assert expected_capacity * 16 <= 2 * 2048  # within 2x budget slack

    def test_spilling_hash_aggregate_counts_exactly(self, disk):
        db = Database(disk)
        col = db.create_column("E", grouped_keys(1500, groups=300, seed=11),
                               width=8)
        out = spilling_hash_aggregate(db, col, memory_budget=1024,
                                      groups_hint=300)
        got = {key: count for key, count in out.values}
        assert got == dict(collections.Counter(col.values))

    def test_spilling_hash_aggregate_key_of(self, disk):
        """Positional key extraction spills too: the input is
        partitioned by the *extracted* key (the oracle's group hint
        stays accurate, as the perfect-oracle assumption requires)."""
        db = Database(disk)
        pairs = [(i, i % 64) for i in range(512)]
        col = db.create_column("P", pairs, width=16)
        out = spilling_hash_aggregate(db, col, memory_budget=512,
                                      groups_hint=64,
                                      key_of=lambda value: value[1])
        got = {key: count for key, count in out.values}
        assert got == dict(collections.Counter(v[1] for v in pairs))


# ----------------------------------------------------------------------
# Budget-aware advisors and enumeration.
# ----------------------------------------------------------------------

class TestBudgetAwarePlanning:
    def test_join_advisor_swaps_to_grace_over_budget(self, disk):
        advisor = JoinAdvisor(disk, memory_budget=2048)
        U = DataRegion("U", n=1024, w=8)
        V = DataRegion("V", n=1024, w=8)
        names = [s.algorithm for s in advisor.candidate_specs(U, V)]
        assert "grace_hash_join" in names
        assert "hash_join" not in names
        assert "partitioned_hash_join" not in names
        assert "merge_join" in names  # streams; sort-ahead is budgeted
        small = DataRegion("S", n=16, w=8)
        names = [s.algorithm for s in advisor.candidate_specs(small, small)]
        assert "hash_join" in names and "grace_hash_join" not in names

    def test_sort_advisor_needs_external(self, disk):
        advisor = SortAdvisor(disk, memory_budget=2048)
        assert advisor.needs_external(DataRegion("U", n=1024, w=8))
        assert not advisor.needs_external(DataRegion("U", n=64, w=8))
        choice = advisor.best(DataRegion("U", n=1024, w=8))
        assert choice.algorithm == "external_merge_sort"

    def test_aggregate_advisor_spills_on_group_table(self, disk):
        advisor = AggregateAdvisor(disk, memory_budget=1024)
        specs = advisor.candidate_specs(groups=1024,
                                        U=DataRegion("U", n=4096, w=8))
        assert specs == ["spilling_hash_aggregate"]
        specs = advisor.candidate_specs(groups=16,
                                        U=DataRegion("U", n=16, w=8))
        assert "hash_aggregate" in specs and "sort_aggregate" in specs
        # input too big to sort in place: sort-based variant inadmissible
        specs = advisor.candidate_specs(groups=16,
                                        U=DataRegion("U", n=4096, w=8))
        assert "sort_aggregate" not in specs

    def test_no_budget_means_no_spilling_nodes(self, disk):
        s = Session(hierarchy=disk)
        s.create_table("orders", random_permutation(1024, seed=1))
        s.create_table("customers", random_permutation(1024, seed=2))
        planned = s.compile("aggregate(join(orders, customers), groups=1024)")
        assert not any(node.spills for node in planned.plan.root.walk())

    def test_budget_compiles_spilling_plan_exactly_when_exceeded(self, disk):
        tight = Session(hierarchy=disk, memory_budget=1536)
        roomy = Session(hierarchy=disk, memory_budget=1 << 24)
        for s in (tight, roomy):
            s.create_table("orders", random_permutation(1024, seed=1))
            s.create_table("customers", random_permutation(1024, seed=2))
        q = "aggregate(join(orders, customers), groups=1024)"
        spilled = tight.compile(q).plan
        in_mem = roomy.compile(q).plan
        assert any(node.spills for node in spilled.root.walk())
        assert not any(node.spills for node in in_mem.root.walk())

    def test_explain_shows_spill_decision_and_pool_rows(self, disk):
        s = Session(hierarchy=disk, memory_budget=1536)
        s.create_table("orders", random_permutation(1024, seed=1))
        s.create_table("customers", random_permutation(1024, seed=2))
        text = s.explain_query(
            "aggregate(join(orders, customers), groups=1024)").to_text()
        assert "[spill]" in text
        assert "BufferPool" in text
        for level in disk.all_levels:  # one cost row per level, pool incl.
            assert level.name in text

    def test_session_budget_in_cache_key_no_leak_across_budgets(self, disk):
        from repro.session import PlanCache
        shared = PlanCache()
        a = Session(hierarchy=disk, memory_budget=1536, cache=shared)
        b = Session(hierarchy=disk, cache=shared)
        db = a.db
        a.create_table("orders", random_permutation(1024, seed=1))
        a.create_table("customers", random_permutation(1024, seed=2))
        # same engine/catalog for b so the logical trees canonicalize
        # identically — only the budget differs
        b.db = db
        b._sorted.update(a._sorted)
        q = "aggregate(join(orders, customers), groups=1024)"
        spilled = a.compile(q)
        plain = b.compile(q)
        assert spilled is not plain
        assert any(n.spills for n in spilled.plan.root.walk())
        assert not any(n.spills for n in plain.plan.root.walk())
        # both live in the shared cache under distinct keys
        assert len(shared) == 2

    def test_conflicting_budgets_rejected(self, disk):
        config = PlannerConfig(memory_budget=1024)
        with pytest.raises(ValueError, match="conflicting"):
            Session(hierarchy=disk, config=config, memory_budget=2048)
        # matching or config-only budgets are fine
        assert Session(hierarchy=disk, config=config).memory_budget == 1024
        assert Session(hierarchy=disk, config=config,
                       memory_budget=1024).memory_budget == 1024

    def test_spilling_nodes_validate_budget(self, disk):
        db = Database(disk)
        col = db.create_column("U", random_permutation(64, seed=1), width=8)
        from repro.query.physical import ScanNode
        with pytest.raises(ValueError):
            ExternalSortNode(ScanNode(col), memory_budget=0)
        with pytest.raises(ValueError):
            GraceHashJoinNode(ScanNode(col), ScanNode(col), memory_budget=0)
        with pytest.raises(ValueError):
            SpillingAggregateNode(ScanNode(col), memory_budget=0)


# ----------------------------------------------------------------------
# Acceptance: spilling plan, correct result, pool-level agreement.
# ----------------------------------------------------------------------

class TestOutOfCoreAcceptance:
    BUDGET = 1536

    @pytest.fixture
    def session(self, disk):
        s = Session(hierarchy=disk, memory_budget=self.BUDGET)
        s.create_table("orders", random_permutation(1024, seed=1))
        s.create_table("customers", random_permutation(1024, seed=2))
        return s

    QUERY = "aggregate(join(orders, customers), groups=1024)"

    def test_join_aggregate_spills_executes_and_agrees(self, session, disk):
        planned = session.compile(self.QUERY)
        plan = planned.plan

        # 1. the footprint exceeds the budget -> a spilling plan, and
        #    the decision is visible in explain
        spillers = [n for n in plan.root.walk() if n.spills]
        assert spillers, "expected at least one spilling operator"
        assert "[spill]" in session.explain_query(self.QUERY).to_text()

        # 2. executes correctly against the engine's reference result:
        #    both tables are permutations of 0..1023, so every key
        #    joins exactly once and every group counts 1
        measured = session.execute_measured(self.QUERY, restore=True)
        out, snapshot = measured.column, measured.counters
        counts = {key: count for key, count in out.values}
        assert counts == {key: 1 for key in range(1024)}

        # 3. predicted pool-level cost agrees with the buffer-pool
        #    simulator within the established band — misses and time
        estimate = plan.estimate(session.model, cpu_ns=0.0)
        pool_pred = estimate.level("BufferPool")
        pool_meas = snapshot.level("BufferPool")
        assert within_band(pool_pred.misses.total, pool_meas.misses)
        measured_pool_ns = (
            pool_meas.seq_misses * disk.buffer_pool.seq_miss_latency_ns
            + pool_meas.rand_misses * disk.buffer_pool.rand_miss_latency_ns)
        assert within_band(pool_pred.time_ns, measured_pool_ns)
        # and the whole-plan memory time stays in the band too
        assert within_band(estimate.memory_ns, snapshot.elapsed_ns)

    def test_trace_replay_tracks_direct_execution(self, session, disk):
        """Replaying a recorded plan trace through a fresh pool-level
        MemorySystem reproduces the direct execution's measurement.
        Each execution allocates fresh output columns (different
        addresses, hence slightly different line/page alignments), so
        the comparison is close, not bit-exact."""
        plan = session.compile(self.QUERY).plan
        recording, shift = record_trace(session, plan)
        replayed = MemorySystem(disk).replay(recording.segment(shift))
        direct = session.execute_measured(self.QUERY, restore=True).counters
        assert replayed.misses("BufferPool") == pytest.approx(
            direct.misses("BufferPool"), rel=0.05)
        assert replayed.elapsed_ns == pytest.approx(
            direct.elapsed_ns, rel=0.10)

    @pytest.mark.parametrize("query", [
        "join(orders, customers)", QUERY])
    def test_recorded_writes_replay_as_direct_execution(self, disk, query):
        """A recorded trace keeps the write flag: replayed through a
        cold pool, it dirties and writes back exactly the pages the
        direct execution does, on an identically built engine at the
        same allocator position."""
        def engine():
            s = Session(hierarchy=disk, memory_budget=self.BUDGET)
            s.create_table("orders", random_permutation(1024, seed=1))
            s.create_table("customers", random_permutation(1024, seed=2))
            return s, s.compile(query).plan

        (session, plan), (twin, twin_plan) = engine(), engine()
        assert session.db.allocator.next_address == \
            twin.db.allocator.next_address
        replayer = MemorySystem(disk)
        recording, shift = record_trace(session, plan)
        replayed = replayer.replay(recording.segment(shift))
        with twin._restoring(True), \
                twin.db.execution_scope(twin.config.execution):
            measured = capture_measured(
                twin.db, twin_plan, twin_plan.explanation(twin.model))
        direct = twin.db.mem
        assert replayed == measured.counters
        assert direct.pool.write_backs > 0
        assert replayer.pool.write_backs == direct.pool.write_backs

    def test_grace_join_beats_spilled_hash_table_on_disk(self, session, disk):
        """The decision the budget encodes, measured: a plain hash join
        whose table overflows the pool pays a seek per random probe,
        while the grace join's partition passes keep the I/O
        near-sequential and its per-partition tables pool-resident."""
        from repro.query.physical import HashJoinNode, QueryPlan, ScanNode
        db = session.db
        orders = db.column("orders")
        customers = db.column("customers")
        plain = QueryPlan(HashJoinNode(ScanNode(orders),
                                       ScanNode(customers)))
        grace = QueryPlan(GraceHashJoinNode(ScanNode(orders),
                                            ScanNode(customers),
                                            memory_budget=self.BUDGET))
        def replayed_ns(plan):
            recording, shift = record_trace(session, plan)
            return MemorySystem(disk).replay(
                recording.segment(shift)).elapsed_ns

        t_plain, t_grace = replayed_ns(plain), replayed_ns(grace)
        assert t_grace < t_plain
        # and the model predicts the same ordering
        model = CostModel(disk)
        assert (grace.estimate(model, cpu_ns=0.0).memory_ns
                < plain.estimate(model, cpu_ns=0.0).memory_ns)


# ----------------------------------------------------------------------
# Service layer: co-run prediction over the pool level.
# ----------------------------------------------------------------------

class TestOutOfCoreService:
    def test_interference_model_divides_pool_level(self, disk):
        from repro.service import InterferenceModel
        s = Session(hierarchy=disk, memory_budget=1536)
        s.create_table("orders", random_permutation(1024, seed=1))
        s.create_table("customers", random_permutation(1024, seed=2))
        plan_a = s.compile("join(orders, customers)").plan
        plan_b = s.compile("aggregate(orders, groups=512)").plan
        im = InterferenceModel(disk)
        pred = im.co_run([plan_a, plan_b])
        # contended memory time covers the pool level: each member's
        # inflated time is at least its standalone time
        for inflated, solo in zip(pred.memory_ns, pred.solo_memory_ns):
            assert inflated >= solo * 0.99
        assert pred.batch_memory_ns >= pred.serial_memory_ns * 0.99

    def test_out_of_core_workload_preset(self):
        from repro.service import WorkloadGenerator
        gen = WorkloadGenerator.out_of_core(seed=3, scale=512,
                                            memory_budget=1024)
        assert gen.session.hierarchy.has_buffer_pool
        assert gen.session.memory_budget == 1024
        queries = gen.generate(8, clients=2)
        assert len(queries) == 8
        # deterministic in the seed
        again = WorkloadGenerator.out_of_core(seed=3, scale=512,
                                              memory_budget=1024)
        assert [q.text for q in again.generate(8, clients=2)] == \
            [q.text for q in queries]

    def test_service_executes_out_of_core_batches(self):
        from repro.service import ServiceExecutor, WorkloadGenerator
        gen = WorkloadGenerator.out_of_core(seed=7, scale=512,
                                            memory_budget=1024)
        workload = gen.generate(4, clients=2)
        report = ServiceExecutor(gen.session, max_batch=2).run(workload)
        assert len(report.queries) == 4
        assert report.makespan_ns > 0


# ----------------------------------------------------------------------
# Review-found regressions (each was observed before being fixed).
# ----------------------------------------------------------------------

class TestReviewRegressions:
    def test_grace_non_spill_path_recovers_outer_keys(self, disk):
        """A grace node whose budget makes it degenerate to a plain
        hash join must still recover join keys by *outer oid* (pairs
        are (outer row, inner payload)), including when not every outer
        row matches."""
        from repro.query.physical import QueryPlan, ScanNode
        db = Database(disk)
        outer = db.create_column("U", list(range(16)), width=8)
        inner = db.create_column("V", [v for v in range(16) if v % 2 == 0],
                                 width=8)
        node = GraceHashJoinNode(ScanNode(outer), ScanNode(inner),
                                 memory_budget=1 << 20)
        assert not node.spills
        out = QueryPlan(node).execute(db)
        keys = [node.recover_key(row, value)
                for row, value in enumerate(out.values)]
        assert sorted(keys) == [v for v in range(16) if v % 2 == 0]

    def test_selective_join_still_spills(self, disk):
        """The fan-out follows the *inputs*: a selective join (tiny
        output) over an over-budget build table must still be modelled,
        marked, and priced as spilling — matching what the engine
        executes."""
        from repro.query.physical import QueryPlan, ScanNode
        db = Database(disk)
        outer = db.create_column("U", random_permutation(512, seed=1),
                                 width=8)
        inner = db.create_column("V", random_permutation(512, seed=2),
                                 width=8)
        node = GraceHashJoinNode(ScanNode(outer), ScanNode(inner),
                                 match_fraction=0.01, memory_budget=1024)
        assert node.spills
        assert node.effective_partitions() > 1
        # the pattern is the partitioned (grace) one, not the
        # inadmissible in-memory hash join
        names = [r.name for r in node.pattern().regions()]
        assert any(name.startswith("P(") for name in names)
        model = CostModel(disk)
        text = QueryPlan(node).explain(model)
        assert "[spill]" in text

    def test_rstrav_resident_region_charges_one_stream_start(self, disk):
        """Repeated sweeps over a cache-resident region miss only once:
        exactly one random stream-start, not one per sweep (the paper's
        nested-loop inner-scan regime)."""
        from repro.core import RSTrav
        model = CostModel(disk)
        region = DataRegion("R", n=256, w=8)  # 2 KB: fits the 4 KB pool
        pair = model.level_misses(RSTrav(region, r=64),
                                  disk.level("BufferPool"))
        assert pair.rand == 1.0
        # and the simulator agrees
        mem = MemorySystem(disk)
        for _ in range(64):
            mem.replay((i * 8, 8) for i in range(256))
        level = mem.snapshot().level("BufferPool")
        assert level.rand_misses == 1
        assert pair.total == pytest.approx(level.misses, rel=BAND)

    def test_custom_budgeted_registry_with_default_config(self, disk):
        """The planner config's budget is the one budget: every
        spilling node of every candidate is built with it."""
        from repro.query import Optimizer
        from repro.query.logical import Aggregate, Join, Relation
        db = Database(disk)
        a = db.create_column("A", random_permutation(512, seed=1), width=8)
        b = db.create_column("B", random_permutation(512, seed=2), width=8)
        opt = Optimizer(disk, PlannerConfig(memory_budget=1024))
        planned = opt.optimize(Aggregate(
            Join(Relation.of_column(a), Relation.of_column(b)), groups=512))
        spillers = [n for cand in planned for n in cand.plan.root.walk()
                    if n.spills]
        assert spillers
        for node in spillers:
            assert node.memory_budget == 1024

    def test_skewed_groups_repartition_instead_of_crashing(self, disk):
        """Partitioning by grouping key lands whole groups in one
        buffer; a hot group overflows the binomially sized buffer, and
        the engine must re-partition with wider buffers (the measured
        re-spill), not crash."""
        db = Database(disk)
        values = [0] * 200 + grouped_keys(824, groups=63, seed=9)
        col = db.create_column("hot", [v if i < 200 else v + 1
                                       for i, v in enumerate(values)],
                               width=8)
        out = spilling_hash_aggregate(db, col, memory_budget=256,
                                      groups_hint=64)
        got = {key: count for key, count in out.values}
        assert got == dict(collections.Counter(col.values))

    def test_duplicate_heavy_grace_join_repartitions(self, disk):
        """A duplicate-heavy outer side skews its cluster fills the
        same way; the grace join retries with wider buffers and stays
        correct."""
        db = Database(disk)
        outer = db.create_column("U", [7] * 300 + list(range(100, 312)),
                                 width=8)
        inner = db.create_column("V", [7] + list(range(500, 1011)), width=8)
        result = grace_hash_join(db, outer, inner, memory_budget=512)
        assert isinstance(result, GraceJoinResult)
        assert result.n == 300  # every hot-key outer row matches once

    def test_join_advisor_rank_mirrors_candidate_specs(self, disk):
        """When the spill fan-out clamps to 1 (single-row input), rank
        must not offer a grace choice that candidate_specs excludes."""
        advisor = JoinAdvisor(disk, memory_budget=1024)
        U = DataRegion("U", n=1, w=8)
        V = DataRegion("V", n=4096, w=8)
        W = DataRegion("W", n=1, w=16)
        spec_names = {s.algorithm for s in advisor.candidate_specs(U, V)}
        rank_names = {c.algorithm for c in advisor.rank(U, V, W)}
        assert rank_names == spec_names == {"merge_join"}

    def test_zero_budget_override_rejected(self, disk):
        """A zero budget is rejected where it is set — by the planner
        config, before any session compiles (and caches) a plan."""
        with pytest.raises(ValueError, match="memory_budget"):
            PlannerConfig(memory_budget=0)
        with pytest.raises(ValueError, match="memory_budget"):
            Session(hierarchy=disk, memory_budget=0)
