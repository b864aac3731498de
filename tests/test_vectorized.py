"""Differential suite for the vectorized execution engine.

The vectorized engine's contract is *exact equivalence*: for every
operator and every whole plan, vectorized execution must produce the
identical result column AND the identical simulator counter delta as
the scalar interpreter — the chunked kernels and the range-coalesced
reporting API only change how many Python calls carry the access
stream, never the stream itself.  These tests pin that contract:

* operator-by-operator differentials (spilling operators included) on
  the tiny and scaled profiles;
* the composed kernels of that table held, in both modes, to a golden
  recorded before the compositions lost their ``_v`` copies (scalar ==
  vectorized alone would not notice both drifting together);
* the seeded template sweep through full sessions on both the in-memory
  and disk-extended profiles;
* golden-explain byte-identity across modes;
* hypothesis property tests that ``access_range`` and ``batch()`` are
  access-for-access identical to per-item ``access`` loops;
* the service-layer trace format (coalesced range entries) replaying
  identically to scalar traces at every quantum.
"""

import importlib
import inspect
import json
import os
import pathlib
import random
import zlib
from dataclasses import replace

import pytest

from repro import Session
from repro.db import (
    Column,
    Database,
    GraceJoinResult,
    IntVector,
    Partitions,
    SimHashTable,
    external_merge_sort,
    grace_hash_join,
    grouped_keys,
    hash_aggregate,
    hash_distinct,
    hash_join,
    merge_join,
    nested_loop_join,
    partition,
    probe_join,
    project,
    quick_sort,
    random_permutation,
    scan,
    select,
    sort_aggregate,
    sort_distinct,
    spilling_hash_aggregate,
)
from repro.hardware import (
    CacheLevel,
    disk_extended_scaled,
    origin2000_scaled,
    parametric_profile,
    tiny_test_machine,
)
from repro.hardware.profiles import TINY_MACHINE
from repro.query import PartitionedHashJoinNode, PlannerConfig, ScanNode
from repro.service.executor import (
    BatchReplay,
    TraceRecorder,
    record_trace,
    replay_interleaved,
    trace_length,
)
from repro.simulator.memory import MemorySystem
from test_service import recorded_trace

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

PROFILES = {"tiny": tiny_test_machine, "scaled": origin2000_scaled,
            "disk": disk_extended_scaled}


def seeded_values(n=400, span=200, seed=11):
    rng = random.Random(seed)
    return [rng.randrange(0, span) for _ in range(n)]


def normalize(out):
    """A mode-independent rendering of any operator result."""
    if isinstance(out, Column):
        return (out.name, out.width, out.address,
                type(out.values).__name__, list(out.values))
    if isinstance(out, Partitions):
        return [normalize(c) for c in out.clusters]
    if isinstance(out, GraceJoinResult):
        return ([normalize(o) for o in out.outputs], out.partitions)
    if isinstance(out, SimHashTable):
        return (out.name, out.capacity, out.address, out.entries)
    if isinstance(out, tuple):
        return tuple(normalize(o) for o in out)
    return out


def run_both(hierarchy_factory, operation):
    """Run ``operation(db)`` under both modes on fresh engines; return
    the two (result, memory-state, error) observations."""
    observed = {}
    for mode in ("scalar", "vectorized"):
        db = Database(hierarchy_factory())
        with db.execution_scope(mode):
            try:
                result, error = normalize(operation(db)), None
            except Exception as exc:  # noqa: BLE001 - parity check
                result, error = None, (type(exc).__name__, str(exc))
        observed[mode] = (result, error, repr(db.mem.snapshot()),
                          db.mem.accesses, db.mem.elapsed_ns)
    return observed["scalar"], observed["vectorized"]


VALUES = seeded_values()
SORTED_A = sorted(seeded_values(400, 500, seed=12))
SORTED_B = sorted(seeded_values(200, 500, seed=13))
PERMUTATION = random_permutation(256, seed=5)

OPERATIONS = {
    "scan": lambda db: scan(db, db.create_column("U", VALUES)),
    "scan_narrow": lambda db: scan(db, db.create_column("U", VALUES),
                                   used_bytes=4),
    "select": lambda db: select(db, db.create_column("U", VALUES),
                                lambda v: v % 3 == 0),
    "select_none": lambda db: select(db, db.create_column("U", VALUES),
                                     lambda v: False),
    "project": lambda db: project(db, db.create_column("U", VALUES), 4),
    "quick_sort": lambda db: quick_sort(db, db.create_column("U", VALUES)),
    "sort_dups": lambda db: quick_sort(db, db.create_column("U", [7] * 64)),
    "merge_join": lambda db: merge_join(db, db.create_column("U", SORTED_A),
                                        db.create_column("V", SORTED_B)),
    "nested_loop": lambda db: nested_loop_join(
        db, db.create_column("U", VALUES[:60]),
        db.create_column("V", VALUES[30:90])),
    "hash_join": lambda db: hash_join(db, db.create_column("U", VALUES),
                                      db.create_column("V", VALUES[:200])),
    "probe_join": lambda db: probe_join(
        db, db.create_column("U", VALUES),
        SimHashTable.build(db, db.create_column("V", VALUES[:150]))),
    "hash_aggregate": lambda db: hash_aggregate(
        db, db.create_column("U", VALUES)),
    "hash_aggregate_key": lambda db: hash_aggregate(
        db, db.create_column("U", VALUES), key_of=lambda v: v % 7),
    "sort_aggregate": lambda db: sort_aggregate(
        db, db.create_column("U", list(VALUES))),
    "hash_distinct": lambda db: hash_distinct(
        db, db.create_column("U", VALUES)),
    "sort_distinct": lambda db: sort_distinct(
        db, db.create_column("U", list(VALUES))),
    "partition": lambda db: partition(db, db.create_column("U", VALUES), 8),
    "partition_skew": lambda db: partition(
        db, db.create_column("U", [1] * 64), 4),
    "external_sort": lambda db: external_merge_sort(
        db, db.create_column("U", VALUES), 1024),
    "external_sort_fits": lambda db: external_merge_sort(
        db, db.create_column("U", VALUES), 1 << 20),
    "grace_join": lambda db: grace_hash_join(
        db, db.create_column("U", VALUES),
        db.create_column("V", VALUES[:200]), 2048),
    # duplicate keys overflow the join output above (error parity);
    # unique keys run the same kernels to the end
    "hash_join_unique": lambda db: hash_join(
        db, db.create_column("U", PERMUTATION),
        db.create_column("V", PERMUTATION[::2])),
    "grace_join_unique": lambda db: grace_hash_join(
        db, db.create_column("U", PERMUTATION),
        db.create_column("V", PERMUTATION[::2]), 1024),
    "grace_join_fits": lambda db: grace_hash_join(
        db, db.create_column("U", PERMUTATION),
        db.create_column("V", PERMUTATION[::2]), 1 << 20),
    "spilling_aggregate": lambda db: spilling_hash_aggregate(
        db, db.create_column("U", VALUES), 1024),
    # seven keys over sixteen partitions: the skew retry runs too
    "spilling_aggregate_key": lambda db: spilling_hash_aggregate(
        db, db.create_column("U", VALUES), 1024, key_of=lambda v: v % 7),
    "spilling_aggregate_fits": lambda db: spilling_hash_aggregate(
        db, db.create_column("U", VALUES), 1 << 20),
    "partitioned_plan": lambda db: PartitionedHashJoinNode(
        ScanNode(column=db.create_column("U", PERMUTATION)),
        ScanNode(column=db.create_column("V", PERMUTATION[::2])),
        partitions=4).execute(db),
    "aggregate_pairs": lambda db: hash_aggregate(
        db, hash_join(db, db.create_column("U", VALUES),
                      db.create_column("V", VALUES[:200]))[0],
        key_of=lambda pair: pair[0]),
    # error-path parity: the vectorized twin must simulate the same
    # accesses up to the same failure
    "scan_bad_width": lambda db: scan(db, db.create_column("U", VALUES),
                                      used_bytes=99),
    "partition_overflow": lambda db: partition(
        db, db.create_column("U", [3] * 64), 4, slack_sigmas=0.0),
}


class TestOperatorDifferential:
    """Every db-level operator: identical results, counters, errors."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("op", sorted(OPERATIONS))
    def test_scalar_vs_vectorized(self, profile, op):
        scalar, vectorized = run_both(PROFILES[profile], OPERATIONS[op])
        assert scalar == vectorized


GOLDEN = pathlib.Path(__file__).parent / "golden" / "composed_kernels.json"

#: The kernels that are compositions of other kernels (plus the two
#: sort-then-pass ones), degenerate no-spill cases included.
COMPOSED = [
    "external_sort", "external_sort_fits", "grace_join_fits",
    "grace_join_unique", "hash_join_unique", "partitioned_plan",
    "sort_aggregate", "sort_distinct", "spilling_aggregate",
    "spilling_aggregate_fits", "spilling_aggregate_key"]


def _columns(out):
    if isinstance(out, Column):
        return [out]
    if isinstance(out, GraceJoinResult):
        return out.outputs
    if isinstance(out, tuple):
        return [col for part in out for col in _columns(part)]
    return []


#: ``profile/operation`` — one golden record each.
PINNED = [f"{profile}/{op}" for profile in ("scaled", "disk")
          for op in COMPOSED]


def observe_composed(case, mode):
    """One composed kernel on a fresh engine: what it returned, what the
    simulator counted, and where it left the allocator (later operators'
    addresses, hence their misses, depend on it)."""
    profile, op = case.split("/")
    db = Database(PROFILES[profile]())
    with db.execution_scope(mode):
        out = OPERATIONS[op](db)
    return {
        "rows": sum(col.n for col in _columns(out)),
        "checksum": zlib.crc32(repr(normalize(out)).encode()),
        "counters": db.mem.snapshot().as_dict(),
        "elapsed_ns": db.mem.elapsed_ns,
        "next_address": db.allocator.next_address,
    }


class TestComposedKernelsPinned:
    """Both modes equal the recorded parent, not merely each other.
    Regenerate (``REPRO_UPDATE_GOLDEN=1``) only for a change that means
    to move a simulated number."""

    def test_golden_is_complete(self):
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN.write_text(json.dumps(
                {case: observe_composed(case, "scalar") for case in PINNED},
                indent=1, sort_keys=True) + "\n")
        assert sorted(json.loads(GOLDEN.read_text())) == sorted(PINNED)

    @pytest.mark.parametrize("mode", ["scalar", "vectorized"])
    @pytest.mark.parametrize("case", PINNED)
    def test_equals_the_recorded_run(self, case, mode):
        expected = json.loads(GOLDEN.read_text())[case]
        assert observe_composed(case, mode) == expected


class TestStorage:
    """Contiguous integer columns and their demotion/fast-path rules."""

    def test_integer_columns_are_contiguous(self, scaled):
        db = Database(scaled)
        col = db.create_column("U", [3, 1, 2])
        assert type(col.values) is IntVector
        assert col.values == [3, 1, 2]
        assert [3, 1, 2] == col.values
        assert col.values != [3, 1]

    def test_pair_columns_fall_back_to_lists(self, scaled):
        db = Database(scaled)
        out, _ = hash_join(db, db.create_column("U", [1, 2, 3]),
                           db.create_column("V", [2, 3, 4]))
        assert type(out.values) is list

    def test_write_demotes_on_non_integer_value(self, scaled):
        db = Database(scaled)
        col = db.create_column("U", [1, 2, 3])
        col.write(db.mem, 1, (4, 5))
        assert type(col.values) is list
        assert col.values[1] == (4, 5)

    def test_execution_scope_validates_and_restores(self, scaled):
        db = Database(scaled)
        assert db.execution == "scalar"
        with db.execution_scope("vectorized"):
            assert db.execution == "vectorized"
            with db.execution_scope("scalar"):
                assert db.execution == "scalar"
            assert db.execution == "vectorized"
        assert db.execution == "scalar"
        with pytest.raises(ValueError, match="execution mode"):
            with db.execution_scope("simd"):
                pass


def make_session(hierarchy_factory, execution, memory_budget=None):
    s = Session(hierarchy=hierarchy_factory(), execution=execution,
                memory_budget=memory_budget)
    s.create_table("orders", random_permutation(1024, seed=1))
    s.create_table("customers", random_permutation(1024, seed=2))
    s.create_table("events", grouped_keys(1024, groups=64, seed=3))
    s.predicate("even", lambda v: v % 2 == 0)
    return s


TEMPLATES = [
    "filter(orders, even, sel=0.5)",
    "sort(orders)",
    "join(orders, customers)",
    "aggregate(events, groups=64)",
    "aggregate(join(filter(orders, even, sel=0.5), customers), groups=512)",
    "sort(events)",
]

SWEEPS = [("scaled", origin2000_scaled, None),
          ("disk", disk_extended_scaled, 1536)]


class TestTemplateSweepDifferential:
    """Whole plans through full sessions: identical result columns and
    identical counter deltas on the in-memory and spilling profiles."""

    @pytest.mark.parametrize("query", TEMPLATES)
    @pytest.mark.parametrize("profile,factory,budget",
                             SWEEPS, ids=[s[0] for s in SWEEPS])
    def test_measured_runs_match(self, profile, factory, budget, query):
        observed = {}
        for mode in ("scalar", "vectorized"):
            session = make_session(factory, mode, memory_budget=budget)
            measured = session.execute_measured(query, restore=True)
            observed[mode] = (list(measured.column.values),
                             repr(measured.counters),
                             measured.measured_ns)
        assert observed["scalar"] == observed["vectorized"]

    @pytest.mark.parametrize("profile,factory,budget",
                             SWEEPS, ids=[s[0] for s in SWEEPS])
    def test_explanations_byte_identical(self, profile, factory, budget):
        rendered = {}
        for mode in ("scalar", "vectorized"):
            session = make_session(factory, mode, memory_budget=budget)
            rendered[mode] = [
                session.explain_query(q).to_text() for q in TEMPLATES]
        assert rendered["scalar"] == rendered["vectorized"]


class TestModePlumbing:
    def test_every_twin_keeps_its_scalar_signature(self):
        """The one switch (``leaf_kernel``) forwards ``*args, **kwargs``
        untouched, so a twin must accept exactly what its scalar does."""
        from repro.db import vectorized
        scalars = {}
        for module in ("aggregate", "hashtable", "join", "partition", "scan",
                       "sort", "spill"):
            scalars.update(vars(importlib.import_module(f"repro.db.{module}")))

        def accepts(function):
            return [(p.name, p.kind, p.default)
                    for p in inspect.signature(function).parameters.values()]

        for twin_name in vectorized.__all__:
            scalar = scalars[twin_name[:-len("_v")]]
            assert accepts(scalar) == accepts(getattr(vectorized, twin_name))
            assert scalar.__wrapped__ is not scalar  # it is switched

    def test_execution_mode_defaults_to_vectorized(self):
        assert PlannerConfig().execution == "vectorized"
        assert Session(hierarchy=tiny_test_machine()).config.execution \
            == "vectorized"

    def test_session_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="execution mode"):
            Session(hierarchy=tiny_test_machine(), execution="turbo")

    def test_config_rejects_unknown_mode(self):
        """The config checks itself: an unknown mode fails where it is
        written, not at the first execution of a plan already cached
        under it."""
        with pytest.raises(ValueError, match="execution mode"):
            PlannerConfig(execution="bogus")
        with pytest.raises(ValueError, match="execution mode"):
            replace(PlannerConfig(), execution="simd")

    def test_execution_override_wins_over_config(self):
        session = Session(hierarchy=tiny_test_machine(),
                          config=PlannerConfig(execution="vectorized"),
                          execution="scalar")
        assert session.config.execution == "scalar"

    def test_spawn_inherits_execution_mode(self):
        session = Session(hierarchy=tiny_test_machine(),
                          execution="scalar")
        assert session.spawn().config.execution == "scalar"

    def test_mode_is_part_of_plan_cache_key(self):
        scalar = Session(hierarchy=origin2000_scaled(), execution="scalar")
        scalar.create_table("orders", random_permutation(256, seed=1))
        vectorized = Session(db=scalar.db, cache=scalar.plan_cache,
                             execution="vectorized")
        scalar.compile("sort(orders)")
        vectorized.compile("sort(orders)")
        assert scalar.compile_misses == 1
        assert vectorized.compile_misses == 1  # no cross-mode cache hit
        vectorized.compile("sort(orders)")
        assert vectorized.compile_hits == 1


def _tlb(name, entries, page):
    return CacheLevel(name=name, capacity=entries * page, line_size=page,
                      associativity=0, seq_miss_latency_ns=30.0,
                      rand_miss_latency_ns=30.0, is_tlb=True)


def _replay_geometries():
    """The machines the replay engine must be exact on: its inlined
    lane (one TLB or none, with and without a pool level, a pool as the
    only level) and the general lane (two TLBs; pages smaller than an
    L1 line), over sets of one way (where every probe that misses the
    MRU way is a miss), two ways (where every other hit is on way 1)
    and more (hits deeper in the set)."""
    tiny = tiny_test_machine()
    pool = disk_extended_scaled()
    return [
        origin2000_scaled(),
        pool,
        replace(tiny, name="no TLB", tlbs=()),
        replace(tiny, name="two TLBs",
                tlbs=(_tlb("TLB1", 4, 128), _tlb("TLB2", 8, 256))),
        replace(tiny, name="page below the L1 line",
                tlbs=(_tlb("TLB", 8, 8),)),
        replace(tiny, name="pool only", levels=pool.levels[-1:], tlbs=()),
        # latencies that do not add exactly: the order of the float
        # additions shows in the last bits
        tiny.scaled_latencies({"L1": (0.1, 0.3), "L2": (1 / 3, 1 / 7),
                               "TLB": (1 / 9, 1 / 9)}),
        parametric_profile(name="direct-mapped L1",
                           **{**TINY_MACHINE, "l1_assoc": 1}),
        parametric_profile(name="4-way L1, 8-way L2",
                           **{**TINY_MACHINE, "l1_assoc": 4, "l2_assoc": 8}),
    ]


REPLAY_GEOMETRIES = _replay_geometries()


def reference_replay(hierarchy, traces, quantum):
    """The interleaved replay spelled out access by access over the
    general event engine: what ``MemorySystem.replay_interleaved`` must
    equal bit for bit."""
    mem = MemorySystem(hierarchy)
    memory = [0.0] * len(traces)
    finish = [0.0] * len(traces)
    cursors = {i: (0, 0) for i, trace in enumerate(traces) if trace}
    while cursors:
        for i, (index, done) in list(cursors.items()):
            trace = traces[i]
            budget = quantum
            before = mem.elapsed_ns
            while budget > 0 and index < len(trace):
                entry = trace[index]
                if entry[0] == "range":
                    addr, nbytes, stride, count = entry[1:5]
                    write = entry[5] if len(entry) > 5 else False
                else:
                    addr, nbytes = entry[:2]
                    stride, count = 0, 1
                    write = entry[2] if len(entry) > 2 else False
                take = min(count - done, budget)
                for k in range(done, done + take):
                    mem.accesses += 1
                    mem._access_one(addr + k * stride, nbytes, write)
                budget -= take
                done += take
                if done == count:
                    index += 1
                    done = 0
            memory[i] += mem.elapsed_ns - before
            if index < len(trace):
                cursors[i] = (index, done)
            else:
                finish[i] = mem.elapsed_ns
                del cursors[i]
    return mem, memory, finish


def random_traces(rng):
    """Up to four traces of every entry form over one address space —
    small enough that entries keep revisiting (and evicting) the lines,
    sets and pages their neighbours just touched, which uniform
    addresses almost never do."""
    space = rng.choice([256, 2048, 1 << 14])

    def entry():
        addr = rng.randrange(space)
        nbytes = rng.choice([1, 4, 8, 8, 8, 16, 17, 33, 40])
        form = rng.random()
        if form < 0.45:
            return (addr, nbytes)
        if form < 0.8:
            return (addr, nbytes, rng.random() < 0.5)
        stride = rng.choice([-48, -8, -3, 0, 1, 4, 8, 8, 16, 32, 48])
        count = rng.randrange(40)
        # a backward walk starts high enough to stay in the address space
        addr += max(0, -(count - 1) * stride)
        coalesced = ("range", addr, nbytes, stride, count)
        return coalesced if rng.random() < 0.5 \
            else coalesced + (rng.random() < 0.5,)

    return [[entry() for _ in range(rng.randrange(120))]
            for _ in range(rng.randrange(5))]


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestAccessRangeProperties:
    """``access_range`` / ``batch()`` / the interleaved replay engine ≡
    the per-item ``access`` loop for arbitrary geometry, on hierarchies
    with TLBs and a buffer pool."""

    @settings(max_examples=250)
    @given(geometry=st.sampled_from(REPLAY_GEOMETRIES),
           rng=st.randoms(use_true_random=True),
           quantum=st.sampled_from([1, 2, 3, 7, 64, 10**6]))
    def test_interleaved_replay_equals_access_loop(self, geometry, rng,
                                                   quantum):
        traces = random_traces(rng)
        reference, memory, finish = reference_replay(geometry, traces,
                                                     quantum)
        mem = MemorySystem(geometry)
        assert mem.replay_interleaved(traces, quantum) == (memory, finish)
        assert repr(mem.snapshot()) == repr(reference.snapshot())
        assert mem.elapsed_ns == reference.elapsed_ns
        if mem.pool is not None:
            assert (mem.pool.write_backs, mem.pool.dirty_pages) == \
                (reference.pool.write_backs, reference.pool.dirty_pages)
        # the service entry point is the same loop on a cold machine,
        # and the one-trace call the same loop with nobody to yield to
        served = replay_interleaved(geometry, traces, quantum=quantum)
        assert served == BatchReplay(
            total_ns=reference.elapsed_ns, memory_ns=tuple(memory),
            finish_ns=tuple(finish), counters=reference.snapshot())
        for trace in traces:
            alone = reference_replay(geometry, [trace], 1)[0].snapshot()
            assert MemorySystem(geometry).replay(iter(trace)) == alone

    @pytest.mark.parametrize("geometry", [REPLAY_GEOMETRIES[0],
                                          REPLAY_GEOMETRIES[3]],
                             ids=lambda h: h.name)
    @pytest.mark.parametrize("entry", [
        (-8, 8), (-1, 8, True), (64, 0), (64, -8, False),
        ("range", -16, 8, 8, 4), ("range", 16, 8, -8, 4, True),
        ("range", 64, 0, 8, 4), ("range", 64, 8, 8, -1)])
    def test_replay_rejects_bad_entries(self, geometry, entry):
        for trace in ([entry], [(0, 8), ("range", 0, 8, 8, 3), entry]):
            with pytest.raises(ValueError):
                MemorySystem(geometry).replay(trace)
            with pytest.raises(ValueError):
                replay_interleaved(geometry, [[(0, 8)], trace], quantum=2)

    @given(addr=st.integers(min_value=0, max_value=1 << 16),
           nbytes=st.integers(min_value=1, max_value=96),
           stride=st.integers(min_value=-96, max_value=96),
           count=st.integers(min_value=0, max_value=60),
           write=st.booleans())
    def test_access_range_equals_item_loop(self, addr, nbytes, stride,
                                           count, write):
        if stride < 0 and addr + (count - 1) * stride < 0:
            return  # out of the address space either way
        reference = MemorySystem(disk_extended_scaled())
        for i in range(count):
            reference.access(addr + i * stride, nbytes, write=write)
        coalesced = MemorySystem(disk_extended_scaled())
        coalesced.access_range(addr, nbytes, stride, count, write=write)
        assert repr(coalesced.snapshot()) == repr(reference.snapshot())
        assert coalesced.elapsed_ns == reference.elapsed_ns
        assert coalesced.accesses == reference.accesses

    @given(steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 14),
                  st.integers(min_value=1, max_value=64),
                  st.booleans()),
        max_size=40))
    def test_batch_accessor_equals_access(self, steps):
        reference = MemorySystem(disk_extended_scaled())
        for addr, nbytes, write in steps:
            reference.access(addr, nbytes, write=write)
        batched = MemorySystem(disk_extended_scaled())
        fused = batched.batch()
        for addr, nbytes, write in steps:
            fused(addr, nbytes, write)
        assert repr(batched.snapshot()) == repr(reference.snapshot())
        assert batched.elapsed_ns == reference.elapsed_ns
        assert batched.accesses == reference.accesses

    @given(addr=st.integers(min_value=0, max_value=1 << 14),
           nbytes=st.integers(min_value=1, max_value=32),
           stride=st.integers(min_value=0, max_value=64),
           count=st.integers(min_value=0, max_value=50),
           interleave=st.integers(min_value=0, max_value=1 << 14))
    def test_range_interleaved_with_direct_access(self, addr, nbytes,
                                                  stride, count, interleave):
        """Mixing access_range with direct accesses mid-stream keeps
        state exact (the fused shortcut must notice the interleaving)."""
        reference = MemorySystem(origin2000_scaled())
        coalesced = MemorySystem(origin2000_scaled())
        for i in range(count):
            reference.access(addr + i * stride, nbytes)
        reference.access(interleave, 8, write=True)
        for i in range(count):
            reference.access(addr + i * stride, nbytes)
        coalesced.access_range(addr, nbytes, stride, count)
        coalesced.access(interleave, 8, write=True)
        coalesced.access_range(addr, nbytes, stride, count)
        assert repr(coalesced.snapshot()) == repr(reference.snapshot())
        assert coalesced.elapsed_ns == reference.elapsed_ns


class TestServiceTraces:
    """Coalesced range entries through the service trace machinery."""

    def _plan(self, session, query):
        return session.compile(query).plan

    def _service_session(self, mode):
        return make_session(origin2000_scaled, mode)

    def test_vectorized_trace_is_coalesced_but_equivalent(self):
        scalar_session = self._service_session("scalar")
        vector_session = Session(db=scalar_session.db,
                                 cache=scalar_session.plan_cache,
                                 execution="vectorized")
        vector_session._functions.update(scalar_session._functions)
        plan_s = self._plan(scalar_session, "filter(orders, even, sel=0.5)")
        plan_v = self._plan(vector_session, "filter(orders, even, sel=0.5)")
        db = scalar_session.db
        recorded_s = record_trace(scalar_session, plan_s)
        recorded_v = record_trace(vector_session, plan_v)
        trace_scalar = recorded_trace(recorded_s)
        trace_vector = recorded_trace(recorded_v)
        assert recorded_v[0].rows == recorded_s[0].rows > 0
        assert len(trace_vector) < len(trace_scalar)  # genuinely coalesced
        assert trace_length(trace_vector) == trace_length(trace_scalar)
        assert any(entry[0] == "range" for entry in trace_vector)
        for quantum in (1, 7, 64):
            replay_s = replay_interleaved(db.hierarchy,
                                          [trace_scalar, trace_scalar],
                                          quantum=quantum)
            replay_v = replay_interleaved(db.hierarchy,
                                          [trace_vector, trace_vector],
                                          quantum=quantum)
            assert replay_v == replay_s

    def test_recorder_skips_empty_ranges(self):
        recorder = TraceRecorder()
        recorder.access_range(64, 8, 8, 0)
        recorder.access_range(64, 8, None, 3)
        recorder.access(8, 8)
        fused = recorder.batch()
        fused(16, 8, True)
        assert recorder.trace == [("range", 64, 8, 8, 3), (8, 8),
                                  (16, 8, True)]
        assert trace_length(recorder.trace) == 5

    def test_recorder_shifts_every_entry_kind_as_it_appends(self):
        recorder = TraceRecorder(offset=1 << 20)
        recorder.access_range(64, 8, None, 3)
        recorder.access_range(64, 8, None, 3, write=True)
        recorder.access(8, 8)
        recorder.write(24, 4)
        recorder.batch()(16, 8, True)
        base = 1 << 20
        assert recorder.trace == [("range", base + 64, 8, 8, 3),
                                  ("range", base + 64, 8, 8, 3, True),
                                  (base + 8, 8), (base + 24, 4, True),
                                  (base + 16, 8, True)]

    @pytest.mark.parametrize("mode", ["scalar", "vectorized"])
    def test_record_trace_offset_is_a_pure_shift(self, mode):
        def recorded(offset):
            # a fresh engine each time: scratch addresses depend on
            # what the allocator handed out before
            session = Session(execution=mode)
            session.create_table("a", random_permutation(96, seed=1))
            session.create_table("b", random_permutation(96, seed=2))
            plan = session.compile("aggregate(join(a, b), groups=96)").plan
            recorded = record_trace(session, plan, offset)
            return recorded_trace(recorded), recorded[0].rows

        offset = 1 << 32
        plain, rows = recorded(0)
        shifted, shifted_rows = recorded(offset)
        assert shifted_rows == rows and len(plain) > 100
        assert shifted == [
            ("range", e[1] + offset, *e[2:]) if e[0] == "range"
            else (e[0] + offset, *e[1:]) for e in plain]

    def test_replay_splits_range_at_quantum_boundary(self):
        trace = [("range", 0, 8, 8, 50)]
        whole = replay_interleaved(origin2000_scaled(), [trace], quantum=1000)
        split = replay_interleaved(origin2000_scaled(), [trace], quantum=7)
        assert whole.total_ns == split.total_ns

    def test_service_workload_identical_across_modes(self):
        from repro.service import ServiceExecutor, WorkloadQuery
        queries = [
            WorkloadQuery(qid=0, client=0, kind="q",
                          text="filter(orders, even, sel=0.5)"),
            WorkloadQuery(qid=1, client=1, kind="q", text="sort(orders)"),
            WorkloadQuery(qid=2, client=0, kind="q",
                          text="aggregate(events, groups=64)"),
        ]
        reports = {}
        for mode in ("scalar", "vectorized"):
            session = self._service_session(mode)
            executor = ServiceExecutor(session, mode="max-parallel",
                                       max_batch=2)
            report = executor.run(queries)
            reports[mode] = [(m.qid, m.memory_ns, m.finish_ns)
                             for m in report.queries]
        assert reports["scalar"] == reports["vectorized"]
