"""The memo of cold solo replays (``_Recording.replay_cold``) is exact.

A solo batch's cold replay is remembered on its recording under (machine
profile fingerprint, quantum, shift class).  The class is the shift
itself below ``mem.reach`` (plus the recording's overhang) and the shift
modulo ``mem.period`` at or above it (the proof is in
``repro.service.executor``'s docstring).  Every property here holds a
memo-served replay to a fresh ``_replay_cold`` of the same shift on a
new machine, bit for bit — counters, ``elapsed_ns``, ``memory_ns`` and
``finish_ns`` — and two fresh replays of one class to each other,
buffer-pool write-backs and dirty pages included (the memo keeps no
machine, so those are what the class must fix too).  The first test
pins why the residue alone is no key: at shift 0 a recording's scratch
shares a page with the base column allocated just before it.
"""

import math
import sys
import threading
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro import Session  # noqa: E402
from repro.hardware import (  # noqa: E402
    CacheLevel,
    disk_extended_scaled,
    origin2000_scaled,
)
from repro.service import WorkloadGenerator, executor  # noqa: E402
from repro.service.executor import (  # noqa: E402
    DEFAULT_QUANTUM,
    _Recording,
    _replay_cold,
    execute_batch,
    record_trace,
)
from repro.service.workload import KINDS  # noqa: E402
from repro.simulator import MemorySystem  # noqa: E402
from repro.simulator.memory import CompactTrace  # noqa: E402


def _tlb(name, entries, page):
    return CacheLevel(name=name, capacity=entries * page, line_size=page,
                      associativity=0, seq_miss_latency_ns=30.0,
                      rand_miss_latency_ns=30.0, is_tlb=True)


#: The machines the memo must be exact on: the serving machine, the
#: disk-extended one (a buffer pool, write-backs) and a geometry whose
#: TLBs differ in page size (the general replay lane).
MACHINES = (
    origin2000_scaled(),
    disk_extended_scaled(),
    replace(origin2000_scaled(), name="two TLBs",
            tlbs=(_tlb("TLB1", 8, 4096), _tlb("TLB2", 4, 8192))),
)


def _period(hierarchy):
    """Sets x line size, lcm over every level — computed here from the
    profile, independently of ``MemorySystem.period``."""
    return math.lcm(*(level.num_sets * level.line_size
                      for level in hierarchy.levels + hierarchy.tlbs))


def _recordings():
    """Every serving template recorded on a fresh in-memory engine, and
    the joins recorded on a spilling one (their replays write pool
    pages back)."""
    session = Session()
    generator = WorkloadGenerator(session=session, seed=5, scale=64)
    texts = [text for kind in KINDS for text in generator._templates(kind)]
    out = [record_trace(session, session.compile(text).plan)[0]
           for text in texts]
    spill = Session(hierarchy=disk_extended_scaled(), memory_budget=512)
    generator = WorkloadGenerator.out_of_core(session=spill, seed=5,
                                              scale=256)
    for kind in ("join", "join_aggregate"):
        for text in generator._templates(kind):
            out.append(record_trace(spill, spill.compile(text).plan)[0])
    return out


RECORDINGS = _recordings()


def _fresh(hierarchy, recording, shift, quantum=DEFAULT_QUANTUM):
    """A cold replay on a new machine, and what its pool holds after."""
    mem = MemorySystem(hierarchy)
    replay = _replay_cold(mem, [recording.segment(shift)], quantum)
    pool = mem.pool
    return replay, (pool.write_backs, pool.dirty_pages) if pool else None


def test_residue_alone_is_not_a_key():
    """A recording made at shift 0 replays differently at shift
    ``period``: its first scratch lands on the page of the base column
    the allocator placed just before it, and a period higher it does
    not."""
    hierarchy = origin2000_scaled()
    period = _period(hierarchy)
    assert period == 32 * 1024
    session = Session(hierarchy=hierarchy)
    WorkloadGenerator(session=session, seed=7, scale=64,
                      mix={"point": 0.6, "scan": 0.4})
    plan = session.compile("filter(orders, rare, sel=0.0625)").plan
    recording, shift = record_trace(session, plan)
    assert shift == 0
    at_zero, _ = _fresh(hierarchy, recording, 0)
    a_period_up, _ = _fresh(hierarchy, recording, period)
    assert at_zero != a_period_up
    assert at_zero.total_ns < a_period_up.total_ns


def test_period_and_reach_come_from_the_geometry():
    for hierarchy in MACHINES:
        mem = MemorySystem(hierarchy)
        assert mem.period == _period(hierarchy)
        assert mem.reach == 2 * max(level.line_size for level in
                                    hierarchy.levels + hierarchy.tlbs)
    mem = MemorySystem(origin2000_scaled())
    assert (mem.period, mem.reach) == (32 * 1024, 8 * 1024)


def test_shift_classes_on_the_serving_machine():
    recording = RECORDINGS[0]
    mem = MemorySystem(origin2000_scaled())
    assert recording.overhang == 0
    assert recording.shift_class(mem, 0) == 0
    # the least shift at or above reach congruent to it mod period
    assert recording.shift_class(mem, 3 * mem.period) == mem.period
    assert recording.shift_class(mem, 2 * mem.period + mem.reach + 16) \
        == mem.reach + 16
    assert recording.shift_class(mem, mem.reach - 8) == mem.reach - 8


@st.composite
def _shift_pairs(draw, mem, alignment):
    """A shift below ``reach``, within an alignment of it, or a
    multiple of ``period`` (plus a few alignments), and a second
    shift: the first moved by whole periods, by a half or a quarter
    period (another class), or drawn alike."""
    reach, period = mem.reach, mem.period

    def one():
        kind = draw(st.sampled_from(("below", "edge", "period")))
        if kind == "below":
            return alignment * draw(st.integers(0, (reach - 1) // alignment))
        if kind == "edge":
            return reach + alignment * draw(st.integers(-2, 2))
        return (period * draw(st.integers(0, 3))
                + alignment * draw(st.integers(0, 2)))

    first = one()
    how = draw(st.sampled_from(("periods", "part", "drawn")))
    if how == "periods":
        return first, first + period * draw(st.integers(0, 3))
    if how == "part":
        return first, first + period // draw(st.sampled_from((2, 4)))
    return first, one()


@given(data=st.data())
def test_memo_served_replay_equals_a_fresh_one(data):
    hierarchy = data.draw(st.sampled_from(MACHINES))
    recording = data.draw(st.sampled_from(RECORDINGS))
    quantum = data.draw(st.sampled_from((DEFAULT_QUANTUM, 7)))
    recording.cold_replays.clear()
    mem = MemorySystem(hierarchy)
    first, second = data.draw(_shift_pairs(mem, recording.alignment))
    same = (recording.shift_class(mem, first)
            == recording.shift_class(mem, second))

    fresh_first, pool_first = _fresh(hierarchy, recording, first, quantum)
    fresh_second, pool_second = _fresh(hierarchy, recording, second,
                                       quantum)
    if same:
        assert fresh_first == fresh_second
        assert pool_first == pool_second

    # the machine arrives dirty: whatever it held, a hit leaves it reset
    mem.replay(recording.segment(first))
    assert recording.replay_cold(mem, first, quantum) == fresh_first
    served = recording.replay_cold(mem, second, quantum)
    assert served == fresh_second
    assert len(recording.cold_replays) == (1 if same else 2)
    if same:
        assert (mem.accesses, mem.elapsed_ns) == (0, 0.0)


#: ``(below the floor?, distance from it, nbytes, write)``
_plain = st.tuples(st.booleans(), st.integers(0, 2048), st.integers(1, 40),
                   st.booleans())
#: ``(below the floor?, distance from it, nbytes, stride, count, write)``
_range = st.tuples(st.booleans(), st.integers(0, 2048), st.integers(1, 24),
                   st.integers(-40, 64), st.integers(1, 12), st.booleans())


@given(entries=st.lists(st.one_of(_plain, _range), min_size=1,
                        max_size=100),
       delta=st.integers(-75, 150).map(lambda k: 8 * k),
       periods=st.integers(0, 3), part=st.sampled_from((1, 2, 4)))
def test_one_class_replays_alike_for_any_trace(entries, delta, periods,
                                               part):
    """The proof itself, on made-up traces over the disk-extended
    machine (small sets, a pool), entries below the floor reaching
    across it and backward ranges above it dipping below it included
    (the overhang keeps the class exact then): the first shift lies
    around the class threshold, the second whole periods above it (same
    class) or a half or a quarter period more (another)."""
    floor = 2048
    trace = []
    for below, distance, nbytes, *rest, write in entries:
        addr = max(0, floor - 1 - distance) if below else floor + distance
        flag = (True,) if write else ()
        if not rest:
            trace.append((addr, nbytes) + flag)
            continue
        stride, count = rest
        if addr + (count - 1) * stride < 0:
            stride = -stride
        trace.append(("range", addr, nbytes, stride, count) + flag)
    recording = _Recording(CompactTrace(trace), [], None, (), (), floor,
                           0, 8, 0, 0)
    hierarchy = disk_extended_scaled()
    mem = MemorySystem(hierarchy)
    first = max(0, mem.reach + recording.overhang + delta)
    second = first + periods * mem.period + mem.period // part % mem.period
    if recording.shift_class(mem, first) == recording.shift_class(mem,
                                                                  second):
        assert _fresh(hierarchy, recording, first) \
            == _fresh(hierarchy, recording, second)
    recording.replay_cold(mem, first, DEFAULT_QUANTUM)
    assert recording.replay_cold(mem, second, DEFAULT_QUANTUM) \
        == _fresh(hierarchy, recording, second)[0]


def test_overhang_bounds_what_crosses_the_floor():
    floor = 1024
    below_the_floor_only = _Recording(
        CompactTrace([(0, 8), (floor - 8, 8), (floor, 8, True)]), [], None,
        (), (), floor, 0, 8, 0, 0)
    assert below_the_floor_only.overhang == 0
    # a base access reaching 4 bytes past the floor, and a backward
    # scratch range ending 48 bytes below it
    crossing = _Recording(
        CompactTrace([(floor - 4, 8),
                      ("range", floor + 64, 8, -16, 8)]), [], None,
        (), (), floor, 0, 8, 0, 0)
    assert crossing.overhang == (floor + 3) - (floor - 48)
    mem = MemorySystem(origin2000_scaled())
    threshold = mem.reach + crossing.overhang
    assert crossing.shift_class(mem, threshold - 8) == threshold - 8
    assert crossing.shift_class(mem, threshold + mem.period) == threshold


def test_a_base_sweep_past_the_floor_keeps_its_shifts_apart():
    """A sweep recorded below the floor but reaching 12 KiB past it: a
    scratch access shifted into the swept bytes hits them, a period
    higher it does not — the reach alone would key the two together."""
    floor = 64 * 1024
    sweep = _Recording(
        CompactTrace([("range", floor - 8, 8, 4096, 4), (floor, 8)]), [],
        None, (), (), floor, 0, 8, 0, 0)
    hierarchy = origin2000_scaled()
    mem = MemorySystem(hierarchy)
    shift = 3 * 4096 - 8  # onto the sweep's last item
    assert shift >= mem.reach
    assert _fresh(hierarchy, sweep, shift) \
        != _fresh(hierarchy, sweep, shift + mem.period)
    assert sweep.shift_class(mem, shift) \
        != sweep.shift_class(mem, shift + mem.period)


def test_machines_differing_only_in_a_latency_never_share_an_entry():
    base = origin2000_scaled()
    l2 = base.levels[1]
    slower = replace(base, levels=(base.levels[0], replace(
        l2, rand_miss_latency_ns=l2.rand_miss_latency_ns + 1.0)))
    assert MemorySystem(slower).fingerprint \
        != MemorySystem(base).fingerprint
    recording = RECORDINGS[-1]
    recording.cold_replays.clear()
    shift = 3 * MemorySystem(base).period
    on_base = recording.replay_cold(MemorySystem(base), shift,
                                    DEFAULT_QUANTUM)
    on_slower = recording.replay_cold(MemorySystem(slower), shift,
                                      DEFAULT_QUANTUM)
    assert len(recording.cold_replays) == 2
    assert on_base == _fresh(base, recording, shift)[0]
    assert on_slower == _fresh(slower, recording, shift)[0]
    assert on_slower.total_ns > on_base.total_ns
    # nor do two time slices
    recording.replay_cold(MemorySystem(base), shift, 1)
    assert len(recording.cold_replays) == 3


def test_the_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(executor, "COLD_REPLAY_ENTRIES", 2)
    recording = RECORDINGS[0]
    recording.cold_replays.clear()
    mem = MemorySystem(origin2000_scaled())
    shifts = (0, 8, 16)
    for shift in shifts:
        recording.replay_cold(mem, shift, DEFAULT_QUANTUM)
    assert [key[2] for key in recording.cold_replays] == [8, 16]
    # the dropped class replays again, and right
    assert recording.replay_cold(mem, 0, DEFAULT_QUANTUM) \
        == _fresh(mem.hierarchy, recording, 0)[0]
    assert len(recording.cold_replays) == 2


def test_the_memo_counts_hits_misses_and_evictions(monkeypatch):
    recording = RECORDINGS[0]
    memo = recording.cold_replays
    memo.clear()
    mem = MemorySystem(origin2000_scaled())
    for _ in range(2):
        recording.replay_cold(mem, 8, DEFAULT_QUANTUM)
    assert (memo.hits, memo.misses, memo.evictions) == (1, 1, 0)
    monkeypatch.setattr(executor, "COLD_REPLAY_ENTRIES", 2)
    recording.replay_cold(mem, 16, DEFAULT_QUANTUM)
    assert memo.evictions == 0
    recording.replay_cold(mem, 24, DEFAULT_QUANTUM)  # full: drops 8
    assert (memo.hits, memo.misses, memo.evictions) == (1, 3, 1)
    assert [key[2] for key in memo] == [16, 24]


def test_threads_share_a_memo_through_its_cap(monkeypatch):
    """Four threads replaying one recording at twelve shifts through a
    cap of 3, so nearly every call inserts and evicts: every answer is
    the fresh replay's, and no eviction races another (outside the lock
    two threads delete one oldest key within a few thousand calls)."""
    monkeypatch.setattr(executor, "COLD_REPLAY_ENTRIES", 3)
    recording = RECORDINGS[0]
    recording.cold_replays.clear()
    hierarchy = origin2000_scaled()
    shifts = [8 * k for k in range(12)]
    expected = {shift: _fresh(hierarchy, recording, shift)[0]
                for shift in shifts}
    wrong, failed = [], []

    def worker():
        mem = MemorySystem(hierarchy)
        try:
            for _ in range(150):
                for shift in shifts:
                    if recording.replay_cold(mem, shift, DEFAULT_QUANTUM) \
                            != expected[shift]:
                        wrong.append(shift)
        except Exception as exc:  # reported by the assertion below
            failed.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failed == [] and wrong == []
    assert len(recording.cold_replays) <= 3


def test_execute_batch_memoizes_solo_batches_only():
    """Solo batches of one plan a period apart replay once: every
    answer is the fresh replay's, and a co-run batch leaves the memo
    alone."""
    session = Session()
    WorkloadGenerator(session=session, seed=7, scale=64)
    plan = session.compile("filter(parts, rare, sel=0.0625)").plan
    other = session.compile("aggregate(events, groups=2)").plan
    mem = MemorySystem(session.hierarchy)
    allocator = session.db.allocator
    recording, _ = record_trace(session, plan)
    for _ in range(4):
        # the next run starts a period above the last one
        allocator.advance(mem.period - recording.span, 0)
        shift = allocator.next_address - recording.start
        replay, rows = execute_batch([(session, plan, 0)], mem,
                                     DEFAULT_QUANTUM)
        assert replay == _fresh(session.hierarchy, recording, shift)[0]
        assert rows == [recording.rows]
    assert plan.traces[(session.db, 0, session.config.execution)] \
        is recording
    assert len(recording.cold_replays) == 1
    execute_batch([(session, plan, 0), (session, other, 0)], mem,
                  DEFAULT_QUANTUM)
    assert len(recording.cold_replays) == 1
