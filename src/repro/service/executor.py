"""Simulated-time multi-client execution over one shared engine.

The trace-driven simulator executes one access at a time, so
*concurrency* is simulated the way the ⊙ model describes it: record
each plan's access trace (the exact sequence of ``(address, nbytes)``
the engine's operators issue, writes flagged), then replay a batch's
traces **interleaved round-robin** through a single cold
:class:`~repro.simulator.MemorySystem`.  The interleaved replay makes
the co-runners genuinely compete for every cache level — the measured
counterpart of composing their patterns under ``⊙``.

Recording happens against the shared :class:`~repro.db.Database` (one
address space, so two queries over one table really do share lines),
with base-column values snapshot/restored around each run: sort-based
operators reorder shared base columns in place, and every batch member
must observe the same base state — concurrent execution over one
snapshot.

A plan is recorded **once** per (engine, address offset, execution
mode) and the recording is replayed after (:func:`record_trace`): the
engine walks its compact columns in place, shifting the scratch
addresses to where the allocator stands now; nothing is relocated into
a new trace.  This rests on one assumption, stated here because
nothing checks it: *a plan is a pure function of its input columns* —
its kernels are deterministic and its predicates have no side effects,
so a run over the same input values makes the same accesses and
returns the same result, except that its scratch allocations land
wherever the bump allocator stands.  A cache hit re-runs no kernel and
no predicate.

The recording also keeps the operators' enter/exit marks, so one path
runs every session query and every measured solo batch
(:func:`run_recorded`): record (cached) → replay cut at the marks →
per-operator counters identical to executing the plan directly under
the operator probe (:func:`repro.query.capture_measured`, kept as the
test oracle; it, ``Database.execute``, the figure harness and the
vectorized-kernel benchmark alone run kernels against the simulator).

A *cold solo* replay — one recording alone on a reset machine, an
untraced server's solo batch (:func:`execute_batch`) — is remembered on
the recording (:meth:`_Recording.replay_cold`) under (machine profile
fingerprint, quantum, shift class), because it depends on the shift
only through its class.  A level sees an address only through its line
(or page) number, that number modulo its sets, and whether it is one
off a line in its recent-miss window; a turn's accesses add their
latencies to the clock in trace order.  Take two shifts ``s`` and
``t`` at or above the recording's threshold (``mem.reach``, twice the
largest line or page, plus the recording's
:attr:`~_Recording.overhang`, normally 0) that differ by a multiple of
``mem.period`` (the lcm over every data level, TLB and pool of sets ×
line size), and map the lines of the replay at ``s`` to those of the
replay at ``t``: a line an entry below the floor touches (those are
not shifted) to itself, a scratch line to the one ``(t - s) / line
size`` higher.  The map keeps offsets within lines and pages (so
accesses span lines and pages alike), set indices, and equality and ±1
adjacency among scratch lines and among unshifted ones.  Between the
two kinds there is none to keep: at either shift every scratch byte
lies ``mem.reach`` or more above every unshifted one (the overhang
sees to that), so on every level the scratch lines start two or more
lines above the unshifted ones.  Every probe therefore finds the same
ways and the same recent-miss window, up to the map, and takes the
same hit, eviction, sequential or random miss, write-back and latency,
in the same order: counters, ``elapsed_ns``, ``memory_ns``,
``finish_ns`` and the pool's write-backs are equal to the bit.  Below
the threshold the class is the shift itself: at shift 0 a recording's
scratch may share a page (or neighbour a line) with the base column
allocated just before it, and at shift ``period`` it does not.

Timing follows :mod:`repro.service.interference`: per batch,
``makespan = max(Σ mem_i, max_i (cpu_i + mem_i))`` with ``mem_i``
query ``i``'s share of the replayed (contended) memory time — memory
latencies serialize on the shared hierarchy, CPU overlaps other
queries' stalls.  Batches execute in sequence on a simulated clock.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from ..core.cost import Memo
from ..db.column import Column
from ..hardware.hierarchy import MemoryHierarchy
from ..query.observe import Explanation, MeasuredResult, measured_result
from ..query.physical import QueryPlan, ScanNode
from ..session import Session
from ..simulator.counters import CounterSnapshot
from ..simulator.memory import CompactTrace, MemorySystem, Segment
from .admission import AdmissionController
from .core import Stepper, compile_task, settle
from .interference import InterferenceModel
from .metrics import BatchMetrics, QueryMetrics, WorkloadReport
from .workload import WorkloadQuery

__all__ = ["TraceRecorder", "record_trace", "replay_interleaved",
           "trace_length", "measure", "execute_batch", "BatchReplay",
           "ServiceExecutor"]


class _Mark:
    """A recorder's position as the operator probe sees it: two marks'
    difference ``after - before`` is the ``(enter, exit)`` span of
    trace entries between them."""

    __slots__ = ("position",)

    def __init__(self, position: int) -> None:
        self.position = position

    def __sub__(self, before: "_Mark") -> tuple[int, int]:
        return before.position, self.position


class TraceRecorder:
    """A stand-in for :class:`~repro.simulator.MemorySystem` that
    records the access trace instead of simulating it (operators only
    ever call :meth:`access`/:meth:`read`/:meth:`write` — or, since the
    vectorized engine, :meth:`access_range` and :meth:`batch`).

    Entries go straight into :attr:`compact`, the
    :class:`~repro.simulator.memory.CompactTrace` columns the replay
    engine walks; :attr:`trace` decodes them to the tuple forms
    :meth:`MemorySystem.replay <repro.simulator.MemorySystem.replay>`
    takes: a plain ``(addr, nbytes)`` read or ``(addr, nbytes, True)``
    write, or a coalesced ``("range", addr, nbytes, stride, count)``
    run standing for ``count`` reads (``("range", addr, nbytes, stride,
    count, True)``: writes).  Replay expands ranges access-for-access,
    so a trace recorded under vectorized execution replays to the same
    counters as its scalar recording, and keeping writes makes a buffer
    pool's dirty pages and write-backs match direct execution too.
    Every recorded address is shifted by ``offset`` (a tenant's private
    slice of the address space) as it is appended.

    :meth:`snapshot` answers the database's operator probe
    (:meth:`~repro.db.Database.operator_measurement`) with the
    recorder's position, so a plan run under the probe reports each
    operator's ``(enter, exit)`` entry span instead of a counter
    delta."""

    __slots__ = ("compact", "offset")

    def __init__(self, offset: int = 0) -> None:
        self.compact = CompactTrace()
        self.offset = offset

    @property
    def trace(self) -> list[tuple]:
        """The recorded entries as tuples (a decoded copy)."""
        return self.compact.entries()

    def access(self, addr: int, nbytes: int = 1, write: bool = False) -> None:
        compact = self.compact
        compact.addresses.append(addr + self.offset)
        compact.sizes.append(2 * nbytes + write)

    def access_range(self, addr: int, nbytes: int, stride: int | None = None,
                     count: int = 1, write: bool = False) -> None:
        if count > 0:
            compact = self.compact
            compact.ranges[len(compact.sizes)] = (
                nbytes, nbytes if stride is None else stride, count,
                bool(write))
            compact.addresses.append(addr + self.offset)
            compact.sizes.append(-1)

    def batch(self):
        addresses = self.compact.addresses.append
        sizes = self.compact.sizes.append
        offset = self.offset

        def fused(addr: int, nbytes: int = 8, write: bool = False) -> None:
            addresses(addr + offset)
            sizes(2 * nbytes + write)

        return fused

    def read(self, addr: int, nbytes: int = 1) -> None:
        self.access(addr, nbytes)

    def write(self, addr: int, nbytes: int = 1) -> None:
        self.access(addr, nbytes, write=True)

    def snapshot(self) -> _Mark:
        return _Mark(len(self.compact.sizes))


def trace_length(trace: Sequence[tuple]) -> int:
    """The number of simulated accesses a trace stands for (coalesced
    range entries count every item in the run)."""
    return sum(entry[4] if entry[0] == "range" else 1 for entry in trace)


class _Recording:
    """One execution of a plan, kept beside it
    (:attr:`QueryPlan.traces <repro.query.physical.QueryPlan.traces>`)
    to stand in for the next ones: the compact trace and its operator
    marks, the result, and what the execution depended on and did to
    the allocator and to its input columns."""

    __slots__ = ("trace", "marks", "result", "inputs", "effects", "start",
                 "floor", "alignment", "span", "nbytes", "cold_replays",
                 "_overhang")

    def __init__(self, trace: CompactTrace, marks: list, result: Column,
                 inputs: tuple, effects: tuple, start: int, offset: int,
                 alignment: int, span: int, nbytes: int) -> None:
        self.trace = trace
        #: ``(node, (enter, exit))`` per operator execution, post-order
        #: (as the operator probe reported them)
        self.marks = marks
        #: the result column as the execution returned it (an input
        #: column itself when the plan sorts one in place)
        self.result = result
        #: ``(column, address, values)`` of every scanned column
        self.inputs = inputs
        #: ``(column, values after the run)`` of every input the run
        #: changed (the restore put each back)
        self.effects = effects
        #: allocator address the execution started at; trace entries at
        #: or above ``floor`` (the start plus the tenant offset) are
        #: scratch and move with it
        self.start, self.floor = start, start + offset
        #: the lcm of the alignments the execution requested, the span
        #: it advanced the allocator by and the bytes it allocated there
        self.alignment, self.span, self.nbytes = alignment, span, nbytes
        #: cold solo replays by (profile fingerprint, quantum, shift
        #: class) — :meth:`replay_cold`
        self.cold_replays: Memo[tuple, BatchReplay] = Memo()
        self._overhang: int | None = None

    @property
    def rows(self) -> int:
        return len(self.result.values)

    def matches(self, start: int) -> bool:
        """Whether an execution starting at allocator address ``start``
        would issue this trace relocated: every scratch allocation
        lands ``start - self.start`` higher, and every input column is
        where and what it was."""
        return ((start - self.start) % self.alignment == 0
                and all(column.address == address and column.values == values
                        for column, address, values in self.inputs))

    def segment(self, shift: int) -> Segment:
        """The whole trace, scratch addresses ``shift`` higher."""
        return Segment(self.trace, shift, self.floor)

    def column(self, shift: int) -> Column:
        """The result an execution ``shift`` bytes higher returns: the
        input column itself, or a copy of the recorded one at its
        shifted address."""
        result = self.result
        if any(result is column for column, _, _ in self.inputs):
            return result
        return Column(result.name, result.width, result.address + shift,
                      result.copy_values())

    @property
    def overhang(self) -> int:
        """How far, at most, the bytes the entries below the floor
        touch reach up past the lowest byte an entry at or above it
        touches (0 when they stay below it, as base columns allocated
        before the run do); measured once, from the columns."""
        if self._overhang is None:
            trace, floor = self.trace, self.floor
            addresses = trace.addresses
            # a plain entry touches [addr, addr + nbytes): bound every
            # one by the widest
            widest = max(trace.sizes, default=0) // 2
            below = max(filter(floor.__gt__, addresses), default=None)
            high = -1 if below is None else below + widest - 1
            low = min(filter(floor.__le__, addresses), default=sys.maxsize)
            for index, (nbytes, stride, count, _) in trace.ranges.items():
                first = addresses[index]
                last = first + (count - 1) * stride
                if first < floor:
                    high = max(high, first + nbytes - 1,
                               last + nbytes - 1)
                else:
                    low = min(low, last)
            self._overhang = max(0, high - low)
        return self._overhang

    def shift_class(self, mem: MemorySystem, shift: int) -> int:
        """The least shift whose cold replay on ``mem`` is provably
        ``shift``'s (see the module docstring): ``shift`` itself below
        the threshold ``mem.reach + overhang``, else the least shift at
        or above it congruent to ``shift`` modulo ``mem.period``."""
        threshold = mem.reach + self.overhang
        if shift < threshold:
            return shift
        return threshold + (shift - threshold) % mem.period

    def replay_cold(self, mem: MemorySystem, shift: int,
                    quantum: int) -> BatchReplay:
        """The trace alone, ``shift`` higher, replayed on ``mem`` reset
        cold — remembered per shift class (:meth:`shift_class`), so a
        repeat replays nothing and leaves ``mem`` reset."""
        key = (mem.fingerprint, quantum, self.shift_class(mem, shift))
        replay = self.cold_replays.recall(key)
        mem.reset()
        if replay is None:
            replay = _replay_cold(mem, [self.segment(shift)], quantum)
            self.cold_replays.store(key, replay, COLD_REPLAY_ENTRIES)
        return replay

    def replay_marked(self, mem: MemorySystem, shift: int
                      ) -> tuple[CounterSnapshot, list]:
        """Replay the trace ``shift`` higher on ``mem``, cut at the
        operator marks; returns the whole-trace counter delta and
        ``(node, inclusive delta)`` per operator execution — what the
        operator probe reports when the plan executes on ``mem``."""
        cuts = sorted({0, len(self.trace),
                       *(position for _, span in self.marks
                         for position in span)})
        at = {0: mem.snapshot()}
        for begin, end in zip(cuts, cuts[1:]):
            mem.replay_interleaved(
                [Segment(self.trace, shift, self.floor, begin, end)],
                sys.maxsize)
            at[end] = mem.snapshot()
        return (at[cuts[-1]] - at[0],
                [(node, at[exit] - at[enter])
                 for node, (enter, exit) in self.marks])


#: Cold solo replays one recording remembers
#: (:meth:`_Recording.replay_cold`) before it drops its oldest: over
#: three times the most shift classes one recording met in a
#: hand-stepped ``benchmarks/perf`` rep (``serve_small_hot``: 72 on seed
#: 7, 70 on seed 11, 542 over its 8 recordings; ``serve_contention``:
#: 5).  An entry, a ``BatchReplay`` and its key, is about 0.7 kB.
COLD_REPLAY_ENTRIES = 256


def record_trace(session: Session, plan: QueryPlan,
                 offset: int = 0) -> tuple[_Recording, int]:
    """The recording of ``plan`` on ``session``'s engine, every address
    shifted by ``offset`` (a tenant's private slice of the address
    space), and the shift that puts its scratch accesses where this
    call's allocations land: replay it as ``recording.segment(shift)``.
    Base columns are left as found, so every batch member records
    against the same base state (``recording.effects`` holds what the
    run changed in them).

    Every session run (:func:`run_recorded`) and every served batch
    records here.  The first call per (engine, ``offset``, execution
    mode) executes the plan under a :class:`TraceRecorder` and the
    operator probe and keeps the recording beside the plan; a later
    call *reuses* it instead.  The bump allocator makes that exact: a
    run that starts ``d`` bytes higher, ``d`` a multiple of every
    alignment the recording requested, allocates every scratch region
    exactly ``d`` higher.  So when ``d`` is such a multiple and every scanned column
    is at the same address with the same values, the call advances the
    allocator as the recording did and returns the recording with shift
    ``d`` — no kernel, recorder or snapshot/restore runs.  Anything
    else executes afresh and replaces the recording (a run that raises
    leaves none, and neither does one that changed a scanned column the
    session's restore does not cover).  The one assumption is that the
    plan is a pure function of its input columns (see the module
    docstring): predicates are not re-run on a hit, by
    ``Session.execute`` as much as by a served batch."""
    db = session.db
    allocator = db.allocator
    key = (db, offset, session.config.execution)
    start = allocator.next_address
    recording = plan.traces.get(key)
    if recording is not None and recording.matches(start):
        allocator.advance(recording.span, recording.nbytes)
        return recording, start - recording.start
    plan.traces.pop(key, None)
    inputs = tuple((node.column, node.column.address,
                    node.column.copy_values())
                   for node in plan.root.walk()
                   if isinstance(node, ScanNode) and node.column is not None)
    allocated = allocator.bytes_allocated
    recorder = TraceRecorder(offset)
    real, db.mem = db.mem, recorder
    try:
        with allocator.watch() as alignments, session._restoring(True), \
                db.execution_scope(session.config.execution), \
                db.operator_measurement() as marks:
            result = plan.execute(db)
            effects = tuple((column, column.values)
                            for column, _, values in inputs
                            if column.values != values)
    finally:
        db.mem = real
    recording = _Recording(
        recorder.compact, marks, result, inputs, effects, start, offset,
        math.lcm(*alignments), allocator.next_address - start,
        allocator.bytes_allocated - allocated)
    if all(column.values is not values for column, values in effects):
        plan.traces[key] = recording
    return recording, 0


@dataclass(frozen=True)
class BatchReplay:
    """The measured outcome of one interleaved batch replay."""

    #: Total memory time of the batch (sum of all attributed latencies).
    total_ns: float
    #: Memory time attributed to each trace's own accesses.
    memory_ns: tuple[float, ...]
    #: Elapsed (shared-clock) time at which each trace finished.
    finish_ns: tuple[float, ...]
    #: Per-level hit/miss counters of the shared memory system after
    #: the whole batch drained — the sample the metrics registry takes
    #: at batch boundaries.
    counters: CounterSnapshot | None = None

    @classmethod
    def alone(cls, measured: MeasuredResult) -> "BatchReplay":
        """A solo batch measured on its own (:func:`measure`)."""
        elapsed = measured.measured_ns
        return cls(total_ns=elapsed, memory_ns=(elapsed,),
                   finish_ns=(elapsed,), counters=measured.counters)


#: Default time-slice length (accesses per turn) of the interleaved
#: replay.  The ⊙ model divides capacity as if each co-runner keeps a
#: steady working partition; a quantum of one access instead models
#: adversarial per-access alternation (SMT worst case), where the
#: competitors evict each other's hot lines *between consecutive
#: accesses* — measurably worse than proportional sharing, especially
#: for the 8-entry TLB.  A quantum of tens of accesses corresponds to
#: the scheduler-granularity time-slicing a query service actually
#: exhibits, and is the regime the Section 5.2 division describes.
DEFAULT_QUANTUM = 64


def replay_interleaved(hierarchy: MemoryHierarchy,
                       traces: Sequence[Sequence[tuple]],
                       quantum: int = DEFAULT_QUANTUM) -> BatchReplay:
    """Replay ``traces`` round-robin (``quantum`` accesses per active
    trace per turn) through one cold
    :class:`~repro.simulator.MemorySystem`.

    Round-robin interleaving is the fair time-slicing ⊙ assumes: every
    co-runner advances at the same access rate while all compete for
    the same caches.  Shorter traces drop out as they finish, leaving
    the remainder more of the cache — the same asymmetry the footprint
    division models.  ``traces`` are tuple lists (the forms
    :meth:`MemorySystem.replay <repro.simulator.MemorySystem.replay>`
    takes), compacted on entry: the loop itself is the simulator's
    (:meth:`MemorySystem.replay_interleaved
    <repro.simulator.MemorySystem.replay_interleaved>`).
    """
    return _replay_cold(MemorySystem(hierarchy), traces, quantum)


def _replay_cold(mem: MemorySystem, traces: Sequence,
                 quantum: int) -> BatchReplay:
    """:func:`replay_interleaved` on ``mem``, which must be cold."""
    memory, finish = mem.replay_interleaved(traces, quantum)
    return BatchReplay(total_ns=mem.elapsed_ns,
                       memory_ns=tuple(memory),
                       finish_ns=tuple(finish),
                       counters=mem.snapshot())


def run_recorded(session: Session, plan: QueryPlan, mem: MemorySystem,
                 offset: int = 0, *, cold: bool, restore: bool
                 ) -> tuple[Column, CounterSnapshot, list]:
    """Run ``plan`` over ``session``'s engine on ``mem`` by its
    recording: :func:`record_trace` (cached), ``mem.reset()`` when
    ``cold``, the recording replayed on ``mem`` cut at its operator
    marks and, with ``restore=False``, its ``effects`` given to the
    scanned columns (a new value list each; the old one is not
    mutated).  Returns what executing ``plan`` directly on ``mem``
    under the operator probe would: the result column (a copy of the
    recording's; for a plan that sorts a scanned column in place, that
    column itself), the counter delta and ``(node, inclusive delta)``
    per operator execution."""
    recording, shift = record_trace(session, plan, offset)
    if cold:
        mem.reset()
    counters, records = recording.replay_marked(mem, shift)
    if not restore:
        for column, values in recording.effects:
            column.values = list(values)
    return recording.column(shift), counters, records


def measure(session: Session, plan: QueryPlan, mem: MemorySystem,
            explanation: Explanation | None = None, offset: int = 0, *,
            cold: bool = True, restore: bool = True) -> MeasuredResult:
    """One plan's typed measurement over ``session``'s engine, on
    ``mem``: :func:`run_recorded`, its counters paired with
    ``explanation``.

    ``mem`` is the session's own memory system for
    ``Session.execute_measured`` and a server's machine for its solo
    batches (after a recalibration *not* the session's model profile:
    predictions come from ``explanation``, by default the plan's under
    ``session.model``; the measurement must not).  ``restore=False``
    leaves the scanned columns as the execution left them (a sort of a
    base table sorts it in place) instead of as found."""
    if explanation is None:
        explanation = plan.explanation(session.model,
                                       signature=plan.signature)
    start = time.perf_counter()
    column, counters, records = run_recorded(
        session, plan, mem, offset, cold=cold, restore=restore)
    return measured_result(column, explanation,
                           time.perf_counter() - start, counters, records)


def execute_batch(members: Sequence[tuple[Session, QueryPlan, int]],
                  mem: MemorySystem, quantum: int
                  ) -> tuple[BatchReplay, list[int]]:
    """Measure one batch of ``(session, plan, address offset)`` members
    on the machine ``mem`` simulates: record every member's trace
    (cached, :func:`record_trace`) and replay them interleaved, cold —
    what a machine built for the batch would measure.  Returns the
    replay and the members' result cardinalities.

    ``mem`` is the caller's private per-batch machine (a driver keeps
    one for all its batches): it is reset, and what it holds afterwards
    is unspecified.  A one-member batch is served from the recording's
    memo of cold solo replays when its shift class repeats
    (:meth:`_Recording.replay_cold`), leaving ``mem`` reset with nothing
    replayed; a co-run always replays, because its members' relative
    shifts matter too."""
    recorded = [record_trace(*member) for member in members]
    if len(recorded) == 1:
        (recording, shift), = recorded
        replay = recording.replay_cold(mem, shift, quantum)
    else:
        mem.reset()
        replay = _replay_cold(mem, [recording.segment(shift)
                                    for recording, shift in recorded],
                              quantum)
    return replay, [recording.rows for recording, _ in recorded]


class ServiceExecutor:
    """The closed-loop driver over the serving core: every query is
    present at simulated time zero; compile → let the
    :class:`~repro.service.Stepper` decide each batch (seeding with the
    queue head) → measure it → settle.

    Parameters
    ----------
    session:
        The session owning the engine, catalog, registries and plan
        cache.  Every query compiles through it, whatever its client:
        one thread compiles and each task reads its compile's
        provenance (hit/miss) right after it, so the session's own
        counters see every compile of a run.
    mode / max_batch / slack:
        Batch-formation knobs (:class:`~repro.service.AdmissionController`);
        the queue is unbounded and batches replay with the
        :data:`DEFAULT_QUANTUM` time slice.
    """

    def __init__(self, session: Session, *,
                 mode: str = "interference-aware", max_batch: int = 4,
                 slack: float = 1.0) -> None:
        self.session = session
        self.interference = InterferenceModel(session.hierarchy)
        self._knobs = dict(mode=mode, max_batch=max_batch, slack=slack)
        self._run_queue()  # reject bad knobs here, not at the first run

    def _run_queue(self) -> AdmissionController:
        """A fresh unbounded run queue: each run starts with nothing
        queued, whatever a run that raised left behind."""
        return AdmissionController(self.interference, max_queue=math.inf,
                                   **self._knobs)

    def run(self, queries: Sequence[WorkloadQuery]) -> WorkloadReport:
        """Compile, batch, and execute ``queries``; returns the full
        simulated-time report."""
        hierarchy = self.session.hierarchy
        if self.interference.hierarchy is not hierarchy:
            # the shared engine's profile changed since the last run
            self.interference = InterferenceModel(hierarchy)
        admission = self._run_queue()
        stepper = Stepper.closed_loop(admission, [
            compile_task(self.session, self.interference, q)
            for q in queries])
        mem = MemorySystem(hierarchy)
        query_metrics: list[QueryMetrics] = []
        batch_metrics: list[BatchMetrics] = []
        for step in stepper:
            batch, clock = step.batch, step.now_ns
            operators = None
            if len(batch) == 1:
                # nobody to interleave with: the typed measurement,
                # per-operator attribution included
                measured = measure(self.session, batch[0].plan, mem)
                replay, operators = (BatchReplay.alone(measured),
                                     measured.operators)
            else:
                replay, _ = execute_batch(
                    [(self.session, t.plan, 0) for t in batch], mem,
                    DEFAULT_QUANTUM)
            finishes, metrics = settle(stepper.batch_count, batch, replay)
            for t, mem_ns, finish in zip(batch, replay.memory_ns, finishes):
                query_metrics.append(QueryMetrics(
                    qid=t.qid, client=t.client, kind=t.kind,
                    signature=t.signature, batch_index=metrics.index,
                    cache_hit=t.cache_hit, start_ns=clock,
                    finish_ns=clock + finish, memory_ns=mem_ns,
                    cpu_ns=t.cpu_ns, operators=operators))
            batch_metrics.append(metrics)
            stepper.advance(step, metrics.measured_makespan_ns)
        query_metrics.sort(key=lambda m: m.qid)
        return WorkloadReport(admission.mode, query_metrics, batch_metrics,
                              fingerprint=self.session.fingerprint)
