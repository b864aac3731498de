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
mode) and relocated after (:func:`record_trace`).  This rests on one
assumption, stated here because nothing checks it: *a plan is a pure
function of its input columns* — its kernels are deterministic and its
predicates have no side effects, so a run over the same input values
issues the same accesses, except that its scratch allocations land
wherever the bump allocator stands.  A cache hit re-runs no kernel and
no predicate.

Timing follows :mod:`repro.service.interference`: per batch,
``makespan = max(Σ mem_i, max_i (cpu_i + mem_i))`` with ``mem_i``
query ``i``'s share of the replayed (contended) memory time — memory
latencies serialize on the shared hierarchy, CPU overlaps other
queries' stalls.  Batches execute in sequence on a simulated clock.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

from ..hardware.hierarchy import MemoryHierarchy
from ..query.observe import MeasuredResult, measure_plan
from ..query.physical import QueryPlan, ScanNode
from ..session import Session
from ..simulator.counters import CounterSnapshot
from ..simulator.memory import MemorySystem
from .admission import AdmissionController
from .core import Stepper, compile_task, settle
from .interference import InterferenceModel
from .metrics import BatchMetrics, QueryMetrics, WorkloadReport
from .workload import WorkloadQuery

__all__ = ["TraceRecorder", "record_trace", "replay_interleaved",
           "trace_length", "measure_solo", "execute_batch", "BatchReplay",
           "ServiceExecutor"]


class TraceRecorder:
    """A stand-in for :class:`~repro.simulator.MemorySystem` that
    records the access trace instead of simulating it (operators only
    ever call :meth:`access`/:meth:`read`/:meth:`write` — or, since the
    vectorized engine, :meth:`access_range` and :meth:`batch`).

    Trace entries are either a plain ``(addr, nbytes)`` read or
    ``(addr, nbytes, True)`` write, or a coalesced ``("range", addr,
    nbytes, stride, count)`` run standing for ``count`` reads
    (``("range", addr, nbytes, stride, count, True)``: writes) — the
    forms :meth:`MemorySystem.replay
    <repro.simulator.MemorySystem.replay>` takes.  Replay expands ranges
    access-for-access, so a trace recorded under vectorized execution
    replays to the same counters as its scalar recording, and keeping
    writes makes a buffer pool's dirty pages and write-backs match
    direct execution too.  Every recorded address is shifted by
    ``offset`` (a tenant's private slice of the address space) as it is
    appended."""

    __slots__ = ("trace", "offset")

    def __init__(self, offset: int = 0) -> None:
        self.trace: list[tuple] = []
        self.offset = offset

    def access(self, addr: int, nbytes: int = 1, write: bool = False) -> None:
        self.trace.append((addr + self.offset, nbytes, True) if write
                          else (addr + self.offset, nbytes))

    def access_range(self, addr: int, nbytes: int, stride: int | None = None,
                     count: int = 1, write: bool = False) -> None:
        if count > 0:
            entry = ("range", addr + self.offset, nbytes,
                     nbytes if stride is None else stride, count)
            self.trace.append(entry + (True,) if write else entry)

    def batch(self):
        trace, offset = self.trace, self.offset

        def fused(addr: int, nbytes: int = 8, write: bool = False) -> None:
            trace.append((addr + offset, nbytes, True) if write
                         else (addr + offset, nbytes))

        return fused

    def read(self, addr: int, nbytes: int = 1) -> None:
        self.access(addr, nbytes)

    def write(self, addr: int, nbytes: int = 1) -> None:
        self.access(addr, nbytes, write=True)


def trace_length(trace: Sequence[tuple]) -> int:
    """The number of simulated accesses a trace stands for (coalesced
    range entries count every item in the run)."""
    return sum(entry[4] if entry[0] == "range" else 1 for entry in trace)


@contextmanager
def _engine_on(session: Session, mem):
    """``session``'s engine with ``mem`` standing in for its memory
    system (whose clock and cache state stay untouched), under the
    session's execution mode; base columns are restored afterwards
    (in-place sorts must not leak into the next run)."""
    db = session.db
    real, db.mem = db.mem, mem
    try:
        with session._restoring(True), \
                db.execution_scope(session.config.execution):
            yield db
    finally:
        db.mem = real


class _Recording:
    """One execution of a plan, kept beside it
    (:attr:`QueryPlan.traces <repro.query.physical.QueryPlan.traces>`)
    to stand in for the next ones: the trace, stored compactly, and
    what the execution depended on and did to the allocator.

    The trace is two ``array('q')`` columns, one row per entry: the
    address, and ``2 * nbytes + write`` for a plain entry or ``-1`` for
    a range entry, which is kept as recorded in :attr:`ranges`."""

    __slots__ = ("start", "alignment", "span", "nbytes", "rows", "inputs",
                 "addresses", "sizes", "ranges")

    def __init__(self, trace: list[tuple], rows: int, inputs: tuple,
                 start: int, alignment: int, span: int,
                 nbytes: int) -> None:
        #: allocator address the execution started at, the lcm of the
        #: alignments it requested, the span it advanced the allocator
        #: by and the bytes it allocated there
        self.start, self.alignment = start, alignment
        self.span, self.nbytes = span, nbytes
        self.rows = rows
        #: ``(column, address, values)`` of every scanned column
        self.inputs = inputs
        self.addresses, self.sizes = array("q"), array("q")
        self.ranges: list[tuple] = []
        for entry in trace:
            if entry[0] == "range":
                self.addresses.append(entry[1])
                self.sizes.append(-1)
                self.ranges.append(entry)
            else:
                self.addresses.append(entry[0])
                self.sizes.append(2 * entry[1] + (len(entry) == 3))

    def matches(self, start: int) -> bool:
        """Whether an execution starting at allocator address ``start``
        would issue this trace relocated: every scratch allocation
        lands ``start - self.start`` higher, and every input column is
        where and what it was."""
        return ((start - self.start) % self.alignment == 0
                and all(column.address == address and column.values == values
                        for column, address, values in self.inputs))

    def relocate(self, shift: int, floor: int) -> list[tuple]:
        """The trace with every address at or above ``floor`` (the
        scratch allocations, tenant offset included) ``shift`` higher."""
        ranges = iter([entry if entry[1] < floor
                       else ("range", entry[1] + shift, *entry[2:])
                       for entry in self.ranges])
        return [next(ranges) if n < 0
                else (a + shift if a >= floor else a, n >> 1) if not n & 1
                else (a + shift if a >= floor else a, n >> 1, True)
                for a, n in zip(self.addresses, self.sizes)]


def record_trace(session: Session, plan: QueryPlan,
                 offset: int = 0) -> tuple[list[tuple], int]:
    """Execute ``plan`` on ``session``'s engine with a recording memory
    system; returns its access trace, every address shifted by
    ``offset`` (a tenant's private slice of the address space), and
    the result cardinality.  Every batch member records against the
    same base state.

    The first call per (engine, ``offset``, execution mode) executes
    and keeps the recording beside the plan; a later call *relocates*
    it instead.  The bump allocator makes that exact: a run that starts
    ``d`` bytes higher, ``d`` a multiple of every alignment the
    recording requested, allocates every scratch region exactly ``d``
    higher.  So when ``d`` is such a multiple and every scanned column
    is at the same address with the same values, the call shifts the
    recorded scratch accesses by ``d``, advances the allocator as the
    recording did, and returns the recorded cardinality — no kernel,
    recorder or snapshot/restore runs.  Anything else executes afresh
    and replaces the recording (a run that raises leaves none).  The
    one assumption is that the plan is a pure function of its input
    columns (see the module docstring): predicates are not re-run on a
    hit."""
    allocator = session.db.allocator
    key = (session.db, offset, session.config.execution)
    start = allocator.next_address
    recording = plan.traces.get(key)
    if recording is not None and recording.matches(start):
        allocator.advance(recording.span, recording.nbytes)
        return (recording.relocate(start - recording.start,
                                   recording.start + offset),
                recording.rows)
    plan.traces.pop(key, None)
    inputs = tuple((node.column, node.column.address,
                    node.column.copy_values())
                   for node in plan.root.walk()
                   if isinstance(node, ScanNode) and node.column is not None)
    allocated = allocator.bytes_allocated
    recorder = TraceRecorder(offset)
    with allocator.watch() as alignments, \
            _engine_on(session, recorder) as db:
        rows = len(plan.execute(db).values)
    plan.traces[key] = _Recording(
        recorder.trace, rows, inputs, start, math.lcm(*alignments),
        allocator.next_address - start,
        allocator.bytes_allocated - allocated)
    return recorder.trace, rows


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
    division models.  The loop itself is the simulator's
    (:meth:`MemorySystem.replay_interleaved
    <repro.simulator.MemorySystem.replay_interleaved>`).
    """
    return _replay_cold(MemorySystem(hierarchy), traces, quantum)


def _replay_cold(mem: MemorySystem, traces: Sequence[Sequence[tuple]],
                 quantum: int) -> BatchReplay:
    """:func:`replay_interleaved` on ``mem``, which must be cold."""
    memory, finish = mem.replay_interleaved(traces, quantum)
    return BatchReplay(total_ns=mem.elapsed_ns,
                       memory_ns=tuple(memory),
                       finish_ns=tuple(finish),
                       counters=mem.snapshot())


def measure_solo(session: Session, plan: QueryPlan,
                 mem: MemorySystem) -> MeasuredResult:
    """One plan's cold typed measurement over ``session``'s engine, on
    ``mem`` (reset first) — a machine for the hierarchy a co-run batch
    is replayed on, which after a recalibration is *not* the session's
    model profile (predictions come from ``session.model``; the
    measurement must not).  The solo-batch path both the offline
    executor and the query server use."""
    with _engine_on(session, mem) as db:
        return measure_plan(db, plan, session.model,
                            signature=plan.signature)


def execute_batch(members: Sequence[tuple[Session, QueryPlan, int]],
                  mem: MemorySystem, quantum: int, *, attribute: bool
                  ) -> tuple[BatchReplay, list[int], MeasuredResult | None]:
    """Measure one co-run batch of ``(session, plan, address offset)``
    members on the machine ``mem`` simulates: record every member's
    trace, replay them interleaved through ``mem``, reset cold first —
    a driver keeps one machine for all its batches rather than building
    one per batch.  Returns the replay, the members' result
    cardinalities, and — for a solo batch when ``attribute`` is set —
    the typed measurement.

    A solo member needs no interleaving, so with ``attribute`` it runs
    through :func:`measure_solo` instead, which yields the identical
    cold-cache counters a single-trace replay would (the out-of-core
    suite proves replay == execution) *plus* per-operator
    predicted-vs-measured attribution."""
    if attribute and len(members) == 1:
        session, plan, _ = members[0]
        measured = measure_solo(session, plan, mem)
        elapsed = measured.measured_ns
        return (BatchReplay(total_ns=elapsed, memory_ns=(elapsed,),
                            finish_ns=(elapsed,),
                            counters=measured.counters),
                [len(measured.column.values)], measured)
    recorded = [record_trace(*member) for member in members]
    mem.reset()
    replay = _replay_cold(mem, [trace for trace, _ in recorded], quantum)
    return replay, [rows for _, rows in recorded], None


class ServiceExecutor:
    """The closed-loop driver over the serving core: every query is
    present at simulated time zero; compile → let the
    :class:`~repro.service.Stepper` decide each batch (seeding with the
    queue head) → measure it → settle.

    Parameters
    ----------
    session:
        The root session owning the shared engine, catalog, and plan
        cache.  Each client gets its own :meth:`~Session.spawn`-ed
        session over the same engine and cache, so compile provenance
        (hit/miss) is tracked per client while plans are shared.
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
        self._clients: dict[int, Session] = {}

    def _run_queue(self) -> AdmissionController:
        """A fresh unbounded run queue: each run starts with nothing
        queued, whatever a run that raised left behind."""
        return AdmissionController(self.interference, max_queue=math.inf,
                                   **self._knobs)

    def _client_session(self, client: int) -> Session:
        if client not in self._clients:
            self._clients[client] = self.session.spawn()
        return self._clients[client]

    def run(self, queries: Sequence[WorkloadQuery]) -> WorkloadReport:
        """Compile, batch, and execute ``queries``; returns the full
        simulated-time report."""
        hierarchy = self.session.hierarchy
        if self.interference.hierarchy is not hierarchy:
            # the shared engine's profile changed since the last run
            self.interference = InterferenceModel(hierarchy)
        admission = self._run_queue()
        stepper = Stepper.closed_loop(admission, [
            compile_task(self._client_session(q.client),
                         self.interference, q) for q in queries])
        mem = MemorySystem(hierarchy)
        query_metrics: list[QueryMetrics] = []
        batch_metrics: list[BatchMetrics] = []
        for step in stepper:
            batch, clock = step.batch, step.now_ns
            replay, _, measured = execute_batch(
                [(self.session, t.plan, 0) for t in batch], mem,
                DEFAULT_QUANTUM, attribute=True)
            finishes, metrics = settle(stepper.batch_count, batch, replay)
            operators = None if measured is None else measured.operators
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
