"""The serving core: one task type, one compile-and-price step, one
clock-only stepper, one settlement — and the modes of the one ⊙
admission rule (:meth:`AdmissionController.form
<repro.service.AdmissionController.form>`).

Everything that serves queries — the closed-loop
:class:`~repro.service.ServiceExecutor`, the open-loop
:class:`~repro.server.QueryServer`, and the execution-free
:class:`~repro.whatif.WhatIfSweep` — is built on these pieces:
each stages compiled tasks into a :class:`Stepper`, asks it for the
next decision, executes (or prices) the batch it names, and tells it
how long the batch took.  So a what-if row prices exactly the batches
the server would form and the executor would measure.

The stepper decides on the simulated clock alone.  It holds no
thread, event loop or future: a decision at simulated time *t* is a
function of the tasks staged so far and of the one thing a caller
with threads must tell it — the earliest arrival still compiling, at
or before which it does not decide.

Batches, not a continuous stream, keep the simulated-time semantics
exact: within a batch the members' access traces interleave on the
shared hierarchy; across batches the machine is a simple sequence.
Three modes span the design space:

* ``"fifo-serial"`` — the baseline: one query per batch, no
  concurrency, no interference (and no CPU/memory overlap either);
* ``"max-parallel"`` — the opposite extreme: pack every batch to the
  concurrency cap in arrival order, blind to contention;
* ``"interference-aware"`` — greedy co-schedule selection under the ⊙
  model: grow the batch with the candidate that increases the
  predicted makespan least, and admit a candidate only while

      makespan(batch ∪ {c})  ≤  makespan(batch) + slack · solo(c)

  i.e. co-running ``c`` is predicted to cost no more than running it
  *after* the batch (``slack=1``), so an admission never makes the
  predicted schedule worse than FIFO-serial.  ``slack`` trades
  strictness for packing: below 1 it demands a predicted win from
  concurrency, above 1 it tolerates bounded interference in exchange
  for freeing later batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from ..query.physical import QueryPlan
from ..session import Session
from .interference import CoRunPrediction, InterferenceModel
from .metrics import BatchMetrics
from .workload import WorkloadQuery

if TYPE_CHECKING:
    from .admission import AdmissionController
    from .executor import BatchReplay

__all__ = ["MODES", "Task", "compile_task", "Batch", "Step", "Stepper",
           "settle"]

#: Recognized batch-formation modes.
MODES = ("interference-aware", "max-parallel", "fifo-serial")


@dataclass
class Task:
    """One compiled, standalone-priced query awaiting execution."""

    qid: int
    kind: str
    text: str
    plan: QueryPlan
    #: Predicted standalone (cold, whole-cache) memory time.
    solo_memory_ns: float
    #: Calibrated pure-CPU time (Eq. 6.1).
    cpu_ns: float
    #: Whether compilation was served from the plan cache.
    cache_hit: bool
    #: The chosen physical plan's one-line signature.
    signature: str = ""
    #: Issuing client of the workload stream.
    client: int = 0
    #: Owning tenant's name (empty outside the multi-tenant server).
    tenant: str = ""
    #: Arrival time on the simulated clock (0 in a closed loop).
    arrival_ns: float = 0.0
    #: Fingerprint of the profile the plan was compiled (and priced)
    #: under — response provenance across recalibrations.
    fingerprint: str = ""
    #: Wall-clock (``perf_counter_ns``) stamps around the compile.
    compile_wall_start_ns: int = 0
    compile_wall_end_ns: int = 0
    #: Resolution slot the server attaches (an asyncio future-like);
    #: nothing in the core touches it.
    handle: object = field(default=None, repr=False, compare=False)
    #: Why the task cannot run: a server's failed compile (then
    #: ``plan`` is ``None``) or a failed offer.  The stepper refuses
    #: such a task at its arrival without offering it.
    error: Exception | None = field(default=None, init=False, repr=False,
                                    compare=False)

    @property
    def solo_total_ns(self) -> float:
        """Standalone completion time (Eq. 6.1: memory + CPU)."""
        return self.solo_memory_ns + self.cpu_ns

    @property
    def compile_wall_ns(self) -> int:
        """Wall-clock nanoseconds the compile took."""
        return self.compile_wall_end_ns - self.compile_wall_start_ns


def compile_task(session: Session, interference: InterferenceModel,
                 query: WorkloadQuery, tenant: str = "") -> Task:
    """Compile ``query`` through ``session`` (and whatever plan cache
    it shares) and price the plan's standalone run."""
    wall_start = time.perf_counter_ns()
    plan = session.compile(query.text).plan
    memory, cpu = interference.standalone(plan)
    return Task(qid=query.qid, kind=query.kind, text=query.text,
                plan=plan, solo_memory_ns=memory, cpu_ns=cpu,
                cache_hit=session.last_compile_cached,
                signature=plan.signature, client=query.client,
                tenant=tenant, arrival_ns=query.arrival_ns,
                fingerprint=session.fingerprint,
                compile_wall_start_ns=wall_start,
                compile_wall_end_ns=time.perf_counter_ns())


class Batch(list):
    """A formed co-run batch: the member tasks in admission order, plus
    the ⊙ prediction they were admitted under (so no caller re-prices
    the batch it was just handed)."""

    def __init__(self, tasks: Sequence[Task] = (),
                 prediction: CoRunPrediction | None = None) -> None:
        super().__init__(tasks)
        self.prediction = prediction
        #: What forming the batch raised (then it holds every task that
        #: was due, dequeued, and has no prediction).
        self.error: Exception | None = None


class Step(NamedTuple):
    """One decision of a :class:`Stepper`."""

    #: The simulated time it was made at: the clock, or the earliest
    #: waiting arrival when the machine is idle.
    now_ns: float
    #: Every task offered to the run queue, in ``(arrival_ns, qid)``
    #: order, each with the tasks its offer shed (itself when refused,
    #: a displaced victim, or none).
    offers: list[tuple[Task, list[Task]]]
    #: The batch to run at ``now_ns``; empty when everything due was
    #: shed (the next step jumps to the next arrival).
    batch: Batch


class Stepper:
    """The clock-only decision loop every serving loop runs.

    A caller :meth:`stage`\\ s compiled tasks in any order and calls
    :meth:`step`; each step picks its simulated time — the clock, or
    the earliest waiting arrival when the machine is idle — offers the
    staged tasks that have arrived by then to ``admission`` in
    ``(arrival_ns, qid)`` order, and asks it for the next batch.  The
    caller runs the batch and reports its makespan to :meth:`advance`.
    ``quota_of`` looks up a tenant's quota by name where the caller
    keeps it (default: no tenant has a cap).

    A batch never includes a query that had not arrived when it
    started, and, given ``blocked_from`` (the earliest arrival of a
    query not staged yet), no decision is made at or after a time a
    missing query could still claim — so what a serving run decides is
    a function of the workload, never of the order its tasks were
    staged in.

    A step does not raise.  A task carrying an ``error`` (a server's
    failed compile) is refused at its arrival without being offered,
    and so is one whose offer raises; a batch that cannot be formed
    comes back holding every task that was due, with its ``error``
    (iterating a closed loop raises it).
    """

    def __init__(self, admission: "AdmissionController",
                 quota_of: Callable[[str], object] | None = None) -> None:
        self.admission = admission
        self.quota_of = quota_of
        #: The machine's simulated clock: when the last batch ended.
        self.clock_ns = 0.0
        #: Batches advanced past so far — the next batch's index.
        self.batch_count = 0
        #: Heap of ``(arrival_ns, qid, task)``: staged, not offered.
        self._staged: list[tuple[float, int, Task]] = []

    @classmethod
    def closed_loop(cls, admission: "AdmissionController",
                    tasks: Sequence[Task]) -> "Stepper":
        """A stepper over ``tasks`` all queued, in their given order,
        at simulated time zero (their arrival stamps reset), so each
        batch seeds with the queue head and no task is starved.
        ``admission`` must take them all (``max_queue=math.inf``)."""
        for task in tasks:
            task.arrival_ns = 0.0
            if admission.offer(task):
                raise ValueError("a closed loop's queue must be unbounded")
        return cls(admission)

    def stage(self, task: Task) -> None:
        """Hand over a compiled task (any order)."""
        heappush(self._staged, (task.arrival_ns, task.qid, task))

    def step(self, blocked_from: float | None = None) -> Step | None:
        """The next decision, or ``None`` when the clock cannot
        advance: nothing is staged or queued, or ``blocked_from`` is at
        or before the time the decision would be made at."""
        admission, staged = self.admission, self._staged
        earliest = admission.earliest_arrival()
        if staged and (earliest is None or staged[0][0] < earliest):
            earliest = staged[0][0]
        if earliest is None:
            return None
        now = max(self.clock_ns, earliest)
        if blocked_from is not None and blocked_from <= now:
            return None
        offers = []
        while staged and staged[0][0] <= now:
            task = heappop(staged)[2]
            offers.append((task, self._offer(task)))
        try:
            batch = admission.next_batch(now)
        except Exception as exc:
            batch = Batch(admission.dequeue(
                [t for t in admission.queue if t.arrival_ns <= now]))
            batch.error = exc
        return Step(now, offers, batch)

    def _offer(self, task: Task) -> list[Task]:
        """Offer ``task`` to the run queue; what the offer shed.  A task
        with an ``error``, or whose offer raises (then that becomes its
        ``error``), is refused."""
        quota_of = self.quota_of
        if task.error is None:
            try:
                return self.admission.offer(
                    task, None if quota_of is None else quota_of(task.tenant))
            except Exception as exc:
                task.error = exc
        return [task]

    def advance(self, step: Step, makespan_ns: float) -> None:
        """``step``'s batch ran for ``makespan_ns``: the machine is
        free again at ``step.now_ns + makespan_ns``.  A batch that
        failed is never advanced past — it takes no index and no
        simulated time."""
        self.clock_ns = step.now_ns + makespan_ns
        self.batch_count += 1

    def drop(self) -> list[Task]:
        """Empty the stepper: every task staged or queued."""
        tasks = [entry[2] for entry in self._staged]
        self._staged.clear()
        return tasks + self.admission.dequeue(list(self.admission.queue))

    def __iter__(self):
        """Every decision until the clock cannot advance (a closed
        loop's batches); a batch that could not be formed raises its
        error here."""
        while (step := self.step()) is not None:
            if step.batch.error is not None:
                raise step.batch.error
            yield step


def settle(index: int, batch: Batch, replay: "BatchReplay"
           ) -> tuple[list[float], BatchMetrics]:
    """Measured-side timing of one executed batch (Eq. 6.1): a member
    is done once its accesses have drained *and* its own CPU work fits
    after/between them; the batch lasts until its slowest member, and
    never less than the shared hierarchy's total memory time.  Returns
    the per-member finish offsets and the batch's
    prediction-next-to-measurement record."""
    finishes = [max(mem_finish, mem + task.cpu_ns)
                for task, mem, mem_finish
                in zip(batch, replay.memory_ns, replay.finish_ns)]
    return finishes, BatchMetrics(
        index=index, size=len(batch),
        predicted_memory_ns=batch.prediction.batch_memory_ns,
        measured_memory_ns=replay.total_ns,
        predicted_makespan_ns=batch.prediction.makespan_ns,
        measured_makespan_ns=max(max(finishes), replay.total_ns))
