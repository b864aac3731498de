"""The serving core: one task type, one compile-and-price step, one
⊙ admission rule, one settlement.

Everything that serves queries — the closed-loop
:class:`~repro.service.ServiceExecutor`, the open-loop
:class:`~repro.server.QueryServer`, and the execution-free
:class:`~repro.whatif.WhatIfSweep` — is a driver over these four
pieces, so a what-if row prices exactly the batches the server would
form and the executor would measure.

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
from typing import TYPE_CHECKING, Sequence

from ..query.physical import QueryPlan
from ..session import Session
from .interference import CoRunPrediction, InterferenceModel
from .metrics import BatchMetrics
from .workload import WorkloadQuery

if TYPE_CHECKING:
    from .executor import BatchReplay

__all__ = ["MODES", "Task", "compile_task", "Batch", "BatchFormer",
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


class BatchFormer:
    """The one batch-formation rule (see the module docstring).

    The *caller* picks each batch's seed — the queue head in a closed
    loop, a tenant round-robin in the server — and the candidates it
    may grow with; the former decides who joins.  The candidate scan is
    bounded by ``lookahead`` positions so forming a batch stays
    ``O(max_batch · lookahead)`` co-run predictions, and unpicked
    candidates keep their order.
    """

    def __init__(self, interference: InterferenceModel,
                 mode: str = "interference-aware", max_batch: int = 4,
                 slack: float = 1.0, lookahead: int = 8) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown admission mode {mode!r} "
                             f"(expected one of {MODES})")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if slack <= 0:
            raise ValueError("slack must be positive")
        if lookahead < 1:
            raise ValueError("lookahead must be positive")
        self.interference = interference
        self.mode = mode
        self.max_batch = max_batch
        self.slack = slack
        self.lookahead = lookahead

    def form(self, seed: Task, candidates: Sequence[Task]) -> Batch:
        """The batch that starts with ``seed`` and may grow with
        ``candidates`` (in their waiting order)."""
        co_run = self.interference.co_run
        batch = [seed]
        if self.mode == "max-parallel":
            batch += candidates[:self.max_batch - 1]
        prediction = co_run([t.plan for t in batch])
        if self.mode != "interference-aware":
            return Batch(batch, prediction)
        candidates = list(candidates)
        current = prediction.makespan_ns
        while len(batch) < self.max_batch and candidates:
            plans = [t.plan for t in batch]
            best = None
            for i, candidate in enumerate(candidates[:self.lookahead]):
                grown = co_run(plans + [candidate.plan])
                predicted = grown.makespan_ns
                limit = current + self.slack * candidate.solo_total_ns
                if predicted > limit:
                    continue  # rejected: queueing it is cheaper
                if best is None or predicted < best[1]:
                    best = (i, predicted, grown)
            if best is None:
                break
            index, current, prediction = best
            batch.append(candidates.pop(index))
        return Batch(batch, prediction)

    def drain(self, tasks: Sequence[Task]) -> list[Batch]:
        """Closed loop: every task is present from the start, and each
        batch seeds with the queue head, so no task is starved."""
        queue = list(tasks)
        batches: list[Batch] = []
        while queue:
            batch = self.form(queue[0], queue[1:])
            taken = {id(task) for task in batch}
            queue = [task for task in queue if id(task) not in taken]
            batches.append(batch)
        return batches


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
