"""Admission control: bounded queueing, load shedding, ⊙-guided
batches.

The controller owns a run queue and answers two questions.

**May this query wait here?**  The queue is bounded (overload must
surface as explicit shedding, not unbounded simulated latency), and
per-tenant fairly: each tenant's occupancy is capped by its quota, and
when the queue is full a light tenant's arrival displaces the newest
queued query of the *heaviest* tenant instead of being shed — one
tenant flooding the server cannot starve the others out of the queue.

**What runs next?**  Batch formation is the serving core's one rule
(:class:`~repro.service.BatchFormer`); the controller supplies the
queue.  Only queries that have *arrived* by the decision time are
candidates (open-loop semantics: the scheduler cannot see the future),
and ⊙-guided batches seed round-robin over tenants so no tenant waits
forever behind a chattier one; the two baseline modes stay
tenant-blind (arrival order only).

Every serving loop's queue is one of these, asked by the one
:class:`~repro.service.Stepper`: the server's is bounded and
tenant-fair; a closed loop's (:class:`~repro.service.ServiceExecutor`,
:class:`~repro.whatif.WhatIfSweep`) is built afresh for each run, with
``max_queue=math.inf``, no quotas and one tenant, so each batch seeds
with the queue head.
"""

from __future__ import annotations

from collections import Counter

from .core import Batch, BatchFormer, Task
from .interference import InterferenceModel

__all__ = ["AdmissionController"]


class AdmissionController(BatchFormer):
    """The batch former behind a bounded, tenant-fair run queue."""

    def __init__(self, interference: InterferenceModel,
                 mode: str = "interference-aware",
                 max_queue: float = 64, max_batch: int = 4,
                 slack: float = 1.0, lookahead: int = 8) -> None:
        super().__init__(interference, mode=mode, max_batch=max_batch,
                         slack=slack, lookahead=lookahead)
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.max_queue = max_queue
        #: Arrival-ordered run queue.
        self.queue: list[Task] = []
        #: Queued tasks per tenant — a running recount of ``queue``
        #: that :meth:`offer` and :meth:`next_batch` keep in step.
        self._occupancy: Counter[str] = Counter()
        #: Round-robin seed order over tenant names (least recently
        #: seeded first).
        self._rr: list[str] = []

    # -- queue side ----------------------------------------------------
    def occupancy(self, tenant: str) -> int:
        return self._occupancy[tenant]

    def offer(self, task: Task, quota=None) -> list[Task]:
        """Try to queue ``task`` under its tenant's ``quota`` (a
        :class:`~repro.server.TenantQuota`; ``None``: no per-tenant
        cap); returns the tasks shed by the attempt — ``[task]`` itself
        when it was refused, ``[victim]`` when it displaced a heavier
        tenant's entry, ``[]`` when it simply fit."""
        if task.tenant not in self._rr:
            self._rr.append(task.tenant)
        if quota is not None \
                and self.occupancy(task.tenant) >= quota.max_queued:
            return [task]  # over its own quota: shed, nobody displaced
        if len(self.queue) < self.max_queue:
            self.queue.append(task)
            self._occupancy[task.tenant] += 1
            return []
        # Queue full: a lighter tenant displaces the newest entry of
        # the heaviest one (never the other way round) — fairness means
        # overload is charged to whoever causes it.  Equally heavy
        # tenants tie towards the one that queued here first.
        heaviest = max(self._occupancy, key=self.occupancy)
        if (heaviest == task.tenant
                or self.occupancy(task.tenant) + 1
                >= self.occupancy(heaviest)):
            return [task]
        victim = next(t for t in reversed(self.queue)
                      if t.tenant == heaviest)
        self.queue.remove(victim)
        self.queue.append(task)
        self._occupancy[heaviest] -= 1
        self._occupancy[task.tenant] += 1
        return [victim]

    def earliest_arrival(self) -> float | None:
        """The earliest arrival time still queued (for idle-clock
        jumps), or ``None`` on an empty queue."""
        if not self.queue:
            return None
        return min(t.arrival_ns for t in self.queue)

    # -- batch side ----------------------------------------------------
    def _seed(self, arrived: list[Task]) -> Task:
        """The next ⊙-guided batch's seed: the longest-waiting query of
        the least recently seeded tenant that has anything waiting."""
        for name in self._rr:
            for task in arrived:
                if task.tenant == name:
                    self._rr.remove(name)
                    self._rr.append(name)
                    return task
        return arrived[0]

    def next_batch(self, now_ns: float) -> Batch:
        """Form (and dequeue) the next co-run batch among the queries
        that have arrived by ``now_ns``; empty when none have."""
        arrived = [t for t in self.queue if t.arrival_ns <= now_ns]
        if not arrived:
            return Batch()
        seed = (self._seed(arrived) if self.mode == "interference-aware"
                else arrived[0])
        batch = self.form(seed, [t for t in arrived if t is not seed])
        for task in batch:
            self.queue.remove(task)
            self._occupancy[task.tenant] -= 1
        return batch

    def __repr__(self) -> str:
        return (f"AdmissionController(mode={self.mode!r}, "
                f"queued={len(self.queue)}/{self.max_queue}, "
                f"max_batch={self.max_batch}, slack={self.slack})")
