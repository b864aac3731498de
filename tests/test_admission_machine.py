"""The admission controller as a state machine: random offers (tenants,
quotas, arrivals) interleaved with ``next_batch(now)`` calls, and after
every step the queue's invariants.

* the queue never holds more than ``max_queue`` tasks;
* ``_occupancy`` is a recount of the queue;
* a refused task is never queued, and a displaced victim leaves it;
* a displaced victim belongs to the heaviest tenant at the offer, and
  a full queue refuses no tenant within its quota that is lighter than
  the heaviest by more than one;
* a batch holds at most ``max_batch`` tasks, none arrived after
  ``now``, every one taken off the queue.
"""

import itertools
from collections import Counter
from dataclasses import replace

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.server import TenantQuota
from repro.service import (
    MODES,
    AdmissionController,
    InterferenceModel,
    WorkloadGenerator,
    compile_task,
)
from repro.session import Session


def _templates():
    """Three distinct compiled tasks to stamp copies of, and the model
    that priced them."""
    session = Session()
    interference = InterferenceModel(session.hierarchy)
    queries = WorkloadGenerator(session, scale=64,
                                seed=7).generate(12, clients=1)
    tasks = {}
    for query in queries:
        task = compile_task(session, interference, query)
        tasks.setdefault(task.signature, task)
    return interference, list(tasks.values())[:3]


INTERFERENCE, TEMPLATES = _templates()


class AdmissionMachine(RuleBasedStateMachine):
    @initialize(mode=st.sampled_from(MODES),
                max_queue=st.integers(1, 8), max_batch=st.integers(1, 4),
                quotas=st.lists(st.integers(1, 6), min_size=1, max_size=3))
    def build(self, mode, max_queue, max_batch, quotas):
        self.admission = AdmissionController(
            INTERFERENCE, mode=mode, max_queue=max_queue,
            max_batch=max_batch)
        self.quotas = {f"tenant{i}": TenantQuota(max_queued=quota)
                       for i, quota in enumerate(quotas)}
        self.qids = itertools.count()
        self.now = 0.0

    def _queued(self, task) -> bool:
        return any(queued is task for queued in self.admission.queue)

    @rule(data=st.data(), template=st.sampled_from(TEMPLATES),
          arrival=st.floats(0.0, 20_000.0))
    def offer(self, data, template, arrival):
        tenant = data.draw(st.sampled_from(sorted(self.quotas)))
        task = replace(template, qid=next(self.qids), tenant=tenant,
                       arrival_ns=arrival)
        before = Counter(t.tenant for t in self.admission.queue)
        full = len(self.admission.queue) >= self.admission.max_queue
        shed = self.admission.offer(task, self.quotas[tenant])
        if (full and before[tenant] < self.quotas[tenant].max_queued
                and before[tenant] + 1 < max(before.values())):
            # a lighter tenant is never refused for a full queue
            assert shed != [task]
        if shed == [task]:
            assert not self._queued(task)
            return
        assert self._queued(task)
        if shed:
            [victim] = shed
            assert victim.tenant != tenant
            assert before[victim.tenant] == max(before.values())
            assert not self._queued(victim)

    @rule(advance=st.floats(0.0, 5_000.0))
    def next_batch(self, advance):
        self.now += advance
        due = [t for t in self.admission.queue if t.arrival_ns <= self.now]
        batch = self.admission.next_batch(self.now)
        assert len(batch) <= self.admission.max_batch
        assert bool(batch) == bool(due)
        for task in batch:
            assert task.arrival_ns <= self.now
            assert any(task is t for t in due)
            assert not self._queued(task)

    @invariant()
    def queue_is_bounded_and_counted(self):
        queue = self.admission.queue
        assert len(queue) <= self.admission.max_queue
        occupancy = self.admission._occupancy
        assert all(count >= 0 for count in occupancy.values())
        assert +occupancy == Counter(task.tenant for task in queue)


TestAdmissionMachine = AdmissionMachine.TestCase
