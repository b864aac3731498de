"""The asyncio multi-tenant query server: the thread hand-off around
the :class:`~repro.server.dispatcher.Dispatcher`.

:class:`QueryServer` turns the offline cost-model stack into a
long-lived service: text-frontend queries arrive (open-loop, stamped
by an arrival process or live via :meth:`~QueryServer.submit`), are
compiled through per-tenant plan caches, wait in the admission
controller's bounded queue, and execute as ⊙-guided co-run batches on
the one simulated machine.  Everything on the simulated clock — every
decision, execution and account — is the dispatcher's; this module
only moves work and results between the event-loop thread and one
worker thread (compiles and batches are pure Python, so under the
interpreter lock a second worker would only take turns with the
first).

The two threads meet at a boundary that is expensive to cross (a pipe
write and an interpreter hand-over each time), so both directions
cross it in runs.  In: :meth:`~QueryServer.submit_nowait` puts each
accepted query on a heap ordered by ``(arrival_ns, qid)`` and wakes
the worker — on the loop thread, so accepting crosses nothing.  A run,
:meth:`QueryServer._run`, compiles every accepted query, oldest first,
and steps the dispatcher for as long as the simulated clock can
advance, passing the earliest arrival still accepted as
``blocked_from``: a query accepted while the run steps holds every
decision at or after its arrival until the same run has compiled it.
So the event loop pays one hand-off per decidable run, not one per
query or batch.  Out: the run hands resolved responses to the loop
thread after its first batch, when it returns, and in between at most
once per interpreter switch interval (the granularity at which threads
alternate anyway), so a client wakes within one switch interval of its
batch, and at once when it is alone on the server.  The run returns —
it never waits inside the worker — when nothing is accepted, staged or
queued; the next submission starts the next run.  Which batches form
never depends on any of this timing: that is the dispatcher's
contract.

Every future the server hands out resolves to a
:class:`~repro.server.ServerResponse` — ``"ok"``, ``"shed"`` or
``"error"`` — and only ever from a run or from :meth:`QueryServer.stop`:
a compile that raises makes a task the dispatcher refuses at its
arrival, a step never raises, and ``stop()`` fails whatever is still
pending, so no failure can strand :meth:`QueryServer.drain`.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from heapq import heappop, heappush

from ..hardware.hierarchy import MemoryHierarchy
from ..obs import Tracer
from ..service.workload import WorkloadQuery
from .dispatcher import Dispatcher, ServerResponse, _planless
from .slo import SloTarget
from .tenant import Tenant

__all__ = ["QueryServer"]


class QueryServer(Dispatcher):
    """An asyncio query server over per-tenant session stacks: a
    :class:`~repro.server.dispatcher.Dispatcher` (every parameter but
    one is its) stepped by one worker thread.

    Parameters
    ----------
    max_workers:
        Has no effect: the server runs one worker thread, whatever the
        value (values below 1 are still rejected).  It stays in the
        signature only because the host-performance benchmark under
        ``benchmarks/perf`` still passes it, and that directory changes
        only with the next change to the benchmark itself (ROADMAP
        item 7), which drops the keyword there and here together.

    Who owns what: the *event-loop thread* owns the response futures,
    ``_outstanding``, ``_idle`` and ``_wake``; the *run* (:meth:`_run`,
    on the worker) owns the dispatcher — the simulated clock, the
    stepper, the run queue, the accounting, the tracer and the replay
    machine.  The one thing shared is the accepted heap, under
    ``_lock``: :meth:`submit_nowait` pushes, the run pops.
    :meth:`stop` raises ``_stopping``, which the run reads at every
    batch and compile boundary.  Undelivered posts — ``(future,
    response)`` pairs — belong to the run that accumulates them until
    it hands the whole list to :meth:`_deliver` on the loop thread and
    starts a new one.  Read :meth:`report` after :meth:`drain`, when no
    run is in flight.
    """

    def __init__(self, hierarchy: MemoryHierarchy | None = None, *,
                 mode: str = "interference-aware", max_workers: int = 4,
                 max_batch: int = 4, max_queue: int = 64,
                 slo: SloTarget | None = None,
                 tenant_slos: dict[str, SloTarget] | None = None,
                 tracer: Tracer | None = None,
                 recalibration: bool = False) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        super().__init__(hierarchy, mode=mode, max_batch=max_batch,
                         max_queue=max_queue, slo=slo,
                         tenant_slos=tenant_slos, tracer=tracer,
                         recalibration=recalibration)
        # runtime state (created by start())
        self._worker: ThreadPoolExecutor | None = None
        self._dispatch_task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._stopping = False
        self._outstanding = 0
        #: A heap of ``(arrival_ns, qid, tenant, query, future)``
        #: accepted and not yet compiled, shared under ``_lock``.
        self._lock = threading.Lock()
        self._accepted: list[tuple[float, int, Tenant, WorkloadQuery,
                                   asyncio.Future]] = []

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "QueryServer":
        """Create the worker thread and the dispatch loop; idempotent."""
        if self._dispatch_task is not None:
            return self
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-server")
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopping = False
        self._dispatch_task = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        """Stop dispatching and release the worker: a run in flight
        returns at its next batch or compile boundary.  Then every
        query still accepted, staged or queued resolves as an error
        with stage ``"stopped"``, and :meth:`drain` returns once the
        run's last posts have landed (call :meth:`drain` first to serve
        them all)."""
        self._stopping = True
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            try:
                await self._dispatch_task
            except asyncio.CancelledError:
                pass
            self._dispatch_task = None
        if self._worker is None:
            return
        self._worker.shutdown(wait=True)
        self._worker = None
        # no run is left: the loop thread owns the dispatcher now
        accepted = []
        for _, _, tenant, query, response in self._accepted:
            task = _planless(tenant.name, query)
            task.handle = response
            accepted.append(task)
        self._accepted.clear()
        self._deliver([(task.handle, response)
                       for task, response in self._stop(accepted)])

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def drain(self) -> None:
        """Wait until every submitted query has been resolved (served,
        shed or failed) — then nothing is accepted, staged or queued
        either, for each of those holds an unresolved future."""
        assert self._idle is not None, "server not started"
        await self._idle.wait()

    # -- submission ----------------------------------------------------
    def submit_nowait(self, tenant: str, text: str, kind: str = "adhoc",
                      arrival_ns: float | None = None
                      ) -> "asyncio.Future[ServerResponse]":
        """Accept one query for ``tenant`` and return a future for its
        :class:`ServerResponse`.  ``arrival_ns`` places it on the
        simulated clock (defaults to the machine's current simulated
        time — "it arrived just now", which with a run in flight is
        whichever batch boundary the run has reached by now: a client
        reacting to a response sees it up to a switch interval after
        its batch, so possibly a few batches on).  The query joins the
        accepted heap; the run in flight, or the next one, compiles
        it."""
        if self._worker is None or self._wake is None:
            raise RuntimeError("server not started (use `async with "
                               "QueryServer(...)` or await start())")
        owner, query = self.accept(tenant, text, kind, arrival_ns)
        response = asyncio.get_running_loop().create_future()
        self._outstanding += 1
        self._idle.clear()
        with self._lock:
            heappush(self._accepted,
                     (query.arrival_ns, query.qid, owner, query, response))
        self._wake.set()
        return response

    async def submit(self, tenant: str, text: str, kind: str = "adhoc",
                     arrival_ns: float | None = None) -> ServerResponse:
        """Submit one query and wait for its response."""
        return await self.submit_nowait(tenant, text, kind, arrival_ns)

    async def serve(self, queries: list[WorkloadQuery],
                    tenant_for=None) -> list[ServerResponse]:
        """Serve a stamped workload stream and return the responses in
        qid order.  ``tenant_for`` maps a query to a tenant name
        (default: clients dealt round-robin over registered tenants)."""
        if not self.tenants:
            raise RuntimeError("no tenants registered")
        names = [t.name for t in
                 sorted(self.tenants.values(), key=lambda t: t.index)]
        if tenant_for is None:
            def tenant_for(query):  # noqa: E306
                return names[query.client % len(names)]
        responses = await asyncio.gather(*(
            self.submit_nowait(tenant_for(query), query.text,
                               kind=query.kind, arrival_ns=query.arrival_ns)
            for query in queries))
        return sorted(responses, key=lambda r: r.qid)

    # -- worker side -------------------------------------------------
    def _compile_accepted(self) -> None:
        """Worker: take every accepted query under the lock, compile
        them oldest first and stage each with the dispatcher — a query
        accepted meanwhile waits for the next take, so a client that
        keeps submitting cannot hold the run in compiles.  A compile
        that raises (bad query text, planner error) is a task the
        dispatcher fails at its arrival.  Once the server is stopping,
        what is left uncompiled goes back to the heap for :meth:`stop`
        to fail."""
        with self._lock:
            taken, self._accepted = self._accepted, []
        while taken:
            if self._stopping:
                with self._lock:
                    for entry in taken:
                        heappush(self._accepted, entry)
                return
            _, _, tenant, query, response = heappop(taken)
            task = self._compile(tenant, query)
            task.handle = response
            self.stepper.stage(task)

    def _run(self, loop: asyncio.AbstractEventLoop) -> None:
        """Worker: step the dispatcher — decide, form, execute and
        account batch after batch — until the simulated clock cannot
        advance (see :meth:`~Dispatcher.step`) with nothing accepted,
        or the server is stopping.  Each step is blocked from the
        earliest arrival still accepted; when it is, the run compiles
        what was accepted and steps again.  Resolved futures are handed
        to the loop thread after the first batch (a client alone on
        the server waits for nothing else), when the run returns, and
        in between at most once per interpreter switch interval — the
        loop thread cannot take over from this one more often than
        that anyway."""
        posts: list = []
        hand_over = 0.0  # time.monotonic() after which posts cross
        while not self._stopping:
            with self._lock:
                accepted = self._accepted
                blocked_from = accepted[0][0] if accepted else None
            resolved = self.step((), blocked_from)
            if resolved is None:
                if blocked_from is None:
                    break
                self._compile_accepted()
                continue
            posts.extend((task.handle, outcome)
                         for task, outcome in resolved)
            if posts and (wall := time.monotonic()) >= hand_over:
                loop.call_soon_threadsafe(self._deliver, posts)
                posts = []
                hand_over = wall + sys.getswitchinterval()
        if posts:
            loop.call_soon_threadsafe(self._deliver, posts)

    # -- loop side ----------------------------------------------------
    def _deliver(self, posts: list) -> None:
        """Loop thread: resolve ``(future, response)`` pairs — what a
        run or :meth:`stop` hands over."""
        for handle, response in posts:
            if not handle.done():
                handle.set_result(response)
            self._outstanding -= 1
        if self._outstanding == 0:
            self._idle.set()

    async def _dispatch_loop(self) -> None:
        """Loop thread: start a run on the worker whenever a submission
        has come in since the last one started."""
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            await loop.run_in_executor(self._worker, self._run, loop)
