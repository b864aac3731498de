"""The asyncio multi-tenant query server: the thread hand-off around
the :class:`~repro.server.dispatcher.Dispatcher`.

:class:`QueryServer` turns the offline cost-model stack into a
long-lived service: text-frontend queries arrive (open-loop, stamped
by an arrival process or live via :meth:`~QueryServer.submit`), are
compiled on a bounded worker pool through per-tenant plan caches
(thread-safe since :meth:`~repro.session.PlanCache.get_or_compute`),
wait in the admission controller's bounded queue, and execute as
⊙-guided co-run batches on the one simulated machine.  Everything on
the simulated clock — every decision, execution and account — is the
dispatcher's; this module only moves work and results between the
event-loop thread and the pool.

The event-loop thread and the worker pool meet at a boundary that is
expensive to cross (a pipe write and an interpreter hand-over each
time), so both directions cross it in runs.  In: accepted queries wait
in a queue and *compile runs* on the pool — up to one per worker, so
compiles genuinely overtake each other — take them oldest first,
compile, and hand each result to an inbox themselves; a compile run
tells the loop thread once, as it ends.  The dispatch run is one
function, :meth:`QueryServer._run`, that a pool worker runs *until it
is blocked*: it steps the dispatcher for as long as the simulated
clock can advance, telling it each time which staged queries are new
and the earliest arrival still compiling, so the event loop pays one
hand-off per decidable run, not one per batch.  Out: the run hands
resolved responses to the loop thread after its first batch, when it
returns, and in between at most once per interpreter switch interval
(the granularity at which threads alternate anyway), so a client wakes
within one switch interval of its batch, and at once when it is alone
on the server.  The run returns — it never waits inside the worker —
when a query due by its decision time is still compiling or nothing is
staged or queued, and the compile run that stages that query starts
the next run.  Which batches form never depends on any of this
timing: that is the dispatcher's contract.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from heapq import heappop, heappush

from ..hardware.hierarchy import MemoryHierarchy
from ..obs import Tracer
from ..service.core import Task
from ..service.workload import WorkloadQuery
from .dispatcher import Dispatcher, ServerResponse
from .slo import SloTarget
from .tenant import Tenant

__all__ = ["QueryServer"]


class QueryServer(Dispatcher):
    """An asyncio query server over per-tenant session stacks: a
    :class:`~repro.server.dispatcher.Dispatcher` (every parameter but
    one is its) stepped by a worker pool.

    Parameters
    ----------
    max_workers:
        Worker-pool width, shared by the compile runs (up to
        ``max_workers`` of them at once) and the dispatch run; they
        take turns at one worker too.

    Who owns what (nothing else is locked): the *event-loop thread*
    owns the response futures, ``_outstanding`` and ``_idle``; the
    *run* (:meth:`_run`, one at a time, on a pool worker) owns the
    dispatcher — the simulated clock, the run queue, the accounting,
    the tracer and the replay machine.  Shared under ``_stage_lock``:
    the accepted queue (:meth:`submit_nowait` appends on the loop
    thread, compile runs pop), the count of compile runs
    (``submit_nowait`` starts one while there are fewer than workers, a
    run ends itself or queues its successor), the compiling set
    (``submit_nowait`` adds, compile runs remove) and the inbox of
    compiled tasks (compile runs append, the run empties it into the
    dispatcher); :meth:`stop` raises ``_stopping`` under it too, so no
    compile run queues a successor into a pool that is shutting down.
    Undelivered posts — ``(future, response or exception)`` pairs —
    belong to the worker that accumulates them until it hands the whole
    list to :meth:`_deliver` on the loop thread and starts a new one.
    A query whose compile raised is failed from here, as a post of its
    exception, and never reaches the dispatcher.  Read :meth:`report`
    after :meth:`drain`, when no run is in flight.
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
        self.max_workers = max_workers
        # runtime state (created by start())
        self._pool: ThreadPoolExecutor | None = None
        self._dispatch_task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._stopping = False
        self._outstanding = 0
        # shared between the loop thread and the run, under the lock:
        self._stage_lock = threading.Lock()
        #: Compiled tasks the run has not handed to the dispatcher yet.
        self._inbox: list[Task] = []
        #: qids accepted and not yet compiled (or failed), and a heap of
        #: their ``(arrival_ns, qid)`` that finished compiles leave
        #: lazily.
        self._compiling: set[int] = set()
        self._compiling_order: list[tuple[float, int]] = []
        #: ``(tenant, query, future)`` accepted and not yet taken by a
        #: compile run, and how many compile runs the pool holds.
        self._accepted: deque[tuple[Tenant, WorkloadQuery,
                                    asyncio.Future]] = deque()
        self._compile_runs = 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "QueryServer":
        """Create the worker pool and the dispatcher; idempotent."""
        if self._dispatch_task is not None:
            return self
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-server")
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopping = False
        self._dispatch_task = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        """Stop dispatching and release the pool: a run in flight
        returns at its next batch boundary, a compile run after the
        compile it is in (pending queries, compiled or not, keep their
        futures unresolved; call :meth:`drain` first for a clean
        shutdown)."""
        with self._stage_lock:  # compile runs queue successors under it
            self._stopping = True
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            try:
                await self._dispatch_task
            except asyncio.CancelledError:
                pass
            self._dispatch_task = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def drain(self) -> None:
        """Wait until every submitted query has been resolved (served,
        shed or failed) — then nothing is compiling, staged or queued
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
        accepted queue; a compile run picks it up."""
        if self._pool is None or self._wake is None:
            raise RuntimeError("server not started (use `async with "
                               "QueryServer(...)` or await start())")
        owner, query = self.accept(tenant, text, kind, arrival_ns)
        loop = asyncio.get_running_loop()
        response: asyncio.Future = loop.create_future()
        self._outstanding += 1
        self._idle.clear()
        with self._stage_lock:
            self._compiling.add(query.qid)
            heappush(self._compiling_order,
                     (query.arrival_ns, query.qid))
            self._accepted.append((owner, query, response))
            start = self._compile_runs < self.max_workers
            if start:
                self._compile_runs += 1
        if start:
            self._pool.submit(self._compile_run, loop)
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
    def _compile_run(self, loop: asyncio.AbstractEventLoop) -> None:
        """Pool worker: compile accepted queries, oldest first, and
        put each in the inbox as it finishes — the admission
        (quota/shedding) decision is the dispatcher's, made on the
        simulated clock, so queue state never depends on how compile
        runs raced.  A compile that raises (bad query text, planner
        error) fails its own future.  Ends when nothing is left, the
        server is stopping, or its slice is used up with more
        accepted — then it queues its successor *behind* whatever the
        pool already holds, so a one-worker pool under continuous
        submission still alternates
        with the dispatch run.  One crossing to the loop thread per
        run: the failures, and the dispatcher's wake-up."""
        posts: list = []
        deadline = time.monotonic() + sys.getswitchinterval()
        taken = 0
        while True:
            with self._stage_lock:
                if not self._accepted or self._stopping:
                    self._compile_runs -= 1
                    break
                # at least one query per run, however short the slice
                if taken and time.monotonic() >= deadline:
                    self._pool.submit(self._compile_run, loop)
                    break
                tenant, query, response = self._accepted.popleft()
                taken += 1
            try:
                task = self._compile(tenant, query)
            except Exception as exc:
                task = None
                posts.append((response, exc))
            with self._stage_lock:
                self._compiling.remove(query.qid)
                if task is not None:
                    task.handle = response
                    self._inbox.append(task)
        if taken:
            loop.call_soon_threadsafe(self._compiled, posts)

    # -- loop side ----------------------------------------------------
    def _compiled(self, posts: list) -> None:
        """Loop thread, as a compile run ends: fail the futures whose
        compile raised and wake the dispatch run for what compiled."""
        self._deliver(posts)
        self._wake.set()

    def _deliver(self, posts: list) -> None:
        """Loop thread: resolve ``(future, response or exception)``
        pairs — what a run hands over."""
        for handle, outcome in posts:
            if not handle.done():
                if isinstance(outcome, BaseException):
                    handle.set_exception(outcome)
                else:
                    handle.set_result(outcome)
            self._outstanding -= 1
        if self._outstanding == 0:
            self._idle.set()

    def _run(self, loop: asyncio.AbstractEventLoop) -> None:
        """Pool worker: step the dispatcher — decide, form, execute and
        account batch after batch — until the simulated clock cannot
        advance (see :meth:`~Dispatcher.step`) or the server is
        stopping.  Resolved futures are handed to the loop thread after
        the first batch (a client alone on the server waits for nothing
        else), when the run returns, and in between at most once per
        interpreter switch interval — the loop thread cannot take over
        from this one more often than that anyway.  Never waits: a run
        blocked on a compile returns, and the compile run that stages
        it starts the next one."""
        posts: list = []
        hand_over = 0.0  # time.monotonic() after which posts cross
        compiling = self._compiling_order
        while not self._stopping:
            with self._stage_lock:
                compiled, self._inbox = self._inbox, []
                while compiling and compiling[0][1] not in self._compiling:
                    heappop(compiling)
                blocked_from = compiling[0][0] if compiling else None
            resolved = self.step(compiled, blocked_from)
            if resolved is None:
                break
            posts.extend((task.handle, outcome)
                         for task, outcome in resolved)
            if posts and (wall := time.monotonic()) >= hand_over:
                loop.call_soon_threadsafe(self._deliver, posts)
                posts = []
                hand_over = wall + sys.getswitchinterval()
        if posts:
            loop.call_soon_threadsafe(self._deliver, posts)

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            await loop.run_in_executor(self._pool, self._run, loop)
