"""The asyncio multi-tenant query server.

:class:`QueryServer` turns the offline cost-model stack into a
long-lived service: text-frontend queries arrive (open-loop, stamped
by an arrival process or live via :meth:`~QueryServer.submit`), are
compiled on a bounded worker pool through per-tenant plan caches
(thread-safe since :meth:`~repro.session.PlanCache.get_or_compute`),
wait in the admission controller's bounded queue, and execute as
⊙-guided co-run batches on the one simulated machine.

Two clocks run at once.  *Wall clock*: the event-loop thread and the
worker pool meet at a boundary that is expensive to cross (a pipe
write and an interpreter hand-over each time), so both directions
cross it in runs.  In: accepted queries wait in a queue and *compile
runs* on the pool — up to one per worker, so compiles genuinely
overtake each other — take them oldest first, compile, and stage the
result themselves; a compile run tells the loop thread once, as it
ends.  The dispatcher is one function, :meth:`QueryServer._run`, that
a pool worker runs *until it is blocked*: it forms a batch, executes
it, settles it, and goes on to the next for as long as the simulated
clock can advance, so the event loop pays one hand-off per decidable
run, not one per batch.  Out: the run hands resolved responses to the
loop thread after its first batch, when it returns, and in between at
most once per interpreter switch interval (the granularity at which
threads alternate anyway), so a client wakes within one switch
interval of its batch, and at once when it is alone on the server.
The run returns — it never waits inside the worker — when a query due
by its decision time is still compiling or nothing is staged or
queued, and the compile run that stages that query starts the next
run.

*Simulated clock*: the machine's time, advanced batch by
batch — a batch starts at ``max(machine-free, seed arrival)``, lasts
its replayed makespan, and a query's reported latency is simulated
``finish − arrival``.  All scheduling decisions are functions of the
simulated clock only (compiled queries wait in a heap on
``(arrival, qid)`` and are admitted in that order, a batch never
includes a query that had not arrived when the batch started, and a
decision at simulated time *t* waits for every compile whose query
arrived by *t*), so a serving run is deterministic in
``(workload, seeds, policy)`` no matter how the pool's threads race.

Compiling, batch formation, and settlement are the serving core's
(:mod:`repro.service.core`) and execution is
:func:`~repro.service.executor.execute_batch` — the same pieces the
closed-loop executor drives: each member's access trace is recorded
against its tenant's engine, shifted as it is recorded into the
tenant's private slice of the address space (tenants do not share
tables), and the batch replays round-robin-interleaved through the
server's one :class:`~repro.simulator.MemorySystem`, reset cold —
the measured counterpart of the ⊙ prediction the admission controller
trusted.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from ..calibrator.autotune import Recalibration, Recalibrator
from ..hardware.hierarchy import MemoryHierarchy
from ..hardware.profiles import origin2000_scaled
from ..obs import Tracer
from ..query.optimizer import PlannerConfig
from ..service.core import Batch, Task, compile_task, settle
from ..service.executor import DEFAULT_QUANTUM, BatchReplay, execute_batch
from ..service.interference import InterferenceModel
from ..service.metrics import BatchMetrics, RunReport
from ..service.workload import WorkloadQuery
from ..simulator.memory import MemorySystem
from .admission import AdmissionController
from .slo import SloTarget, SloTracker
from .tenant import Tenant, TenantQuota

__all__ = ["ServerResponse", "ServingReport", "QueryServer",
           "MetricFamily", "METRIC_FAMILIES"]


@dataclass(frozen=True, slots=True)
class ServerResponse:
    """One query's serving outcome on the simulated clock."""

    qid: int
    tenant: str
    kind: str
    text: str
    #: ``"ok"`` or ``"shed"`` (refused by admission control).
    outcome: str
    arrival_ns: float
    start_ns: float
    finish_ns: float
    #: Result cardinality (``None`` when shed).
    rows: int | None = None
    #: Plan-cache provenance of the compile (``None`` when shed).
    cache_hit: bool | None = None
    batch_index: int | None = None
    batch_size: int | None = None
    signature: str = ""
    #: Fingerprint of the tenant profile the plan was compiled under —
    #: after an online recalibration swaps the profile, subsequent
    #: responses carry the new fingerprint (provenance of which model
    #: priced the plan).
    fingerprint: str = ""
    #: Wall-clock nanoseconds the compile took (``None`` when shed
    #: before compiling finished mattering).  Compiles are free on the
    #: simulated clock — the machine's time never advances for them.
    compile_wall_ns: int | None = None

    @classmethod
    def of(cls, task: Task, outcome: str, start_ns: float,
           finish_ns: float, **served) -> "ServerResponse":
        """``task``'s response — the one place a task's fields are
        copied out.  ``served`` is what only an executed query has:
        ``rows``, ``batch_index``, ``batch_size``."""
        return cls(qid=task.qid, tenant=task.tenant, kind=task.kind,
                   text=task.text, outcome=outcome,
                   arrival_ns=task.arrival_ns, start_ns=start_ns,
                   finish_ns=finish_ns,
                   cache_hit=task.cache_hit if outcome == "ok" else None,
                   signature=task.signature, fingerprint=task.fingerprint,
                   compile_wall_ns=task.compile_wall_ns, **served)

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def latency_ns(self) -> float:
        """Simulated completion latency (0 for shed queries, which are
        refused immediately)."""
        return self.finish_ns - self.arrival_ns

    @property
    def wait_ns(self) -> float:
        """Simulated queueing delay before the query's batch started."""
        return self.start_ns - self.arrival_ns

    def to_json(self) -> dict:
        return {
            "qid": self.qid, "tenant": self.tenant, "kind": self.kind,
            "text": self.text, "outcome": self.outcome,
            "arrival_ns": self.arrival_ns, "start_ns": self.start_ns,
            "finish_ns": self.finish_ns, "latency_ns": self.latency_ns,
            "rows": self.rows, "cache_hit": self.cache_hit,
            "batch_index": self.batch_index,
            "batch_size": self.batch_size, "signature": self.signature,
            "fingerprint": self.fingerprint,
            "queue_ns": self.wait_ns,
            # Where compile time went, per clock: real nanoseconds on
            # the wall, zero on the simulated clock (compiles overlap
            # the machine; scheduling waits for them but never charges
            # them).  wall_ns varies run to run — strip it before
            # comparing runs for determinism.
            "compile_ns": {"wall_ns": self.compile_wall_ns,
                           "simulated_ns": 0.0},
        }


class ServingReport(RunReport):
    """A serving run's full accounting: every response, every batch's
    ⊙ prediction next to its replay measurement, the SLO windows, and
    per-tenant counters."""

    def __init__(self, policy: str, responses: list[ServerResponse],
                 batches: list[BatchMetrics], slo: dict,
                 breaches: list, tenants: list[dict],
                 fingerprint: str = "") -> None:
        super().__init__(policy, batches, fingerprint)
        self.responses = responses
        self.slo = slo
        self.breaches = breaches
        self.tenants = tenants

    # -- headline numbers ----------------------------------------------
    @property
    def completed(self) -> list[ServerResponse]:
        return [r for r in self.responses if r.ok]

    @property
    def shed(self) -> list[ServerResponse]:
        return [r for r in self.responses if not r.ok]

    def latencies(self) -> list[float]:
        return [r.latency_ns for r in self.completed]

    @property
    def makespan_ns(self) -> float:
        """Simulated completion time of the last served query."""
        done = self.completed
        return max(r.finish_ns for r in done) if done else 0.0

    @property
    def sustained_qps(self) -> float:
        """Completions per simulated second over the whole run."""
        span = self.makespan_ns
        return len(self.completed) / (span / 1e9) if span > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "kind": "serving_report",
            "policy": self.policy,
            "fingerprint": self.fingerprint,
            "completed": len(self.completed),
            "shed": len(self.shed),
            "makespan_ns": self.makespan_ns,
            "sustained_qps": self.sustained_qps,
            "p50_latency_ns": self.p50_latency_ns,
            "p95_latency_ns": self.p95_latency_ns,
            "p99_latency_ns": self.p99_latency_ns,
            "predicted_makespan_ns": self.predicted_makespan_ns,
            "measured_makespan_ns": self.measured_makespan_ns,
            "mean_contention_error": self.mean_contention_error,
            "slo": self.slo,
            "breaches": [b.to_json() for b in self.breaches],
            "tenants": self.tenants,
            "responses": [r.to_json() for r in self.responses],
            "batches": [b.to_json() for b in self.batches],
        }

    def render(self) -> str:
        def _ms(value: float | None) -> str:
            return "     -" if value is None else f"{value / 1e6:6.2f}"

        lines = [
            f"policy {self.policy}: {len(self.completed)} served, "
            f"{len(self.shed)} shed, {len(self.batches)} batches",
            f"  makespan   {self.makespan_ns / 1e6:>10.2f} ms   "
            f"sustained {self.sustained_qps:>8.1f} q/s",
            f"  latency    p50 {_ms(self.p50_latency_ns)} ms   "
            f"p95 {_ms(self.p95_latency_ns)} ms   "
            f"p99 {_ms(self.p99_latency_ns)} ms",
            f"  ⊙ vs replay error {self.mean_contention_error * 100:5.1f}% "
            f"(co-run batches)   SLO breaches {len(self.breaches)}",
        ]
        for tenant in self.tenants:
            cache = tenant["plan_cache"]
            lines.append(
                f"  tenant {tenant['name']:<10} "
                f"served {tenant['completed']:>4}  "
                f"shed {tenant['shed']:>3}  "
                f"plan cache {cache['hits']}/{cache['hits'] + cache['misses']}"
                f" hits")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"ServingReport({self.policy!r}, "
                f"completed={len(self.completed)}, "
                f"shed={len(self.shed)}, "
                f"qps={self.sustained_qps:.0f})")


class MetricFamily(NamedTuple):
    """One live metric family: what a
    :class:`~repro.obs.MetricsRegistry` registers it with."""

    #: The registry method: ``"counter"``, ``"gauge"``, ``"histogram"``.
    kind: str
    name: str
    help: str
    labels: tuple[str, ...] = ()
    #: Histogram bucket bounds (``None``: the registry's default).
    bounds: tuple[float, ...] | None = None


#: Every family a traced server feeds, declared once: ``__init__``
#: registers them in a loop and the README's table lists the same rows.
METRIC_FAMILIES = (
    MetricFamily("counter", "server_queries_total",
                 "Queries resolved, by outcome.",
                 ("tenant", "kind", "outcome")),
    MetricFamily("histogram", "server_latency_ns",
                 "Simulated completion latency of served queries.",
                 ("tenant",)),
    MetricFamily("histogram", "server_queue_wait_ns",
                 "Simulated delay between arrival and batch start.",
                 ("tenant",)),
    MetricFamily("counter", "server_admission_total",
                 "Admission-controller decisions.",
                 ("tenant", "decision")),
    MetricFamily("counter", "server_batches_total", "Batches executed.",
                 ("policy",)),
    MetricFamily("histogram", "server_batch_size", "Co-run batch sizes.",
                 bounds=tuple(float(n) for n in range(1, 33))),
    MetricFamily("gauge", "server_clock_ns",
                 "The machine's simulated clock."),
    MetricFamily("gauge", "server_queue_depth",
                 "Run-queue depth after the last dispatch."),
    MetricFamily("counter", "sim_level_hits_total",
                 "Simulator per-level hits, sampled at batch boundaries.",
                 ("level",)),
    MetricFamily("counter", "sim_level_misses_total",
                 "Simulator per-level misses, sampled at batch boundaries.",
                 ("level", "kind")),
    MetricFamily("counter", "plan_cache_hits_total", "Plan-cache hits.",
                 ("tenant",)),
    MetricFamily("counter", "plan_cache_misses_total",
                 "Plan-cache misses.", ("tenant",)),
    MetricFamily("counter", "plan_cache_retirements_total",
                 "Plans retired from a tenant's cache (LRU eviction or "
                 "a recalibration's explicit profile-swap clear).",
                 ("tenant",)),
    MetricFamily("counter", "server_recalibrations_total",
                 "Profiles republished by the online recalibrator.",
                 ("tenant",)),
)


class QueryServer:
    """An asyncio query server over per-tenant session stacks.

    Parameters
    ----------
    hierarchy:
        The shared machine every tenant's queries execute on; defaults
        to the scaled Origin2000.
    mode:
        Batch-formation policy: ``"interference-aware"`` (⊙-guided
        admission, the default), ``"max-parallel"``, or
        ``"fifo-serial"`` (the benchmark baselines).
    max_workers:
        Worker-pool width, shared by the compile runs (up to
        ``max_workers`` of them at once) and the dispatch run; they
        take turns at one worker too.
    max_batch / max_queue / slack / lookahead:
        Admission-controller knobs (:class:`AdmissionController`).
    quantum:
        Interleaved-replay time slice (accesses per co-runner per
        turn).
    slo / tenant_slos:
        Objectives for the :class:`~repro.server.slo.SloTracker`.
    config:
        Planner config handed to every tenant session.
    tracer:
        Opt-in observability (:class:`~repro.obs.Tracer`): dual-clock
        spans over the query lifecycle, live metrics (queries,
        latencies, admission decisions, plan caches, per-level
        simulator misses), and per-operator drift monitoring on
        solo-batch executions.  ``None`` (the default) records
        nothing.
    recalibration:
        Opt-in online self-calibration (requires ``tracer``): each
        tenant gets a :class:`~repro.calibrator.Recalibrator` fed by
        the solo-batch measured path; when the tracer's drift monitor
        flags the tenant's profile, the dispatcher searches the
        latency neighborhood over the tenant's recent samples and, on
        improvement, swaps the tenant's hierarchy in — retiring its
        cached plans (visible as ``plan_cache_retirements_total``)
        and stamping subsequent responses with the new fingerprint.
        All decisions happen on the dispatcher's simulated clock, so
        runs stay deterministic in (workload, seeds, policy).

    Who owns what (nothing else is locked): the *event-loop thread*
    owns the response futures, ``_outstanding`` and ``_idle``; the
    *run* (:meth:`_run`, one at a time, on a pool worker) owns the
    simulated clock, the run queue, ``_responses``, ``_batches``, the
    tenants' served/shed counters, the SLO tracker, the tracer and the
    replay machine.  Shared under ``_stage_lock``: the accepted queue
    (:meth:`submit_nowait` appends on the loop thread, compile runs pop),
    the count of compile runs (``submit_nowait`` starts one while there
    are fewer than workers, a run ends itself or queues its successor),
    the compiling set (``submit_nowait`` adds, compile runs remove)
    and the staged heap (compile runs push, the run pops);
    :meth:`stop` raises ``_stopping`` under it too, so no compile run
    queues a successor into a pool that is shutting down.
    Undelivered posts — ``(future, response or exception)`` pairs —
    belong to the worker that accumulates them until it hands the whole
    list to :meth:`_deliver` on the loop thread and starts a new one.
    Read :meth:`report` after :meth:`drain`, when no run is in flight.

    One door out: a served or shed query is accounted by
    :meth:`_resolve` and nowhere else — tenant counter, report, SLO
    windows, per-response metrics, the post to its future.  Two exits
    still bypass it, *unaccounted*: a batch whose execution raised
    (:meth:`_serve_batch` posts the exception to its members) and a
    query whose compile raised (:meth:`_compile_run` posts the
    exception to its future) leave no :class:`ServerResponse`, balance no
    tenant's ``submitted`` and bump no metric — the ``outcome="error"``
    responses of ROADMAP item 2 go through the same door.
    """

    def __init__(self, hierarchy: MemoryHierarchy | None = None, *,
                 mode: str = "interference-aware", max_workers: int = 4,
                 max_batch: int = 4, max_queue: int = 64,
                 slack: float = 1.0, lookahead: int = 8,
                 quantum: int = DEFAULT_QUANTUM,
                 slo: SloTarget | None = None,
                 tenant_slos: dict[str, SloTarget] | None = None,
                 config: PlannerConfig | None = None,
                 tracer: Tracer | None = None,
                 recalibration: bool = False) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        if recalibration and tracer is None:
            raise ValueError(
                "recalibration requires a tracer (drift events come "
                "from the tracer's monitor on solo-batch executions)")
        self.hierarchy = (hierarchy if hierarchy is not None
                          else origin2000_scaled())
        self.interference = InterferenceModel(self.hierarchy)
        self.admission = AdmissionController(
            self.interference, mode=mode, max_queue=max_queue,
            max_batch=max_batch, slack=slack, lookahead=lookahead)
        self.slo = SloTracker(target=slo, tenant_targets=tenant_slos)
        self.max_workers = max_workers
        self.quantum = quantum
        self.config = config
        self.tenants: dict[str, Tenant] = {}
        # online recalibration (opt-in; populated per tenant)
        self.recalibration = recalibration
        self._recalibrators: dict[str, Recalibrator] = {}
        #: Every recalibration the dispatcher ran, in order.
        self.recalibrations: list[Recalibration] = []
        # accumulated accounting
        self._responses: list[ServerResponse] = []
        self._batches: list[BatchMetrics] = []
        self._clock = 0.0
        self._next_qid = 0
        self._batch_index = 0
        #: The run's machine: every batch replays on it, reset cold.
        self._machine = MemorySystem(self.hierarchy)
        # runtime state (created by start())
        self._pool: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._stopping = False
        self._outstanding = 0
        # shared between the loop thread and the run, under the lock:
        self._stage_lock = threading.Lock()
        #: Heap of ``(arrival_ns, qid, task)``: compiled, not admitted.
        self._staged: list[tuple[float, int, Task]] = []
        #: qids accepted and not yet staged (or failed), and a heap of
        #: their ``(arrival_ns, qid)`` that finished compiles leave
        #: lazily.
        self._compiling: set[int] = set()
        self._compiling_order: list[tuple[float, int]] = []
        #: ``(tenant, query, future)`` accepted and not yet taken by a
        #: compile run, and how many compile runs the pool holds.
        self._accepted: deque[tuple[Tenant, WorkloadQuery,
                                    asyncio.Future]] = deque()
        self._compile_runs = 0
        # observability (all no-ops when tracer is None)
        self.tracer = tracer
        if tracer is not None:
            #: name -> registered family, for every ``METRIC_FAMILIES`` row
            self._m = {
                family.name: getattr(tracer.metrics, family.kind)(
                    family.name, family.help, family.labels,
                    **({} if family.bounds is None
                       else {"bounds": family.bounds}))
                for family in METRIC_FAMILIES}

    # -- tenants -------------------------------------------------------
    def add_tenant(self, name: str, quota: TenantQuota | None = None
                   ) -> Tenant:
        """Register a tenant (own catalog, own plan cache, own quota).
        Populate its catalog through ``tenant.session`` — e.g. hand it
        to a :class:`~repro.service.WorkloadGenerator`."""
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already exists")
        tenant = Tenant(name, index=len(self.tenants),
                        hierarchy=self.hierarchy, quota=quota,
                        config=self.config)
        self.tenants[name] = tenant
        if self.tracer is not None:
            counters = {"hit": self._m["plan_cache_hits_total"],
                        "miss": self._m["plan_cache_misses_total"],
                        "retire": self._m["plan_cache_retirements_total"]}

            def _cache_event(event: str, count: int = 1,
                             *, _tenant: str = name) -> None:
                counters[event].inc(count, tenant=_tenant)

            tenant.plan_cache.attach_observer(_cache_event)
        if self.recalibration:
            # Samples and events arrive via ingest() from the
            # dispatcher (the tracer's monitor is the one detector —
            # the recalibrator's own stays idle).
            self._recalibrators[name] = Recalibrator(tenant.session)
        return tenant

    def tenant(self, name: str) -> Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            known = ", ".join(sorted(self.tenants)) or "none registered"
            raise KeyError(f"no tenant {name!r} (known: {known})") \
                from None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "QueryServer":
        """Create the worker pool and the dispatcher; idempotent."""
        if self._dispatcher is not None:
            return self
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-server")
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopping = False
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        """Stop dispatching and release the pool: a run in flight
        returns at its next batch boundary, a compile run after the
        compile it is in (pending queries, compiled or not, keep their
        futures unresolved; call :meth:`drain` first for a clean
        shutdown)."""
        with self._stage_lock:  # compile runs queue successors under it
            self._stopping = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def drain(self) -> None:
        """Wait until every submitted query has been resolved (served
        or shed) and the run queue is empty."""
        assert self._idle is not None, "server not started"
        while True:
            await self._idle.wait()
            if self._outstanding == 0 and not self.admission.queue \
                    and not self._staged and not self._compiling:
                return

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
        owner = self.tenant(tenant)
        owner.submitted += 1
        qid = self._next_qid
        self._next_qid += 1
        arrival = self._clock if arrival_ns is None else float(arrival_ns)
        loop = asyncio.get_running_loop()
        response: asyncio.Future = loop.create_future()
        self._outstanding += 1
        self._idle.clear()
        query = WorkloadQuery(qid=qid, client=owner.index, kind=kind,
                              text=text, arrival_ns=arrival)
        with self._stage_lock:
            self._compiling.add(qid)
            heappush(self._compiling_order, (arrival, qid))
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

    # -- worker-side stages --------------------------------------------
    def _compile(self, tenant: Tenant, query: WorkloadQuery) -> Task:
        """Worker thread: compile through the tenant's (thread-safe)
        plan cache and price the standalone run."""
        return compile_task(tenant.worker_session(), self.interference,
                            query, tenant=tenant.name)

    def _compile_run(self, loop: asyncio.AbstractEventLoop) -> None:
        """Pool worker: compile accepted queries, oldest first, and
        stage each as it finishes — the admission (quota/shedding)
        decision is the dispatch run's, made on the simulated clock, so
        queue state never depends on how compile runs raced.  A compile
        that raises (bad query text, planner error) fails its own
        future.  Ends when nothing is left, the server is stopping, or
        its slice is used up with more accepted — then it queues its
        successor *behind* whatever the pool already holds, so a
        one-worker pool under continuous submission still alternates
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
                    heappush(self._staged,
                             (query.arrival_ns, query.qid, task))
        if taken:
            loop.call_soon_threadsafe(self._compiled, posts)

    def _execute_batch(self, batch: Batch):
        """The run: measure the batch on the server's machine,
        each member recorded against its tenant's engine and shifted
        into the tenant's address slice.

        With a tracer attached, a *solo* batch takes the typed
        measured path, which adds per-operator attribution for
        operator spans and drift monitoring.  Responses are identical
        either way; only the observability gains detail.
        """
        wall_start = time.perf_counter_ns()
        members = []
        for task in batch:
            tenant = self.tenants[task.tenant]
            members.append((tenant.session, task.plan,
                            tenant.address_offset))
        # recalibration swaps tenants' model profiles, never the machine
        assert self._machine.hierarchy is self.hierarchy
        replay, rows, measured = execute_batch(
            members, self._machine, self.quantum,
            attribute=self.tracer is not None)
        return replay, rows, measured, wall_start, time.perf_counter_ns()

    # -- dispatcher ----------------------------------------------------
    def _compiled(self, posts: list) -> None:
        """Loop thread, as a compile run ends: fail the futures whose
        compile raised and wake the dispatcher for what was staged."""
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

    def _resolve(self, task: Task, response: ServerResponse,
                 posts: list) -> None:
        """The one door out (see the class docstring): account
        ``response`` — served or shed — and queue it for ``task``'s
        future."""
        tenant = self.tenants[task.tenant]
        served = response.ok
        if served:
            tenant.completed += 1
            self.slo.observe(task.tenant, response.finish_ns,
                             response.latency_ns)
        else:
            tenant.shed += 1
        self._responses.append(response)
        if self.tracer is not None:
            m = self._m
            m["server_queries_total"].inc(
                tenant=task.tenant, kind=task.kind,
                outcome=response.outcome)
            if served:
                m["server_admission_total"].inc(tenant=task.tenant,
                                                decision="admitted")
                m["server_latency_ns"].observe(response.latency_ns,
                                               tenant=task.tenant)
                m["server_queue_wait_ns"].observe(response.wait_ns,
                                                  tenant=task.tenant)
        posts.append((task.handle, response))

    def _shed(self, task: Task, at_ns: float, posts: list) -> None:
        """Refuse ``task`` at simulated time ``at_ns`` (its own arrival
        when it never got in, the displacement time for a victim)."""
        if self.tracer is not None:
            self.tracer.span(
                "query", track=f"tenant:{task.tenant}",
                category="query", qid=task.qid,
                sim_start_ns=task.arrival_ns, sim_end_ns=at_ns,
                kind=task.kind, outcome="shed",
                signature=task.signature)
        self._resolve(task, ServerResponse.of(task, "shed", at_ns, at_ns),
                      posts)

    def _take_due(self) -> tuple[float, list[Task]] | None:
        """The next decision: the simulated time it is made at — the
        machine's clock, or the earliest waiting arrival when the
        machine is idle — and the staged tasks that have arrived by
        then, popped in ``(arrival_ns, qid)`` order.  ``None`` when
        the clock cannot advance: nothing is staged or queued, or a
        query that arrived by that time is still compiling (deciding
        without it would race wall-clock threads)."""
        earliest = self.admission.earliest_arrival()
        with self._stage_lock:
            staged, compiling = self._staged, self._compiling_order
            if staged and (earliest is None or staged[0][0] < earliest):
                earliest = staged[0][0]
            if earliest is None:
                return None
            now = max(self._clock, earliest)
            while compiling and compiling[0][1] not in self._compiling:
                heappop(compiling)
            if compiling and compiling[0][0] <= now:
                return None
            due = []
            while staged and staged[0][0] <= now:
                due.append(heappop(staged)[2])
        return now, due

    def _admit_due(self, now_ns: float, due: list[Task],
                   posts: list) -> None:
        """Offer the tasks that have arrived by ``now_ns`` to the run
        queue, in arrival order — quota checks and shedding happen
        here, on the simulated clock, so queue state is a function of
        the workload, never of compile-thread timing."""
        for task in due:
            quota = self.tenants[task.tenant].quota
            victims = self.admission.offer(task, quota)
            if self.tracer is not None:
                decided = self._m["server_admission_total"]
                refused = any(victim is task for victim in victims)
                decided.inc(tenant=task.tenant,
                            decision="shed" if refused else "queued")
                for victim in victims:
                    if victim is not task:
                        decided.inc(tenant=victim.tenant,
                                    decision="displaced")
            for victim in victims:
                self._shed(victim,
                           victim.arrival_ns if victim is task else now_ns,
                           posts)

    def _trace_batch(self, batch: list[Task], now: float,
                     index: int, finishes: list[float],
                     makespan: float, replay: BatchReplay, measured,
                     wall0: int, wall1: int) -> None:
        """Record one executed batch's spans and metrics.  Called from
        the run only, after the simulated clock advanced —
        recording order (and therefore the simulated-clock export) is
        a function of the workload, never of thread timing."""
        tracer = self.tracer
        tracer.span(
            "batch", track="server", category="batch",
            sim_start_ns=now, sim_end_ns=now + makespan,
            wall_start_ns=wall0, wall_end_ns=wall1,
            batch_index=index, size=len(batch),
            policy=self.admission.mode, memory_ns=replay.total_ns)
        for i, task in enumerate(batch):
            track = f"tenant:{task.tenant}"
            finish_abs = now + finishes[i]
            root = tracer.span(
                "query", track=track, category="query", qid=task.qid,
                sim_start_ns=task.arrival_ns, sim_end_ns=finish_abs,
                kind=task.kind, outcome="ok", batch_index=index,
                batch_size=len(batch), cache_hit=task.cache_hit,
                signature=task.signature)
            tracer.span(
                "queue", track=track, category="queue", qid=task.qid,
                parent=root.sid, sim_start_ns=task.arrival_ns,
                sim_end_ns=now)
            # A compile is an instant on the simulated clock (the
            # machine never pays for it) but an interval on the wall
            # clock — the dual-clock case in one span.
            tracer.span(
                "compile", track=track, category="compile",
                qid=task.qid, parent=root.sid,
                sim_start_ns=task.arrival_ns,
                sim_end_ns=task.arrival_ns,
                wall_start_ns=task.compile_wall_start_ns,
                wall_end_ns=task.compile_wall_end_ns,
                cache_hit=task.cache_hit)
            if measured is not None:
                # solo batch: per-operator children + drift samples
                tenant = self.tenants[task.tenant]
                seen_events = len(tracer.drift.events)
                execute = tracer.record_measured(
                    measured, track=track, sim_start_ns=now,
                    qid=task.qid, parent=root.sid,
                    fingerprint=tenant.session.fingerprint)
                if finish_abs > execute.sim_end_ns:
                    tracer.span(
                        "cpu", track=track, category="cpu",
                        qid=task.qid, parent=root.sid,
                        sim_start_ns=execute.sim_end_ns,
                        sim_end_ns=finish_abs, cpu_ns=task.cpu_ns)
                self._maybe_recalibrate(
                    task, tenant, measured,
                    tracer.drift.events[seen_events:], finish_abs)
            else:
                tracer.span(
                    "execute", track=track, category="execute",
                    qid=task.qid, parent=root.sid, sim_start_ns=now,
                    sim_end_ns=finish_abs,
                    memory_ns=replay.memory_ns[i], cpu_ns=task.cpu_ns)
            tracer.instant("respond", track=track, at_ns=finish_abs,
                           qid=task.qid, parent=root.sid)
        m = self._m
        m["server_batches_total"].inc(policy=self.admission.mode)
        m["server_batch_size"].observe(float(len(batch)))
        m["server_clock_ns"].set(self._clock)
        m["server_queue_depth"].set(float(len(self.admission.queue)))
        if replay.counters is not None:
            for level in replay.counters.levels:
                m["sim_level_hits_total"].inc(level.hits, level=level.name)
                m["sim_level_misses_total"].inc(
                    level.seq_misses, level=level.name, kind="seq")
                m["sim_level_misses_total"].inc(
                    level.rand_misses, level=level.name, kind="rand")

    def _maybe_recalibrate(self, task: Task, tenant: Tenant,
                           measured, events, at_ns: float) -> None:
        """The run's response hook: fold the solo-batch
        measurement into the tenant's recalibrator and run it when
        drift is pending.  Called from :meth:`_trace_batch` only — the
        single simulated-clock decision point, before the batch's
        responses are posted — so the profile swap lands
        deterministically *between* batches, and every compile a
        response triggers prices (and fingerprints) against the new
        profile."""
        recalibrator = self._recalibrators.get(task.tenant)
        if recalibrator is None:
            return
        recalibrator.ingest(measured, events=events)
        recalibration = recalibrator.recalibrate()
        if recalibration is None:
            return
        self.recalibrations.append(recalibration)
        if recalibration.published:
            tenant.recalibrations += 1
            self._m["server_recalibrations_total"].inc(tenant=task.tenant)
            self.tracer.instant(
                "recalibrate", track=f"tenant:{task.tenant}",
                at_ns=at_ns, category="recalibrate",
                fingerprint=recalibration.fingerprint_after,
                error_before=recalibration.outcome.error_before,
                error_after=recalibration.outcome.error_after,
                retired_plans=recalibration.retired_plans)

    def _run(self, loop: asyncio.AbstractEventLoop) -> None:
        """Pool worker: decide, form, execute and account batch after
        batch until the simulated clock cannot advance (see
        :meth:`_take_due`) or the server is stopping.  Resolved futures
        are handed to the loop thread after the first batch (a client
        alone on the server waits for nothing else), when the run
        returns, and in between at most once per interpreter switch
        interval — the loop thread cannot take over from this one more
        often than that anyway.  Never waits: a run blocked on a
        compile returns, and the compile run that stages it starts the
        next one."""
        posts: list = []
        hand_over = 0.0  # time.monotonic() after which posts cross
        while not self._stopping:
            decision = self._take_due()
            if decision is None:
                break
            now, due = decision
            self._admit_due(now, due, posts)
            batch = self.admission.next_batch(now)
            if batch:
                self._serve_batch(batch, now, posts)
            # else: everything due was shed; jump to the next arrival
            if posts and (wall := time.monotonic()) >= hand_over:
                loop.call_soon_threadsafe(self._deliver, posts)
                posts = []
                hand_over = wall + sys.getswitchinterval()
        if posts:
            loop.call_soon_threadsafe(self._deliver, posts)

    def _serve_batch(self, batch: Batch, now: float, posts: list) -> None:
        """Execute ``batch`` at simulated time ``now`` and account it:
        responses, SLO windows, the clock, then spans and the
        recalibration hook."""
        try:
            replay, rows, measured, wall0, wall1 = \
                self._execute_batch(batch)
        except Exception as exc:
            # a failed batch fails its members, not the server; the
            # machine's clock stays where it was
            posts.extend((task.handle, exc) for task in batch)
            return
        index = self._batch_index
        self._batch_index += 1
        finishes, metrics = settle(index, batch, replay)
        makespan = metrics.measured_makespan_ns
        for task, finish, nrows in zip(batch, finishes, rows):
            self._resolve(task, ServerResponse.of(
                task, "ok", now, now + finish, rows=nrows,
                batch_index=index, batch_size=len(batch)), posts)
        self._batches.append(metrics)
        self._clock = now + makespan
        if self.tracer is not None:
            self._trace_batch(batch, now, index, finishes, makespan,
                              replay, measured, wall0, wall1)

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            await loop.run_in_executor(self._pool, self._run, loop)

    # -- reporting -----------------------------------------------------
    @property
    def clock_ns(self) -> float:
        """The machine's current simulated time."""
        return self._clock

    def report(self) -> ServingReport:
        """A snapshot of everything served so far."""
        return ServingReport(
            policy=self.admission.mode,
            responses=sorted(self._responses, key=lambda r: r.qid),
            batches=list(self._batches),
            slo=self.slo.snapshot(),
            breaches=list(self.slo.breaches),
            tenants=[t.stats() for t in
                     sorted(self.tenants.values(),
                            key=lambda t: t.index)],
            fingerprint=self.hierarchy.fingerprint())

    def capacity_plan(self, space, *, tenant: str | None = None,
                      slo_p95_ns: float | None = None,
                      clients: int | None = None,
                      spot_check: str = "none",
                      apply_slack: bool = False):
        """Answer a capacity question from the server's own recorded
        mix: re-price everything served so far (one tenant's stream, or
        all tenants') on every candidate of a
        :class:`~repro.whatif.ProfileSpace`.

        The served queries and the owning tenant's catalog are captured
        by value (:class:`~repro.whatif.CapturedWorkload`), then priced
        under the server's *own* admission configuration (mode, slack,
        lookahead, replay quantum) so the what-if batches are the ones
        this server would actually form.  With ``apply_slack=True`` and
        an SLO target, the recommendation's derived admission slack is
        installed on the live :class:`AdmissionController` — the
        planning loop closed.

        Returns the :class:`~repro.whatif.WhatIfReport`.
        """
        from ..whatif import CapturedWorkload, WhatIfSweep

        if tenant is not None:
            owner = self.tenant(tenant)
            served = [r for r in self._responses
                      if r.ok and r.tenant == tenant]
        else:
            owners = sorted(self.tenants.values(), key=lambda t: t.index)
            if not owners:
                raise RuntimeError("no tenants registered")
            # All tenants share generator-built catalogs in practice;
            # capture the first tenant's tables as the representative.
            owner = owners[0]
            served = [r for r in self._responses if r.ok]
        if not served:
            raise RuntimeError("nothing served yet — a capacity plan "
                               "needs a recorded mix")
        served.sort(key=lambda r: r.qid)
        workload = CapturedWorkload.from_session(
            owner.session, [(r.kind, r.text) for r in served],
            clients=clients if clients is not None
            else max(1, len(self.tenants)))
        sweep = WhatIfSweep(space, workload, mode=self.admission.mode,
                            slack=self.admission.slack,
                            lookahead=self.admission.lookahead,
                            quantum=self.quantum)
        report = sweep.run(slo_p95_ns=slo_p95_ns, spot_check=spot_check)
        if apply_slack and report.recommendation is not None:
            self.admission.slack = report.recommendation.admission_slack
        return report

    def __repr__(self) -> str:
        return (f"QueryServer(mode={self.admission.mode!r}, "
                f"tenants={sorted(self.tenants)}, "
                f"served={len(self._responses)})")
