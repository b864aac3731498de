"""The server's clock-only side: every decision, execution and account
of a serving run, with no thread, event loop or future.

:class:`Dispatcher` is what :class:`~repro.server.QueryServer` is
before the hand-off: it accepts queries (:meth:`~Dispatcher.accept`),
compiles them through per-tenant plan caches
(:meth:`~Dispatcher._compile`), and, one :meth:`~Dispatcher.step` at
a time, decides, executes and accounts batch after batch on the
simulated clock — the machine's time, advanced batch by batch.  A
batch starts at ``max(machine-free, seed arrival)``, lasts its
replayed makespan, and a query's reported latency is simulated
``finish − arrival``.  Every decision is the serving core's
:class:`~repro.service.Stepper`'s: compiled queries wait in a heap on
``(arrival, qid)`` and are admitted in that order, a batch never
includes a query that had not arrived when the batch started, and a
decision at simulated time *t* waits for every query that arrived by
*t* and is still compiling (the caller says which: ``blocked_from``).
So a serving run is deterministic in ``(workload, seeds, policy)`` no
matter in what order compiles finish, and tests drive it directly,
without threads.

Batch formation and settlement are the serving core's
(:mod:`repro.service.core`) and execution is
:func:`~repro.service.executor.execute_batch` — the same pieces the
closed-loop executor drives: each member's access trace is recorded
against its tenant's engine, shifted as it is recorded into the
tenant's private slice of the address space (tenants do not share
tables), and the batch replays round-robin-interleaved through the
dispatcher's one :class:`~repro.simulator.MemorySystem`, reset cold —
the measured counterpart of the ⊙ prediction the admission controller
trusted.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import NamedTuple

from ..calibrator.autotune import Recalibration, Recalibrator
from ..hardware.hierarchy import MemoryHierarchy
from ..hardware.profiles import origin2000_scaled
from ..obs import Tracer
from ..service.admission import AdmissionController
from ..service.core import Batch, Step, Stepper, Task, compile_task, settle
from ..service.executor import (
    DEFAULT_QUANTUM,
    BatchReplay,
    execute_batch,
    measure,
    record_trace,
)
from ..service.interference import InterferenceModel
from ..service.metrics import BatchMetrics, RunReport
from ..service.workload import WorkloadQuery
from ..simulator.memory import MemorySystem
from .slo import SloTarget, SloTracker
from .tenant import Tenant, TenantQuota

__all__ = ["ServerResponse", "ServingReport", "Dispatcher",
           "MetricFamily", "METRIC_FAMILIES"]


def _planless(tenant: str, query: WorkloadQuery) -> Task:
    """A task for ``query`` that never compiled (no plan, no price)."""
    return Task(qid=query.qid, kind=query.kind, text=query.text,
                plan=None, solo_memory_ns=0.0, cpu_ns=0.0,
                cache_hit=False, client=query.client, tenant=tenant,
                arrival_ns=query.arrival_ns)


def _while_recording(exc: Exception) -> bool:
    """Whether ``exc`` was raised while a plan ran under the recorder
    (:func:`~repro.service.executor.record_trace`): a kernel's."""
    return any(frame.f_code is record_trace.__code__
               for frame, _ in traceback.walk_tb(exc.__traceback__))


@dataclass(frozen=True, slots=True)
class ServerResponse:
    """One query's serving outcome on the simulated clock."""

    qid: int
    tenant: str
    kind: str
    text: str
    #: ``"ok"``, ``"shed"`` (refused by admission control) or
    #: ``"error"`` (failed at ``stage``).
    outcome: str
    arrival_ns: float
    start_ns: float
    finish_ns: float
    #: Result cardinality (``None`` unless served).
    rows: int | None = None
    #: Plan-cache provenance of the compile (``None`` unless served).
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
    #: Where an error response failed: ``"compile"``, ``"admit"`` (its
    #: offer or its batch's formation raised), ``"kernel"`` (raised
    #: while recording), ``"replay"``, ``"settle"`` (anything after the
    #: replay: settlement, spans, recalibration) or ``"stopped"``
    #: (pending when the server stopped); ``None`` unless an error.
    stage: str | None = None
    #: The failure's exception type name and message (errors only).
    error_type: str | None = None
    error_message: str | None = None

    @classmethod
    def of(cls, task: Task, outcome: str, start_ns: float,
           finish_ns: float, **served) -> "ServerResponse":
        """``task``'s response — the one place a task's fields are
        copied out.  ``served`` is what only some outcomes have:
        ``rows``, ``batch_index`` and ``batch_size`` an executed query,
        ``stage``, ``error_type`` and ``error_message`` a failed one."""
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
        """Simulated completion latency (0 for queries refused or
        failed at their arrival)."""
        return self.finish_ns - self.arrival_ns

    @property
    def wait_ns(self) -> float:
        """Simulated queueing delay before the query's batch started."""
        return self.start_ns - self.arrival_ns

    def to_json(self) -> dict:
        payload = {
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
        if self.stage is not None:
            payload["error"] = {"stage": self.stage,
                                "type": self.error_type,
                                "message": self.error_message}
        return payload


class ServingReport(RunReport):
    """A serving run's full accounting: every response, every batch's
    ⊙ prediction next to its replay measurement, the SLO windows, and
    per-tenant counters.  A tenant's failed queries are its
    ``submitted − completed − shed``; :attr:`errored` lists them."""

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
        return [r for r in self.responses if r.outcome == "shed"]

    @property
    def errored(self) -> list[ServerResponse]:
        return [r for r in self.responses if r.outcome == "error"]

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
            f"{len(self.shed)} shed, {len(self.errored)} errored, "
            f"{len(self.batches)} batches",
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


class Dispatcher:
    """A serving run's decisions, executions and accounts on the
    simulated clock (see the module docstring).

    Parameters
    ----------
    hierarchy:
        The shared machine every tenant's queries execute on; defaults
        to the scaled Origin2000.
    mode:
        Batch-formation policy: ``"interference-aware"`` (⊙-guided
        admission, the default), ``"max-parallel"``, or
        ``"fifo-serial"`` (the benchmark baselines).
    max_batch / max_queue:
        Admission-controller knobs (:class:`AdmissionController`; its
        ``slack`` stays settable on :attr:`admission`, which is how
        :func:`repro.whatif.capacity_plan` installs a derived one).
    slo / tenant_slos:
        Objectives for the :class:`~repro.server.slo.SloTracker`.
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

    One door out: every accepted query leaves through :meth:`_resolve`
    and nowhere else — tenant counter, report, SLO windows,
    per-response metrics, the resolution handed back — as exactly one
    :class:`ServerResponse`, ``"ok"``, ``"shed"`` or ``"error"``; per
    tenant, ``submitted == completed + shed + errored``.  Nothing
    raised while a step decides, executes, settles, traces or
    recalibrates escapes :meth:`step`.  A failed compile is a task the
    stepper refuses at its arrival (stage ``"compile"``), in
    ``(arrival_ns, qid)`` order with the other offers; a failed batch
    fails only its members (``"admit"``, ``"kernel"``, ``"replay"`` or
    ``"settle"``), takes no batch index, no simulated time and no
    address space, and a response is resolved only once its batch has
    settled, so none already served is lost.  :meth:`_stop` fails whatever is still
    pending (``"stopped"``).
    """

    #: Interleaved-replay time slice (accesses per co-runner per turn)
    #: every batch replays with.
    quantum = DEFAULT_QUANTUM

    def __init__(self, hierarchy: MemoryHierarchy | None = None, *,
                 mode: str = "interference-aware", max_batch: int = 4,
                 max_queue: int = 64, slo: SloTarget | None = None,
                 tenant_slos: dict[str, SloTarget] | None = None,
                 tracer: Tracer | None = None,
                 recalibration: bool = False) -> None:
        if recalibration and tracer is None:
            raise ValueError(
                "recalibration requires a tracer (drift events come "
                "from the tracer's monitor on solo-batch executions)")
        self.hierarchy = (hierarchy if hierarchy is not None
                          else origin2000_scaled())
        self.interference = InterferenceModel(self.hierarchy)
        self.admission = AdmissionController(
            self.interference, mode=mode, max_queue=max_queue,
            max_batch=max_batch)
        #: The one decision loop; it reads each quota off its tenant.
        self.stepper = Stepper(self.admission,
                               lambda name: self.tenants[name].quota)
        self.slo = SloTracker(target=slo, tenant_targets=tenant_slos)
        self.tenants: dict[str, Tenant] = {}
        # online recalibration (opt-in; populated per tenant)
        self.recalibration = recalibration
        self._recalibrators: dict[str, Recalibrator] = {}
        #: Every recalibration the dispatcher ran, in order.
        self.recalibrations: list[Recalibration] = []
        # accumulated accounting
        self._responses: list[ServerResponse] = []
        self._batches: list[BatchMetrics] = []
        self._next_qid = 0
        #: The run's machine: every batch replays on it, reset cold.
        self._machine = MemorySystem(self.hierarchy)
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
                        hierarchy=self.hierarchy, quota=quota)
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

    # -- intake --------------------------------------------------------
    def accept(self, tenant: str, text: str, kind: str = "adhoc",
               arrival_ns: float | None = None
               ) -> tuple[Tenant, WorkloadQuery]:
        """Count one query against ``tenant`` and give it the next qid.
        ``arrival_ns`` places it on the simulated clock (defaults to
        the machine's current simulated time — "it arrived just
        now")."""
        owner = self.tenant(tenant)
        owner.submitted += 1
        qid = self._next_qid
        self._next_qid += 1
        arrival = (self.stepper.clock_ns if arrival_ns is None
                   else float(arrival_ns))
        return owner, WorkloadQuery(qid=qid, client=owner.index,
                                    kind=kind, text=text,
                                    arrival_ns=arrival)

    def _compile(self, tenant: Tenant, query: WorkloadQuery) -> Task:
        """Compile through the tenant's (thread-safe) plan cache and
        price the standalone run — any thread; the caller stages the
        task with its next :meth:`step`.  Never raises: a compile that
        raises makes a plan-less task carrying the ``error``."""
        wall_start = time.perf_counter_ns()
        try:
            return compile_task(tenant.worker_session(), self.interference,
                                query, tenant=tenant.name)
        except Exception as exc:
            task = _planless(tenant.name, query)
            task.error = exc
            task.compile_wall_start_ns = wall_start
            task.compile_wall_end_ns = time.perf_counter_ns()
            return task

    # -- the decision loop ---------------------------------------------
    def step(self, compiled=(), blocked_from: float | None = None
             ) -> list[tuple[Task, object]] | None:
        """Stage the ``compiled`` tasks, then decide, execute and
        account one batch; returns its resolutions — ``(task,
        response)`` pairs, the offers' first — or ``None`` when the
        simulated clock cannot advance: nothing is staged or queued, or
        ``blocked_from`` (the earliest arrival of a query still
        compiling) is at or before the decision time (deciding without
        it would depend on compile timing).  Never raises (see the
        class docstring)."""
        stepper = self.stepper
        for task in compiled:
            stepper.stage(task)
        step = stepper.step(blocked_from)
        if step is None:
            return None
        resolved: list = []
        self._admit(step, resolved)
        if step.batch:
            self._serve_batch(step, resolved)
        # else: everything due was shed; the next step jumps ahead
        return resolved

    def _admit(self, step: Step, resolved: list) -> None:
        """Account ``step``'s offers to the run queue, in the order the
        stepper made them: the admission metrics, and a shed response
        for every query refused (at its own arrival) or displaced (at
        the decision time) — an error response, at its arrival, for a
        task the stepper refused for its ``error``."""
        for task, victims in step.offers:
            if task.error is not None:
                # no plan: its compile raised; else its offer did
                self._refuse(task, task.arrival_ns, resolved,
                             "compile" if task.plan is None else "admit",
                             task.error)
                continue
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
                self._refuse(victim, victim.arrival_ns if victim is task
                             else step.now_ns, resolved)

    def _serve_batch(self, step: Step, resolved: list) -> None:
        """Execute ``step``'s batch at its simulated time and settle
        it — timing, spans and the recalibration hook — then account
        it: responses, SLO windows, the clock.  A batch that raised
        before it was accounted fails its members at the decision time;
        the machine's clock stays where it was, and its members'
        allocators where they were, so every later batch measures what
        it would have measured had the failed queries never come."""
        batch, now = step.batch, step.now_ns
        if batch.error is not None:
            for task in batch:
                self._refuse(task, now, resolved, "admit", batch.error)
            return
        index = self.stepper.batch_count
        allocators = [(allocator, allocator.next_address,
                       allocator.bytes_allocated)
                      for allocator in {self.tenants[task.tenant].db.allocator
                                        for task in batch}]
        stage = "replay"
        try:
            replay, rows, measured, wall0, wall1 = self._execute_batch(batch)
            stage = "settle"
            finishes, metrics = settle(index, batch, replay)
            makespan = metrics.measured_makespan_ns
            if self.tracer is not None:
                self._trace_batch(batch, now, index, finishes, makespan,
                                  replay, measured, wall0, wall1)
        except Exception as exc:
            if stage == "replay" and _while_recording(exc):
                stage = "kernel"
            for allocator, address, nbytes in allocators:
                allocator.advance(address - allocator.next_address,
                                  nbytes - allocator.bytes_allocated)
            for task in batch:
                self._refuse(task, now, resolved, stage, exc)
            return
        for task, finish, nrows in zip(batch, finishes, rows):
            self._resolve(task, ServerResponse.of(
                task, "ok", now, now + finish, rows=nrows,
                batch_index=index, batch_size=len(batch)), resolved)
        self._batches.append(metrics)
        self.stepper.advance(step, makespan)

    def _execute_batch(self, batch: Batch):
        """Measure the batch on the dispatcher's machine,
        each member recorded against its tenant's engine and shifted
        into the tenant's address slice.

        With a tracer attached, a *solo* batch takes the typed
        measured path (:func:`~repro.service.executor.measure`: the
        same cached recording, replayed cut at its operator marks),
        which adds per-operator attribution for operator spans and
        drift monitoring.  Responses are identical either way; only the
        observability gains detail.
        """
        wall_start = time.perf_counter_ns()
        members = []
        for task in batch:
            tenant = self.tenants[task.tenant]
            members.append((tenant.session, task.plan,
                            tenant.address_offset))
        # recalibration swaps tenants' model profiles, never the machine
        assert self._machine.hierarchy is self.hierarchy
        measured = None
        if self.tracer is not None and len(members) == 1:
            session, plan, offset = members[0]
            measured = measure(session, plan, self._machine, offset=offset)
            replay, rows = BatchReplay.alone(measured), [len(measured)]
        else:
            replay, rows = execute_batch(members, self._machine,
                                         self.quantum)
        return replay, rows, measured, wall_start, time.perf_counter_ns()

    def _resolve(self, task: Task, response: ServerResponse,
                 resolved: list) -> None:
        """The one door out (see the class docstring): account
        ``response`` — served, shed or failed — and hand it back for
        ``task``."""
        tenant = self.tenants[task.tenant]
        served = response.ok
        if served:
            tenant.completed += 1
            self.slo.observe(task.tenant, response.finish_ns,
                             response.latency_ns)
        elif response.outcome == "shed":
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
        resolved.append((task, response))

    def _refuse(self, task: Task, at_ns: float, resolved: list,
                stage: str | None = None,
                error: Exception | None = None) -> None:
        """Resolve ``task`` unserved at simulated time ``at_ns``: shed
        (at its own arrival when it never got in, the displacement time
        for a victim) or, given a ``stage``, failed there with
        ``error``.  No simulated time passes for it."""
        outcome, failed = "shed", {}
        if stage is not None:
            outcome, failed = "error", {"stage": stage}
        if self.tracer is not None:
            self.tracer.span(
                "query", track=f"tenant:{task.tenant}",
                category="query", qid=task.qid,
                sim_start_ns=task.arrival_ns, sim_end_ns=at_ns,
                kind=task.kind, outcome=outcome,
                signature=task.signature, **failed)
        if stage is not None:
            failed.update(error_type=type(error).__name__,
                          error_message=str(error))
        self._resolve(task, ServerResponse.of(task, outcome, at_ns, at_ns,
                                              **failed), resolved)

    def _stop(self, tasks=()) -> list[tuple[Task, ServerResponse]]:
        """Fail ``tasks`` (never staged) and every task staged or
        queued with stage ``"stopped"``, each at its arrival, in
        ``(arrival_ns, qid)`` order; returns the resolutions."""
        resolved: list = []
        error = RuntimeError("the server stopped before serving the query")
        for task in sorted([*tasks, *self.stepper.drop()],
                           key=lambda task: (task.arrival_ns, task.qid)):
            self._refuse(task, task.arrival_ns, resolved, "stopped", error)
        return resolved

    def _trace_batch(self, batch: list[Task], now: float,
                     index: int, finishes: list[float],
                     makespan: float, replay: BatchReplay, measured,
                     wall0: int, wall1: int) -> None:
        """Record one executed batch's spans and metrics.  Called from
        :meth:`_serve_batch` only, before the batch is accounted —
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
        m["server_clock_ns"].set(now + makespan)
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
        """The dispatcher's response hook: fold the solo-batch
        measurement into the tenant's recalibrator and run it when
        drift is pending.  Called from :meth:`_trace_batch` only — the
        single simulated-clock decision point, before the batch's
        responses are accounted — so the profile swap lands
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

    # -- reporting -----------------------------------------------------
    @property
    def clock_ns(self) -> float:
        """The machine's current simulated time."""
        return self.stepper.clock_ns

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

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(mode={self.admission.mode!r}, "
                f"tenants={sorted(self.tenants)}, "
                f"served={len(self._responses)})")
