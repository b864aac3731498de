"""The deterministic what-if sweep driver: price, don't execute.

For every candidate of a :class:`~repro.whatif.ProfileSpace` the sweep
compiles the *same* fixed workload through the real
:class:`~repro.query.Optimizer` in a :class:`~repro.session.Session`
on the candidate machine (so plan choice reacts to the candidate
hardware — a bigger cache can change the chosen join), and prices the
stream purely with the cost model:

* standalone cost per query from the whole-plan pattern (Eq. 6.1),
* co-run batches decided by the very :class:`~repro.service.Stepper`
  and admission rule the server runs,
* each batch priced through
  :meth:`~repro.service.InterferenceModel.co_run` (Eq. 5.3) by
  :meth:`~repro.core.CostModel.concurrent_memory_ns` — each member's
  ``concurrent_estimates`` memory time, summed straight from the miss
  memo's pairs without building the estimates — with
  ``makespan = max(Σ mem_i, max_i (cpu_i + mem_i))``.

Candidates that differ only in prices share one catalog: a sweep keeps
one *stack* per distinct ``(geometry, candidate.memory_budget)``
(:meth:`~repro.hardware.MemoryHierarchy.geometry_key`: every level's
capacity, line size, associativity and flags, no latency, no clock) —
the realized session (catalog, plan cache, statement memo), the query
stream, and one :class:`~repro.service.InterferenceModel` per
candidate fingerprint — built on first use.  A candidate switches the
stack's session to its machine with
:meth:`~repro.session.Session.set_hierarchy`; only the
:class:`~repro.service.AdmissionController` and
:class:`~repro.service.Stepper`, which carry ``cores``, are per
candidate.  Sharing is exact, for four reasons:

* the realized catalog and stream are a function of the workload, the
  geometry and the budget, and the budget is in the key;
* :func:`~repro.hardware.profile_fingerprint` hashes every priced
  parameter of the hierarchy and leaves out only its display name, so
  two candidates of one fingerprint compile and price on the same
  machine, and the plan cache and the interference models are keyed
  by it;
* the exhaustive enumeration is a function of geometry
  (:meth:`~repro.query.Optimizer.enumeration_key`), so a compile that
  re-ranks the stack's stored enumeration on another fingerprint
  returns the plan a cold compile would, and a plan-cache hit does too;
* the ⊙ memo (:meth:`~repro.service.InterferenceModel.co_run`) returns
  what its composition would compute.

Nothing executes: a sweep over machines that don't exist costs only
model arithmetic.  Because batches complete as units on the simulated
clock, a member's *predicted* completion is its batch's makespan plus
the queueing delay behind earlier batches — the model-side counterpart
of the executor's timing, and the definition behind predicted
p50/p95.  Optional **spot checks** replay chosen candidates through
the trace-driven simulator (:class:`~repro.service.ServiceExecutor`)
to verify the prediction stays inside the validation band; a spot
check executes, so it realizes a fresh session of its own.

Workloads come in two shapes: :class:`GeneratedWorkload` re-creates a
seeded :class:`~repro.service.WorkloadGenerator` stream per realized
machine (templates over deterministic tables), and :class:`CapturedWorkload`
snapshots a live session's catalog and an observed ``(kind, text)``
stream — how :func:`capacity_plan` answers capacity questions from a
:class:`~repro.server.QueryServer`'s own recorded mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from ..service.admission import AdmissionController
from ..service.core import Stepper, compile_task
from ..service.executor import ServiceExecutor
from ..service.interference import InterferenceModel
from ..service.metrics import percentile
from ..service.workload import (
    CONTENTION_HEAVY_MIX,
    DEFAULT_MIX,
    OUT_OF_CORE_MIX,
    WorkloadGenerator,
    WorkloadQuery,
)
from ..session import Session
from .report import WhatIfReport
from .space import Candidate, ProfileSpace

__all__ = ["GeneratedWorkload", "CapturedWorkload", "CandidateOutcome",
           "SpotCheck", "WhatIfSweep", "capacity_plan", "MIXES"]

#: Named mixes the CLI and generated workloads accept.
MIXES: Mapping[str, Mapping[str, float]] = {
    "default": DEFAULT_MIX,
    "contention-heavy": CONTENTION_HEAVY_MIX,
    "out-of-core": OUT_OF_CORE_MIX,
}


class GeneratedWorkload:
    """A seeded template workload, re-created per realized machine.

    Deterministic in ``(seed, scale, mix, n_queries, clients)`` — the
    same definition every candidate prices, so differences between
    rows are the hardware, never the workload.  A sweep realizes it
    once per distinct ``(geometry, memory_budget)`` and prices every
    candidate with that key on the one session, switched to the
    candidate's machine (exact, see the module docstring).
    """

    def __init__(self, *, seed: int = 0, scale: int = 512,
                 mix: str | Mapping[str, float] = "contention-heavy",
                 n_queries: int = 32, clients: int = 8) -> None:
        if isinstance(mix, str):
            if mix not in MIXES:
                raise ValueError(f"unknown mix {mix!r} "
                                 f"(expected one of {sorted(MIXES)})")
            self.mix_name = mix
            self.mix = dict(MIXES[mix])
        else:
            self.mix_name = "custom"
            self.mix = dict(mix)
        if n_queries < 1:
            raise ValueError("n_queries must be positive")
        if clients < 1:
            raise ValueError("clients must be positive")
        self.seed = seed
        self.scale = scale
        self.n_queries = n_queries
        self.clients = clients

    def realize(self, candidate: Candidate
                ) -> tuple[Session, list[WorkloadQuery]]:
        """A fresh session on the candidate machine with the seeded
        catalog populated, plus the (identical across candidates)
        query stream."""
        session = Session(hierarchy=candidate.hierarchy,
                          memory_budget=candidate.memory_budget)
        generator = WorkloadGenerator(session=session, seed=self.seed,
                                      scale=self.scale, mix=self.mix)
        return session, generator.generate(self.n_queries,
                                           clients=self.clients)

    def to_json(self) -> dict:
        return {
            "source": "generated",
            "mix": self.mix_name,
            "weights": {k: self.mix[k] for k in sorted(self.mix)},
            "seed": self.seed,
            "scale": self.scale,
            "queries": self.n_queries,
            "clients": self.clients,
        }


class CapturedWorkload:
    """A workload captured from a live session: its catalog values and
    an observed query stream, re-materialized per candidate geometry:
    like :class:`GeneratedWorkload`, once per ``(geometry,
    memory_budget)`` of a sweep, shared by the candidates that differ
    only in prices or ``cores``.

    The snapshot is by *value* (column contents, sortedness flags,
    predicate registry), so re-pricing needs no knowledge of how the
    catalog was generated — any served mix can be re-asked against
    hypothetical hardware.
    """

    def __init__(self, *, tables: Mapping[str, tuple[Sequence, int, bool]],
                 functions: Mapping[str, Callable],
                 queries: Sequence[WorkloadQuery], clients: int) -> None:
        if not queries:
            raise ValueError("a captured workload needs at least one query")
        if clients < 1:
            raise ValueError("clients must be positive")
        self.tables = {name: (list(values), width, bool(sorted_flag))
                       for name, (values, width, sorted_flag)
                       in tables.items()}
        self.functions = dict(functions)
        self.queries = list(queries)
        self.clients = clients

    @classmethod
    def from_session(cls, session: Session,
                     queries: Sequence, clients: int | None = None
                     ) -> "CapturedWorkload":
        """Snapshot ``session``'s catalog and normalize ``queries`` —
        either :class:`~repro.service.WorkloadQuery` objects or bare
        ``(kind, text)`` pairs — into a re-priceable workload."""
        normalized: list[WorkloadQuery] = []
        n_clients = clients if clients is not None else 1
        for i, query in enumerate(queries):
            if isinstance(query, WorkloadQuery):
                normalized.append(replace(query, qid=i))
            else:
                kind, text = query
                normalized.append(WorkloadQuery(
                    qid=i, client=i % max(1, n_clients), kind=kind,
                    text=text))
        if clients is None:
            n_clients = max(
                (q.client for q in normalized), default=0) + 1
        tables = {
            name: (list(column.values), column.width,
                   session._sorted.get(name, False))
            for name, column in session.db.catalog.items()
        }
        return cls(tables=tables, functions=session._functions,
                   queries=normalized, clients=n_clients)

    def realize(self, candidate: Candidate
                ) -> tuple[Session, list[WorkloadQuery]]:
        session = Session(hierarchy=candidate.hierarchy,
                          memory_budget=candidate.memory_budget)
        for name, (values, width, sorted_flag) in self.tables.items():
            session.create_table(name, list(values), width=width,
                                 sorted=sorted_flag)
        for name, fn in self.functions.items():
            session.predicate(name, fn)
        return session, list(self.queries)

    def to_json(self) -> dict:
        kinds: dict[str, int] = {}
        for query in self.queries:
            kinds[query.kind] = kinds.get(query.kind, 0) + 1
        return {
            "source": "captured",
            "queries": len(self.queries),
            "clients": self.clients,
            "kinds": {k: kinds[k] for k in sorted(kinds)},
            "tables": {name: len(values) for name, (values, _, _)
                       in sorted(self.tables.items())},
        }


@dataclass(frozen=True)
class SpotCheck:
    """One candidate's simulator verification: the same workload,
    batches, and policy executed trace-by-trace, next to the sweep's
    pure-model prediction."""

    measured_makespan_ns: float
    measured_p50_ns: float
    measured_p95_ns: float
    measured_throughput_qps: float
    #: Relative |predicted − measured| / measured for the headline
    #: numbers (the 0.35 validation band applies).
    makespan_error: float
    p95_error: float
    #: The executor's own ⊙-vs-replay error over co-run batches.
    mean_contention_error: float

    def to_json(self) -> dict:
        return {
            "measured_makespan_ns": self.measured_makespan_ns,
            "measured_p50_ns": self.measured_p50_ns,
            "measured_p95_ns": self.measured_p95_ns,
            "measured_throughput_qps": self.measured_throughput_qps,
            "makespan_error": self.makespan_error,
            "p95_error": self.p95_error,
            "mean_contention_error": self.mean_contention_error,
        }


@dataclass(frozen=True)
class CandidateOutcome:
    """One candidate's predicted serving behaviour on the fixed
    workload — a pure function of (workload, candidate, policy)."""

    index: int
    label: str
    params: tuple[tuple[str, object], ...]
    fingerprint: str
    cost_proxy: float
    cores: int
    memory_budget: int | None
    #: Σ of predicted batch makespans (the whole stream's completion).
    makespan_ns: float
    p50_ns: float
    p95_ns: float
    throughput_qps: float
    batches: int
    co_run_batches: int
    #: Largest marginal makespan inflation any admission caused,
    #: relative to the admitted query's solo time — the smallest
    #: admission ``slack`` that would re-admit every co-runner the
    #: sweep packed on this machine.
    max_admission_inflation: float
    spot_check: SpotCheck | None = None

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "params": dict(self.params),
            "fingerprint": self.fingerprint,
            "cost_proxy": self.cost_proxy,
            "cores": self.cores,
            "memory_budget": self.memory_budget,
            "predicted": {
                "makespan_ns": self.makespan_ns,
                "p50_ns": self.p50_ns,
                "p95_ns": self.p95_ns,
                "throughput_qps": self.throughput_qps,
            },
            "batches": self.batches,
            "co_run_batches": self.co_run_batches,
            "max_admission_inflation": self.max_admission_inflation,
            "spot_check": (None if self.spot_check is None
                           else self.spot_check.to_json()),
        }


class WhatIfSweep:
    """Prices one workload on every candidate of one space.

    Parameters
    ----------
    space:
        The :class:`~repro.whatif.ProfileSpace` to expand.
    workload:
        A :class:`GeneratedWorkload` or :class:`CapturedWorkload`.
    mode / slack:
        Batch-formation knobs (:class:`~repro.service.AdmissionController`,
        the server's defaults, validated by the controller when the
        first candidate is priced); a candidate's ``cores`` is the
        batch cap.
    """

    def __init__(self, space: ProfileSpace, workload, *,
                 mode: str = "interference-aware",
                 slack: float = 1.0) -> None:
        self.space = space
        self.workload = workload
        self.mode = mode
        self.slack = slack
        #: label → Candidate for every priced candidate (filled by
        #: :meth:`run`; lets callers spot-check after the fact).
        self.candidates: dict[str, Candidate] = {}
        #: (geometry key, memory budget) → the priced stack of that
        #: geometry: realized session, query stream, and an
        #: interference model per candidate fingerprint.
        self._stacks: dict[tuple[tuple, int | None],
                           tuple[Session, list[WorkloadQuery],
                                 dict[str, InterferenceModel]]] = {}

    # ------------------------------------------------------------------
    def _admission(self, cores: int) -> dict:
        """The batch-formation knobs on a ``cores``-wide candidate."""
        return dict(mode=self.mode, max_batch=cores, slack=self.slack)

    def price(self, candidate: Candidate) -> CandidateOutcome:
        """Predict the workload's serving behaviour on ``candidate``
        with pure model arithmetic (no execution, no simulator).

        The session and query stream come from the stack of
        ``candidate``'s ``(geometry, memory_budget)``, realized on the
        first candidate with that key and switched to ``candidate``'s
        machine; the interference model is the stack's one for
        ``candidate``'s fingerprint.  A later candidate compiles
        through the warm plan cache (re-ranking stored enumerations on
        a new fingerprint) and prices through the warm ⊙ memo, which
        return what a cold stack would (module docstring).  Tasks,
        admission and stepper are the candidate's own."""
        key = (candidate.hierarchy.geometry_key(), candidate.memory_budget)
        stack = self._stacks.get(key)
        if stack is None:
            session, queries = self.workload.realize(candidate)
            stack = self._stacks[key] = (session, queries, {})
        session, queries, models = stack
        fingerprint = candidate.fingerprint
        if session.fingerprint != fingerprint:
            session.set_hierarchy(candidate.hierarchy)
        interference = models.get(fingerprint)
        if interference is None:
            interference = models[fingerprint] = \
                InterferenceModel(session.hierarchy)
        stepper = Stepper.closed_loop(
            AdmissionController(interference, max_queue=math.inf,
                                **self._admission(candidate.cores)),
            [compile_task(session, interference, q) for q in queries])
        latencies: list[float] = []
        inflation = 0.0
        co_run = 0
        for step in stepper:
            batch, clock = step.batch, step.now_ns
            makespan = batch.prediction.makespan_ns
            if len(batch) > 1:
                plans = [t.plan for t in batch]
                co_run += 1
                previous = interference.co_run(plans[:1]).makespan_ns
                for size in range(2, len(plans) + 1):
                    grown = interference.co_run(plans[:size]).makespan_ns
                    solo = batch[size - 1].solo_total_ns
                    if solo > 0:
                        inflation = max(inflation,
                                        (grown - previous) / solo)
                    previous = grown
            # A batch completes as a unit on the simulated clock: every
            # member's predicted completion is the batch makespan plus
            # the queueing delay behind earlier batches.
            latencies.extend(clock + makespan for _ in batch)
            stepper.advance(step, makespan)
        clock = stepper.clock_ns
        throughput = (len(latencies) / (clock / 1e9) if clock > 0
                      else float("inf"))
        self.candidates[candidate.label] = candidate
        return CandidateOutcome(
            index=candidate.index, label=candidate.label,
            params=candidate.params, fingerprint=fingerprint,
            cost_proxy=candidate.cost_proxy, cores=candidate.cores,
            memory_budget=candidate.memory_budget,
            makespan_ns=clock,
            p50_ns=percentile(latencies, 50.0),
            p95_ns=percentile(latencies, 95.0),
            throughput_qps=throughput,
            batches=stepper.batch_count, co_run_batches=co_run,
            max_admission_inflation=inflation)

    def spot_check(self, candidate: Candidate,
                   outcome: CandidateOutcome) -> SpotCheck:
        """Execute the workload on ``candidate`` through the
        trace-driven simulator (recorded traces, interleaved replay —
        the measured counterpart of the ⊙ prediction) and compare the
        headline numbers."""
        session, queries = self.workload.realize(candidate)
        executor = ServiceExecutor(session,
                                   **self._admission(candidate.cores))
        report = executor.run(queries)
        measured_makespan = report.makespan_ns
        measured_p95 = report.p95_latency_ns
        return SpotCheck(
            measured_makespan_ns=measured_makespan,
            measured_p50_ns=report.p50_latency_ns,
            measured_p95_ns=measured_p95,
            measured_throughput_qps=report.throughput_qps,
            makespan_error=(abs(outcome.makespan_ns - measured_makespan)
                            / measured_makespan
                            if measured_makespan > 0 else 0.0),
            p95_error=(abs(outcome.p95_ns - measured_p95) / measured_p95
                       if measured_p95 > 0 else 0.0),
            mean_contention_error=report.mean_contention_error)

    # ------------------------------------------------------------------
    def run(self, *, slo_p95_ns: float | None = None,
            spot_check: str = "none") -> WhatIfReport:
        """Expand, price every candidate, assemble the report, answer
        the SLO question (when asked), and verify chosen rows on the
        simulator.

        ``spot_check`` is ``"none"``, ``"frontier"`` (every
        Pareto-frontier row plus the recommended one), or ``"all"``.
        """
        if spot_check not in ("none", "frontier", "all"):
            raise ValueError("spot_check must be 'none', 'frontier', "
                             f"or 'all', got {spot_check!r}")
        expansion = self.space.expand()
        baseline = self.price(expansion.baseline)
        outcomes = [self.price(c) for c in expansion.candidates]
        report = WhatIfReport(
            space=self.space.name, policy=self.mode,
            workload=self.workload.to_json(), baseline=baseline,
            candidates=outcomes, skipped=list(expansion.skipped))
        if slo_p95_ns is not None:
            report.recommend(p95_ns=slo_p95_ns)
        if spot_check != "none":
            targets = ([report.baseline, *report.outcomes()]
                       if spot_check == "all"
                       else report.frontier_outcomes())
            labels = {o.label for o in targets}
            recommendation = report.recommendation
            if recommendation is not None:
                labels.add(recommendation.label)
            for label in sorted(labels):
                outcome = report.outcome(label)
                check = self.spot_check(self.candidates[label], outcome)
                report.attach_spot_check(label, check)
        return report


def capacity_plan(server, space: ProfileSpace, *, tenant: str | None = None,
                  slo_p95_ns: float | None = None,
                  clients: int | None = None, spot_check: str = "none",
                  apply_slack: bool = False) -> WhatIfReport:
    """Answer a capacity question from a serving run's own recorded
    mix: re-price everything ``server`` (a
    :class:`~repro.server.QueryServer` or any
    :class:`~repro.server.Dispatcher`) served so far — one tenant's
    stream, or all tenants' — on every candidate of ``space``.

    The served queries and the owning tenant's catalog are captured by
    value (:class:`CapturedWorkload`), then priced under the server's
    *own* admission configuration (mode and slack; the replay quantum
    is the one default everywhere) so the what-if batches are
    the ones this server would actually form.  With
    ``apply_slack=True`` and an SLO target, the recommendation's
    derived admission slack is installed on the server's live
    admission controller — the planning loop closed.
    """
    served = server.report().completed
    if tenant is not None:
        owner = server.tenant(tenant)
        served = [r for r in served if r.tenant == tenant]
    else:
        owners = sorted(server.tenants.values(), key=lambda t: t.index)
        if not owners:
            raise RuntimeError("no tenants registered")
        # All tenants share generator-built catalogs in practice;
        # capture the first tenant's tables as the representative.
        owner = owners[0]
    if not served:
        raise RuntimeError("nothing served yet — a capacity plan "
                           "needs a recorded mix")
    workload = CapturedWorkload.from_session(
        owner.session, [(r.kind, r.text) for r in served],
        clients=clients if clients is not None
        else max(1, len(server.tenants)))
    admission = server.admission
    sweep = WhatIfSweep(space, workload, mode=admission.mode,
                        slack=admission.slack)
    report = sweep.run(slo_p95_ns=slo_p95_ns, spot_check=spot_check)
    if apply_slack and report.recommendation is not None:
        admission.slack = report.recommendation.admission_slack
    return report
