"""Concurrent workload service: interference-aware scheduling via ⊙.

The paper's concurrent-execution operator ``⊙`` (Section 5.2) models
access patterns competing for a cache, dividing its capacity
proportionally to the patterns' footprints.  PR 1 applied it *within*
one query (pipelined producer/consumer edges); this subsystem applies
it *between* queries: composing the whole-plan patterns of queries that
are to run concurrently under one ``⊙`` predicts the batch's contention
slowdown — and a batch former that trusts the prediction can decide
which queries may share the machine.

* :mod:`repro.service.workload` — deterministic seeded multi-client
  query streams over a shared :class:`~repro.session.Session` catalog,
* :mod:`repro.service.interference` — the ⊙ co-run cost model
  (:class:`InterferenceModel`, :class:`CoRunPrediction`),
* :mod:`repro.service.core` — the serving core every driver shares:
  the :class:`Task` type, :func:`compile_task`, the ⊙ admission rule
  (:class:`BatchFormer`, one of :data:`MODES`), the clock-only
  :class:`Stepper` that decides every batch, and :func:`settle`,
* :mod:`repro.service.admission` — the run queue the stepper asks
  (:class:`AdmissionController`: bounded, tenant-fair, shedding),
* :mod:`repro.service.executor` — the measured side (record each
  plan's access trace, replay co-run batches interleaved through one
  shared memory system) and the closed-loop :class:`ServiceExecutor`,
* :mod:`repro.service.metrics` — per-query/per-batch metrics and the
  rendered :class:`WorkloadReport`.
"""

from .admission import AdmissionController
from .core import (
    MODES,
    Batch,
    BatchFormer,
    Step,
    Stepper,
    Task,
    compile_task,
    settle,
)
from .executor import ServiceExecutor, TraceRecorder, replay_interleaved
from .interference import CoRunPrediction, InterferenceModel
from .metrics import BatchMetrics, QueryMetrics, WorkloadReport, percentile
from .workload import (
    WorkloadGenerator,
    WorkloadQuery,
    poisson_gaps,
    stamp_arrivals,
)

__all__ = [
    "WorkloadGenerator",
    "WorkloadQuery",
    "poisson_gaps",
    "stamp_arrivals",
    "InterferenceModel",
    "CoRunPrediction",
    "MODES",
    "Task",
    "compile_task",
    "Batch",
    "BatchFormer",
    "AdmissionController",
    "Step",
    "Stepper",
    "settle",
    "ServiceExecutor",
    "TraceRecorder",
    "replay_interleaved",
    "QueryMetrics",
    "BatchMetrics",
    "WorkloadReport",
    "percentile",
]
