"""The ⊙ co-run cost model: predicting inter-query cache contention.

Composing the whole-plan access patterns of queries that execute
*concurrently* under one ``⊙`` (:class:`~repro.core.Conc`) is exactly
the paper's Section 5.2 contention model applied across queries: every
cache level is divided among the co-runners proportionally to their
footprints (Eq. 5.3), so each plan is priced against a smaller cache
than it would own when running alone.  The difference between the
⊙-composed cost and the sum of standalone costs is the predicted
contention slowdown.

Timing model (makespan).  The simulated machine has one shared memory
hierarchy and one logical core per co-running client: miss latencies
serialize on the shared hierarchy, while a query's calibrated pure-CPU
work (Eq. 6.1) overlaps *other* queries' memory stalls but never its
own.  Hence for a co-run batch

    makespan = max( Σᵢ mem_i ,  maxᵢ (cpu_i + mem_i) )

with ``mem_i`` the ⊙-inflated memory time of member ``i`` — which
degenerates to the paper's serial ``T = T_mem + T_cpu`` for a batch of
one.  Memory-bound batches are bounded by total (inflated) bus time;
CPU-bound batches by their slowest member, which is where co-running
wins over serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ..core.cost import CostModel, Memo
from ..hardware.hierarchy import MemoryHierarchy
from ..query.physical import QueryPlan

__all__ = ["CoRunPrediction", "InterferenceModel"]


@dataclass(frozen=True)
class CoRunPrediction:
    """The ⊙ model's verdict on one co-run batch.

    Immutable, so each total below is derived on its first read and
    kept: admission reads a candidate batch's makespan at every
    comparison, and the ⊙ memo hands the same prediction out again."""

    #: Per-member memory time under the ⊙ cache division (inflated).
    memory_ns: tuple[float, ...]
    #: Per-member calibrated pure-CPU time (Eq. 6.1).
    cpu_ns: tuple[float, ...]
    #: Per-member *standalone* memory time (whole cache to itself).
    solo_memory_ns: tuple[float, ...]

    @cached_property
    def batch_memory_ns(self) -> float:
        """Total memory time of the batch under ⊙: equal to
        ``estimate(Conc.of(*patterns)).memory_ns`` up to float summation
        order (this adds per member what the compound adds per level),
        so the two may differ in the last bit."""
        return sum(self.memory_ns)

    @cached_property
    def serial_memory_ns(self) -> float:
        """Total memory time if the members ran one after another, each
        from a cold cache."""
        return sum(self.solo_memory_ns)

    @cached_property
    def slowdown(self) -> float:
        """Predicted contention factor: ⊙ memory time over serial
        memory time (≥ 1 up to model noise; 1 means no interference)."""
        serial = self.serial_memory_ns
        return self.batch_memory_ns / serial if serial > 0 else 1.0

    @cached_property
    def makespan_ns(self) -> float:
        """Predicted completion time of the batch (see module
        docstring): shared-hierarchy memory time serializes, CPU
        overlaps other members' stalls."""
        if not self.memory_ns:
            return 0.0
        return max(self.batch_memory_ns,
                   max(c + m for c, m in zip(self.cpu_ns, self.memory_ns)))


#: Entries each pricing memo of an :class:`InterferenceModel` holds
#: before it drops its oldest — a long-lived server prices an unbounded
#: stream of plans, a memo entry keeps its plans alive, and one batch
#: formation re-prices the same few compositions within a window far
#: shorter than this.
MEMO_ENTRIES = 4096


class InterferenceModel:
    """Prices co-run batches of physical plans by external ⊙
    composition.

    Plans contribute their pipeline-aware whole-plan patterns
    (:attr:`~repro.query.QueryPlan.access_pattern`); access-free plans (bare
    scans) contribute nothing to contention but still carry CPU time.
    """

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        self.model = CostModel(hierarchy)
        # Both prices are memoized: batch formation prices
        # O(queue · batch · admission.LOOKAHEAD) candidate batches over
        # the same few plans, and neither a plan's solo cost nor a
        # composition's ⊙ cost ever changes.  Keys are plan ids — for a
        # composition the *ordered* tuple, since member order fixes both
        # the result tuples and the float summation order — and every
        # value holds its plans so the ids stay unambiguous.  Below
        # these, a composition this model has not priced yet is still
        # arithmetic on remembered misses: the members' miss pairs come
        # from the process-wide miss memo of repro.core.cost, asked with
        # plain geometry values, and CostModel.concurrent_memory_ns
        # scores them with this machine's latencies without building a
        # per-level estimate.
        self._solo: Memo[int, tuple[QueryPlan, float, float]] = Memo()
        self._co_runs: Memo[tuple[int, ...], tuple[tuple[QueryPlan, ...],
                                                   CoRunPrediction]] = Memo()

    # ------------------------------------------------------------------
    def cpu_time_ns(self, plan: QueryPlan) -> float:
        """Calibrated pure-CPU time of ``plan`` (Eq. 6.1)."""
        return self.hierarchy.nanoseconds(plan.cpu_cycles())

    def standalone(self, plan: QueryPlan) -> tuple[float, float]:
        """``(memory_ns, cpu_ns)`` of ``plan`` running alone on a cold
        machine (memoized per plan)."""
        key = id(plan)
        cached = self._solo.recall(key)
        if cached is not None:
            return cached[1], cached[2]
        pattern = plan.access_pattern
        memory = (0.0 if pattern is None
                  else self.model.estimate(pattern).memory_ns)
        cpu = self.cpu_time_ns(plan)
        self._solo.store(key, (plan, memory, cpu), MEMO_ENTRIES)
        return memory, cpu

    def co_run(self, plans: Sequence[QueryPlan]) -> CoRunPrediction:
        """Predict the contention of running ``plans`` concurrently
        (memoized per ordered composition)."""
        if not plans:
            raise ValueError("a co-run batch needs at least one plan")
        key = tuple(map(id, plans))
        cached = self._co_runs.recall(key)
        if cached is not None:
            return cached[1]
        prediction = self._compose(plans)
        self._co_runs.store(key, (tuple(plans), prediction), MEMO_ENTRIES)
        return prediction

    def _compose(self, plans: Sequence[QueryPlan]) -> CoRunPrediction:
        patterns = [p.access_pattern for p in plans]
        standalone = [self.standalone(p) for p in plans]
        cpu = tuple(c for _, c in standalone)
        solo = tuple(m for m, _ in standalone)
        present = [pat for pat in patterns if pat is not None]
        if len(present) <= 1:
            # No competition: at most one member touches memory.
            return CoRunPrediction(memory_ns=solo, cpu_ns=cpu,
                                   solo_memory_ns=solo)
        times = iter(self.model.concurrent_memory_ns(present))
        memory = tuple(0.0 if pat is None else next(times)
                       for pat in patterns)
        return CoRunPrediction(memory_ns=memory, cpu_ns=cpu,
                               solo_memory_ns=solo)
