"""Per-query and per-batch service metrics, and the rendered report.

All times are simulated nanoseconds on the service's machine profile.
Queries arrive together at simulated time zero (a closed batch of
client requests), so a query's latency is its completion time: queueing
delay behind earlier batches plus its own batch's execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..query.observe import OperatorMeasurement

__all__ = ["percentile", "QueryMetrics", "BatchMetrics", "RunReport",
           "WorkloadReport"]


#: Sentinel distinguishing "no empty-sample default supplied" from an
#: explicit ``empty=None``.
_RAISE = object()


def percentile(values: Sequence[float], q: float, empty=_RAISE) -> float:
    """The ``q``-th percentile (0–100) with linear interpolation.

    Edge cases are explicit: an empty sample raises :class:`ValueError`
    unless ``empty`` supplies a return value for it
    (:meth:`RunReport.latency_percentile` passes ``empty=None`` — a run
    with no completions has no percentile, which is not an error), and
    a single sample is its own ``q``-th percentile for every ``q``
    including 0 and 100."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if not values:
        if empty is _RAISE:
            raise ValueError("percentile of an empty sequence")
        return empty
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass(frozen=True)
class QueryMetrics:
    """One query's simulated-time accounting."""

    qid: int
    client: int
    kind: str
    signature: str
    batch_index: int
    cache_hit: bool
    #: Simulated time the query's batch started.
    start_ns: float
    #: Simulated time the query completed.
    finish_ns: float
    #: Memory time measured for this query during the batch replay
    #: (inflated by contention when co-run).
    memory_ns: float
    #: Calibrated pure-CPU time.
    cpu_ns: float
    #: Per-operator predicted-vs-measured attribution
    #: (:class:`~repro.query.OperatorMeasurement`), available when the
    #: query ran solo (a singleton batch executes through the typed
    #: measured path); ``None`` for co-run members, whose interleaved
    #: accesses have no per-operator scope.
    operators: tuple[OperatorMeasurement, ...] | None = None

    @property
    def latency_ns(self) -> float:
        """Arrival is simulated time zero, so latency = completion."""
        return self.finish_ns

    def to_json(self) -> dict:
        out = {
            "qid": self.qid, "client": self.client, "kind": self.kind,
            "signature": self.signature, "batch_index": self.batch_index,
            "cache_hit": self.cache_hit, "start_ns": self.start_ns,
            "finish_ns": self.finish_ns, "latency_ns": self.latency_ns,
            "memory_ns": self.memory_ns, "cpu_ns": self.cpu_ns,
        }
        if self.operators is not None:
            out["operators"] = [op.to_json() for op in self.operators]
        return out


@dataclass(frozen=True, slots=True)
class BatchMetrics:
    """One co-run batch: the ⊙ prediction next to the simulator's
    measurement."""

    index: int
    size: int
    predicted_memory_ns: float
    measured_memory_ns: float
    predicted_makespan_ns: float
    measured_makespan_ns: float

    @property
    def contention_error(self) -> float:
        """Relative error of the ⊙-predicted batch memory time against
        the interleaved-replay measurement."""
        if self.measured_memory_ns <= 0:
            return 0.0
        return (abs(self.predicted_memory_ns - self.measured_memory_ns)
                / self.measured_memory_ns)

    def to_json(self) -> dict:
        return {
            "index": self.index, "size": self.size,
            "predicted_memory_ns": self.predicted_memory_ns,
            "measured_memory_ns": self.measured_memory_ns,
            "predicted_makespan_ns": self.predicted_makespan_ns,
            "measured_makespan_ns": self.measured_makespan_ns,
            "contention_error": self.contention_error,
        }


class RunReport:
    """What every run report accounts the same way: one policy's
    batches — each the ⊙ prediction next to its replay measurement —
    and the latency distribution of the queries that completed.  A
    subclass keeps its own per-query records and supplies
    :meth:`latencies`."""

    def __init__(self, policy: str, batches: list[BatchMetrics],
                 fingerprint: str = "") -> None:
        self.policy = policy
        self.batches = batches
        #: Profile fingerprint of the machine the run executed on —
        #: joins this report to the what-if candidate that predicted it.
        self.fingerprint = fingerprint

    def latencies(self) -> list[float]:
        """Simulated latency of every completed query."""
        raise NotImplementedError

    def latency_percentile(self, q: float) -> float | None:
        """``None`` when nothing completed."""
        return percentile(self.latencies(), q, empty=None)

    @property
    def p50_latency_ns(self) -> float | None:
        return self.latency_percentile(50.0)

    @property
    def p95_latency_ns(self) -> float | None:
        return self.latency_percentile(95.0)

    @property
    def p99_latency_ns(self) -> float | None:
        return self.latency_percentile(99.0)

    @property
    def predicted_makespan_ns(self) -> float:
        """Σ of the ⊙-predicted batch makespans (busy time only)."""
        return sum(b.predicted_makespan_ns for b in self.batches)

    @property
    def measured_makespan_ns(self) -> float:
        """Σ of the replay-measured batch makespans."""
        return sum(b.measured_makespan_ns for b in self.batches)

    @property
    def mean_contention_error(self) -> float:
        """Mean relative ⊙-vs-replay error over *co-run* batches
        (singleton batches exercise the plain Section 4/5 model, which
        the existing validation suites already cover)."""
        shared = [b.contention_error for b in self.batches if b.size > 1]
        return sum(shared) / len(shared) if shared else 0.0


class WorkloadReport(RunReport):
    """The executor's result: every query, every batch, one policy."""

    def __init__(self, policy: str, queries: list[QueryMetrics],
                 batches: list[BatchMetrics],
                 fingerprint: str = "") -> None:
        if not queries:
            raise ValueError("a report needs at least one query")
        super().__init__(policy, batches, fingerprint)
        self.queries = queries

    def latencies(self) -> list[float]:
        return [m.latency_ns for m in self.queries]

    # -- headline numbers ----------------------------------------------
    @property
    def makespan_ns(self) -> float:
        """Simulated completion time of the whole workload."""
        return max(q.finish_ns for q in self.queries)

    @property
    def throughput_qps(self) -> float:
        """Queries per simulated second."""
        span = self.makespan_ns
        return len(self.queries) / (span / 1e9) if span > 0 else float("inf")

    @property
    def cache_hits(self) -> int:
        return sum(1 for q in self.queries if q.cache_hit)

    def to_json(self) -> dict:
        """The whole run as a JSON-serializable dict — built from the
        same typed vocabulary (per-operator measurements included where
        available) the query layer's results serialize with."""
        return {
            "kind": "workload_report",
            "policy": self.policy,
            "fingerprint": self.fingerprint,
            "makespan_ns": self.makespan_ns,
            "throughput_qps": self.throughput_qps,
            "p50_latency_ns": self.p50_latency_ns,
            "p95_latency_ns": self.p95_latency_ns,
            "p99_latency_ns": self.p99_latency_ns,
            # the same values under the SloTracker.snapshot() names, so
            # serving-side consumers read one vocabulary
            "p50_ns": self.p50_latency_ns,
            "p95_ns": self.p95_latency_ns,
            "p99_ns": self.p99_latency_ns,
            "cache_hits": self.cache_hits,
            "mean_contention_error": self.mean_contention_error,
            "queries": [q.to_json() for q in self.queries],
            "batches": [b.to_json() for b in self.batches],
        }

    # ------------------------------------------------------------------
    def render(self) -> str:
        """A compact text table of the run."""
        q = self.queries
        lines = [
            f"policy {self.policy}: {len(q)} queries in "
            f"{len(self.batches)} batches",
            f"  makespan   {self.makespan_ns / 1e6:>10.2f} ms   "
            f"throughput {self.throughput_qps:>8.1f} q/s",
            f"  latency    p50 {self.p50_latency_ns / 1e6:>8.2f} ms   "
            f"p95 {self.p95_latency_ns / 1e6:>8.2f} ms   "
            f"p99 {self.p99_latency_ns / 1e6:>8.2f} ms",
            f"  plan cache {self.cache_hits}/{len(q)} hits   "
            f"⊙ vs simulator error "
            f"{self.mean_contention_error * 100:>5.1f}% "
            f"(co-run batches)",
        ]
        lines.append("  batches:")
        for b in self.batches:
            lines.append(
                f"    #{b.index:<3} size {b.size}  "
                f"mem pred {b.predicted_memory_ns / 1e6:>8.2f} ms / "
                f"meas {b.measured_memory_ns / 1e6:>8.2f} ms  "
                f"makespan {b.measured_makespan_ns / 1e6:>8.2f} ms")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"WorkloadReport({self.policy!r}, "
                f"queries={len(self.queries)}, "
                f"makespan={self.makespan_ns / 1e6:.2f}ms)")
