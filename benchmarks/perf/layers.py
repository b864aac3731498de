"""The traced pass: where one rep's host time goes, layer by layer.

Nothing under ``src/`` carries host-time spans, so the spans are
recorded from here, around calls into each layer's public methods:

* **wrappers** — for the duration of one rep a layer method
  (``AdmissionController.next_batch``, ``InterferenceModel.co_run``,
  ``Optimizer.optimize`` ...) is replaced on its class by a thin timing
  wrapper and restored afterwards;
* **staged re-drive** (serve workloads) — compile, kernel execution
  under a ``TraceRecorder``, column snapshot/restore and interleaved
  replay all happen *inside* the server's worker threads, so the same
  stream is driven again from this file, single-threaded, on
  identically built tenants and with the batches the live server
  formed.  Every staged replay must reproduce the server's
  ``measured_memory_ns`` bit for bit — the proof that the staged spans
  time the same work.

A layer's ``_s`` metric is the **self time** of its spans: duration
minus what direct child spans cover, so the layers of one pass never
count an interval twice.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro import Session
from repro.obs import Tracer
from repro.obs.schema import validate_whatif_report
from repro.query import Optimizer
from repro.server import AdmissionController
from repro.service import InterferenceModel, TraceRecorder, replay_interleaved
from repro.service.executor import trace_length
from repro.whatif import WhatIfSweep

import workloads

#: Span name -> ``(class, method)`` the wrapper times.
ADMISSION = {"server.admission.offer": (AdmissionController, "offer"),
             "server.admission.next_batch": (AdmissionController,
                                             "next_batch")}
PRICING = {"core.corun": (InterferenceModel, "co_run"),
           "core.standalone": (InterferenceModel, "standalone")}
COMPILE = {"session.compile": (Session, "compile"),
           "session.parse": (Session, "as_logical"),
           "query.optimize": (Optimizer, "optimize")}
WHATIF = {"whatif.price": (WhatIfSweep, "price")}

#: The serve workloads' layer metrics that, with ``server.glue_s``, add
#: up to the untraced rep wall.
SERVE_LAYERS = ("session.parse_s", "session.compile_s",
                "query.optimize_cold_s", "core.corun_s",
                "core.standalone_s", "server.admission_s",
                "service.snapshot_restore_s", "db.kernels_s",
                "service.replay_s")

#: Span name -> ``fn(self, result)`` giving ids to record on the span:
#: the batch the server formed, and whether a compile hit the cache.
CAPTURE = {
    "server.admission.next_batch":
        lambda controller, batch: {"qids": [t.qid for t in batch]},
    "session.compile":
        lambda session, planned: {"hit": session.last_compile_cached},
}


class Spans:
    """An in-memory span log: name, start, end, parent, thread, ids."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self._open = threading.local()
        self._sids = itertools.count()

    @contextmanager
    def span(self, name: str, **ids):
        stack = self._open.__dict__.setdefault("stack", [])
        sid = next(self._sids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield ids
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.rows.append((sid, name, start, end, parent,
                              threading.get_ident(), ids))

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        covered: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _, _ in self.rows:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _, _ in self.rows:
            out[name] += (end - start - covered[sid]) / 1e9
        return out

    def durations_s(self, name: str, **match) -> list[float]:
        return [(end - start) / 1e9
                for _, n, start, end, _, _, ids in self.rows
                if n == name and all(ids.get(k) == v
                                     for k, v in match.items())]

    def chrome_trace(self) -> list[dict]:
        """The spans as Chrome ``trace_event`` complete events."""
        origin = min((row[2] for row in self.rows), default=0)
        return [{"name": name, "ph": "X", "pid": 1, "tid": thread,
                 "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                 "args": {"sid": sid, "parent": parent, **ids}}
                for sid, name, start, end, parent, thread, ids
                in sorted(self.rows, key=lambda row: row[2])]


@contextmanager
def timed_methods(spans: Spans, targets: dict):
    """Time every call of each ``targets`` method as a span, for the
    duration of the block; :data:`CAPTURE` adds ids to some."""
    originals = []
    for name, (cls, method) in targets.items():
        original = getattr(cls, method)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            with spans.span(_name) as ids:
                result = _original(*args, **kwargs)
                if _name in CAPTURE:
                    ids.update(CAPTURE[_name](args[0], result))
                return result

        setattr(cls, method, functools.wraps(original)(wrapper))
        originals.append((cls, method, original))
    try:
        yield
    finally:
        for cls, method, original in originals:
            setattr(cls, method, original)


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def _count_misses(totals: dict, counters) -> None:
    for level in counters.levels:
        totals[level.name] += level.misses


def record_kernels(spans: Spans, session: Session, plan, **ids) -> list:
    """Execute ``plan`` on ``session``'s engine with a ``TraceRecorder``
    in place of the simulator and the base columns put back afterwards,
    as the server does; the execution alone is a ``db.kernels`` span.
    Returns the recorded trace."""
    db = session.db
    saved = {column: list(column.values) for column in db.catalog.values()}
    recorder = TraceRecorder()
    real, db.mem = db.mem, recorder
    try:
        with spans.span("db.kernels", **ids), \
                db.execution_scope(session.config.execution):
            plan.execute(db)
    finally:
        db.mem = real
        for column, values in saved.items():
            column.values = values
    return recorder.trace


def _compile_metrics(spans: Spans, own: dict) -> dict:
    """The compile-side layer metrics every pass shares."""
    hits = spans.durations_s("session.compile", hit=True)
    plans = spans.durations_s("query.optimize")
    return {
        "session.parse_s": own["session.parse"],
        "session.compile_s": own["session.compile"],
        "session.compile_hit_us_p50":
            statistics.median(hits) * 1e6 if hits else None,
        "session.plan_cache_hits": len(hits),
        "session.plan_cache_misses":
            len(spans.durations_s("session.compile", hit=False)),
        "query.optimize_cold_s": own["query.optimize"],
        "query.optimize_cold_ms_per_plan":
            _ratio(own["query.optimize"] * 1e3, len(plans)),
        "query.distinct_plans": len(plans),
    }


def _pricing_metrics(spans: Spans, own: dict) -> dict:
    calls = len(spans.durations_s("core.corun"))
    return {
        "core.corun_s": own["core.corun"],
        "core.corun_calls": calls,
        "core.corun_us_per_call": _ratio(own["core.corun"] * 1e6, calls),
        "core.standalone_s": own["core.standalone"],
    }


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------

def trace_serve(workload, rep_wall_s: float) -> tuple[dict, Spans]:
    spans = Spans()

    # (a) the live server, admission and pricing timed in place
    server = workload.build()
    cpu = time.process_time()
    with timed_methods(spans, {**ADMISSION, **PRICING}):
        rep = workload.run(server)
    cpu = time.process_time() - cpu
    report = rep.report
    batches = [ids["qids"] for _, name, _, _, _, _, ids in spans.rows
               if name == "server.admission.next_batch" and ids["qids"]]
    for index, qids in enumerate(batches):
        reported = sorted(r.qid for r in report.responses
                          if r.batch_index == index)
        if sorted(qids) != reported:
            raise SystemExit(f"batch {index}: next_batch returned {qids}, "
                             f"the report says {reported}")

    # (b) the same stream staged from here on identically built tenants
    staged = workload.build()
    tenants = sorted(staged.tenants.values(), key=lambda t: t.index)
    owner = {q.qid: tenants[q.client % len(tenants)]
             for q in workload.stream}
    plans = {}
    with timed_methods(spans, COMPILE):
        for query in workload.stream:
            plans[query.qid] = owner[query.qid].session.compile(
                query.text).plan
    misses: dict[str, int] = defaultdict(int)
    entries = accesses = simulated = 0
    for index, qids in enumerate(batches):
        traces = []
        for qid in qids:
            tenant = owner[qid]
            with spans.span("service.snapshot_restore", batch=index,
                            qid=qid):
                trace = record_kernels(spans, tenant.session, plans[qid],
                                       batch=index, qid=qid)
                offset = tenant.address_offset
                traces.append(
                    [("range", e[1] + offset, e[2], e[3], e[4])
                     if e[0] == "range" else (e[0] + offset, e[1])
                     for e in trace] if offset else trace)
            entries += len(trace)
            accesses += trace_length(trace)
        with spans.span("service.replay", batch=index):
            replay = replay_interleaved(staged.hierarchy, traces,
                                        quantum=staged.quantum)
        if replay.total_ns != report.batches[index].measured_memory_ns:
            raise SystemExit(
                f"batch {index}: staged replay took {replay.total_ns} "
                f"simulated ns, the server measured "
                f"{report.batches[index].measured_memory_ns}")
        simulated += replay.counters.accesses
        _count_misses(misses, replay.counters)

    # (c) one rep with the program's own tracer on
    tracer = Tracer()
    tracer_wall_s = workload.run(workload.build(tracer=tracer)).wall_s

    own = spans.self_seconds()
    metrics = {
        **_compile_metrics(spans, own),
        **_pricing_metrics(spans, own),
        "server.admission_s": (own["server.admission.offer"]
                               + own["server.admission.next_batch"]),
        "server.next_batch_calls":
            len(spans.durations_s("server.admission.next_batch")),
        "server.batches": len(report.batches),
        "server.mean_batch_size":
            len(report.completed) / len(report.batches),
        "server.shed": len(report.shed),
        "server.compile_wall_s":
            sum(r.compile_wall_ns or 0 for r in report.responses) / 1e9,
        "server.cpu_per_wall": cpu / rep.wall_s,
        "db.kernels_s": own["db.kernels"],
        "service.snapshot_restore_s": own["service.snapshot_restore"],
        "service.replay_s": own["service.replay"],
        "service.trace_entries": entries,
        "service.trace_accesses": accesses,
        "service.accesses_per_entry": accesses / entries,
        "simulator.accesses": simulated,
        "simulator.ns_per_access": own["service.replay"] * 1e9 / simulated,
        "simulator.accesses_per_wall_s": simulated / rep_wall_s,
        **{f"simulator.misses.{level}": n for level, n in misses.items()},
        "obs.tracer_overhead_ratio": tracer_wall_s / rep_wall_s,
        "obs.spans_recorded": len(tracer.spans),
        "bench.span_overhead_ratio": rep.wall_s / rep_wall_s,
    }
    # asyncio, pool hand-off, response bookkeeping: what the rep took
    # beyond the layers timed above
    glue = rep_wall_s - sum(metrics[layer] for layer in SERVE_LAYERS)
    metrics["server.glue_s"] = glue
    metrics["server.glue_share"] = glue / rep_wall_s
    return metrics, spans


# ----------------------------------------------------------------------
# session_mixed
# ----------------------------------------------------------------------

def trace_session(workload, rep_wall_s: float) -> tuple[dict, Spans]:
    spans = Spans()
    sessions = workload.build()
    misses: dict[str, int] = defaultdict(int)
    simulated = 0
    with timed_methods(spans, COMPILE):
        for op, (cls, text) in enumerate(workload.stream):
            with spans.span("session.execute_measured", op=op, cls=cls):
                result = sessions[cls].execute_measured(
                    text, cold=True, restore=True)
            simulated += result.counters.accesses
            _count_misses(misses, result.counters)
    # the same plans once more with a recorder in place of the
    # simulator: kernel time alone (recorder appends included)
    for op, (cls, text) in enumerate(workload.stream):
        record_kernels(spans, sessions[cls],
                       sessions[cls].compile(text).plan, op=op, cls=cls)
    own = spans.self_seconds()
    executed_s = sum(spans.durations_s("session.execute_measured"))
    kernels = {cls: spans.durations_s("db.kernels", cls=cls)
               for cls in ("inmem", "spill")}
    metrics = {
        **_compile_metrics(spans, own),
        "db.kernels_s": own["db.kernels"],
        "db.inmem_ms_per_query": statistics.mean(kernels["inmem"]) * 1e3,
        "db.spill_ms_per_query": statistics.mean(kernels["spill"]) * 1e3,
        "simulator.accesses": simulated,
        "simulator.direct_ns_per_access":
            (executed_s - own["db.kernels"]) * 1e9 / simulated,
        "simulator.accesses_per_wall_s": simulated / rep_wall_s,
        **{f"simulator.misses.{level}": n for level, n in misses.items()},
        "bench.span_overhead_ratio": executed_s / rep_wall_s,
    }
    return metrics, spans


# ----------------------------------------------------------------------
# plan_whatif
# ----------------------------------------------------------------------

def trace_whatif(workload, rep_wall_s: float) -> tuple[dict, Spans]:
    spans = Spans()
    with timed_methods(spans, {**WHATIF, **PRICING, **COMPILE}):
        rep = workload.run(workload.build())
    report = rep.report
    with spans.span("whatif.report"):
        problems = validate_whatif_report(report.to_json())
    if problems:
        raise SystemExit(f"what-if report does not validate: {problems}")
    own = spans.self_seconds()
    priced = spans.durations_s("whatif.price")
    metrics = {
        **_compile_metrics(spans, own),
        **_pricing_metrics(spans, own),
        "simulator.accesses": 0,
        "whatif.candidate_ms_p50": statistics.median(priced) * 1e3,
        "whatif.price_s": own["whatif.price"],
        "whatif.report_s": own["whatif.report"],
        "whatif.candidates": len(report.outcomes()),
        "whatif.skipped": len(report.skipped),
        "bench.span_overhead_ratio": rep.wall_s / rep_wall_s,
    }
    return metrics, spans


def trace(workload, rep_wall_s: float) -> tuple[dict, Spans]:
    """Per-layer metrics of ``workload`` and the spans behind them;
    ``rep_wall_s`` is the untraced median rep wall they are set
    against."""
    passes = {workloads.ServeWorkload: trace_serve,
              workloads.SessionWorkload: trace_session,
              workloads.WhatIfWorkload: trace_whatif}
    return passes[type(workload)](workload, rep_wall_s)
