"""Extension: observability overhead and artifact validity.

The :mod:`repro.obs` layer promises three things this bench holds it
to, on seeded serving runs:

* **overhead** — the same contention-heavy stream is served with and
  without a :class:`~repro.obs.Tracer` attached (best-of-N wall time
  each); tracing must cost ≤ 5% of serving throughput, and the
  simulated responses must be *identical* either way (observability
  never changes what it observes — only the compile wall-time field,
  real thread time, differs run to run and is stripped);
* **artifacts** — two traced runs with the same seeds must export
  byte-identical simulated-clock Chrome traces that validate against
  :func:`~repro.obs.validate_chrome_trace` (the file lands next to the
  bench results as ``ext_tracing.trace.json`` — open it in Perfetto),
  with a metrics exposition carrying plan-cache, admission, and
  per-level simulator miss series;
* **drift** — a fifo-serial run of the pinned small-n permutation
  join (``tests/test_known_gaps.py``: the model underpredicts by
  ~0.42 at n = 1024) must surface at least one structured drift event
  for ``hash_join``.

Emits schema-checked ``BENCH_ext_tracing.json``.  Honours the shared
``--quick`` / ``REPRO_BENCH_QUICK`` knob.
"""

import asyncio
import json
import pathlib
import time

from repro.db import random_permutation
from repro.obs import Tracer, validate_chrome_trace
from repro.server import PoissonArrivals, QueryServer, TenantQuota
from repro.service import WorkloadGenerator
from repro.validation import payload_from_serving

#: Tolerance of the established model-vs-simulator agreement suites.
MODEL_TOLERANCE = 0.35

#: Tracing may cost at most this fraction of serving wall time.
MAX_OVERHEAD = 0.05

#: Offered load (queries per simulated second) — saturating, so the
#: admission controller forms co-run batches.
RATE_QPS = 16000.0

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

TENANTS = ("acme", "globex")


def _serve(tracer, n_queries, scale):
    """One two-tenant contention-heavy serving run, optionally traced;
    returns ``(report, responses)``."""

    async def main():
        server = QueryServer(mode="interference-aware", max_batch=4,
                             max_queue=512, tracer=tracer)
        for name in TENANTS:
            tenant = server.add_tenant(name,
                                       TenantQuota(max_queued=256))
            gen = WorkloadGenerator.contention_heavy(
                session=tenant.session, seed=7, scale=scale)
            queries = gen.generate(n_queries, clients=4)
        stream = PoissonArrivals(RATE_QPS, seed=3).stamp(queries)
        async with server:
            responses = await server.serve(stream)
            await server.drain()
        return server.report(), responses

    return asyncio.run(main())


def _drift_run():
    """A fifo-serial (solo-batch) run of the pinned permutation join —
    the per-operator attribution path that feeds the drift monitor."""
    tracer = Tracer()

    async def main():
        server = QueryServer(mode="fifo-serial", tracer=tracer)
        tenant = server.add_tenant("acme")
        tenant.session.create_table(
            "orders", random_permutation(1024, seed=1))
        tenant.session.create_table(
            "customers", random_permutation(1024, seed=2))
        async with server:
            futures = [server.submit_nowait(
                "acme", "join(orders, customers)", kind="join",
                arrival_ns=float(i) * 1e5) for i in range(4)]
            await asyncio.gather(*futures)
            await server.drain()

    asyncio.run(main())
    return tracer


def _strip_wall(responses):
    payloads = []
    for response in responses:
        payload = response.to_json()
        payload["compile_ns"].pop("wall_ns")
        payloads.append(payload)
    return payloads


def test_tracing_overhead_and_artifacts(quick, save_result, save_json):
    scale = 512
    n_queries = 16 if quick else 32
    repeats = 2 if quick else 3

    lines = [f"== Extension: tracing & metrics (scale = {scale}, "
             f"{n_queries} queries, 2 tenants"
             f"{', quick' if quick else ''}) =="]

    # -- overhead: traced vs untraced wall time, identical responses ----
    timings = {"off": [], "on": []}
    outcomes = {}
    for _ in range(repeats):
        for label, tracer in (("off", None), ("on", Tracer())):
            begin = time.perf_counter()
            report, responses = _serve(tracer, n_queries, scale)
            timings[label].append(time.perf_counter() - begin)
            outcomes[label] = (report, responses)
    overhead = (min(timings["on"]) / min(timings["off"])) - 1.0
    lines.append(
        f"  serving wall time (best of {repeats}): "
        f"untraced {min(timings['off']) * 1e3:.1f} ms, "
        f"traced {min(timings['on']) * 1e3:.1f} ms  "
        f"→ overhead {overhead * 100:+.1f}% "
        f"(budget ≤ {MAX_OVERHEAD * 100:.0f}%)")
    assert _strip_wall(outcomes["on"][1]) == \
        _strip_wall(outcomes["off"][1]), \
        "tracing must not change simulated responses"

    # -- artifacts: deterministic, schema-valid exports -----------------
    first = Tracer()
    _serve(first, n_queries, scale)
    second = Tracer()
    _serve(second, n_queries, scale)
    exports = [json.dumps(t.chrome_trace("sim"), sort_keys=True,
                          separators=(",", ":"))
               for t in (first, second)]
    assert exports[0] == exports[1], \
        "simulated-clock trace must be byte-identical across seeds"
    problems = validate_chrome_trace(first.chrome_trace("sim"))
    assert problems == [], f"trace schema violations: {problems}"
    RESULTS_DIR.mkdir(exist_ok=True)
    trace_path = first.write_chrome(
        RESULTS_DIR / "ext_tracing.trace.json")
    trace_bytes = trace_path.stat().st_size
    exposition = first.metrics.expose()
    for family in ("plan_cache_hits_total", "server_admission_total",
                   "sim_level_misses_total", "server_queries_total"):
        assert family in exposition, f"metrics missing {family}"
    lines.append(
        f"  trace: {len(first.spans)} spans, {trace_bytes} bytes, "
        f"byte-identical across runs, schema-valid "
        f"({trace_path.name})")
    lines.append(
        f"  metrics: {len(first.metrics)} families "
        f"(plan cache, admission, per-level misses included)")

    # -- drift: the pinned permutation-join overshoot -------------------
    drift_tracer = _drift_run()
    events = [e for e in drift_tracer.drift.events
              if e.operator == "hash_join"]
    assert events, ("the pinned small-n permutation-join overshoot "
                    "must surface as a drift event")
    event = events[0]
    lines.append(
        f"  drift: hash_join EWMA {event.ewma:+.3f} left the "
        f"±{event.band:.2f} band after {event.count} samples "
        f"({len(drift_tracer.drift.events)} event(s) total)")
    save_result("ext_tracing", "\n".join(lines))

    payload = payload_from_serving(
        "ext_tracing",
        [("traced", outcomes["on"][0]), ("untraced", outcomes["off"][0])],
        tolerance=MODEL_TOLERANCE)
    payload["tracing_overhead"] = overhead
    payload["max_overhead"] = MAX_OVERHEAD
    payload["trace_bytes"] = trace_bytes
    payload["trace_file"] = trace_path.name
    payload["span_count"] = len(first.spans)
    payload["metric_families"] = len(first.metrics)
    payload["drift_events"] = [e.to_json()
                               for e in drift_tracer.drift.events]
    save_json("ext_tracing", payload)

    # -- acceptance -----------------------------------------------------
    assert overhead <= MAX_OVERHEAD, (
        f"tracing overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}%")
