"""Dual-clock tracing, live metrics, and drift monitoring in one run.

Attaches a :class:`repro.obs.Tracer` to the asyncio query server and
serves a seeded two-tenant Poisson stream, then a fifo-serial run of
the pinned small-n permutation join whose per-operator attribution
feeds the drift monitor.  Three artifacts land in ``trace_out/``:

* ``trace.json`` — Chrome ``trace_event`` export with one track per
  tenant per clock (simulated pid 1, wall pid 2).  Open it at
  https://ui.perfetto.dev (or chrome://tracing) to see queue / compile
  / execute / per-operator spans laid out on both clocks;
* ``metrics.prom`` — Prometheus text exposition of the live registry:
  query outcomes, latency histograms, admission decisions, plan-cache
  hits/misses/retirements, per-level simulator miss counters;
* ``events.jsonl`` — append-only structured log of every span and
  drift event, one JSON object per line.

The simulated side of all three is deterministic: same seeds, same
bytes, every run.  Only compile wall times (real thread time) vary.

Run:  PYTHONPATH=src python examples/trace_server.py
"""

import asyncio
import pathlib

from repro.db import random_permutation
from repro.obs import Tracer, validate_chrome_trace
from repro.server import PoissonArrivals, QueryServer, TenantQuota
from repro.service import WorkloadGenerator

OUT_DIR = pathlib.Path(__file__).parent / "trace_out"


async def serve_traced(tracer: Tracer) -> None:
    """A contention-heavy two-tenant stream through the traced server."""
    server = QueryServer(mode="interference-aware", max_batch=4,
                         max_queue=512, tracer=tracer)
    for name in ("acme", "globex"):
        tenant = server.add_tenant(name, TenantQuota(max_queued=256))
        gen = WorkloadGenerator.contention_heavy(
            session=tenant.session, seed=7, scale=256)
        queries = gen.generate(16, clients=4)
    stream = PoissonArrivals(rate_qps=16_000.0, seed=3).stamp(queries)
    async with server:
        responses = await server.serve(stream)
        await server.drain()
    ok = sum(1 for r in responses if r.ok)
    print(f"served {len(responses)} queries over 2 tenants "
          f"({ok} ok, {len(responses) - ok} shed)")


async def provoke_drift(tracer: Tracer) -> None:
    """Fifo-serial singleton batches run the typed measured path, so
    every operator's predicted-vs-measured error reaches the drift
    monitor — including the pinned small-n permutation-join overshoot
    (the model underpredicts hash_join by ~0.42 at n = 1024)."""
    server = QueryServer(mode="fifo-serial", tracer=tracer)
    tenant = server.add_tenant("acme")
    tenant.session.create_table("orders", random_permutation(1024, seed=1))
    tenant.session.create_table("customers",
                                random_permutation(1024, seed=2))
    async with server:
        await asyncio.gather(*[
            server.submit_nowait("acme", "join(orders, customers)",
                                 kind="join", arrival_ns=float(i) * 1e5)
            for i in range(4)])
        await server.drain()


def main() -> None:
    tracer = Tracer()
    asyncio.run(serve_traced(tracer))
    # A separate tracer keeps the drift series clean: EWMA state is
    # keyed by (operator, profile fingerprint), and the serving run's
    # well-predicted joins would otherwise dilute the small-n overshoot.
    drift_tracer = Tracer()
    asyncio.run(provoke_drift(drift_tracer))

    # -- artifacts ------------------------------------------------------
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = tracer.write_chrome(OUT_DIR / "trace.json")
    assert validate_chrome_trace(tracer.chrome_trace()) == []
    metrics_path = OUT_DIR / "metrics.prom"
    metrics_path.write_text(tracer.metrics.expose())
    events_path = tracer.write_events(OUT_DIR / "events.jsonl")

    print(f"\n{len(tracer.spans)} spans recorded "
          f"({len(tracer.metrics)} metric families)")
    print(f"  {trace_path}  <- load into https://ui.perfetto.dev")
    print(f"  {metrics_path}")
    print(f"  {events_path}")

    # -- a taste of the registry ----------------------------------------
    print("\nmetrics exposition (plan cache + admission excerpt):")
    for line in tracer.metrics.expose().splitlines():
        if line.startswith(("plan_cache", "server_admission")):
            print(f"  {line}")

    # -- drift ----------------------------------------------------------
    print("\ndrift events (fifo-serial permutation-join run):")
    if not drift_tracer.drift.events:
        print("  (none)")
    for event in drift_tracer.drift.events:
        print(f"  {event.operator}: EWMA {event.ewma:+.3f} left the "
              f"±{event.band:.2f} band after {event.count} samples "
              f"(series {event.operator}@{event.fingerprint[:12]}…)")


if __name__ == "__main__":
    main()
