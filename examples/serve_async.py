"""Live multi-tenant serving: the asyncio query server end to end.

Starts a :class:`repro.server.QueryServer`, registers two tenants —
each with its own catalog, plan cache, and quota — and drives a seeded
open-loop Poisson stream through ⊙-guided admission control while a
sliding-window SLO tracker watches the tail.  Then demonstrates the
isolation bargain directly: one tenant recalibrates its machine
profile mid-flight, and only *its* cached plans retire — the other
tenant's prepared statements keep hitting.

Everything runs on the simulated clock (latencies are simulated
nanoseconds through the cache-hierarchy simulator), so the run is
deterministic: same seeds, same report, every time.

Run:  PYTHONPATH=src python examples/serve_async.py
"""

import asyncio

from repro import QueryServer
from repro.hardware import modern_x86
from repro.server import PoissonArrivals, SloTarget, TenantQuota
from repro.service import WorkloadGenerator


async def main() -> None:
    server = QueryServer(
        mode="interference-aware", max_batch=4,
        slo=SloTarget(p95_ns=5e6),          # hold p95 under 5 ms
        tenant_slos={"acme": SloTarget(p99_ns=8e6)})

    # -- two tenants: own catalog, own plan cache, own quota ------------
    for name, quota in (("acme", TenantQuota(max_queued=8)),
                        ("globex", TenantQuota(max_queued=16))):
        tenant = server.add_tenant(name, quota)
        gen = WorkloadGenerator(tenant.session, scale=256, seed=7)
        queries = gen.generate(32, clients=4)
    stream = PoissonArrivals(rate_qps=10_000.0, seed=3).stamp(queries)
    print(f"serving {len(stream)} queries over 2 tenants "
          f"(Poisson, 10k q/s offered)\n")

    # -- serve the stream (clients dealt round-robin to tenants) --------
    async with server:
        responses = await server.serve(stream)
        await server.drain()

        report = server.report()
        print(report.render())

        # -- mid-flight recalibration: isolation in action --------------
        acme, globex = server.tenant("acme"), server.tenant("globex")
        text = stream[0].text
        for tenant in (acme, globex):
            tenant.session.compile(text)              # warm both caches
        acme.set_hierarchy(modern_x86())              # acme recalibrates
        globex.session.compile(text)
        acme.session.compile(text)
        print(f"\nafter acme's profile switch:")
        print(f"  globex compile: "
              f"{'HIT' if globex.session.last_compile_cached else 'miss'}"
              f"  (untouched by acme)")
        print(f"  acme   compile: "
              f"{'HIT' if acme.session.last_compile_cached else 'miss'}"
              f"  (its own entries retired)")

        # -- and the server keeps serving on the new profile ------------
        late = await server.submit("acme", text)
        print(f"\npost-switch query: outcome={late.outcome}, "
              f"rows={late.rows}, "
              f"latency {late.latency_ns / 1e6:.2f} ms (simulated)")

    done = [r for r in responses if r.ok]
    shed = [r for r in responses if r.outcome == "shed"]
    co_run = [b for b in report.batches if b.size > 1]
    print(f"\n{len(done)} served / {len(shed)} shed; "
          f"{len(co_run)} co-run batches; "
          f"⊙ error vs interleaved replay "
          f"{report.mean_contention_error:.1%}")
    if report.breaches:
        worst = max(report.breaches, key=lambda b: b.value / b.limit)
        print(f"SLO breaches: {len(report.breaches)} "
              f"(worst: {worst.scope} {worst.metric} "
              f"{worst.value / 1e6:.2f} ms vs {worst.limit / 1e6:.2f} ms)")
    else:
        print("SLO: no breaches")


if __name__ == "__main__":
    asyncio.run(main())
