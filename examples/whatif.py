"""Answer a capacity question on machines that don't exist.

The calibrated cost model prices an access pattern on any
:class:`~repro.hardware.MemoryHierarchy` it is handed — so "what
machine do I need for this mix?" never requires building (or even
simulating) the candidates.  This example sweeps memory speed × core
count over the contention-heavy mix at 8 clients with pure model
arithmetic, asks for the smallest configuration that beats the
baseline's p95 by 10%, verifies the recommendation with one
trace-driven simulator run, and closes the loop by installing the
recommendation's derived admission slack on a live server planning
from its own recorded mix.

Run:  python examples/whatif.py
"""

import asyncio

from repro.obs import validate_whatif_report
from repro.whatif import (
    GeneratedWorkload,
    ProfileSpace,
    WhatIfSweep,
    capacity_plan,
)


def main() -> None:
    # -- declare the question's knobs ----------------------------------
    space = ProfileSpace(
        {"mem_ns": [200.0, 400.0, 800.0],   # random memory latency
         "cores": [2, 4]},                  # ⊙ co-run batch cap
        name="mem-speed × cores")
    workload = GeneratedWorkload(seed=7, scale=512,
                                 mix="contention-heavy",
                                 n_queries=24, clients=8)

    # -- price everything, nothing executes ----------------------------
    sweep = WhatIfSweep(space, workload)
    baseline = sweep.price(space.baseline())
    target = 0.90 * baseline.p95_ns
    print(f"question: smallest config with p95 ≤ {target / 1e6:.2f} ms "
          f"(90% of baseline) at 8 clients, contention-heavy mix\n")
    report = sweep.run(slo_p95_ns=target, spot_check="frontier")
    print(report.render())

    # -- the answer, simulator-verified --------------------------------
    rec = report.recommendation
    assert rec is not None
    chosen = report.outcome(rec.label)
    spot = chosen.spot_check
    print(f"\nrecommended '{rec.label}' "
          f"(fingerprint {rec.fingerprint}):")
    print(f"  predicted p95 {rec.predicted_p95_ns / 1e6:.2f} ms, "
          f"simulator measured {spot.measured_p95_ns / 1e6:.2f} ms "
          f"({spot.p95_error:.1%} off — band is 35%)")
    assert validate_whatif_report(report.to_json()) == []
    print("  report JSON is schema-valid and byte-deterministic")

    # -- a live server planning from its own recorded mix --------------
    from repro.server import PoissonArrivals, QueryServer, TenantQuota
    from repro.service import WorkloadGenerator

    async def serve():
        server = QueryServer(mode="interference-aware", max_workers=4,
                             max_batch=4, max_queue=256)
        tenant = server.add_tenant("acme", TenantQuota(max_queued=128))
        gen = WorkloadGenerator.contention_heavy(session=tenant.session,
                                                 seed=7, scale=256)
        stream = PoissonArrivals(8000.0, seed=3).stamp(
            gen.generate(12, clients=4))
        async with server:
            await server.serve(stream)
            await server.drain()
        return server

    server = asyncio.run(serve())
    print(f"\nserver served {len(server.report().completed)} queries; "
          f"planning capacity from that recorded mix...")
    plan = capacity_plan(server, space, clients=4,
                         slo_p95_ns=2 * baseline.p95_ns, apply_slack=True)
    live = plan.recommendation
    print(f"  capacity plan recommends '{live.label}', admission slack "
          f"{live.admission_slack} installed "
          f"(server slack is now {server.admission.slack})")


if __name__ == "__main__":
    main()
