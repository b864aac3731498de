"""Extension: live serving over the cost-model stack.

The :mod:`repro.server` tier puts the ⊙ concurrency algebra on the
critical path of an *online* system: seeded open-loop Poisson traffic
flows through two tenants' plan caches into the admission controller,
which forms co-run batches only when the predicted makespan beats
queueing.  This bench measures the serving tier twice:

* **load sweep** — sustained throughput and p50/p95/p99 latency as the
  offered client count (and with it the arrival rate) grows past the
  machine's service rate, under interference-aware admission;
* **policy comparison** — the same overload stream served with
  ``interference-aware``, ``max-parallel``, and ``fifo-serial``
  admission on a contention-heavy mix: the ⊙-guided policy must beat
  naive max-parallel's simulator-measured makespan by ≥ 1.1x, with its
  co-run predictions tracking the interleaved replay within the
  model-vs-simulator tolerance (35%).

All times are simulated: a run is deterministic in (workload seed,
arrival seed, policy), so the emitted ``BENCH_ext_serving.json`` is
diffable across commits.  Honours the shared ``--quick`` /
``REPRO_BENCH_QUICK`` knob (shorter stream, same assertions).
"""

import asyncio

from repro.server import PoissonArrivals, QueryServer, TenantQuota
from repro.service import WorkloadGenerator
from repro.validation import payload_from_serving

#: Tolerance of the established model-vs-simulator agreement suites.
MODEL_TOLERANCE = 0.35

#: Required simulator-measured makespan advantage of ⊙-guided
#: admission over naive max-parallel on the contention-heavy mix.
REQUIRED_ADVANTAGE = 1.1

#: Offered load per client (queries per simulated second).  The scaled
#: Origin2000 serves the contention-heavy mix at a few thousand q/s,
#: so a handful of clients is saturation.
RATE_PER_CLIENT_QPS = 4000.0

TENANTS = ("acme", "globex")


def _serve(mode, clients, n_queries, scale, rate_qps):
    """One serving run: two tenants, contention-heavy catalogs, a
    Poisson-stamped stream dealt round-robin; queue sized to avoid
    shedding so policy makespans are comparable like for like."""

    async def main():
        server = QueryServer(mode=mode, max_batch=4, max_queue=512)
        for name in TENANTS:
            tenant = server.add_tenant(
                name, TenantQuota(max_queued=256))
            gen = WorkloadGenerator.contention_heavy(
                session=tenant.session, seed=7, scale=scale)
            queries = gen.generate(n_queries, clients=clients)
        stream = PoissonArrivals(rate_qps, seed=3).stamp(queries)
        async with server:
            await server.serve(stream)
            await server.drain()
        return server.report()

    return asyncio.run(main())


def _fmt_point(size, report):
    def _ms(value):
        return "     -" if value is None else f"{value / 1e6:6.2f}"

    return (f"    {size:>12}:  {len(report.completed):>3} served   "
            f"{report.sustained_qps:>7.0f} q/s   "
            f"p50 {_ms(report.p50_latency_ns)} ms   "
            f"p95 {_ms(report.p95_latency_ns)} ms   "
            f"p99 {_ms(report.p99_latency_ns)} ms   "
            f"⊙ err {report.mean_contention_error * 100:>5.1f}%")


def test_async_serving(quick, save_result, save_json):
    scale = 512
    n_queries = 16 if quick else 32
    client_counts = (1, 2, 4) if quick else (1, 2, 4, 8)

    lines = [f"== Extension: async multi-tenant serving "
             f"(scale = {scale}, {n_queries} queries, 2 tenants, "
             f"contention-heavy mix{', quick' if quick else ''}) =="]

    # -- load sweep: q/s and tail latency vs client count ---------------
    lines.append("  interference-aware admission, load sweep "
                 f"({RATE_PER_CLIENT_QPS:.0f} q/s offered per client):")
    sweep = []
    for clients in client_counts:
        report = _serve("interference-aware", clients, n_queries,
                        scale, RATE_PER_CLIENT_QPS * clients)
        sweep.append((clients, report))
        lines.append(_fmt_point(f"{clients} clients", report))
        done = report.completed
        assert len(done) == n_queries, "sweep must not shed"
        if len(done) > 1:
            assert report.p50_latency_ns <= report.p95_latency_ns \
                <= report.p99_latency_ns
        assert report.sustained_qps > 0

    # -- policy comparison on the saturating load -----------------------
    clients = client_counts[-1]
    rate = RATE_PER_CLIENT_QPS * clients
    reports = {mode: _serve(mode, clients, n_queries, scale, rate)
               for mode in ("interference-aware", "max-parallel",
                            "fifo-serial")}
    lines.append(f"  policy comparison ({clients} clients, "
                 f"{rate:.0f} q/s offered):")
    for mode, report in reports.items():
        lines.append(_fmt_point(mode, report))
    aware = reports["interference-aware"]
    naive = reports["max-parallel"]
    advantage = naive.makespan_ns / aware.makespan_ns
    lines.append(f"  interference-aware vs max-parallel makespan: "
                 f"{advantage:.2f}x better "
                 f"(required ≥ {REQUIRED_ADVANTAGE:.1f}x)")
    save_result("ext_serving", "\n".join(lines))

    payload = payload_from_serving(
        "ext_serving",
        [(f"{c} clients", report) for c, report in sweep],
        tolerance=MODEL_TOLERANCE)
    payload["rate_per_client_qps"] = RATE_PER_CLIENT_QPS
    payload["policy_comparison"] = {
        mode: {"makespan_ns": report.makespan_ns,
               "sustained_qps": report.sustained_qps,
               "p95_latency_ns": report.p95_latency_ns,
               "mean_contention_error": report.mean_contention_error}
        for mode, report in reports.items()}
    payload["aware_vs_naive_makespan"] = advantage
    save_json("ext_serving", payload)

    # -- acceptance -----------------------------------------------------
    # every policy served the whole stream (no shedding: comparable)
    for report in reports.values():
        assert not report.shed
    # ⊙-guided admission beats naive max-parallel by the required edge
    assert advantage >= REQUIRED_ADVANTAGE, (
        f"aware admission only {advantage:.2f}x over max-parallel")
    # and its predictions track the interleaved replay
    assert aware.mean_contention_error < MODEL_TOLERANCE
    assert naive.mean_contention_error < MODEL_TOLERANCE
