"""Extension: interference-aware co-scheduling of a concurrent workload.

The ⊙ operator (Section 5.2) predicts how concurrently executing
access patterns share a cache.  Applied *between* queries, it lets a
scheduler decide which queries may co-run: this bench drives a
join-dominated, memory-bound workload (hash tables comparable to the
scaled L2) through the :mod:`repro.service` executor under its three
batch-formation modes and shows

* **throughput vs batch size** for the naive max-parallel policy —
  packing more thrashing queries per batch stops paying, and
* **interference-aware vs naive**: the ⊙-guided greedy policy beats
  naive max-parallel's simulator-measured makespan, while its co-run
  memory predictions track the interleaved replay within the tolerance
  the model-vs-simulator suites use (35%).

Honours the shared ``--quick`` / ``REPRO_BENCH_QUICK`` knob (reduced
scale and query count; same assertions).
"""

from repro.service import ServiceExecutor, WorkloadGenerator
from repro.session import Session

#: Relative tolerance of the existing model-vs-simulator agreement
#: tests (tests/test_model_vs_simulator_deep.py uses 0.30–0.35 for
#: random/compound patterns).
MODEL_TOLERANCE = 0.35


def _run(session, mode, max_batch, workload):
    return ServiceExecutor(session, mode=mode,
                           max_batch=max_batch).run(workload)


def test_concurrent_workload_scheduling(quick, save_result):
    # quick shrinks the stream, not the tables: the hash-table-vs-L2
    # contention regime (scale 512) is the experiment
    scale = 512
    n_queries = 8 if quick else 24
    session = Session()
    generator = WorkloadGenerator.contention_heavy(session=session, seed=7,
                                                   scale=scale)
    workload = generator.generate(n_queries, clients=4)

    lines = [f"== Extension: concurrent workload service "
             f"(scale = {scale}, {n_queries} queries, "
             f"contention-heavy mix{', quick' if quick else ''}) =="]

    # -- throughput vs batch size (naive max-parallel) ------------------
    lines.append("  naive max-parallel, throughput vs batch size:")
    naive_reports = {}
    for batch_size in (1, 2, 4, 6):
        report = _run(session, "max-parallel", batch_size, workload)
        naive_reports[batch_size] = report
        lines.append(
            f"    batch {batch_size}:  makespan "
            f"{report.makespan_ns / 1e6:>8.2f} ms   "
            f"throughput {report.throughput_qps:>8.0f} q/s   "
            f"p95 {report.p95_latency_ns / 1e6:>8.2f} ms")

    # -- policy comparison ---------------------------------------------
    serial = _run(session, "fifo-serial", 4, workload)
    naive = naive_reports[4]
    aware = _run(session, "interference-aware", 4, workload)

    lines.append("  policy comparison (batch cap 4):")
    for report in (serial, naive, aware):
        lines.append(
            f"    {report.policy:<20} makespan "
            f"{report.makespan_ns / 1e6:>8.2f} ms   "
            f"throughput {report.throughput_qps:>8.0f} q/s   "
            f"p50 {report.p50_latency_ns / 1e6:>7.2f} ms   "
            f"p95 {report.p95_latency_ns / 1e6:>7.2f} ms   "
            f"⊙ err {report.mean_contention_error * 100:>5.1f}%")
    lines.append(
        f"  interference-aware vs naive makespan: "
        f"{naive.makespan_ns / aware.makespan_ns:.2f}x better; "
        f"plan cache {aware.cache_hits}/{len(aware.queries)} hits")
    save_result("ext_concurrency", "\n".join(lines))

    # -- acceptance -----------------------------------------------------
    # the ⊙-guided policy must beat naive max-parallel outright
    assert aware.makespan_ns < naive.makespan_ns
    # and the ⊙ co-run predictions must track the interleaved replay
    # within the established model-vs-simulator tolerance
    assert naive.mean_contention_error < MODEL_TOLERANCE
    assert aware.mean_contention_error < MODEL_TOLERANCE
    # sanity: the mix really is contended — packing naive batches
    # harder stops paying (batch 6 throughput below batch 2)
    assert (naive_reports[6].throughput_qps
            < naive_reports[2].throughput_qps)
