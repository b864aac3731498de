"""Serving a concurrent multi-client workload with ⊙-guided scheduling.

Builds a shared catalog, generates a deterministic join-dominated query
stream from four clients, and runs it through the
:mod:`repro.service` executor under its three batch-formation modes:

* **fifo-serial** — one query at a time (no interference, no overlap),
* **max-parallel** — pack every batch to the concurrency cap, blind to
  contention,
* **interference-aware** — compose candidate co-runners' whole-plan
  patterns under the paper's ⊙ operator (Section 5.2) and admit a
  co-runner only while the predicted batch makespan stays below
  queueing it.

Prints each mode's simulated makespan/latency/throughput report and
a per-batch look at how the ⊙ prediction tracks the interleaved-replay
measurement, plus a direct co-run prediction for two thrashing joins.

Run:  PYTHONPATH=src python examples/serve_workload.py
"""

from repro import Session
from repro.service import InterferenceModel, ServiceExecutor, WorkloadGenerator


def main() -> None:
    session = Session()  # scaled Origin2000: L2 64 KB, 8-entry TLB
    generator = WorkloadGenerator.contention_heavy(session=session,
                                                   seed=7, scale=512)
    workload = generator.generate(16, clients=4)
    kinds = sorted({q.kind for q in workload})
    print(f"workload: {len(workload)} queries from 4 clients "
          f"(kinds: {', '.join(kinds)})\n")

    # -- what ⊙ says about co-running two hash joins --------------------
    interference = InterferenceModel(session.hierarchy)
    joins = [session.compile("join(orders, customers)").plan,
             session.compile("join(customers, parts)").plan]
    prediction = interference.co_run(joins)
    print("co-running two hash joins (hash tables ~16 KB each, shared "
          "64 KB L2 + 8-entry TLB):")
    print(f"  serial memory time   {prediction.serial_memory_ns / 1e3:8.1f} us")
    print(f"  ⊙ co-run memory time {prediction.batch_memory_ns / 1e3:8.1f} us"
          f"  -> predicted slowdown {prediction.slowdown:.2f}x\n")

    # -- the three modes on the same stream -----------------------------
    for mode in ("fifo-serial", "max-parallel", "interference-aware"):
        report = ServiceExecutor(session, mode=mode,
                                 max_batch=4).run(workload)
        print(report.render())
        print()

    stats = session.plan_cache.stats()
    print(f"shared plan cache after serving: {stats['entries']} entries, "
          f"{stats['hits']} hits / {stats['misses']} misses "
          "(clients share compiled plans)")


if __name__ == "__main__":
    main()
