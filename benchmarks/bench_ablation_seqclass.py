"""Ablation: sequential/random miss discrimination.

The simulator's EDO miss classifier (``repro.simulator.cache``) is a
design choice.  This ablation re-runs merge join on a machine whose sequential
latencies are forced to the random values (i.e. no EDO/prefetch) and
shows the elapsed time rising by the latency ratio — quantifying how
much of the model's accuracy depends on distinguishing the two miss
kinds, which is the paper's Section 2.2 argument.
"""

from repro.hardware import CacheLevel, MemoryHierarchy, origin2000_scaled
from repro.db import Database, merge_join, sorted_ints


def _no_edo(hierarchy: MemoryHierarchy) -> MemoryHierarchy:
    def flatten(level: CacheLevel) -> CacheLevel:
        return CacheLevel(
            name=level.name, capacity=level.capacity,
            line_size=level.line_size, associativity=level.associativity,
            seq_miss_latency_ns=level.rand_miss_latency_ns,
            rand_miss_latency_ns=level.rand_miss_latency_ns,
            is_tlb=level.is_tlb,
        )
    return MemoryHierarchy(
        name=hierarchy.name + " (no EDO)",
        levels=tuple(flatten(l) for l in hierarchy.levels),
        tlbs=tuple(flatten(t) for t in hierarchy.tlbs),
        cpu_speed_mhz=hierarchy.cpu_speed_mhz,
    )


def _merge_join_time(hierarchy) -> float:
    db = Database(hierarchy)
    n = 8192
    left = db.create_column("U", sorted_ints(n), width=8)
    right = db.create_column("V", sorted_ints(n), width=8)
    db.reset()
    with db.measure() as res:
        merge_join(db, left, right)
    return res[0].elapsed_ns


def test_ablation_sequential_classification(benchmark, save_result):
    def run():
        with_edo = _merge_join_time(origin2000_scaled())
        without = _merge_join_time(_no_edo(origin2000_scaled()))
        return with_edo, without

    with_edo, without = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = without / with_edo
    save_result("ablation_seqclass", "\n".join([
        "== Ablation: sequential vs random miss latency (merge join) ==",
        f"with EDO classification:    {with_edo / 1e3:10.1f} us",
        f"all misses at random cost:  {without / 1e3:10.1f} us",
        f"slowdown without EDO:       {ratio:10.2f}x",
    ]))
    # Merge join is sequential-dominated: losing EDO costs >= 1.5x.
    assert ratio > 1.5
