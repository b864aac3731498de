"""Extension (paper Section 7): the unified model covers disk I/O.

Viewing the buffer pool as a cache for disk pages, the same pattern
descriptions yield I/O-aware cost functions: sequential scans pay
transfer-rate costs, random access pays seeks — the classical I/O cost
model falls out of the memory model with one extra level.

Two parts:

* the model-only table at real-disk scale (50M-row tables against a
  1 GB pool; ``--quick`` shrinks the row counts), and
* an *executed* check on the simulation-sized disk profile: the
  buffer-pool simulator replays a scan and a random-access trace and
  must reproduce the model's predicted pool misses — Section 7 as a
  measured result, not a remark.
"""

from repro.core import (
    CostModel,
    DataRegion,
    RAcc,
    STrav,
    hash_join_pattern,
    merge_join_pattern,
)
from repro.hardware import disk_extended, disk_extended_scaled, modern_x86
from repro.simulator import MemorySystem, canonical_trace
from repro.simulator.memory import Segment


def render_disk_comparison(n: int) -> str:
    hw = disk_extended(modern_x86(), buffer_pool_bytes=1 << 30)
    model = CostModel(hw)
    U = DataRegion("U", n=n, w=8)
    V = DataRegion("V", n=n, w=8)
    W = DataRegion("W", n=n, w=16)

    lines = ["== Extension: I/O-aware costs with the buffer-pool level =="]
    lines.append(f"{'pattern':<40}{'pool misses':>14}{'T_mem [ms]':>12}")
    cases = [
        ("scan(U) — sequential I/O", STrav(U)),
        (f"r_acc({n // 50}, U) — random I/O (seeks)",
         RAcc(U, r=max(1, n // 50))),
        ("merge_join(U,V,W)", merge_join_pattern(U, V, W)),
        ("hash_join(U,V,W)", hash_join_pattern(U, V, W)),
    ]
    for label, pattern in cases:
        est = model.estimate(pattern)
        lines.append(f"{label:<40}{est.misses('BufferPool'):>14.0f}"
                     f"{est.memory_ns / 1e6:>12.1f}")
    return "\n".join(lines)


def test_disk_extension(benchmark, save_result, quick):
    n = 2_000_000 if quick else 50_000_000
    text = benchmark(render_disk_comparison, n)
    save_result("ext_disk_model", text)
    assert "BufferPool" in repr(
        [l.name for l in disk_extended(modern_x86()).levels])


def test_random_io_dominated_by_seeks(benchmark, quick):
    hw = disk_extended(modern_x86(), buffer_pool_bytes=1 << 30)
    model = CostModel(hw)
    n = 2_000_000 if quick else 50_000_000
    U = DataRegion("U", n=n, w=8)

    def costs():
        scan = model.estimate(STrav(U))
        seek = model.estimate(RAcc(U, r=max(1, n // 50)))
        return scan, seek

    scan, seek = benchmark(costs)
    # random page hits at 5 ms each dwarf the sequential scan
    assert seek.memory_ns > 10 * scan.memory_ns


def test_pool_simulator_reproduces_model(benchmark, quick):
    """Executed Section 7: replay a sequential and a random trace
    through the buffer-pool simulator; measured pool misses must match
    the model's predictions within the established band."""
    hw = disk_extended_scaled()
    model = CostModel(hw)
    n = 1024 if quick else 4096
    w = 8
    region = DataRegion("R", n=n, w=w)
    hits = 4 * n

    def run():
        seq_mem, rnd_mem = MemorySystem(hw), MemorySystem(hw)
        seq_mem.replay(Segment(canonical_trace(STrav(region), 0)))
        rnd_mem.replay(Segment(canonical_trace(RAcc(region, r=hits), 0,
                                               seed=17)))
        return (seq_mem.snapshot(), rnd_mem.snapshot(), hits)

    seq_snap, rnd_snap, hits = benchmark(run)
    seq_pred = model.estimate(STrav(region)).misses("BufferPool")
    rnd_pred = model.estimate(RAcc(region, r=hits)).misses("BufferPool")
    assert abs(seq_pred - seq_snap.misses("BufferPool")) <= \
        0.35 * seq_snap.misses("BufferPool")
    assert abs(rnd_pred - rnd_snap.misses("BufferPool")) <= \
        0.35 * rnd_snap.misses("BufferPool")
    # and random I/O costs more simulated time than the scan
    assert rnd_snap.elapsed_ns > seq_snap.elapsed_ns
