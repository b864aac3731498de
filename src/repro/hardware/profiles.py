"""Machine profiles for the unified hardware model.

:func:`origin2000` is the exact machine of paper Table 3 (SGI Origin2000,
MIPS R10000 @ 250 MHz) and is used for *model-only* cost evaluation at the
paper's original scale.

:func:`origin2000_scaled` shrinks every capacity by a constant factor while
keeping line sizes, page size ratios and latencies; it is the profile the
trace-driven simulator executes against (simulating 128 MB traversals
event-by-event in Python is infeasible, and all of the paper's crossovers
depend only on capacity *ratios*).

:func:`modern_x86` is a three-level profile for examples, and
:func:`disk_extended` exercises the paper's Section 7 claim that main
memory can be viewed as a cache for disk I/O by appending a buffer-pool
level with seek-dominated random latency.

The two-level machines (both Origin2000s and :func:`tiny_test_machine`)
are calls of the one constructor, :func:`parametric_profile`, each with
its departures from the defaults written once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from .cache_level import CacheLevel
from .hierarchy import MemoryHierarchy

__all__ = [
    "origin2000",
    "origin2000_scaled",
    "modern_x86",
    "disk_extended",
    "disk_extended_scaled",
    "tiny_test_machine",
    "TINY_MACHINE",
    "parametric_profile",
]

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


def origin2000() -> MemoryHierarchy:
    """The SGI Origin2000 of paper Table 3.

    L1: 32 KB, 32 B lines; L2: 4 MB, 128 B lines; TLB: 64 entries of 16 KB
    pages (1 MB virtual capacity).  Sequential / random miss latencies are
    the calibrated values of Table 3 (8/24 ns for L1 misses, 188/400 ns for
    L2 misses, 228 ns for TLB misses).
    """
    return parametric_profile(name="SGI Origin2000", l1_kb=32, l2_kb=4096,
                              tlb_entries=64, page_kb=16)


def origin2000_scaled() -> MemoryHierarchy:
    """Origin2000 with capacities shrunk for trace-driven simulation.

    Capacities are divided by 64 for the data caches; the TLB keeps 8
    entries of 4 KB pages so that, as on the real machine, the TLB's
    virtual capacity sits between L1 and L2 (2 KB < 32 KB < 64 KB, mirroring
    32 KB < 1 MB < 4 MB).  Line sizes and latencies are unchanged, so miss
    counts and times keep the paper's shapes at 1/64 the working-set size.
    """
    return parametric_profile(name="SGI Origin2000 (scaled 1/64)")


def modern_x86() -> MemoryHierarchy:
    """A contemporary three-level x86 server profile (model-only examples)."""
    return MemoryHierarchy(
        name="modern x86 server",
        levels=(
            CacheLevel(
                name="L1",
                capacity=32 * KB,
                line_size=64,
                associativity=8,
                seq_miss_latency_ns=3.0,
                rand_miss_latency_ns=5.0,
            ),
            CacheLevel(
                name="L2",
                capacity=1 * MB,
                line_size=64,
                associativity=8,
                seq_miss_latency_ns=10.0,
                rand_miss_latency_ns=14.0,
            ),
            CacheLevel(
                name="L3",
                capacity=32 * MB,
                line_size=64,
                associativity=16,
                seq_miss_latency_ns=30.0,
                rand_miss_latency_ns=90.0,
            ),
        ),
        tlbs=(
            CacheLevel(
                name="dTLB",
                capacity=64 * 4 * KB,
                line_size=4 * KB,
                associativity=0,
                seq_miss_latency_ns=25.0,
                rand_miss_latency_ns=25.0,
                is_tlb=True,
            ),
        ),
        cpu_speed_mhz=3000.0,
    )


def _buffer_pool(capacity: int, page_size: int, seq_ns: float,
                 rand_ns: float) -> CacheLevel:
    """The buffer-pool level of paper Section 7: main memory viewed as
    a fully associative cache of disk pages, whose line size is the
    page size, whose sequential miss latency is the page transfer time
    and whose random miss latency additionally carries the seek."""
    return CacheLevel(name="BufferPool", capacity=capacity,
                      line_size=page_size, associativity=0,
                      seq_miss_latency_ns=seq_ns,
                      rand_miss_latency_ns=rand_ns, is_pool=True)


def disk_extended(base: MemoryHierarchy | None = None,
                  buffer_pool_bytes: int = 1 * GB) -> MemoryHierarchy:
    """Append a buffer-pool/disk level to a hierarchy (paper Section 7).

    The paper argues that viewing main memory (the DBMS buffer pool) as a
    cache for disk pages folds I/O cost models into the same framework: the
    buffer pool becomes one more :class:`CacheLevel` — here of 8 KB pages
    with a 40 us page transfer and a 5 ms seek.
    """
    base = base or modern_x86()
    pool = _buffer_pool(buffer_pool_bytes, 8 * KB, 40e3, 5e6)
    return replace(base, name=base.name + " + disk",
                   levels=base.levels + (pool,))


def disk_extended_scaled(base: MemoryHierarchy | None = None,
                         buffer_pool_bytes: int = 4 * KB) -> MemoryHierarchy:
    """A disk-extended hierarchy small enough for trace-driven simulation.

    Appends a buffer pool of 32 pages (4 KB, 128 B pages) to the tiny
    test machine — the same capacity-ratio trick as
    :func:`origin2000_scaled`: all of the out-of-core crossovers depend
    on working-set *vs* pool-size ratios and on the seek/transfer
    latency ratio (here 25x, mirroring a disk's ~5 ms seek vs ~40 us
    page transfer at 1/200 scale), so a few-KB working set exercises
    exactly the regime a few-GB one does on real hardware — at trace
    sizes Python can replay.
    """
    base = base or tiny_test_machine()
    pool = _buffer_pool(buffer_pool_bytes, 128, 1_000.0, 25_000.0)
    return replace(base, name=base.name + " + disk (scaled)",
                   levels=base.levels + (pool,))


def _capacity(kb: float, line_size: int, what: str) -> int:
    """``kb`` kilobytes rounded to whole ``line_size`` lines (a
    :class:`CacheLevel` capacity must be a line multiple)."""
    if kb <= 0:
        raise ValueError(f"{what} must be positive, got {kb!r}")
    lines = round(kb * KB / line_size)
    if lines < 1:
        raise ValueError(
            f"{what}={kb!r} KB is smaller than one {line_size}-byte line")
    return lines * line_size


def parametric_profile(*, name: str | None = None,
                       l1_kb: float = 2.0, l1_line: int = 32,
                       l1_assoc: int = 2,
                       l1_seq_ns: float = 8.0, l1_rand_ns: float = 24.0,
                       l2_kb: float = 64.0, l2_line: int = 128,
                       l2_assoc: int = 2,
                       mem_ns: float = 400.0,
                       mem_seq_ns: float | None = None,
                       tlb_entries: int = 8, page_kb: float = 4.0,
                       tlb_ns: float = 228.0,
                       pool_pages: int | None = None, page_size: int = 128,
                       pool_seq_ns: float = 1_000.0,
                       pool_rand_ns: float = 25_000.0,
                       cpu_mhz: float = 250.0) -> MemoryHierarchy:
    """A two-level (+ TLB, + optional buffer pool) hierarchy built from
    explicit knobs — the one constructor behind the stock two-level
    machines (:func:`origin2000`, :func:`origin2000_scaled`,
    :func:`tiny_test_machine`) and behind what-if profile spaces
    (:mod:`repro.whatif`), so nothing hand-wires :class:`CacheLevel`
    tuples.

    The defaults are the scaled Origin2000 (:func:`origin2000_scaled`
    is this call under its stock name; the latencies are the calibrated
    values of paper Table 3), so ``parametric_profile()`` is the
    simulator-friendly baseline and every knob is a departure from it.
    ``mem_ns`` is the *random*
    L2-miss latency (the paper's Table 3 headline number); the
    sequential miss latency defaults to ``mem_ns`` scaled by the
    calibrated Origin2000 seq/rand ratio (188/400), so turning the one
    memory-latency knob preserves the bandwidth/latency relationship
    calibration found.  ``pool_pages`` (when set) appends a
    :func:`disk_extended_scaled`-style buffer-pool level of that many
    ``page_size``-byte pages.

    Capacities are rounded to whole lines; every :class:`CacheLevel`
    and :class:`MemoryHierarchy` invariant (capacity ordering, TLB
    separation, ``rand >= seq``) is re-checked by the constructors, so
    invalid corners of a swept space raise :class:`ValueError` instead
    of producing an unbuildable machine.
    """
    if mem_seq_ns is None:
        mem_seq_ns = mem_ns * (188.0 / 400.0)
    if tlb_entries < 1:
        raise ValueError("tlb_entries must be positive")
    levels = [
        CacheLevel(
            name="L1",
            capacity=_capacity(l1_kb, l1_line, "l1_kb"),
            line_size=l1_line,
            associativity=l1_assoc,
            seq_miss_latency_ns=l1_seq_ns,
            rand_miss_latency_ns=l1_rand_ns,
        ),
        CacheLevel(
            name="L2",
            capacity=_capacity(l2_kb, l2_line, "l2_kb"),
            line_size=l2_line,
            associativity=l2_assoc,
            seq_miss_latency_ns=mem_seq_ns,
            rand_miss_latency_ns=mem_ns,
        ),
    ]
    if pool_pages is not None:
        if pool_pages < 1:
            raise ValueError("pool_pages must be positive")
        levels.append(_buffer_pool(pool_pages * page_size, page_size,
                                   pool_seq_ns, pool_rand_ns))
    page_bytes = _capacity(page_kb, 1, "page_kb")
    if name is None:
        pool = (f", pool {pool_pages}p" if pool_pages is not None else "")
        name = (f"parametric (l1 {l1_kb:g}KB, l2 {l2_kb:g}KB, "
                f"mem {mem_ns:g}ns{pool})")
    return MemoryHierarchy(
        name=name,
        levels=tuple(levels),
        tlbs=(
            CacheLevel(
                name="TLB",
                capacity=tlb_entries * page_bytes,
                line_size=page_bytes,
                associativity=0,
                seq_miss_latency_ns=tlb_ns,
                rand_miss_latency_ns=tlb_ns,
                is_tlb=True,
            ),
        ),
        cpu_speed_mhz=cpu_mhz,
    )


#: The :func:`parametric_profile` knobs of :func:`tiny_test_machine`.
TINY_MACHINE: Mapping[str, object] = {
    "l1_kb": 0.25, "l1_line": 16, "l1_seq_ns": 2.0, "l1_rand_ns": 6.0,
    "l2_kb": 1.0, "l2_line": 32, "mem_ns": 50.0, "mem_seq_ns": 20.0,
    "tlb_entries": 4, "page_kb": 0.125, "tlb_ns": 30.0, "cpu_mhz": 100.0,
}


def tiny_test_machine() -> MemoryHierarchy:
    """A deliberately tiny two-level machine for fast unit tests.

    L1: 256 B with 16 B lines (16 lines); L2: 1 KB with 32 B lines
    (32 lines); TLB: 4 entries of 128 B pages.  Small enough that tests can
    enumerate expected behaviour by hand.
    """
    return parametric_profile(name="tiny test machine", **TINY_MACHINE)
