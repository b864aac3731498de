"""The Calibrator: measuring hardware parameters with micro-benchmarks.

The paper instantiates its model with parameters "measured by our
calibration tool" (Section 2.3; the MonetDB Calibrator).  This module
reproduces that methodology against the simulated memory system: it
issues access patterns and observes *only elapsed time* (never the
simulator's internal counters), exactly as the real tool can only read
the wall clock.

Every probe is a basic pattern over a buffer of ``S`` bytes read one
byte per slot, slots ``s`` bytes apart: ``rs_trav(2, uni)`` (an
:class:`~repro.core.RSTrav`, timed on its second sweep) or
``rr_trav`` (an :class:`~repro.core.RRTrav`, timed after its first
round), replayed as :func:`~repro.simulator.canonical_trace` gives it.
Experiments, smallest level outwards:

1. **Capacity sweep** — the ``rs_trav`` over a buffer of size ``S`` is
   free on its second pass while ``S`` fits a level; the second-pass
   time per access steps up each time ``S`` crosses a capacity (data
   caches *and* the TLB's virtual capacity show up).
2. **Line-size sweep** — the ``rs_trav`` over a buffer sized to miss
   (mostly) one level with stride ``s`` costs ``min(1, s/Z)`` misses
   per access; the time per access stops growing at ``s = Z``.
3. **Latencies** — sequential: the stride-``Z`` ``rs_trav``; random:
   the ``rr_trav`` over the same lines.  Contributions of
   already-calibrated smaller levels are subtracted, leaving the
   level's own miss latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.patterns import BasicPattern, RRTrav, RSTrav
from ..core.regions import DataRegion
from ..hardware.hierarchy import MemoryHierarchy
from ..simulator.memory import MemorySystem, Segment, canonical_trace

__all__ = ["CalibratedLevel", "CalibrationResult", "calibrate"]


@dataclass(frozen=True)
class CalibratedLevel:
    """Parameters recovered for one cache level (cf. paper Table 3)."""

    capacity: int
    line_size: int
    seq_miss_latency_ns: float
    rand_miss_latency_ns: float


@dataclass(frozen=True)
class CalibrationResult:
    """All recovered levels, ordered by capacity."""

    levels: tuple[CalibratedLevel, ...]

    def __len__(self) -> int:
        return len(self.levels)


# ----------------------------------------------------------------------

#: Where every probe's buffer starts (line- and page-aligned).
_BASE = 1 << 20


def _buffer(size: int, stride: int) -> DataRegion:
    """The ``ceil(size / stride)`` slots, ``stride`` bytes apart, that a
    probe over a ``size``-byte buffer touches."""
    return DataRegion("buffer", n=-(-size // stride), w=stride)


def _warm_time(hierarchy: MemoryHierarchy, pattern: BasicPattern,
               seed: int = 0) -> float:
    """Time per access of ``pattern``'s canonical trace over a cold
    buffer, after its first round over the buffer, which warms the
    caches unmeasured."""
    trace = canonical_trace(pattern, _BASE, seed)
    n = pattern.region.n
    mem = MemorySystem(hierarchy)
    mem.replay(Segment(trace, end=n))
    return mem.replay(Segment(trace, begin=n)).elapsed_ns / (len(trace) - n)


def _second_pass_time(hierarchy: MemoryHierarchy, size: int,
                      stride: int) -> float:
    """Time per access of the *second* sweep over a cold buffer."""
    return _warm_time(hierarchy, RSTrav(_buffer(size, stride), u=1, r=2))


def _shuffled_time(hierarchy: MemoryHierarchy, size: int,
                   stride: int) -> float:
    """Time per access over the buffer's slots in random order.

    One unmeasured warm-up round, then eight measured rounds, each a
    fresh shuffle — averaging keeps the LRU steady-state miss rate
    close to its expectation even when the buffer spans only a handful
    of lines (e.g. a dozen pages in a TLB probe)."""
    return _warm_time(hierarchy, RRTrav(_buffer(size, stride), u=1, r=9),
                      seed=42)


# ----------------------------------------------------------------------

def _detect_capacities(hierarchy: MemoryHierarchy, min_size: int,
                       max_size: int, stride: int,
                       jump_threshold: float) -> list[int]:
    """Capacities = sizes where the warm second-pass time steps up."""
    sizes = []
    size = min_size
    while size <= max_size:
        sizes.append(size)
        size *= 2
    times = [_second_pass_time(hierarchy, s, stride) for s in sizes]
    capacities = []
    for prev_size, prev_t, cur_t in zip(sizes, times, times[1:]):
        if cur_t - prev_t > jump_threshold:
            capacities.append(prev_size)
    return capacities


def _probe_buffer_size(capacity: int, all_capacities: list[int]) -> int:
    """A buffer size that overflows ``capacity`` but stays as far below
    the next level's capacity as possible."""
    larger = [c for c in all_capacities if c > capacity]
    if not larger:
        return capacity * 4
    nxt = min(larger)
    size = capacity * 4
    if size > nxt:
        size = capacity + max((nxt - capacity) // 2, 1)
    return size


def _known_contribution(stride: int, lvl: CalibratedLevel) -> float:
    """Per-access time an already-calibrated smaller level adds to an
    ordered strided sweep: ``min(1, s/Z)`` misses, sequential while the
    stride visits successive lines, random once it skips lines."""
    latency = (lvl.seq_miss_latency_ns if stride <= lvl.line_size
               else lvl.rand_miss_latency_ns)
    return min(1.0, stride / lvl.line_size) * latency


def _permutation_miss_rate(capacity_lines: float, touched_lines: float) -> float:
    """Steady-state miss rate of repeated random permutation passes over
    ``touched_lines`` lines with an LRU cache of ``capacity_lines``: of
    the ``#`` resident lines, each survives to be re-used with
    probability ``#/M``, so ``#^2/M`` hits are saved per pass (the same
    reasoning as the paper's Eq. 4.7)."""
    if touched_lines <= capacity_lines:
        return 0.0
    return 1.0 - (capacity_lines / touched_lines) ** 2


def _random_contribution(size: int, lvl: CalibratedLevel) -> float:
    """Per-access time a smaller level adds to shuffled passes over a
    buffer of ``size`` bytes: random order destroys within-line locality,
    so each access misses level ``lvl`` with its permutation rate."""
    touched = max(1.0, size / lvl.line_size)
    rate = _permutation_miss_rate(lvl.capacity / lvl.line_size, touched)
    return rate * lvl.rand_miss_latency_ns


def _detect_line_size(hierarchy: MemoryHierarchy, size: int,
                      known: list[CalibratedLevel], max_line: int) -> int:
    """Line size by model fit over an ordered strided-sweep curve.

    The warm sweep's per-access time follows
    ``t(s) = (s/Z) * l_seq`` for ``s <= Z`` (every Z-th access misses the
    next line, an EDO-sequential miss) and ``t(s) = l_rand`` for
    ``s > Z`` (every access misses a skipped-ahead line).  A simple
    saturation test cannot distinguish the miss-count saturation at
    ``s = Z`` from the sequential-to-random latency switch just above
    it, so each candidate ``Z`` is scored by least squares against this
    two-piece model and the best fit wins.
    """
    candidates = []
    s = 8
    # Keep at least a handful of accesses per sweep: degenerate sweeps of
    # one or two accesses would hit leftover lines and zero the signal.
    while s <= min(max_line, size // 4):
        candidates.append(s)
        s *= 2
    raw = [_second_pass_time(hierarchy, size, stride) for stride in candidates]
    peak = max(raw) if raw else 0.0

    strides: list[int] = []
    times: list[float] = []
    for stride, t in zip(candidates, raw):
        risky = 0.0
        adjusted = t
        for lvl in known:
            if lvl.capacity < size:
                contribution = _known_contribution(stride, lvl)
                adjusted -= contribution
                # At large strides a smaller level's working set may
                # collapse into its capacity, so it stops missing and the
                # subtraction over-corrects.  (Associativity conflicts
                # usually keep set-associative levels missing anyway.)
                touched = size // max(stride, lvl.line_size)
                if touched <= lvl.capacity // lvl.line_size:
                    risky += contribution
        if risky > 0.3 * peak:
            # The potential over-correction would dominate the signal:
            # discard this stride.
            continue
        strides.append(stride)
        times.append(max(0.0, adjusted))

    best_z = strides[-1]
    best_error = float("inf")
    for idx, z in enumerate(strides):
        seq_lat = times[idx]
        above = [t for s2, t in zip(strides, times) if s2 > z]
        rand_lat = sum(above) / len(above) if above else seq_lat
        error = 0.0
        for s2, t in zip(strides, times):
            if s2 <= z:
                predicted = seq_lat * s2 / z
            else:
                predicted = rand_lat
            error += (t - predicted) ** 2
        if error < best_error - 1e-9:
            best_error = error
            best_z = z
    return best_z


def _detect_latencies(hierarchy: MemoryHierarchy, size: int, line: int,
                      capacity: int,
                      known: list[CalibratedLevel]) -> tuple[float, float]:
    """Sequential and random miss latency of the level under test.

    The warm uni-directional stride-``line`` sweep misses on every line
    at sequential latency.  The shuffled permutation passes miss with
    the steady-state rate ``1 - (#/M)^2`` (see
    :func:`_permutation_miss_rate`), which is known once the capacity
    sweep has run, so the measured time is corrected to a per-miss
    latency.
    """
    seq = _second_pass_time(hierarchy, size, line)
    rand = _shuffled_time(hierarchy, size, line)
    for lvl in known:
        if lvl.capacity < size:
            seq -= _known_contribution(line, lvl)
            rand -= _random_contribution(size, lvl)
    miss_rate = max(
        1e-6, _permutation_miss_rate(capacity / line, size / line)
    )
    return max(0.0, seq), max(0.0, rand / miss_rate)


def calibrate(hierarchy: MemoryHierarchy,
              min_size: int = 512,
              max_size: int | None = None,
              probe_stride: int = 8,
              jump_threshold_ns: float = 0.3,
              max_line: int = 64 * 1024) -> CalibrationResult:
    """Recover capacities, line sizes and latencies of every level.

    Parameters mirror the real Calibrator's command line: the size range
    to sweep, the base stride and the detection thresholds.  Only elapsed
    simulated time is observed.
    """
    if max_size is None:
        max_size = 8 * max(l.capacity for l in hierarchy.all_levels)
    capacities = _detect_capacities(
        hierarchy, min_size, max_size, probe_stride, jump_threshold_ns
    )
    levels: list[CalibratedLevel] = []
    for capacity in sorted(capacities):
        size = _probe_buffer_size(capacity, capacities)
        line = _detect_line_size(hierarchy, size, levels, max_line)
        seq, rand = _detect_latencies(hierarchy, size, line, capacity, levels)
        levels.append(CalibratedLevel(
            capacity=capacity,
            line_size=line,
            seq_miss_latency_ns=round(seq, 2),
            rand_miss_latency_ns=round(rand, 2),
        ))
    return CalibrationResult(levels=tuple(levels))
