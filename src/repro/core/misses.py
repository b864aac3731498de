"""Cache-miss estimation for basic access patterns (paper Section 4).

For every basic pattern and cache level, the model predicts a pair
``(M_s, M_r)`` of sequential and random misses (Eq. 4.1).  The level is
described here only by the geometry the formulas need: line size ``Z``,
capacity ``C`` and number of lines ``# = C/Z`` — capacity and line count
may be *scaled down* by the concurrent-execution rule (Eq. 5.3), which is
why they are passed explicitly rather than taken from a
:class:`~repro.hardware.CacheLevel`.

The equations were reconstructed from the paper's prose (the report scan
is unreadable inside equation blocks); each reconstruction is justified
where it is made, and PAPER.md, "Data regions and basic access patterns
(Section 5.1)", summarises the patterns they count.  The test suite
checks all the invariants the paper states in Section 4.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distinct import expected_distinct
from .patterns import (
    BI,
    RANDOM,
    SEQUENTIAL,
    UNI,
    BasicPattern,
    Nest,
    RAcc,
    RRTrav,
    RSTrav,
    RTrav,
    STrav,
)
from .regions import DataRegion

__all__ = [
    "MissPair",
    "LevelGeometry",
    "STREAM_WINDOW",
    "lines_per_item",
    "strav_count",
    "rtrav_count",
    "rstrav_count",
    "rrtrav_count",
    "racc_distinct_lines",
    "racc_count",
    "basic_pattern_misses",
]


#: Outstanding sequential miss streams a non-blocking memory system
#: sustains concurrently (paper Section 2.2: EDO/prefetch overlap a
#: handful of outstanding references).  Up to this many interleaved
#: sequential cursors each ride the prefetch stream and miss at
#: *sequential* latency — the paper's merge-join observation.  Shared
#: with the trace-driven simulator's EDO classifier
#: (:mod:`repro.simulator.cache`), which recognises the same number of
#: streams, so model and measurement classify alike.
STREAM_WINDOW = 8


@dataclass(frozen=True)
class MissPair:
    """Sequential and random miss counts of one pattern on one level."""

    seq: float = 0.0
    rand: float = 0.0

    @property
    def total(self) -> float:
        return self.seq + self.rand

    def __add__(self, other: "MissPair") -> "MissPair":
        return MissPair(self.seq + other.seq, self.rand + other.rand)

    def scaled(self, factor: float) -> "MissPair":
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return MissPair(self.seq * factor, self.rand * factor)

    def time_ns(self, seq_latency_ns: float, rand_latency_ns: float) -> float:
        """Misses scored with their latencies — one summand of Eq. 3.1."""
        return self.seq * seq_latency_ns + self.rand * rand_latency_ns


@dataclass(frozen=True)
class LevelGeometry:
    """The geometry a miss formula sees: possibly a scaled-down cache."""

    line_size: int
    capacity: float
    num_lines: float

    def __post_init__(self) -> None:
        if self.line_size <= 0:
            raise ValueError("line_size must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.num_lines <= 0:
            raise ValueError("num_lines must be positive")

    @classmethod
    def of(cls, level) -> "LevelGeometry":
        """The whole, undivided geometry of a cache ``level``."""
        return cls(*level_dims(level))

    def scaled(self, fraction: float) -> "LevelGeometry":
        """This geometry with only ``fraction`` of capacity and lines
        (the ⊙ cache-sharing rule, Eq. 5.3)."""
        return LevelGeometry(*scaled_dims(
            self.line_size, self.capacity, self.num_lines, fraction))


def level_dims(level) -> tuple[int, float, float]:
    """``(line_size, capacity, num_lines)`` of a whole cache ``level``:
    the plain values of :meth:`LevelGeometry.of`."""
    return level.line_size, float(level.capacity), float(level.num_lines)


def scaled_dims(line_size: int, capacity: float, num_lines: float,
                fraction: float) -> tuple[int, float, float]:
    """``(line_size, capacity, num_lines)`` of ``fraction`` of a level
    (Eq. 5.3): never less than one line.  :meth:`LevelGeometry.scaled`
    and the ⊙ pricing path of :mod:`repro.core.cost`, which asks the
    miss memo with these plain values and builds a geometry only when
    the memo must evaluate, both scale with this one expression."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return (line_size, max(float(line_size), capacity * fraction),
            max(1.0, num_lines * fraction))


# ----------------------------------------------------------------------
# Shared helpers.
# ----------------------------------------------------------------------

def lines_per_item(u: int, line_size: int) -> float:
    """Average cache lines loaded per isolated item access (Eq. 4.3 core).

    ``ceil(u/Z)`` lines always suffice when the item starts on a line
    boundary; averaging over the ``Z`` equally likely alignments, the
    ``(u-1) mod Z`` alignment positions that straddle one extra line add
    ``((u-1) mod Z) / Z`` expected lines (paper Figure 4 and Eq. 4.3).
    """
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    z = line_size
    return math.ceil(u / z) + ((u - 1) % z) / z


def _gap_below_line(region: DataRegion, u: int, line_size: int) -> bool:
    """Whether the untouched gap ``R.w - u`` is smaller than a line."""
    return (region.w - u) < line_size


# ----------------------------------------------------------------------
# Basic-pattern miss counts (Eqs. 4.2 - 4.8).
# ----------------------------------------------------------------------

def strav_count(region: DataRegion, u: int, geo: LevelGeometry) -> float:
    """Misses of a single sequential traversal (Eqs. 4.2 / 4.3).

    Gap smaller than a line: every line covered by ``R`` is loaded
    (``|R|``).  Gap at least a line: accesses are isolated, each loads
    ``lines_per_item(u, Z)`` lines on average.
    """
    if _gap_below_line(region, u, geo.line_size):
        return float(region.lines(geo.line_size))
    return region.n * lines_per_item(u, geo.line_size)


def rtrav_count(region: DataRegion, u: int, geo: LevelGeometry) -> float:
    """Misses of a single random traversal (Eqs. 4.4 / 4.5).

    With gaps at least a line the count equals the sequential case
    (Eq. 4.5 = Eq. 4.3): no access can re-use a predecessor's line.  With
    gaps below a line, all ``|R|`` lines are loaded; if ``||R||`` exceeds
    the cache, lines serving several (locally adjacent but temporally
    scattered) accesses may be evicted between them — the accesses beyond
    the first cache-full (``R.n - C/R.w``) each re-miss with probability
    ``1 - C/||R||`` (Eq. 4.4's extra term, worst case one per access).
    """
    z = geo.line_size
    if not _gap_below_line(region, u, z):
        return region.n * lines_per_item(u, z)
    base = float(region.lines(z))
    if region.size > geo.capacity:
        # Accesses beyond the compulsory first-touch of each line re-hit
        # an earlier line; under LRU the line survived with probability
        # C/||R||, so each revisit re-misses with 1 - C/||R||.  (The
        # paper's prose counts warm-up in items, C/R.w; we count it in
        # lines, which coincides for w ~ Z and stays correct for many
        # items per line.)
        revisits = max(0.0, region.n - base)
        base += revisits * (1.0 - geo.capacity / region.size)
    return base


def rstrav_count(region: DataRegion, u: int, geo: LevelGeometry,
                 r: int, direction: str) -> float:
    """Misses of a repetitive sequential traversal (Eq. 4.6).

    A first traversal costs ``M1``.  If its lines fit in the cache, the
    remaining ``r - 1`` traversals are free.  Otherwise uni-directional
    sweeps always restart cold (``r * M1``) while bi-directional sweeps
    re-use the cache tail of their predecessor
    (``M1 + (r-1) * (M1 - #)``).
    """
    m1 = strav_count(region, u, geo)
    if r == 1 or m1 <= geo.num_lines:
        return m1
    if direction == UNI:
        return r * m1
    if direction == BI:
        return m1 + (r - 1) * (m1 - geo.num_lines)
    raise ValueError(f"unknown direction {direction!r}")


def rrtrav_count(region: DataRegion, u: int, geo: LevelGeometry, r: int) -> float:
    """Misses of a repetitive random traversal (Eq. 4.7).

    When the first traversal's ``M1`` lines exceed the cache, the ``#``
    most recently used lines survive a sweep and each is re-used by the
    next sweep with probability ``#/M1``, saving ``#^2/M1`` misses per
    subsequent sweep.
    """
    m1 = rtrav_count(region, u, geo)
    if r == 1 or m1 <= geo.num_lines:
        return m1
    saved = geo.num_lines * (geo.num_lines / m1)
    return m1 + (r - 1) * (m1 - saved)


def racc_distinct_lines(region: DataRegion, u: int, geo: LevelGeometry,
                        r: int) -> tuple[float, float]:
    """Expected distinct items ``D`` and distinct lines ``l`` touched by
    ``r_acc(r, R, u)`` (Section 4.6).

    With gaps of at least a line, no line serves two items:
    ``l = D * lines_per_item``.  With gaps below a line, the paper blends
    the dense packing bound (all touched items adjacent:
    ``l^ = D * R.w / Z``) and the sparse bound (items isolated:
    ``l~ = D * lines_per_item``) linearly with weight ``D / R.n`` — dense
    packing being the more likely the larger the touched fraction.
    """
    z = geo.line_size
    distinct = expected_distinct(r, region.n)
    isolated = distinct * lines_per_item(u, z)
    if not _gap_below_line(region, u, z):
        lines = isolated
    else:
        dense = distinct * region.w / z
        weight = distinct / region.n
        lines = weight * dense + (1.0 - weight) * isolated
    lines = min(lines, float(region.lines(z)))
    return distinct, max(1.0, lines)


def racc_count(region: DataRegion, u: int, geo: LevelGeometry, r: int) -> float:
    """Misses of ``r_acc(r, R, u)`` (Eq. 4.8).

    The ``l`` distinct lines are loaded once (compulsory).  Once ``l``
    exceeds the cache, every further access re-hits one of the ``l``
    touched lines, which under LRU survived with probability ``#/l``:
    the ``r - l`` revisits each re-miss with probability ``1 - #/l``
    (the repetitive-traversal analogy of Section 4.5 the paper invokes,
    expressed per access).
    """
    distinct, lines = racc_distinct_lines(region, u, geo, r)
    if lines <= geo.num_lines:
        return lines
    revisits = max(0.0, r * max(1.0, math.ceil(u / geo.line_size)) - lines)
    return lines + revisits * (1.0 - geo.num_lines / lines)


# ----------------------------------------------------------------------
# Interleaved multi-cursor access (Eq. 4.9).
# ----------------------------------------------------------------------

def _nest_misses(nest: Nest, geo: LevelGeometry) -> MissPair:
    """Misses of ``nest(R, m, P, o, d)`` per the Section 4.7 case split.

    * Local random patterns interleave to a random pattern over the whole
      region; with ``m = R.n`` and a sequential global order the pattern
      degenerates to a plain sequential traversal (Section 4.7.1).
    * Local sequential cursors (Section 4.7.2): with gaps of at least a
      line the count is the simple-traversal count; with gaps below a
      line, the ``|R|`` compulsory misses suffice as long as all ``m``
      concurrently active lines fit in the cache
      (``m * ceil(u/Z) <= #``); beyond that every cross-traversal reloads
      the lines its predecessor evicted, except the ``#re`` lines that
      survive — ``#re = 0`` (uni), ``#`` (bi) or ``#^2/m`` (random global
      order), by the Section 4.5 analogy the paper invokes.  Extra misses
      are always random; the base misses are sequential for a sequential
      global order performed by an EDO-capable local traversal, and —
      the paper's merge-join observation, Section 2.2 — also for a
      random global order over at most :data:`STREAM_WINDOW` cursors:
      each cursor is its own ascending stream, and a non-blocking
      memory system overlaps that many streams at sequential latency.
    """
    region = nest.region
    u = nest.used_bytes
    z = geo.line_size
    m = nest.m

    if nest.local in ("r_trav", "r_acc"):
        if m == region.n and nest.order == SEQUENTIAL:
            # Degenerates to the original (sequential) global order.
            return MissPair(seq=strav_count(region, u, geo), rand=0.0)
        if nest.local == "r_acc":
            count = racc_count(region, u, geo, nest.r or region.n)
        else:
            count = rtrav_count(region, u, geo)
        return MissPair(seq=0.0, rand=count)

    # Local sequential cursors: one stream per local cursor.
    sequential_capable = nest.seq_latency and (
        nest.order == SEQUENTIAL or m <= STREAM_WINDOW)
    if not _gap_below_line(region, u, z):
        count = region.n * lines_per_item(u, z)
        return _split(count, sequential_capable, streams=m)

    base = float(region.lines(z))
    active_lines = m * math.ceil(u / z)
    if active_lines <= geo.num_lines:
        return _split(base, sequential_capable, streams=m)

    if nest.order == RANDOM:
        reused = geo.num_lines * (geo.num_lines / active_lines)
    elif nest.direction == BI:
        reused = float(geo.num_lines)
    else:
        reused = 0.0
    cross_traversals = region.n / m
    extra = max(0.0, (cross_traversals - 1.0) * (m - min(float(m), reused)))
    pair = _split(base, sequential_capable, streams=m)
    return MissPair(seq=pair.seq, rand=pair.rand + extra)


def _split(count: float, sequential: bool, streams: float = 1.0) -> MissPair:
    """Split a miss count into the (sequential, random) pair.

    An EDO-capable sequential pattern still pays *random* latency for
    the first miss of each of its ``streams`` cursors: the prefetch
    window is empty until a stream's first miss establishes it (the
    trace-driven simulator classifies identically).  Amortized away at
    the paper's region sizes, but at a buffer pool's seek/transfer
    ratio those few stream starts carry real cost.
    """
    if not sequential:
        return MissPair(seq=0.0, rand=count)
    rand = min(float(streams), count)
    return MissPair(seq=count - rand, rand=rand)


# ----------------------------------------------------------------------
# Dispatch.
# ----------------------------------------------------------------------

def basic_pattern_misses(pattern: BasicPattern, geo: LevelGeometry) -> MissPair:
    """The ``(M_s, M_r)`` pair of one basic pattern on one level.

    Sequential traversal variants put their count on the sequential or
    random side according to ``seq_latency`` (Section 4.1); random
    patterns produce only random misses (Eq. 4.1's convention
    ``M_s = 0``).
    """
    u = pattern.used_bytes
    region = pattern.region
    if isinstance(pattern, STrav):
        return _split(strav_count(region, u, geo), pattern.seq_latency)
    if isinstance(pattern, RSTrav):
        count = rstrav_count(region, u, geo, pattern.r, pattern.direction)
        # Every *missing* sweep restarts its cursor stream; once the
        # region is cache-resident after the first sweep, the later
        # sweeps produce no misses and hence no stream starts.
        m1 = strav_count(region, u, geo)
        sweeps = pattern.r if (pattern.r > 1 and m1 > geo.num_lines) else 1
        return _split(count, pattern.seq_latency, streams=sweeps)
    if isinstance(pattern, RTrav):
        return MissPair(rand=rtrav_count(region, u, geo))
    if isinstance(pattern, RRTrav):
        return MissPair(rand=rrtrav_count(region, u, geo, pattern.r))
    if isinstance(pattern, RAcc):
        return MissPair(rand=racc_count(region, u, geo, pattern.r))
    if isinstance(pattern, Nest):
        return _nest_misses(pattern, geo)
    raise TypeError(f"not a basic pattern: {pattern!r}")
