"""Set-associative LRU cache simulation.

This is the measurement substrate that replaces the MIPS R10000 hardware
event counters of the paper's experimental setup (PAPER.md, "Unified
hardware description"): every data access of the database engine is
pushed through a cascade of these caches, and the per-level miss
counters play the role of the paper's measured L1 / L2 / TLB miss
counts.

A cache is an array of associativity sets; each set is a list of
exactly ``ways`` line tags, most recently used first, padded at the LRU
end with ``-1`` — a tag no line can have (line addresses are
non-negative).  A probe of the MRU way is one comparison; a hit on
another way moves its tag to the front (a swap from way 1, ``remove``
+ ``insert`` from deeper); a miss drops the last way — the LRU line,
or padding while the set is not yet full — and inserts the new tag in
front.  A set is empty exactly when its MRU way holds the padding.

Misses are classified *sequential* or *random* with the EDO model of paper
Section 2.2: a miss whose line directly succeeds the line of a recent miss
on the same cache rides the extended-data-output / prefetch stream and
pays the (lower) sequential miss latency; any other miss pays the random
miss latency.  A small window of recent miss lines is kept so that several
interleaved sequential streams (e.g. the three cursors of a merge join)
are each recognised as sequential, matching the paper's observation that
such operators run at sequential latency.
"""

from __future__ import annotations

from ..core.misses import STREAM_WINDOW
from ..hardware.cache_level import CacheLevel

__all__ = ["CacheSim", "HIT", "SEQ_MISS", "RAND_MISS", "STREAM_WINDOW"]

#: Result codes of :meth:`CacheSim.probe`.
HIT = 0
SEQ_MISS = 1
RAND_MISS = 2

# STREAM_WINDOW — how many outstanding sequential miss streams the EDO
# classifier tracks — is shared with the cost model's nest
# reconstruction (:data:`repro.core.misses.STREAM_WINDOW`): the model
# predicts sequential latency for up to that many interleaved cursors,
# and the classifier recognises exactly that many.


class CacheSim:
    """Trace-driven simulation of one cache level.

    Parameters
    ----------
    level:
        The :class:`~repro.hardware.CacheLevel` describing geometry and
        latencies.  ``level.is_tlb`` levels work identically; their "line"
        is a memory page.

    A probe that misses the MRU way scans its set, so it costs
    O(ways): at most 64 on the stock simulated machines (2- to 16-way
    data caches, TLBs of 4 to 64 entries, the 32-page pool of
    :func:`~repro.hardware.disk_extended_scaled`).  The 131 072-page
    pool of :func:`~repro.hardware.disk_extended` is priced by the cost
    model and never simulated.
    """

    __slots__ = (
        "level", "name", "_line_size", "_num_sets", "_ways", "_sets",
        "hits", "seq_misses", "rand_misses", "_recent_miss_lines",
    )

    def __init__(self, level: CacheLevel) -> None:
        self.level = level
        self.name = level.name
        self._line_size = level.line_size
        self._ways = level.effective_associativity
        self._num_sets = level.num_sets
        # MRU-first tags, ``-1``-padded (see the module docstring).
        empty = [-1] * self._ways
        self._sets: list[list[int]] = [empty.copy()
                                       for _ in range(self._num_sets)]
        self.hits = 0
        self.seq_misses = 0
        self.rand_misses = 0
        # FIFO window of recent miss lines (dict for O(1) membership).
        self._recent_miss_lines: dict[int, None] = {}

    # ------------------------------------------------------------------
    @property
    def misses(self) -> int:
        """Total misses of either kind."""
        return self.seq_misses + self.rand_misses

    @property
    def accesses(self) -> int:
        """Total line probes."""
        return self.hits + self.misses

    def reset(self) -> None:
        """Drop all cached lines and zero the counters.

        The sets are cleared in place — accessors from
        :meth:`MemorySystem.batch <repro.simulator.MemorySystem.batch>`
        and the replay loop bind them — and only the ones holding a
        line are touched."""
        empty = [-1] * self._ways
        for s in self._sets:
            if s[0] != -1:
                s[:] = empty
        self.hits = 0
        self.seq_misses = 0
        self.rand_misses = 0
        self._recent_miss_lines.clear()

    def reset_counters(self) -> None:
        """Zero the counters but keep cache contents (warm cache)."""
        self.hits = 0
        self.seq_misses = 0
        self.rand_misses = 0

    # ------------------------------------------------------------------
    def probe(self, line: int, write: bool = False) -> int:
        """Access one line (identified by ``byte_address // line_size``).

        Returns :data:`HIT`, :data:`SEQ_MISS` or :data:`RAND_MISS`.  On a
        miss the line is allocated, evicting the set's LRU line if the set
        is full.  ``write`` does not change hit/miss accounting (the paper
        costs reads and writes identically, Section 2.2); it feeds the
        :meth:`_note_write` hook, which buffer-pool levels use to track
        dirty pages (:class:`~repro.simulator.BufferPoolSim`).
        """
        if line < 0:
            raise ValueError(f"line addresses are non-negative, got {line}")
        s = self._sets[line % self._num_sets]
        if s[0] != line:
            if line not in s:
                # A miss: drop the LRU way (padding while the set has
                # room) and allocate the line in the MRU way.
                victim = s.pop()
                if victim != -1:
                    self._note_evict(victim)
                s.insert(0, line)
                if write:
                    self._note_write(line)
                recent = self._recent_miss_lines
                if line - 1 in recent:
                    # Continuation of an ascending stream: replace the
                    # predecessor so the stream keeps exactly one
                    # window slot.
                    del recent[line - 1]
                    recent[line] = None
                    self.seq_misses += 1
                    return SEQ_MISS
                if line + 1 in recent:
                    # Descending stream (e.g. a backward-walking sort
                    # cursor): equally prefetch-friendly.
                    del recent[line + 1]
                    recent[line] = None
                    self.seq_misses += 1
                    return SEQ_MISS
                if len(recent) >= STREAM_WINDOW:
                    del recent[next(iter(recent))]
                recent[line] = None
                self.rand_misses += 1
                return RAND_MISS
            # A hit on another way: move it to the MRU way (a swap
            # when it sat in way 1).
            if s[1] == line:
                s[0], s[1] = line, s[0]
            else:
                s.remove(line)
                s.insert(0, line)
        self.hits += 1
        if write:
            self._note_write(line)
        return HIT

    # -- subclass hooks (no-ops for plain CPU caches) -------------------
    def _note_write(self, line: int) -> None:
        """A write touched ``line`` (now resident)."""

    def _note_evict(self, line: int) -> None:
        """``line`` was evicted to make room."""

    def contains(self, line: int) -> bool:
        """Whether a line is currently resident (no LRU side effect)."""
        return line >= 0 and line in self._sets[line % self._num_sets]

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return sum(self._ways - s.count(-1) for s in self._sets)

    def lines_of(self, addr: int, nbytes: int) -> range:
        """The line addresses spanned by the byte range ``[addr, addr+nbytes)``."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        first = addr // self._line_size
        last = (addr + nbytes - 1) // self._line_size
        return range(first, last + 1)

    def miss_time_ns(self) -> float:
        """Elapsed time charged to this cache's misses (Eq. 3.1 summand)."""
        return (self.seq_misses * self.level.seq_miss_latency_ns
                + self.rand_misses * self.level.rand_miss_latency_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CacheSim({self.name}: {self.hits} hits, "
                f"{self.seq_misses}+{self.rand_misses} misses)")
