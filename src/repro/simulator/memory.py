"""Multi-level memory-system simulation.

:class:`MemorySystem` cascades :class:`~repro.simulator.cache.CacheSim`
instances for every data-cache level of a hierarchy and probes the TLB
levels in parallel, exactly mirroring the paper's unified hardware model:

* an access spans one or more L1 lines; every spanned L1 line is probed;
* a line that misses on level ``i`` is forwarded to level ``i+1`` (probing
  the containing level-``i+1`` line there), and so on — a miss on the last
  level is an access to main memory;
* every page spanned by the access is probed in each TLB;
* each miss on level ``i`` adds that level's sequential or random miss
  latency to the elapsed-time account (Eq. 3.1 evaluated exactly, event
  by event).

The simulator is the reproduction's stand-in for hardware performance
counters (PAPER.md, "Unified hardware description").
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Iterable, NamedTuple, Sequence

from ..hardware.hierarchy import MemoryHierarchy
from .bufferpool import BufferPoolSim
from .cache import HIT, RAND_MISS, STREAM_WINDOW, CacheSim
from .counters import CounterSnapshot, LevelCounters

__all__ = ["MemorySystem"]


class CompactTrace:
    """An access trace in the form the replay engine walks.

    Two parallel columns hold one row per entry: the address
    (``array('q')``), and ``2 * nbytes + write`` for a plain access or
    ``-1`` for a coalesced range (``array('i')``: an access is under
    1 GiB), whose ``(nbytes, stride, count, write)`` are kept aside in
    :attr:`ranges` under the entry's index.  Built
    from the tuple entries :meth:`MemorySystem.replay` documents, or
    appended to in place by a recorder
    (:class:`repro.service.TraceRecorder`); :meth:`entries` decodes it
    back to those tuples."""

    __slots__ = ("addresses", "sizes", "ranges")

    def __init__(self, entries: Iterable[tuple] = ()) -> None:
        self.addresses = array("q")
        self.sizes = array("i")
        self.ranges: dict[int, tuple] = {}
        addresses, sizes = self.addresses.append, self.sizes.append
        for entry in entries:
            if entry[0] == "range":
                _, addr, nbytes, stride, count, *write = entry
                self.ranges[len(self.sizes)] = (
                    nbytes, stride, count, bool(write and write[0]))
                addresses(addr)
                sizes(-1)
            elif 2 <= len(entry) <= 3:
                addresses(entry[0])
                sizes(2 * entry[1] + (len(entry) == 3 and bool(entry[2])))
            else:
                raise ValueError(f"not a trace entry: {entry!r}")

    def __len__(self) -> int:
        return len(self.sizes)

    def entries(self) -> list[tuple]:
        """The trace as tuples: ``(addr, nbytes)`` reads,
        ``(addr, nbytes, True)`` writes and ``("range", addr, nbytes,
        stride, count)`` runs (``..., True)`` for writes)."""
        ranges = self.ranges
        out = []
        for index, (addr, code) in enumerate(zip(self.addresses,
                                                 self.sizes)):
            if code < 0 and index in ranges:
                nbytes, stride, count, write = ranges[index]
                entry = ("range", addr, nbytes, stride, count)
                out.append(entry + (True,) if write else entry)
            else:
                out.append((addr, code >> 1, True) if code & 1
                           else (addr, code >> 1))
        return out


class Segment(NamedTuple):
    """Entries ``[begin, end)`` of ``trace`` (``end=None``: to its
    end) as :meth:`MemorySystem.replay_interleaved` replays them,
    every address at or above ``floor`` moved ``shift`` higher — how a
    recording made at one allocator position replays at another."""

    trace: CompactTrace
    shift: int = 0
    floor: int = 0
    begin: int = 0
    end: int | None = None


class MemorySystem:
    """Trace-driven simulation of a full memory hierarchy.

    Parameters
    ----------
    hierarchy:
        The machine to simulate.  Every level of
        ``hierarchy.all_levels`` gets its own :class:`CacheSim`.
    """

    __slots__ = ("hierarchy", "caches", "tlbs", "elapsed_ns", "accesses",
                 "_resets", "_replayed", "_l1_line", "_level_chain",
                 "_hit_gran", "period", "reach", "_fingerprint")

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        self.caches = tuple(
            BufferPoolSim(lvl) if lvl.is_pool else CacheSim(lvl)
            for lvl in hierarchy.levels
        )
        self.tlbs = tuple(CacheSim(lvl) for lvl in hierarchy.tlbs)
        self.elapsed_ns = 0.0
        self.accesses = 0
        # Bumped by reset(), which rewinds ``accesses``: the fused
        # accessors of batch() read the count as a clock.
        self._resets = 0
        # Whether a replay has started since the last reset (it counts
        # its accesses per run, so a bad entry can stop it after it
        # touched a level and before it counted): with ``accesses``,
        # what tells reset() whether anything touched the machine.
        self._replayed = False
        self._l1_line = hierarchy.levels[0].line_size
        # (cache, line_size, seq_latency, rand_latency) per data level,
        # pre-extracted for the hot loop.
        self._level_chain = tuple(
            (sim, lvl.line_size, lvl.seq_miss_latency_ns, lvl.rand_miss_latency_ns)
            for sim, lvl in zip(self.caches, hierarchy.levels)
        )
        # Bulk-hit granule for :meth:`access_range`: an access confined
        # to one ``_hit_gran``-aligned block touches exactly one L1 line
        # and one page of every TLB.  Zero disables the coalesced path
        # (exotic geometries where the minimum does not divide the rest).
        sizes = [self._l1_line] + [tlb._line_size for tlb in self.tlbs]
        gran = min(sizes)
        self._hit_gran = gran if all(s % gran == 0 for s in sizes) else 0
        # A level sees an address only through its line (page) number,
        # that number modulo its sets, and whether it is one off a
        # recent miss.  Moving addresses by a multiple of ``period``
        # (sets x line size, lcm over every level) keeps each one's
        # offset in its line and its set on every level; addresses
        # ``reach`` or more apart never share or neighbour a line.
        sims = self.caches + self.tlbs
        self.period = math.lcm(*(sim._num_sets * sim._line_size
                                 for sim in sims))
        self.reach = 2 * max(sim._line_size for sim in sims)
        self._fingerprint = None

    # ------------------------------------------------------------------
    def access(self, addr: int, nbytes: int = 1, write: bool = False) -> None:
        """Simulate one memory access to ``[addr, addr + nbytes)``.

        Reads and writes are costed identically (the paper does not
        distinguish read and write bandwidth, Section 2.2); ``write``
        additionally marks the touched pages of a buffer-pool level
        dirty so write-backs are counted
        (:class:`~repro.simulator.BufferPoolSim`).
        """
        if addr < 0:
            raise ValueError("negative address")
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self.accesses += 1
        self._access_one(addr, nbytes, write)

    def _access_one(self, addr: int, nbytes: int, write: bool) -> None:
        """The :meth:`access` event engine, without validation or the
        ``accesses`` count — the batch entry points loop over this."""
        elapsed = 0.0

        # TLB probes: one per page spanned, per TLB level.
        for tlb in self.tlbs:
            page_size = tlb._line_size
            first = addr // page_size
            last = (addr + nbytes - 1) // page_size
            for page in range(first, last + 1):
                if tlb.probe(page) != HIT:
                    elapsed += tlb.level.rand_miss_latency_ns

        # Data caches: probe every spanned L1 line, cascade misses outwards.
        chain = self._level_chain
        l1 = self._l1_line
        first = addr // l1
        last = (addr + nbytes - 1) // l1
        pending = range(first, last + 1)  # line addrs at L1 granularity
        for depth, (sim, line_size, seq_lat, rand_lat) in enumerate(chain):
            if depth == 0:
                lines = pending
            else:
                # Translate missed lines of the previous level into this
                # level's (deduplicated, order-preserving) line addresses.
                prev_line_size = chain[depth - 1][1]
                ratio = line_size // prev_line_size
                lines = []
                seen_last = -1
                for ln in pending:
                    cur = ln // ratio
                    if cur != seen_last:
                        lines.append(cur)
                        seen_last = cur
            missed = []
            for ln in lines:
                outcome = sim.probe(ln, write)
                if outcome != HIT:
                    missed.append(ln)
                    if outcome == RAND_MISS:
                        elapsed += rand_lat
                    else:
                        elapsed += seq_lat
            if not missed:
                break
            pending = missed

        self.elapsed_ns += elapsed

    def read(self, addr: int, nbytes: int = 1) -> None:
        """Convenience alias for a read access."""
        self.access(addr, nbytes, write=False)

    def write(self, addr: int, nbytes: int = 1) -> None:
        """Convenience alias for a write access."""
        self.access(addr, nbytes, write=True)

    # ------------------------------------------------------------------
    def access_range(self, addr: int, nbytes: int, stride: int | None = None,
                     count: int = 1, write: bool = False) -> None:
        """Simulate ``count`` accesses of ``nbytes`` each, ``stride``
        bytes apart, in one call — the range-coalesced reporting API the
        vectorized kernels use for strided sweeps.

        Byte-identical to the per-item loop ::

            for i in range(count):
                mem.access(addr + i * stride, nbytes, write)

        in every counter and in ``elapsed_ns``, but much cheaper to
        report: consecutive items that stay inside the L1-line/TLB-page
        granule their predecessor just touched are *provably* hits on
        the MRU entry of each set (no LRU state change, no EDO window
        change, no latency), so the simulator batches them as counter
        arithmetic instead of replaying each probe.  Items that cross a
        granule boundary — where misses, evictions, and stream
        classification can happen — go through the full event engine
        one by one.  ``stride`` defaults to ``nbytes`` (a dense array
        sweep); a zero stride models ``count`` repeat touches of one
        item and a negative stride a backward walk.
        """
        if stride is None:
            stride = nbytes
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        lowest = addr if stride >= 0 else addr + (count - 1) * stride
        if lowest < 0:
            raise ValueError("negative address")
        access_one = self._access_one
        gran = self._hit_gran
        bulk = 0
        counted = 0
        if stride < 0 or not gran:
            for i in range(count):
                access_one(addr + i * stride, nbytes, write)
        elif stride == 0:
            access_one(addr, nbytes, write)
            if count > 1:
                if addr // gran == (addr + nbytes - 1) // gran:
                    # Repeat touches of a single-granule item: the line
                    # and page are MRU after the first access, so every
                    # repeat is a pure hit (writes re-mark an
                    # already-dirty pool page — idempotent).
                    bulk = count - 1
                else:
                    for _ in range(count - 1):
                        access_one(addr, nbytes, write)
        elif (nbytes <= stride and gran == self._l1_line
                and gran % stride == 0 and addr % stride == 0
                and len(self.tlbs) <= 1 and count >= 8):
            # Aligned dense sweep (every item inside one granule, one
            # TLB): the fully inlined line-walking engine.
            self._sweep(addr, nbytes, stride, count, write)
            return
        else:
            # Anchors (first item in each granule) go through the real
            # event engine; everything after them inside the granule is
            # a provable MRU hit, batched below.  For long ranges the
            # anchors themselves run through the fused single-line
            # engine of :meth:`batch` (it counts its own accesses).
            if count >= 16:
                anchor_access = self.batch()
                counted = None
            else:
                anchor_access = access_one
            i = 0
            while i < count:
                anchor = addr + i * stride
                anchor_access(anchor, nbytes, write)
                i += 1
                block_end = (anchor // gran + 1) * gran
                if anchor + nbytes <= block_end:
                    # Every later item fully inside the anchor's granule
                    # hits the same (now MRU) L1 line and TLB pages.
                    last = (block_end - nbytes - addr) // stride
                    if last >= count:
                        last = count - 1
                    if last >= i:
                        bulk += last - i + 1
                        i = last + 1
        if bulk:
            self.caches[0].hits += bulk
            for tlb in self.tlbs:
                tlb.hits += bulk
        # The fused anchor engine already counted the anchors.
        self.accesses += bulk if counted is None else count

    def _sweep(self, addr: int, nbytes: int, stride: int, count: int,
               write: bool) -> None:
        """The hot lane of :meth:`access_range`: an aligned dense sweep
        (``nbytes <= stride``, item starts multiples of ``stride``,
        ``stride`` divides the granule, at most one TLB).

        Granule boundaries then coincide with line and page boundaries,
        so only the first item of each granule can change any cache
        state; it probes the L1 line, and the TLB page *only when it
        differs from the previous granule's* (otherwise it is MRU — a
        pure hit).  The L1 probe is inlined: this loop replaces one
        Python-level event cascade per item with one per cache line.
        """
        chain = self._level_chain
        l1_sim, l1_line, l1_seq, l1_rand = chain[0]
        outer = chain[1:]
        l1_sets = l1_sim._sets
        l1_nsets = l1_sim._num_sets
        l1_recent = l1_sim._recent_miss_lines
        l1_pool = isinstance(l1_sim, BufferPoolSim)
        window = STREAM_WINDOW
        tlbs = self.tlbs
        if tlbs:
            tlb = tlbs[0]
            t_rand = tlb.level.rand_miss_latency_ns
            lines_per_page = tlb._line_size // l1_line
            to_page = 0  # groups until the next real TLB probe (0 = now)
        else:
            tlb = None
        per_line = l1_line // stride
        line = addr // l1_line - 1  # pre-decremented; the loop advances it
        take = per_line - (addr % l1_line) // stride  # items on first line
        # Hit counters are accumulated optimistically (`take` per group)
        # and decremented on the rare real-probe misses, then flushed
        # once at the end — counters are only observed between calls.
        l1_hits = 0
        t_hits = 0
        i = 0
        while i < count:
            if take > count - i:
                take = count - i
            line += 1
            l1_hits += take
            elapsed = 0.0
            if tlb is not None:
                if to_page == 0:
                    # A new page, once per page: the probe counts itself.
                    p = line // lines_per_page
                    to_page = lines_per_page - line % lines_per_page
                    t_hits += take - 1
                    if tlb.probe(p) != HIT:
                        elapsed += t_rand
                else:
                    t_hits += take
                to_page -= 1
            s = l1_sets[line % l1_nsets]
            if s[0] == line:
                if write and l1_pool:
                    l1_sim._note_write(line)
            elif line in s:
                if s[1] == line:
                    s[0], s[1] = line, s[0]
                else:
                    s.remove(line)
                    s.insert(0, line)
                if write and l1_pool:
                    l1_sim._note_write(line)
            else:
                l1_hits -= 1
                victim = s.pop()
                if l1_pool and victim != -1:
                    l1_sim._note_evict(victim)
                s.insert(0, line)
                if write and l1_pool:
                    l1_sim._note_write(line)
                if line - 1 in l1_recent:
                    del l1_recent[line - 1]
                    l1_recent[line] = None
                    l1_sim.seq_misses += 1
                    elapsed += l1_seq
                elif line + 1 in l1_recent:
                    del l1_recent[line + 1]
                    l1_recent[line] = None
                    l1_sim.seq_misses += 1
                    elapsed += l1_seq
                else:
                    if len(l1_recent) >= window:
                        del l1_recent[next(iter(l1_recent))]
                    l1_recent[line] = None
                    l1_sim.rand_misses += 1
                    elapsed += l1_rand
                prev_line = line
                prev_size = l1_line
                for sim, line_size, seq_lat, rand_lat in outer:
                    prev_line //= line_size // prev_size
                    prev_size = line_size
                    outcome = sim.probe(prev_line, write)
                    if outcome == HIT:
                        break
                    elapsed += rand_lat if outcome == RAND_MISS else seq_lat
            if elapsed:
                self.elapsed_ns += elapsed
            i += take
            take = per_line
        l1_sim.hits += l1_hits
        if tlb is not None:
            tlb.hits += t_hits
        self.accesses += count

    def batch(self):
        """Return a fused accessor ``f(addr, nbytes=8, write=False)``.

        Call for call the closure is exactly :meth:`access` — same
        counters, same ``elapsed_ns``, bit for bit — but the cascade
        set-up (attribute lookups, level tuples, latency constants) is
        hoisted out of the per-access path and the single-line,
        single-page common case is inlined.  The vectorized operator
        kernels grab one accessor per kernel invocation for their
        data-dependent (interleaved, non-strided) accesses; strided
        sweeps use :meth:`access_range` instead.

        The closure binds the *current* level simulators: take a fresh
        one after :meth:`~repro.db.Database.set_hierarchy`.
        :meth:`reset` clears the sets and miss windows it binds in
        place, so a closure taken before a reset drives the cold
        machine after it; its same-line shortcut, which reads the
        access count that a reset rewinds, checks the reset count
        first.
        """
        mem = self
        access_one = self._access_one
        chain = self._level_chain
        l1_sim, l1_line, l1_seq, l1_rand = chain[0]
        outer = chain[1:]
        tlbs = self.tlbs
        if len(tlbs) > 1 or (tlbs and (tlbs[0]._line_size < l1_line
                                       or tlbs[0]._line_size % l1_line)):
            # Exotic geometry (multiple TLBs, or pages smaller than an
            # L1 line): a one-line access may span pages, so fall back
            # to the general engine for every call.
            def slow(addr: int, nbytes: int = 8, write: bool = False) -> None:
                mem.access(addr, nbytes, write)
            return slow

        l1_sets = l1_sim._sets
        l1_nsets = l1_sim._num_sets
        l1_recent = l1_sim._recent_miss_lines
        l1_pool = isinstance(l1_sim, BufferPoolSim)
        window = STREAM_WINDOW
        if tlbs:
            tlb = tlbs[0]
            page = tlb._line_size
            # A TLB is fully associative (CacheLevel enforces it): one
            # set, whose MRU way is the page the last probe touched.
            t_set, = tlb._sets
            t_recent = tlb._recent_miss_lines
            t_rand = tlb.level.rand_miss_latency_ns
        else:
            tlb = None

        last_line = -1
        last_count = -1
        resets = self._resets

        def fused(addr: int, nbytes: int = 8, write: bool = False) -> None:
            nonlocal last_line, last_count, resets
            if addr < 0:
                raise ValueError("negative address")
            if nbytes <= 0:
                raise ValueError("nbytes must be positive")
            line = addr // l1_line
            n = mem.accesses
            if addr % l1_line + nbytes > l1_line:
                # Line-spanning access: full engine (cascade dedup).
                last_line = -1
                mem.accesses = n + 1
                access_one(addr, nbytes, write)
                return
            if line == last_line and n == last_count:
                if mem._resets == resets:
                    # The immediately preceding access (verified via the
                    # global access count — any interleaved access
                    # through another path bumps it) stayed wholly
                    # inside this very line, so line and page are the
                    # MRU entries of their sets: a pure hit, no LRU/EDO
                    # state change.
                    mem.accesses = n + 1
                    last_count = n + 1
                    l1_sim.hits += 1
                    if tlb is not None:
                        tlb.hits += 1
                    if write and l1_pool:
                        l1_sim._note_write(line)
                    return
                # A reset() since this closure last looked rewound the
                # count: the match proves nothing.  Take the full path.
                resets = mem._resets
            last_line = line
            last_count = n + 1
            mem.accesses = n + 1
            elapsed = 0.0
            if tlb is not None:
                # Inlined CacheSim.probe for the one spanned page; the
                # TLB is always a plain CacheSim, so the write hooks
                # are no-ops and eviction needs no notification.
                p = addr // page
                if t_set[0] == p:
                    tlb.hits += 1
                elif p in t_set:
                    if t_set[1] == p:
                        t_set[0], t_set[1] = p, t_set[0]
                    else:
                        t_set.remove(p)
                        t_set.insert(0, p)
                    tlb.hits += 1
                else:
                    t_set.pop()
                    t_set.insert(0, p)
                    if p - 1 in t_recent:
                        del t_recent[p - 1]
                        t_recent[p] = None
                        tlb.seq_misses += 1
                    elif p + 1 in t_recent:
                        del t_recent[p + 1]
                        t_recent[p] = None
                        tlb.seq_misses += 1
                    else:
                        if len(t_recent) >= window:
                            del t_recent[next(iter(t_recent))]
                        t_recent[p] = None
                        tlb.rand_misses += 1
                    # Every TLB miss pays the random (walk) latency;
                    # the seq/rand split only classifies the counters.
                    elapsed += t_rand
            # Inlined CacheSim.probe for the one spanned L1 line.
            s = l1_sets[line % l1_nsets]
            if s[0] == line:
                l1_sim.hits += 1
                if write and l1_pool:
                    l1_sim._note_write(line)
            elif line in s:
                if s[1] == line:
                    s[0], s[1] = line, s[0]
                else:
                    s.remove(line)
                    s.insert(0, line)
                l1_sim.hits += 1
                if write and l1_pool:
                    l1_sim._note_write(line)
            else:
                victim = s.pop()
                if l1_pool and victim != -1:
                    l1_sim._note_evict(victim)
                s.insert(0, line)
                if write and l1_pool:
                    l1_sim._note_write(line)
                if line - 1 in l1_recent:
                    del l1_recent[line - 1]
                    l1_recent[line] = None
                    l1_sim.seq_misses += 1
                    elapsed += l1_seq
                elif line + 1 in l1_recent:
                    del l1_recent[line + 1]
                    l1_recent[line] = None
                    l1_sim.seq_misses += 1
                    elapsed += l1_seq
                else:
                    if len(l1_recent) >= window:
                        del l1_recent[next(iter(l1_recent))]
                    l1_recent[line] = None
                    l1_sim.rand_misses += 1
                    elapsed += l1_rand
                # Cascade the missed line outwards, translating to each
                # level's granularity (single line: no dedup needed).
                prev_line = line
                prev_size = l1_line
                for sim, line_size, seq_lat, rand_lat in outer:
                    prev_line //= line_size // prev_size
                    prev_size = line_size
                    outcome = sim.probe(prev_line, write)
                    if outcome == HIT:
                        break
                    elapsed += rand_lat if outcome == RAND_MISS else seq_lat
            if elapsed:
                mem.elapsed_ns += elapsed

        return fused

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The simulated profile's fingerprint
        (:meth:`MemoryHierarchy.fingerprint
        <repro.hardware.MemoryHierarchy.fingerprint>`: every level's
        geometry, latencies and name), computed once."""
        if self._fingerprint is None:
            self._fingerprint = self.hierarchy.fingerprint()
        return self._fingerprint

    @property
    def pool(self) -> BufferPoolSim | None:
        """The buffer-pool level's simulator (``None`` on pure-memory
        hierarchies) — its counters are the measured disk I/O."""
        last = self.caches[-1]
        return last if isinstance(last, BufferPoolSim) else None

    def replay(self, trace: Iterable[tuple] | Segment) -> CounterSnapshot:
        """Replay a recorded access trace and return the counter delta.

        ``trace`` is in the engine's compact form (a :class:`Segment`,
        see :meth:`replay_interleaved`), or yields ``(addr, nbytes)`` or
        ``(addr, nbytes, write)`` tuples, or
        range-coalesced ``("range", addr, nbytes, stride, count)`` /
        ``("range", addr, nbytes, stride, count, write)`` entries — a
        form without ``write`` is a read.  Tuples are compacted on entry
        (the engine walks the compact form only).
        :class:`repro.service.TraceRecorder` records every form (a
        write as the ``write`` form with ``True``), so a replayed trace
        dirties and writes back the pool pages direct execution does.
        Replaying a plan's trace against a
        :func:`~repro.hardware.disk_extended` hierarchy is how the
        out-of-core tests measure real pool misses for accesses that
        were recorded once, profile-independently.
        """
        before = self.snapshot()
        # One trace has nobody to alternate with: a single unbounded turn.
        self.replay_interleaved([trace], sys.maxsize)
        return self.snapshot() - before

    def replay_interleaved(self, traces: Sequence, quantum: int
                           ) -> tuple[list[float], list[float]]:
        """Replay ``traces`` round-robin, ``quantum`` accesses per trace
        per turn, on top of the current cache state — the one replay
        engine (:meth:`replay`, :func:`repro.service.replay_interleaved`
        and the measured paths of :mod:`repro.service.executor` are its
        callers).

        The engine's input is the compact form: each trace is a
        :class:`Segment` of a :class:`CompactTrace`, walked by index
        with its shift added to every address at or above its floor; a
        sequence of tuple entries (the forms :meth:`replay` lists) is
        compacted on entry and replayed whole.

        Returns ``(memory_ns, finish_ns)`` per trace: the latency its
        own accesses were charged, and the elapsed time on this system's
        clock at which it ran out of entries.  A trace takes turns while
        it has entries left; a coalesced range entry stands for ``count``
        accesses and may be split by a turn boundary (the remainder
        replays as ``access_range(addr + done * stride, ...)``).

        Access for access this is :meth:`access` / :meth:`access_range`
        — every counter and ``elapsed_ns`` bit for bit, the same
        ``ValueError`` for a bad entry — but an entry confined to one L1
        line (nearly all of a recorded trace) runs through the cascade
        inlined here, with the TLB's and L1's hits and misses counted in
        locals and flushed once per turn.  Each access still adds its
        latencies TLB → L1 → outwards into its own sum before one
        addition to the clock: summing a turn first would change the
        float result.
        """
        if quantum < 1:
            raise ValueError("quantum must be positive")
        self._replayed = True
        memory = [0.0] * len(traces)
        finish = [0.0] * len(traces)
        access_one = self._access_one
        access_range = self.access_range
        l1_sim, l1_line, l1_seq, l1_rand = self._level_chain[0]
        outer = []
        inner_size = l1_line
        for sim, line_size, seq_lat, rand_lat in self._level_chain[1:]:
            outer.append((sim, line_size // inner_size, seq_lat, rand_lat,
                          sim._sets, sim._num_sets, sim._recent_miss_lines,
                          isinstance(sim, BufferPoolSim)))
            inner_size = line_size
        l1_sets = l1_sim._sets
        l1_nsets = l1_sim._num_sets
        l1_recent = l1_sim._recent_miss_lines
        l1_pool = isinstance(l1_sim, BufferPoolSim)
        window = STREAM_WINDOW
        tlbs = self.tlbs
        tlb = tlbs[0] if tlbs else None
        if tlb is not None:
            page = tlb._line_size
            t_set, = tlb._sets  # fully associative: one set
            t_recent = tlb._recent_miss_lines
            t_rand = tlb.level.rand_miss_latency_ns
        # Several TLBs, or pages smaller than an L1 line: a one-line
        # access may span pages, so every entry takes the general engine.
        general = len(tlbs) > 1 or (tlb is not None
                                    and (page < l1_line or page % l1_line))
        clock = self.elapsed_ns
        # (trace number, its columns, shift, floor, next entry, end,
        # accesses done of a range entry)
        cursors = []
        for i, trace in enumerate(traces):
            if not isinstance(trace, Segment):
                trace = Segment(CompactTrace(trace))
            compact, shift, floor, begin, end = trace
            if end is None:
                end = len(compact)
            if begin < end:
                cursors.append((i, compact.addresses, compact.sizes,
                                compact.ranges, shift, floor, begin, end,
                                0))
        while cursors:
            unfinished = []
            for (i, addresses, sizes, ranges, shift, floor, index, end,
                 done) in cursors:
                budget = quantum
                before = clock
                # This turn's L1 and TLB counts, flushed at its end:
                # ``same`` counts accesses to the line the previous one
                # left MRU (a hit on both levels).
                same = l1_hits = l1_seq_n = l1_rand_n = 0
                t_hits = t_seq_n = t_rand_n = 0
                while budget > 0 and index < end:
                    # A run of plain entries, up to the next range entry.
                    # Within it the previous one-line access leaves its
                    # line and page the MRU entries of their sets, so
                    # touching them again changes no LRU or EDO state.
                    last_line = -1
                    start = index
                    stop = index + budget
                    if stop > end:
                        stop = end
                    # ``code`` is ``2 * nbytes + write``; ``write`` is
                    # only decoded where a pool level needs it.
                    for addr, code in zip(addresses[index:stop],
                                          sizes[index:stop]):
                        if code < 2:
                            break  # a range entry (or a bad size)
                        index += 1
                        if addr >= floor:
                            addr += shift
                        elif addr < 0:
                            raise ValueError("negative address")
                        line = addr // l1_line
                        if addr % l1_line + (code >> 1) > l1_line \
                                or general:
                            # Line-spanning access: full engine (cascade
                            # dedup), on the system's own clock.
                            self.elapsed_ns = clock
                            access_one(addr, code >> 1, code & 1)
                            clock = self.elapsed_ns
                            last_line = -1
                            continue
                        if line == last_line:
                            same += 1
                            if l1_pool and code & 1:
                                l1_sim._note_write(line)
                            continue
                        last_line = line
                        elapsed = 0.0
                        if tlb is not None:
                            # Inlined CacheSim.probe for the one page (a
                            # TLB is a plain CacheSim: no write hooks).
                            p = addr // page
                            if t_set[0] == p:
                                t_hits += 1
                            elif p in t_set:
                                if t_set[1] == p:
                                    t_set[0], t_set[1] = p, t_set[0]
                                else:
                                    t_set.remove(p)
                                    t_set.insert(0, p)
                                t_hits += 1
                            else:
                                t_set.pop()
                                t_set.insert(0, p)
                                if p - 1 in t_recent:
                                    del t_recent[p - 1]
                                    t_recent[p] = None
                                    t_seq_n += 1
                                elif p + 1 in t_recent:
                                    del t_recent[p + 1]
                                    t_recent[p] = None
                                    t_seq_n += 1
                                else:
                                    if len(t_recent) >= window:
                                        del t_recent[next(iter(t_recent))]
                                    t_recent[p] = None
                                    t_rand_n += 1
                                # Every TLB miss pays the random (walk)
                                # latency; seq/rand only classifies.
                                elapsed += t_rand
                        # Inlined CacheSim.probe for the one L1 line.
                        s = l1_sets[line % l1_nsets]
                        if s[0] == line:
                            l1_hits += 1
                            if l1_pool and code & 1:
                                l1_sim._note_write(line)
                        elif line in s:
                            if s[1] == line:
                                s[0], s[1] = line, s[0]
                            else:
                                s.remove(line)
                                s.insert(0, line)
                            l1_hits += 1
                            if l1_pool and code & 1:
                                l1_sim._note_write(line)
                        else:
                            victim = s.pop()
                            if l1_pool and victim != -1:
                                l1_sim._note_evict(victim)
                            s.insert(0, line)
                            if l1_pool and code & 1:
                                l1_sim._note_write(line)
                            if line - 1 in l1_recent:
                                del l1_recent[line - 1]
                                l1_recent[line] = None
                                l1_seq_n += 1
                                elapsed += l1_seq
                            elif line + 1 in l1_recent:
                                del l1_recent[line + 1]
                                l1_recent[line] = None
                                l1_seq_n += 1
                                elapsed += l1_seq
                            else:
                                if len(l1_recent) >= window:
                                    del l1_recent[next(iter(l1_recent))]
                                l1_recent[line] = None
                                l1_rand_n += 1
                                elapsed += l1_rand
                            # Cascade the missed line outwards (a single
                            # line: no dedup needed).
                            for (sim, ratio, seq_lat, rand_lat, sets, nsets,
                                 recent, pool) in outer:
                                line //= ratio
                                s = sets[line % nsets]
                                if s[0] != line:
                                    if line not in s:
                                        victim = s.pop()
                                        if pool and victim != -1:
                                            sim._note_evict(victim)
                                        s.insert(0, line)
                                        if pool and code & 1:
                                            sim._note_write(line)
                                        if line - 1 in recent:
                                            del recent[line - 1]
                                            recent[line] = None
                                            sim.seq_misses += 1
                                            elapsed += seq_lat
                                        elif line + 1 in recent:
                                            del recent[line + 1]
                                            recent[line] = None
                                            sim.seq_misses += 1
                                            elapsed += seq_lat
                                        else:
                                            if len(recent) >= window:
                                                del recent[next(iter(recent))]
                                            recent[line] = None
                                            sim.rand_misses += 1
                                            elapsed += rand_lat
                                        continue
                                    if s[1] == line:
                                        s[0], s[1] = line, s[0]
                                    else:
                                        s.remove(line)
                                        s.insert(0, line)
                                sim.hits += 1
                                if pool and code & 1:
                                    sim._note_write(line)
                                break
                        if elapsed:
                            clock += elapsed
                    budget -= index - start
                    self.accesses += index - start
                    if budget > 0 and index < end:
                        # The run stopped at a range entry (or at a
                        # size code that is none: nbytes below one).
                        if index not in ranges:
                            raise ValueError("nbytes must be positive")
                        nbytes, stride, count, write = ranges[index]
                        addr = addresses[index]
                        if addr >= floor:
                            addr += shift
                        take = min(count - done, budget)
                        self.elapsed_ns = clock
                        access_range(addr + done * stride, nbytes, stride,
                                     take, write)
                        clock = self.elapsed_ns
                        budget -= take
                        done += take
                        if done == count:
                            index += 1
                            done = 0
                l1_sim.hits += l1_hits + same
                l1_sim.seq_misses += l1_seq_n
                l1_sim.rand_misses += l1_rand_n
                if tlb is not None:
                    tlb.hits += t_hits + same
                    tlb.seq_misses += t_seq_n
                    tlb.rand_misses += t_rand_n
                memory[i] += clock - before
                if index < end:
                    unfinished.append((i, addresses, sizes, ranges, shift,
                                       floor, index, end, done))
                else:
                    finish[i] = clock
            cursors = unfinished
        self.elapsed_ns = clock
        return memory, finish

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Cold caches and zeroed counters.

        A machine nothing touched since it was built or last reset is
        already that, and is left as it is: every access path counts
        ``accesses`` before it returns, and a replay notes that it
        started, so a machine with neither is untouched."""
        if not self.accesses and not self._replayed:
            return
        for sim in self.caches + self.tlbs:
            sim.reset()
        self.elapsed_ns = 0.0
        self.accesses = 0
        self._replayed = False
        self._resets += 1

    def snapshot(self) -> CounterSnapshot:
        """Freeze all counters (subtract two snapshots to measure a span)."""
        return CounterSnapshot(
            levels=tuple(
                LevelCounters(sim.name, sim.hits, sim.seq_misses, sim.rand_misses)
                for sim in self.caches + self.tlbs
            ),
            elapsed_ns=self.elapsed_ns,
            accesses=self.accesses,
        )

    def cache(self, name: str) -> CacheSim:
        """Look up a level simulator by name."""
        for sim in self.caches + self.tlbs:
            if sim.name == name:
                return sim
        raise KeyError(f"no simulated level named {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemorySystem({self.hierarchy.name}, {self.accesses} accesses)"
