"""The unified hardware model: a cascade of cache levels (Section 2.3).

A :class:`MemoryHierarchy` holds the *data* cache levels (L1, L2, ...)
ordered from closest-to-CPU outwards, plus zero or more TLB levels.  The
paper treats TLBs "just like memory caches" with the page size as line
size; they participate in the cost sum of Eq. 3.1 exactly like data
caches, but data-cache capacity constraints never apply to them and vice
versa, so we keep the two families separate and iterate over
:attr:`MemoryHierarchy.all_levels` when summing costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .cache_level import CacheLevel

__all__ = ["MemoryHierarchy"]


@dataclass(frozen=True)
class MemoryHierarchy:
    """An ordered cascade of cache levels plus TLBs.

    Parameters
    ----------
    name:
        Profile name, e.g. ``"SGI Origin2000"``.
    levels:
        Data-cache levels ordered from the CPU outwards (L1 first).  Each
        level must be no smaller and no faster than its predecessor.
    tlbs:
        Translation lookaside buffers, ordered likewise (L1 TLB first).
    cpu_speed_mhz:
        Clock speed, used only to convert cycle counts in reports.
    """

    name: str
    levels: tuple[CacheLevel, ...]
    tlbs: tuple[CacheLevel, ...] = ()
    cpu_speed_mhz: float = 250.0

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a hierarchy needs at least one data cache level")
        for level in self.levels:
            if level.is_tlb:
                raise ValueError(f"{level.name}: TLB levels belong in 'tlbs'")
        for tlb in self.tlbs:
            if not tlb.is_tlb:
                raise ValueError(f"{tlb.name}: non-TLB level in 'tlbs'")
        for lvl in self.levels[:-1]:
            if lvl.is_pool:
                raise ValueError(
                    f"{lvl.name}: a buffer pool must be the outermost "
                    "data level (it caches disk, nothing caches it)"
                )
        for inner, outer in zip(self.levels, self.levels[1:]):
            if outer.capacity < inner.capacity:
                raise ValueError(
                    f"{outer.name} capacity ({outer.capacity}) is below "
                    f"{inner.name} capacity ({inner.capacity})"
                )
            if outer.line_size < inner.line_size:
                raise ValueError(
                    f"{outer.name} line size ({outer.line_size}) is below "
                    f"{inner.name} line size ({inner.line_size})"
                )
        if self.cpu_speed_mhz <= 0:
            raise ValueError("cpu_speed_mhz must be positive")

    # ------------------------------------------------------------------
    @property
    def all_levels(self) -> tuple[CacheLevel, ...]:
        """Data caches followed by TLBs — the index set of Eq. 3.1."""
        return self.levels + self.tlbs

    @property
    def num_levels(self) -> int:
        return len(self.all_levels)

    @property
    def buffer_pool(self) -> CacheLevel | None:
        """The buffer-pool level of a disk-extended hierarchy (always
        the outermost data level), or ``None`` for pure-memory
        profiles."""
        last = self.levels[-1]
        return last if last.is_pool else None

    @property
    def has_buffer_pool(self) -> bool:
        """Whether this hierarchy is disk-extended (paper Section 7)."""
        return self.levels[-1].is_pool

    def level(self, name: str) -> CacheLevel:
        """Look a level up by name (data caches and TLBs)."""
        for lvl in self.all_levels:
            if lvl.name == name:
                return lvl
        raise KeyError(f"no cache level named {name!r} in {self.name}")

    def fingerprint(self) -> str:
        """Stable content fingerprint of this profile (see
        :func:`repro.hardware.profile_fingerprint`)."""
        from .serialization import profile_fingerprint
        return profile_fingerprint(self)

    def geometry_key(self) -> tuple:
        """What the machine's miss *counts* depend on: per level (data
        caches, then TLBs) its capacity, line or page size,
        associativity and TLB / buffer-pool flags.  Latencies, the
        clock and the display name are left out, so machines that
        differ only in prices share the key (the exhaustive plan space
        is a function of it, see
        :meth:`repro.query.Optimizer.enumeration_key`)."""
        return tuple((level.capacity, level.line_size, level.associativity,
                      level.is_tlb, level.is_pool)
                     for level in self.all_levels)

    def cycles(self, nanoseconds: float) -> float:
        """Convert a duration in nanoseconds to CPU cycles."""
        return nanoseconds * self.cpu_speed_mhz / 1e3

    def nanoseconds(self, cycles: float) -> float:
        """Convert CPU cycles to nanoseconds."""
        return cycles * 1e3 / self.cpu_speed_mhz

    def scaled_capacities(self, factor: int, name_suffix: str = " (scaled)") -> "MemoryHierarchy":
        """A hierarchy with every capacity divided by ``factor``.

        Line sizes, page sizes and latencies are preserved so every ratio
        the cost model depends on (region size vs. capacity, cursor count
        vs. line count) survives; only the absolute scale shrinks.  Used to
        produce simulator-friendly variants of real machine profiles.
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")

        def shrink(level: CacheLevel) -> CacheLevel:
            lines = max(level.effective_associativity if level.associativity else 1,
                        level.num_lines // factor)
            ways = level.associativity
            if ways and ways > lines:
                ways = lines
            return replace(level, capacity=lines * level.line_size,
                           associativity=ways)

        return replace(self, name=self.name + name_suffix,
                       levels=tuple(shrink(l) for l in self.levels),
                       tlbs=tuple(shrink(t) for t in self.tlbs))

    def scaled_latencies(self, multipliers: Mapping[str, tuple[float, float]],
                         name_suffix: str = " (recalibrated)"
                         ) -> "MemoryHierarchy":
        """A hierarchy with per-level miss latencies rescaled.

        ``multipliers`` maps level names to ``(seq_mult, rand_mult)``
        factors applied to that level's sequential/random miss
        latencies; unnamed levels keep theirs.  Capacities, line sizes
        and associativities are untouched, so every miss *count* the
        model derives (region size vs. capacity, cursors vs. lines) is
        preserved — only the per-miss prices move.  This is the
        parametric neighborhood the online recalibrator
        (:mod:`repro.calibrator.autotune`) searches.

        Raises :class:`KeyError` for an unknown level name and
        :class:`ValueError` when a rescaled level violates its own
        constraints (random latency must stay >= sequential).
        """
        known = {lvl.name for lvl in self.all_levels}
        unknown = sorted(set(multipliers) - known)
        if unknown:
            raise KeyError(
                f"no cache level named {unknown[0]!r} in {self.name}")
        for name, (seq_mult, rand_mult) in multipliers.items():
            if seq_mult <= 0 or rand_mult <= 0:
                raise ValueError(
                    f"{name}: latency multipliers must be positive, "
                    f"got ({seq_mult}, {rand_mult})")

        def reprice(level: CacheLevel) -> CacheLevel:
            seq_mult, rand_mult = multipliers.get(level.name, (1.0, 1.0))
            if seq_mult == 1.0 and rand_mult == 1.0:
                return level
            return replace(
                level,
                seq_miss_latency_ns=level.seq_miss_latency_ns * seq_mult,
                rand_miss_latency_ns=level.rand_miss_latency_ns * rand_mult,
            )

        return replace(self, name=self.name + name_suffix,
                       levels=tuple(reprice(l) for l in self.levels),
                       tlbs=tuple(reprice(t) for t in self.tlbs))

    def describe(self) -> list[dict[str, object]]:
        """Paper Table 1 rendered for this machine: one row per level."""
        return [lvl.describe() for lvl in self.all_levels]
