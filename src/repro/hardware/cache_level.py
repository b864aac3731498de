"""Characteristic parameters of one cache level (paper Table 1).

The unified hardware model of Section 2.3 describes a machine as a cascade
of ``N`` cache levels.  Each level ``i`` is characterised by its capacity
``C_i``, line (block) size ``Z_i``, associativity ``A_i``, and by the
latency/bandwidth of *misses* on that level, split into a sequential and a
random variant.  A miss on level ``i`` is served by level ``i+1``, so the
paper's dualism ``l_i = lambda_{i+1}`` (miss latency of level ``i`` equals
access latency of level ``i+1``) is already folded into these parameters.

TLBs are modelled as cache levels whose line size is the memory page size
and whose capacity is ``entries * page_size`` (Section 2.2); they are fully
associative and their misses carry no bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CacheLevel"]

#: Sentinel associativity meaning "fully associative".
FULLY_ASSOCIATIVE = 0


@dataclass(frozen=True)
class CacheLevel:
    """One level of the memory hierarchy (paper Table 1).

    Parameters
    ----------
    name:
        Human-readable level name, e.g. ``"L1"``, ``"L2"``, ``"TLB"``.
    capacity:
        Total size ``C`` in bytes.  For a TLB this is
        ``entries * page_size`` (its *virtual* capacity).
    line_size:
        Cache line / block size ``Z`` in bytes.  For a TLB this is the
        memory page size.
    associativity:
        Number of ways ``A``.  ``1`` means direct-mapped;
        ``0`` (:data:`FULLY_ASSOCIATIVE`) means fully associative.
    seq_miss_latency_ns:
        Latency ``l_s`` of a *sequential* miss on this level, in
        nanoseconds (the EDO / prefetch-friendly case of Section 2.2).
    rand_miss_latency_ns:
        Latency ``l_r`` of a *random* miss on this level, in nanoseconds.
    is_tlb:
        Whether this level is an address-translation cache.  TLB misses
        transfer no data, and sequential and random TLB latency coincide
        (Section 2.2).
    is_pool:
        Whether this level is a DBMS buffer pool caching disk pages
        (paper Section 7): its line size is the page size, a sequential
        miss is a page transfer and a random miss additionally carries
        the seek.  The flag marks the level so the simulator can track
        page residency/write-backs and so budget-aware planning can
        find the pool; the cost formulas treat it like any other level.
    """

    name: str
    capacity: int
    line_size: int
    associativity: int = FULLY_ASSOCIATIVE
    seq_miss_latency_ns: float = 0.0
    rand_miss_latency_ns: float = 0.0
    is_tlb: bool = False
    is_pool: bool = False

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"{self.name}: capacity must be positive, got {self.capacity}")
        if self.line_size <= 0:
            raise ValueError(f"{self.name}: line size must be positive, got {self.line_size}")
        if self.capacity % self.line_size != 0:
            raise ValueError(
                f"{self.name}: capacity {self.capacity} is not a multiple of "
                f"line size {self.line_size}"
            )
        if self.associativity < 0:
            raise ValueError(f"{self.name}: associativity must be >= 0, got {self.associativity}")
        if self.associativity > self.num_lines:
            raise ValueError(
                f"{self.name}: associativity {self.associativity} exceeds the "
                f"number of lines {self.num_lines}"
            )
        if self.seq_miss_latency_ns < 0 or self.rand_miss_latency_ns < 0:
            raise ValueError(f"{self.name}: latencies must be non-negative")
        if self.rand_miss_latency_ns < self.seq_miss_latency_ns:
            raise ValueError(
                f"{self.name}: random miss latency ({self.rand_miss_latency_ns} ns) "
                f"must not be below sequential miss latency "
                f"({self.seq_miss_latency_ns} ns)"
            )
        if self.is_tlb and self.associativity != FULLY_ASSOCIATIVE:
            raise ValueError(f"{self.name}: TLBs are fully associative in this model")
        if self.is_pool and self.is_tlb:
            raise ValueError(f"{self.name}: a buffer pool is a data level, not a TLB")

    # ------------------------------------------------------------------
    # Derived quantities of Table 1.
    # ------------------------------------------------------------------
    @property
    def num_lines(self) -> int:
        """Number of cache lines ``# = C / Z``."""
        return self.capacity // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of associativity sets (1 when fully associative)."""
        ways = self.effective_associativity
        return self.num_lines // ways

    @property
    def effective_associativity(self) -> int:
        """Associativity with the fully-associative sentinel resolved."""
        if self.associativity == FULLY_ASSOCIATIVE:
            return self.num_lines
        return self.associativity

    @property
    def seq_miss_bandwidth(self) -> float:
        """Sequential miss bandwidth ``b_s = Z / l_s`` in bytes/ns (0 for TLBs)."""
        if self.is_tlb or self.seq_miss_latency_ns == 0:
            return 0.0
        return self.line_size / self.seq_miss_latency_ns

    @property
    def rand_miss_bandwidth(self) -> float:
        """Random miss bandwidth ``b_r = Z / l_r`` in bytes/ns (0 for TLBs)."""
        if self.is_tlb or self.rand_miss_latency_ns == 0:
            return 0.0
        return self.line_size / self.rand_miss_latency_ns

    def miss_latency_ns(self, sequential: bool) -> float:
        """Latency of one miss of the given kind, in nanoseconds."""
        if sequential:
            return self.seq_miss_latency_ns
        return self.rand_miss_latency_ns

    def scaled(self, fraction: float) -> "CacheLevel":
        """A copy of this level with only ``fraction`` of the capacity,
        kept a positive multiple of the line size.

        The cost model's concurrent-execution rule (Eq. 5.3) shares a
        cache the same way but on the derived geometry
        (:meth:`repro.core.LevelGeometry.scaled`); nothing in the model
        calls this method.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        lines = max(1, int(self.num_lines * fraction))
        ways = self.associativity
        if ways != FULLY_ASSOCIATIVE:
            ways = min(ways, lines)
        return replace(self, capacity=lines * self.line_size,
                       associativity=ways)

    def describe(self) -> dict[str, object]:
        """The characteristic-parameter row of paper Table 1 for this level."""
        return {
            "name": self.name,
            "capacity_bytes": self.capacity,
            "line_size_bytes": self.line_size,
            "num_lines": self.num_lines,
            "associativity": "full" if self.associativity == FULLY_ASSOCIATIVE else self.associativity,
            "seq_miss_latency_ns": self.seq_miss_latency_ns,
            "rand_miss_latency_ns": self.rand_miss_latency_ns,
            "seq_miss_bandwidth_bytes_per_ns": round(self.seq_miss_bandwidth, 4),
            "rand_miss_bandwidth_bytes_per_ns": round(self.rand_miss_bandwidth, 4),
            "is_tlb": self.is_tlb,
        }
