"""Cache state for sequential pattern combination (paper Section 5.1).

The state of one cache level is a set of pairs ``(R, rho)`` stating for
each data region the fraction ``rho`` of it available in the cache.  When
patterns execute sequentially (``⊕``), a pattern may benefit from the
state its predecessor left behind (Eq. 5.1):

* a region entirely in the cache costs nothing to traverse again;
* a partially cached region (fraction ``rho``) helps *random* patterns
  proportionally — any access hits the cached fraction with probability
  ``rho`` — but not sequential ones, which would need the cached fraction
  to be exactly the head of the region (the paper conservatively assumes
  it is not);
* after a pattern, the cache holds ``min(1, C/||R||)`` of its region
  (Eq. 5.1's state-transition rule).

Sub-region inheritance: a region is also considered cached to the extent
its ancestors or descendants are.  When a pattern's region fits entirely,
the state records the *highest ancestor that also fits* as resident —
under LRU, a recursive algorithm (quick-sort) whose working set stays
inside a cache-sized ancestor keeps that whole ancestor resident.  This
is the reconstruction that produces the paper's Figure 7a step
(PAPER.md, "Validation (Section 7)").
"""

from __future__ import annotations

from dataclasses import dataclass

from .regions import DataRegion

__all__ = ["CacheState"]


@dataclass(frozen=True)
class CacheState:
    """Per-level cache state: mapping of regions to cached fractions."""

    entries: tuple[tuple[DataRegion, float], ...] = ()

    @classmethod
    def empty(cls) -> "CacheState":
        """The initially empty cache the paper assumes (Section 4.5)."""
        return cls(())

    @classmethod
    def of(cls, *pairs: tuple[DataRegion, float]) -> "CacheState":
        for region, rho in pairs:
            if not 0.0 <= rho <= 1.0:
                raise ValueError(f"fraction for {region.name} out of [0, 1]: {rho}")
        return cls(tuple(pairs))

    # ------------------------------------------------------------------
    def cached_fraction(self, region: DataRegion) -> float:
        """The fraction of ``region`` available in the cache.

        A direct entry counts fully.  An entry for an *ancestor* implies
        the same fraction of the sub-region (uniform-residency
        assumption); an entry for a *descendant* contributes its bytes
        scaled to the enclosing region's size.
        """
        best = 0.0
        for entry_region, rho in self.entries:
            if rho <= 0.0:
                continue
            if region is entry_region or region == entry_region:
                best = max(best, rho)
            elif region.is_within(entry_region):
                best = max(best, rho)
            elif entry_region.is_within(region):
                best = max(best, rho * entry_region.size / region.size)
        return min(1.0, best)

    # ------------------------------------------------------------------
    @staticmethod
    def after_pattern(region: DataRegion, capacity: float) -> "CacheState":
        """State left by a pattern over ``region`` on a cache of
        ``capacity`` bytes (Eq. 5.1 transition + ancestor promotion)."""
        rho = min(1.0, capacity / region.size)
        if rho >= 1.0:
            resident = region
            for ancestor in region.ancestors():
                if ancestor.size <= capacity:
                    resident = ancestor
            return CacheState(((resident, 1.0),))
        return CacheState(((region, rho),))

    def merged(self, other: "CacheState") -> "CacheState":
        """Union of two states; on conflicts the larger fraction wins
        (used to combine the per-part states of concurrent execution)."""
        combined: list[tuple[DataRegion, float]] = list(self.entries)
        for region, rho in other.entries:
            for idx, (existing, existing_rho) in enumerate(combined):
                if existing == region:
                    if rho > existing_rho:
                        combined[idx] = (region, rho)
                    break
            else:
                combined.append((region, rho))
        return CacheState(tuple(combined))

    def __repr__(self) -> str:
        inner = ", ".join(f"({r.name}, {rho:.3f})" for r, rho in self.entries)
        return f"CacheState({{{inner}}})"
