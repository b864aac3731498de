"""Automatic cost-function assembly (paper Sections 3.3, 5 and 6.1).

Given a (compound) access pattern and a machine profile, the
:class:`CostModel` derives the pattern's memory-access cost by

1. estimating, per cache level, the sequential/random miss pair of every
   basic pattern (Section 4, :mod:`repro.core.misses`),
2. threading cache state through sequential combinations ``⊕``
   (Eqs. 5.1 / 5.2),
3. dividing the cache among concurrent combinations ``⊙`` proportionally
   to the parts' footprints (Eq. 5.3), and
4. scoring misses with their latencies and summing over levels
   (Eq. 3.1), optionally adding calibrated pure CPU time (Eq. 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.cache_level import CacheLevel
from ..hardware.hierarchy import MemoryHierarchy
from .misses import LevelGeometry, MissPair, basic_pattern_misses
from .patterns import BasicPattern, Conc, Pattern, RTrav, Seq, STrav
from .state import CacheState

__all__ = ["CostModel", "CostEstimate", "LevelCost", "footprint_lines",
           "cache_shares"]


def footprint_lines(pattern: Pattern, line_size: int) -> float:
    """A pattern's footprint: the cache lines it potentially revisits
    (Section 5.2).

    Single sequential traversals never return to a line once past it, so
    their footprint is a single line; the same holds for single random
    traversals whose untouched gaps span at least a line.  Every other
    basic pattern may revisit any line covered by its region.  Sequential
    compounds occupy the maximum of their parts (one part runs at a
    time); concurrent compounds the sum (all parts compete at once).
    """
    if isinstance(pattern, STrav):
        return 1.0
    if isinstance(pattern, RTrav):
        if pattern.region.w - pattern.used_bytes >= line_size:
            return 1.0
        return float(pattern.region.lines(line_size))
    if isinstance(pattern, BasicPattern):
        return float(pattern.region.lines(line_size))
    if isinstance(pattern, Seq):
        return max(footprint_lines(p, line_size) for p in pattern.parts)
    if isinstance(pattern, Conc):
        return sum(footprint_lines(p, line_size) for p in pattern.parts)
    raise TypeError(f"not a pattern: {pattern!r}")


def cache_shares(parts: "list[Pattern] | tuple[Pattern, ...]",
                 line_size: int) -> list[float]:
    """The cache fraction each concurrent part receives under ⊙
    (Eq. 5.3): proportional to the parts' footprints, equal when every
    footprint is zero.  Exposed for external co-run composition — the
    workload scheduler uses it to reason about contention without
    re-deriving the division rule."""
    if not parts:
        raise ValueError("cache_shares needs at least one pattern")
    prints = [footprint_lines(p, line_size) for p in parts]
    total = sum(prints)
    if total <= 0:
        return [1.0 / len(prints)] * len(prints)
    return [fp / total for fp in prints]


@dataclass(frozen=True)
class LevelCost:
    """Predicted misses and time of one cache level (one Eq. 3.1 summand)."""

    level: CacheLevel
    misses: MissPair

    @property
    def name(self) -> str:
        return self.level.name

    @property
    def time_ns(self) -> float:
        return self.misses.time_ns(
            self.level.seq_miss_latency_ns, self.level.rand_miss_latency_ns
        )


@dataclass(frozen=True)
class CostEstimate:
    """The full cost prediction of one pattern on one machine."""

    levels: tuple[LevelCost, ...]
    cpu_ns: float = 0.0

    @property
    def memory_ns(self) -> float:
        """Memory-access time ``T_mem`` (Eq. 3.1)."""
        return sum(lc.time_ns for lc in self.levels)

    @property
    def total_ns(self) -> float:
        """Total execution time ``T = T_mem + T_cpu`` (Eq. 6.1)."""
        return self.memory_ns + self.cpu_ns

    def level(self, name: str) -> LevelCost:
        for lc in self.levels:
            if lc.name == name:
                return lc
        raise KeyError(f"no level named {name!r}")

    def misses(self, name: str) -> float:
        """Total predicted misses of the named level."""
        return self.level(name).misses.total

    def as_dict(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for lc in self.levels:
            out[lc.name] = {
                "seq_misses": lc.misses.seq,
                "rand_misses": lc.misses.rand,
                "time_ns": lc.time_ns,
            }
        out["total"] = {"memory_ns": self.memory_ns, "cpu_ns": self.cpu_ns,
                        "total_ns": self.total_ns}
        return out


class CostModel:
    """Derives cost functions from pattern descriptions automatically.

    Parameters
    ----------
    hierarchy:
        The machine profile (data caches and TLBs are all costed, each
        with its own geometry — the paper treats TLBs as caches whose
        line size is the page size).
    """

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

    # ------------------------------------------------------------------
    def estimate(self, pattern: Pattern, cpu_ns: float = 0.0) -> CostEstimate:
        """Predict per-level misses and total time for ``pattern``.

        ``cpu_ns`` is the calibrated pure CPU time of the algorithm
        (Eq. 6.1); it defaults to zero, which predicts memory time only.
        """
        levels = tuple(
            LevelCost(level=level, misses=self.level_misses(pattern, level))
            for level in self.hierarchy.all_levels
        )
        return CostEstimate(levels=levels, cpu_ns=cpu_ns)

    def level_misses(self, pattern: Pattern, level: CacheLevel,
                     state: CacheState | None = None) -> MissPair:
        """Predicted misses of ``pattern`` on one level (Eq. 4.1 pair)."""
        pair, _ = self._evaluate(pattern, LevelGeometry.of(level),
                                 state or CacheState.empty())
        return pair

    def misses(self, pattern: Pattern) -> dict[str, MissPair]:
        """Predicted misses of every level, keyed by level name."""
        return {
            level.name: self.level_misses(pattern, level)
            for level in self.hierarchy.all_levels
        }

    def sequential_estimates(self, parts: "list[Pattern | None] | tuple[Pattern | None, ...]"
                             ) -> tuple[CostEstimate, ...]:
        """Per-part cost of running ``parts`` one after another (⊕).

        Cache state is threaded left to right (Eqs. 5.1 / 5.2), so each
        part is priced with the residency its predecessors left behind —
        exactly how :meth:`estimate` prices the equivalent ``Seq``, which
        makes these the per-part *attribution* of a materialized
        execution: operator ``i`` runs after operators ``0..i-1``
        finished, starting from a cold cache overall.  ``None`` parts
        (access-free operators, e.g. bare scans) price as zero and leave
        the state unchanged.  This is the ⊕ dual of
        :meth:`concurrent_estimates`: that divides one instant among
        co-runners, this threads one cache through successors."""
        per_part_levels: list[list[LevelCost]] = [[] for _ in parts]
        for level in self.hierarchy.all_levels:
            geo = LevelGeometry.of(level)
            state = CacheState.empty()
            for i, part in enumerate(parts):
                if part is None:
                    pair = MissPair()
                else:
                    pair, state = self._evaluate(part, geo, state)
                per_part_levels[i].append(LevelCost(level=level, misses=pair))
        return tuple(CostEstimate(levels=tuple(levels))
                     for levels in per_part_levels)

    def concurrent_estimates(self, parts: "list[Pattern] | tuple[Pattern, ...]"
                             ) -> tuple[CostEstimate, ...]:
        """Per-part cost of running ``parts`` concurrently (⊙).

        Each part is priced against its Eq. 5.3 share of every level —
        exactly the division :meth:`estimate` applies to
        ``Conc.of(*parts)``, so the per-part memory times sum to the
        compound's total.  This is the attribution the workload service
        needs: the compound estimate says what a co-run *batch* costs,
        these say what each *member* contributes (its inflated, not
        standalone, cost)."""
        per_part_levels: list[list[LevelCost]] = [[] for _ in parts]
        for level in self.hierarchy.all_levels:
            shared = self._evaluate_shared(parts, LevelGeometry.of(level),
                                           CacheState.empty())
            for levels, (pair, _) in zip(per_part_levels, shared):
                levels.append(LevelCost(level=level, misses=pair))
        return tuple(CostEstimate(levels=tuple(levels))
                     for levels in per_part_levels)

    # ------------------------------------------------------------------
    def _evaluate(self, pattern: Pattern, geo: LevelGeometry,
                  state: CacheState) -> tuple[MissPair, CacheState]:
        """Recursive evaluator returning (misses, resulting cache state).

        ``geo`` already reflects any ⊙ cache-sharing scale-down.
        """
        if isinstance(pattern, BasicPattern):
            return self._evaluate_basic(pattern, geo, state)
        if isinstance(pattern, Seq):
            # Eq. 5.2: thread the state left by each part into the next.
            total = MissPair()
            current = state
            for part in pattern.parts:
                pair, current = self._evaluate(part, geo, current)
                total = total + pair
            return total, current
        if isinstance(pattern, Conc):
            return self._evaluate_concurrent(pattern, geo, state)
        raise TypeError(f"not a pattern: {pattern!r}")

    def _evaluate_basic(self, pattern: BasicPattern, geo: LevelGeometry,
                        state: CacheState) -> tuple[MissPair, CacheState]:
        """Eq. 5.1: initial-state benefit, then the Section 4 formulas."""
        rho = state.cached_fraction(pattern.region)
        if rho >= 1.0:
            pair = MissPair()
        else:
            pair = basic_pattern_misses(pattern, geo)
            if rho > 0.0 and pattern.is_random:
                # Random patterns benefit from a partially resident region
                # proportionally; sequential ones only from full residency.
                pair = pair.scaled(1.0 - rho)
        return pair, CacheState.after_pattern(pattern.region, geo.capacity)

    def _evaluate_shared(self, parts, geo: LevelGeometry, state: CacheState):
        """Eq. 5.3: every part evaluated on its footprint's share of
        the cache, all from the same initial ``state``."""
        shares = cache_shares(parts, geo.line_size)
        for part, fraction in zip(parts, shares):
            yield self._evaluate(part, geo.scaled(max(fraction, 1e-9)), state)

    def _evaluate_concurrent(self, pattern: Conc, geo: LevelGeometry,
                             state: CacheState) -> tuple[MissPair, CacheState]:
        """The ⊙ compound: the shared parts' misses add up, their
        resulting states merge."""
        total = MissPair()
        result_state = CacheState.empty()
        for pair, part_state in self._evaluate_shared(pattern.parts, geo,
                                                      state):
            total = total + pair
            result_state = result_state.merged(part_state)
        return total, result_state
