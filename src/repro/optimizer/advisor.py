"""Cost-based algorithm selection (the paper's motivating use-case).

"The query optimizer uses this information to choose the most suitable
algorithm and/or implementation for each operator" (Section 1).  An
*operator advisor* enumerates the implementations of one operator kind,
derives each one's cost with the automatically combined cost functions,
and returns the ranking.  There is one advisor per operator kind (join,
sort, aggregate), each holding the one admissibility rule of its kind:
which variants the engine could run under a memory budget.  The plan
enumerator (:class:`repro.query.Optimizer`) builds all three from its
planner config, on ``PlannerConfig.memory_budget``, and asks them
``JoinAdvisor.candidate_specs(U, V, ...)``,
``SortAdvisor.needs_external(U)`` / ``stop_bytes()`` and
``AggregateAdvisor.candidate_specs(composite_input=...)``; built
standalone, an advisor ranks implementations under its own budget.
The logical component (cardinalities) is assumed perfect, as in the
paper ("we assume a perfect oracle to predict the data volumes").

Every implementation is scored by reading its entry in the operator
catalog (:class:`repro.core.Algorithm`): the entry's phases give the
pattern, its Eq. 6.1 cycle count the pure-CPU term.  The plan layer
(:mod:`repro.query.physical`) reads the same entries, so the formulas —
not just the calibrated constants of :mod:`repro.core.cpu` — are shared;
the defaults are deliberately coarse — the interesting crossovers are
driven by the memory term.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.algorithms import (
    DEFAULT_HASH_MAX_LOAD,
    EXTERNAL_MERGE_SORT,
    GRACE_HASH_JOIN,
    HASH_AGGREGATE,
    HASH_JOIN,
    MERGE_JOIN,
    NESTED_LOOP_JOIN,
    PARTITIONED_HASH_JOIN,
    QUICK_SORT,
    SORT_AGGREGATE,
    SPILLING_HASH_AGGREGATE,
    Algorithm,
    grace_partition_count,
    group_table_region,
    hash_table_region,
    spill_partition_count,
)
from ..core.cost import CostEstimate, CostModel
from ..core.cpu import CPU_CYCLES_PER_ITEM
from ..core.patterns import seq
from ..core.regions import DataRegion
from ..hardware.hierarchy import MemoryHierarchy

__all__ = [
    "OperatorAdvisor",
    "OperatorChoice",
    "JoinSpec",
    "JoinAdvisor",
    "SortAdvisor",
    "AggregateAdvisor",
    "CPU_CYCLES_PER_ITEM",
]


@dataclass(frozen=True)
class OperatorChoice:
    """One scored implementation of some operator."""

    operator: str
    algorithm: str
    estimate: CostEstimate

    @property
    def total_ns(self) -> float:
        return self.estimate.total_ns


@dataclass(frozen=True)
class JoinSpec:
    """A join implementation candidate the plan enumerator can build:
    the algorithm name plus injected parameters (partition count)."""

    algorithm: str
    partitions: int | None = None


class OperatorAdvisor:
    """Base class: scores the implementations of one operator kind.

    Parameters
    ----------
    hierarchy:
        Machine profile used for cost derivation.
    memory_budget:
        Working-memory bound in bytes (sort area, hash table, group
        table), or ``None`` for unbounded (pure in-memory planning).
        When an implementation's working structure exceeds the budget,
        the in-memory variant is *inadmissible* — the engine could not
        hold it — and the advisor offers the spilling variant instead,
        which is how enumeration picks spilling implementations exactly
        when footprints exceed the budget.
    """

    #: Operator kind this advisor covers (:attr:`OperatorChoice.operator`).
    operator: str = "?"

    def __init__(self, hierarchy: MemoryHierarchy,
                 memory_budget: int | None = None) -> None:
        if memory_budget is not None and memory_budget < 1:
            raise ValueError("memory_budget must be positive (or None)")
        self.hierarchy = hierarchy
        self.memory_budget = memory_budget
        self.model = CostModel(hierarchy)

    def _min_cache_bytes(self) -> int:
        return min(l.capacity for l in self.hierarchy.all_levels)

    def _exceeds_budget(self, nbytes: int) -> bool:
        return self.memory_budget is not None and nbytes > self.memory_budget

    def _budget(self) -> int:
        """The budget a spilling variant is scored under: the
        advisor's, which must then be set."""
        if self.memory_budget is None:
            raise ValueError(
                "a spilling implementation needs a memory budget")
        return self.memory_budget

    def _choice(self, algorithm: Algorithm, *operands) -> OperatorChoice:
        """``algorithm`` scored on ``operands`` by its catalog entry."""
        return OperatorChoice(self.operator, algorithm.name,
                              algorithm.estimate(self.model, *operands))


class JoinAdvisor(OperatorAdvisor):
    """Scores join implementations with the cost model.

    Parameters
    ----------
    hierarchy:
        Machine profile used for cost derivation.
    inputs_sorted:
        Whether both operands are already sorted.  If not, merge join is
        charged two quick-sorts in addition to the merge.
    """

    operator = "join"

    def __init__(self, hierarchy: MemoryHierarchy,
                 inputs_sorted: bool = False,
                 memory_budget: int | None = None) -> None:
        super().__init__(hierarchy, memory_budget=memory_budget)
        self.inputs_sorted = inputs_sorted
        self._min_capacity = self._min_cache_bytes()

    # ------------------------------------------------------------------
    def merge_join_choice(self, U: DataRegion, V: DataRegion,
                          W: DataRegion) -> OperatorChoice:
        if self.inputs_sorted:
            return self._choice(MERGE_JOIN, U, V, W)
        # sort-ahead: each input is charged its own quick-sort
        sorts = [(U, self._min_capacity), (V, self._min_capacity)]
        pattern = seq(*(QUICK_SORT.pattern(*sort) for sort in sorts),
                      MERGE_JOIN.pattern(U, V, W))
        cycles = (sum(QUICK_SORT.cycles(*sort) for sort in sorts)
                  + MERGE_JOIN.cycles(U, V, W))
        estimate = self.model.estimate(
            pattern, cpu_ns=self.hierarchy.nanoseconds(cycles))
        return OperatorChoice(self.operator, MERGE_JOIN.name, estimate)

    def hash_join_choice(self, U: DataRegion, V: DataRegion,
                         W: DataRegion) -> OperatorChoice:
        return self._choice(HASH_JOIN, U, V, W)

    def partitioned_hash_join_choice(self, U: DataRegion, V: DataRegion,
                                     W: DataRegion,
                                     m: int | None = None) -> OperatorChoice:
        m = m or self.recommend_partitions(V)
        return self._choice(PARTITIONED_HASH_JOIN, U, V, W, m)

    def nested_loop_join_choice(self, U: DataRegion, V: DataRegion,
                                W: DataRegion) -> OperatorChoice:
        return self._choice(NESTED_LOOP_JOIN, U, V, W)

    def grace_hash_join_choice(self, U: DataRegion, V: DataRegion,
                               W: DataRegion) -> OperatorChoice:
        """The spilling partitioned hash join under the advisor's
        budget (which must be set)."""
        return self._choice(GRACE_HASH_JOIN, U, V, W, self._budget())

    # ------------------------------------------------------------------
    def recommend_partitions(self, V: DataRegion,
                             target_level: str | None = None) -> int:
        """Smallest partition count that makes each per-partition hash
        table cache-resident (the paper's partitioned-hash-join design
        rule), bounded by the number of cache lines so partitioning
        itself stays cheap (Figure 7d's constraint).

        Sized from the capacity-rounded table the engine actually
        allocates (one shared :func:`~repro.core.hash_capacity` policy),
        not the abstract one-entry-per-item region."""
        levels = self.hierarchy.levels
        level = levels[-1] if target_level is None else self.hierarchy.level(target_level)
        table_bytes = hash_table_region(
            V, max_load=DEFAULT_HASH_MAX_LOAD).size
        m = spill_partition_count(table_bytes, level.capacity)
        max_m = max(1, min(lvl.num_lines for lvl in self.hierarchy.all_levels))
        return min(m, max_m)

    def _grace_partitions(self, U: DataRegion, V: DataRegion) -> int | None:
        """The one admissibility rule for the hash variants: ``None``
        while the build table on ``V`` fits the budget (the in-memory
        variants are admissible), else the grace fan-out that replaces
        them (``1``: the clamped inputs cannot be partitioned)."""
        table_bytes = hash_table_region(
            V, max_load=DEFAULT_HASH_MAX_LOAD).size
        if not self._exceeds_budget(table_bytes):
            return None
        return grace_partition_count(U, V, self.memory_budget)

    def candidate_specs(self, U: DataRegion, V: DataRegion,
                        include_nested_loop: bool = False) -> list[JoinSpec]:
        """The implementation candidates a plan enumerator should try
        for these operands, with parameters (partition count) injected.
        Partitioning is offered only when the un-partitioned hash table
        would not be cache-resident (``m > 1``).

        With a memory budget set and the build table exceeding it, the
        in-memory hash variants are inadmissible (the engine cannot
        hold the table): the grace hash join replaces them, its
        fan-out injected from the shared spill policy.  Merge join
        stays admissible — its merge phase streams; the budget applies
        to any sort-ahead through the sort advisor instead."""
        specs = [JoinSpec(MERGE_JOIN.name)]
        m = self._grace_partitions(U, V)
        if m is None:
            specs.append(JoinSpec(HASH_JOIN.name))
            m = self.recommend_partitions(V)
            if m > 1:
                specs.append(JoinSpec(PARTITIONED_HASH_JOIN.name,
                                      partitions=m))
        elif m > 1:
            specs.append(JoinSpec(GRACE_HASH_JOIN.name, partitions=m))
        if include_nested_loop:
            specs.append(JoinSpec(NESTED_LOOP_JOIN.name))
        return specs

    def rank(self, U: DataRegion, V: DataRegion, W: DataRegion,
             include_nested_loop: bool = False) -> list[OperatorChoice]:
        """All admissible implementations, cheapest first (the choice
        set mirrors :meth:`candidate_specs`, except that the
        partitioned join is scored even when its recommended fan-out
        is 1)."""
        choices = [self.merge_join_choice(U, V, W)]
        m = self._grace_partitions(U, V)
        if m is None:
            choices += [self.hash_join_choice(U, V, W),
                        self.partitioned_hash_join_choice(U, V, W)]
        elif m > 1:
            choices.append(self.grace_hash_join_choice(U, V, W))
        if include_nested_loop:
            choices.append(self.nested_loop_join_choice(U, V, W))
        return sorted(choices, key=lambda c: c.total_ns)

    def best(self, U: DataRegion, V: DataRegion, W: DataRegion,
             include_nested_loop: bool = False) -> OperatorChoice:
        """The cheapest implementation."""
        return self.rank(U, V, W, include_nested_loop)[0]


class SortAdvisor(OperatorAdvisor):
    """Scores sorting (in-place quick-sort, or external merge sort once
    the input exceeds the memory budget) and supplies the cache-pruning
    bound the plan layer injects into quick-sort patterns."""

    operator = "sort"

    def stop_bytes(self) -> int:
        """Where quick-sort patterns stop recursing: the smallest cache
        capacity.  An approximation that lowers the estimate — deeper
        passes fit that cache but still miss on their ``⊙`` half share
        of it (see :func:`~repro.core.quick_sort_pattern`)."""
        return self._min_cache_bytes()

    def needs_external(self, U: DataRegion) -> bool:
        """Whether sorting ``U`` in place exceeds the memory budget
        (quick-sort's working set is the whole array), forcing the
        external merge sort."""
        return self._exceeds_budget(U.size)

    def quick_sort_choice(self, U: DataRegion) -> OperatorChoice:
        return self._choice(QUICK_SORT, U, self.stop_bytes())

    def external_sort_choice(self, U: DataRegion) -> OperatorChoice:
        """External merge sort under the advisor's budget (which must
        be set)."""
        W = DataRegion(f"sort({U.name})", n=U.n, w=U.w)
        return self._choice(EXTERNAL_MERGE_SORT, U, W, self._budget(),
                            self.stop_bytes())

    def rank(self, U: DataRegion) -> list[OperatorChoice]:
        if self.needs_external(U):
            return [self.external_sort_choice(U)]
        return [self.quick_sort_choice(U)]

    def best(self, U: DataRegion) -> OperatorChoice:
        return self.rank(U)[0]


class AggregateAdvisor(OperatorAdvisor):
    """Scores aggregation implementations (hash vs. sort-based)."""

    operator = "aggregate"

    def _output_region(self, groups: int) -> DataRegion:
        return DataRegion("agg", n=max(1, groups), w=16)

    def hash_choice(self, U: DataRegion, groups: int) -> OperatorChoice:
        return self._choice(HASH_AGGREGATE, U, self._output_region(groups),
                            groups)

    def sort_choice(self, U: DataRegion, groups: int) -> OperatorChoice:
        return self._choice(SORT_AGGREGATE, U, self._output_region(groups),
                            self._min_cache_bytes())

    def spilling_choice(self, U: DataRegion, groups: int) -> OperatorChoice:
        """The partitioned (spilling) hash aggregate under the
        advisor's budget (which must be set)."""
        return self._choice(SPILLING_HASH_AGGREGATE, U,
                            self._output_region(groups), groups,
                            self._budget())

    def _admissibility(self, U: DataRegion | None, groups: int | None,
                       composite_input: bool) -> tuple[bool, bool]:
        """The one admissibility rule, as (the hash aggregate must
        spill, the sort aggregate is admissible): a group table beyond
        the budget makes the in-memory hash aggregate inadmissible;
        sort-based aggregation groups on the raw stored values, so it
        is not applicable to composite (join-pair) inputs, and it is
        inadmissible once the (materialized) input it sorts in place
        exceeds the budget.  An unknown ``groups``/``U`` is taken to
        fit."""
        spills = groups is not None and self._exceeds_budget(
            group_table_region(groups).size)
        sortable = not composite_input and not (
            U is not None and self._exceeds_budget(U.size))
        return spills, sortable

    def candidate_specs(self, composite_input: bool = False,
                        U: DataRegion | None = None,
                        groups: int | None = None) -> list[str]:
        """Implementation names to try (see :meth:`_admissibility`)."""
        spills, sortable = self._admissibility(U, groups, composite_input)
        specs = [(SPILLING_HASH_AGGREGATE if spills else HASH_AGGREGATE).name]
        if sortable:
            specs.append(SORT_AGGREGATE.name)
        return specs

    def rank(self, U: DataRegion, groups: int,
             composite_input: bool = False) -> list[OperatorChoice]:
        """All admissible implementations, cheapest first."""
        spills, sortable = self._admissibility(U, groups, composite_input)
        choices = [self.spilling_choice(U, groups) if spills
                   else self.hash_choice(U, groups)]
        if sortable:
            choices.append(self.sort_choice(U, groups))
        return sorted(choices, key=lambda c: c.total_ns)

    def best(self, U: DataRegion, groups: int,
             composite_input: bool = False) -> OperatorChoice:
        return self.rank(U, groups, composite_input)[0]

