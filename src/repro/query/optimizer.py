"""Cost-driven plan enumeration: logical algebra in, physical plan out.

The optimizer closes the loop the paper motivates in its introduction:
the derived cost functions exist so that "the query optimizer [can]
choose the most suitable algorithm and/or implementation for each
operator".  Given a logical tree (:mod:`repro.query.logical`), it

* enumerates **join orders** (all binary association trees over the
  flattened n-way join — exhaustively for small queries, by dynamic
  programming over relation subsets beyond that),
* selects an **implementation per operator** by asking its three
  advisors (:mod:`repro.optimizer`: join, sort, aggregate — built from
  the planner config) which variants are admissible (merge vs. hash vs.
  partitioned hash vs. nested-loop join; hash vs. sort aggregation;
  the spilling variant wherever a working structure exceeds the
  config's memory budget),
* places **sort-ahead** operators where a merge join needs order it
  does not have, injects **partition counts** for partitioned hash
  joins, and inserts key **projections** between joins,

and ranks every candidate by :meth:`CostModel.estimate
<repro.core.CostModel.estimate>` applied to the candidate's whole-plan
access pattern — pipeline-aware (``⊙`` across pipelined edges) — plus
the shared per-operator CPU calibration.

The dynamic program keeps, per relation subset, the cheapest sub-plan
for each *interesting order* (sorted / unsorted output), pricing
sub-plans standalone; because ``⊕``-combination threads cache state
across operators, this is a (standard) heuristic relative to exhaustive
whole-plan costing, which remains available and is the default for
small queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from ..core.cost import CostEstimate, CostModel
from ..hardware.hierarchy import MemoryHierarchy
from .observe import Explanation
from ..optimizer.advisor import AggregateAdvisor, JoinAdvisor, SortAdvisor
from .logical import Aggregate, Filter, Join, LogicalOp, Relation, Sort
from .physical import (
    AggregateNode,
    ExternalSortNode,
    HashJoinNode,
    PlanNode,
    ProjectNode,
    QueryPlan,
    ScanNode,
    SelectNode,
    SortNode,
    implementation,
)

__all__ = [
    "PlannerConfig",
    "PlanCandidate",
    "PlannedQuery",
    "Optimizer",
]


#: ``optimize(method="auto")`` uses exhaustive whole-plan costing up to
#: this many base relations and the subset DP beyond.  Candidate counts
#: grow ~30x per relation (3 relations ≈ 100 plans, 4 ≈ 3000), and each
#: is costed with a full pattern derivation; ``method="exhaustive"`` is
#: the override for small inputs.
MAX_EXHAUSTIVE_RELATIONS = 3


@dataclass(frozen=True)
class PlannerConfig:
    """Enumeration knobs, checked on construction.

    The config is the planner's only input besides the machine profile:
    its frozen ``repr`` is part of every plan-cache key, so a plan never
    leaks across configs.
    """

    #: Whether nested-loop joins are enumerated too.
    include_nested_loop: bool = False
    #: Working-memory bound per operator in bytes (sort area, hash
    #: table, group table), or ``None`` for unbounded — the one budget
    #: of a plan: the enumerator's advisors decide admissibility under
    #: it and every spilling node is built with it.  With a budget,
    #: in-memory implementations whose working structures exceed it are
    #: inadmissible and the enumerator builds their spilling variants
    #: (external merge sort, grace hash join, spilling aggregate)
    #: instead.
    memory_budget: int | None = None
    #: Execution mode plans run under: ``"vectorized"`` (chunked
    #: kernels over contiguous columns with range-coalesced simulator
    #: reporting, the default) or ``"scalar"`` (the historical
    #: item-at-a-time interpreter).  Both produce identical result
    #: columns and identical simulator counters — the mode only changes
    #: real wall-clock — but it is still part of the frozen config's
    #: ``repr`` and therefore of every plan-cache key, like every other
    #: planner knob.
    execution: str = "vectorized"

    def __post_init__(self) -> None:
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValueError("memory_budget must be positive (or None)")
        if self.execution not in ("scalar", "vectorized"):
            raise ValueError(
                "execution mode must be 'scalar' or 'vectorized', "
                f"got {self.execution!r}")


@dataclass(frozen=True)
class PlanCandidate:
    """One enumerated physical plan with its predicted cost."""

    plan: QueryPlan
    estimate: CostEstimate

    @property
    def total_ns(self) -> float:
        return self.estimate.total_ns

    @property
    def memory_ns(self) -> float:
        return self.estimate.memory_ns

    @property
    def signature(self) -> str:
        return self.plan.signature


class PlannedQuery:
    """The result of an :meth:`Optimizer.optimize` call: every
    enumerated candidate, cheapest first.

    Executing candidates is not side-effect free: sort-based operators
    sort the *shared base columns* in place, and candidates share scan
    nodes, so running one plan changes the data (and access traces) the
    others would see.  To compare several candidates on one
    :class:`~repro.db.Database`, snapshot ``column.values`` before each
    run and restore afterwards (see ``examples/optimize_query.py``)."""

    def __init__(self, candidates: list[PlanCandidate]) -> None:
        if not candidates:
            raise ValueError("no candidate plans were enumerated")
        #: Every plan in enumeration order — what
        #: :meth:`Optimizer.rank` sorts again on another machine of
        #: this geometry (the sort is stable, so ties keep this order).
        self.plans = tuple(c.plan for c in candidates)
        self.candidates = sorted(candidates, key=lambda c: c.total_ns)

    @property
    def best(self) -> PlanCandidate:
        return self.candidates[0]

    @property
    def worst(self) -> PlanCandidate:
        return self.candidates[-1]

    @property
    def plan(self) -> QueryPlan:
        """The chosen (cheapest) physical plan."""
        return self.best.plan

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def explanation(self, model: CostModel,
                    cache_hit: bool | None = None) -> Explanation:
        """The chosen plan's typed :class:`~repro.query.Explanation`
        (pipeline-aware, as the plan was ranked), stamped with this
        compilation's plan signature (and, when the caller knows it,
        the compile's plan-cache provenance)."""
        return self.plan.explanation(model, signature=self.best.signature,
                                     cache_hit=cache_hit)

    def summary(self, limit: int = 8) -> str:
        """Cheapest candidates, one line each."""
        lines = [f"{len(self.candidates)} candidate plans "
                 f"(best {self.best.total_ns / 1e3:.1f} us, "
                 f"worst {self.worst.total_ns / 1e3:.1f} us):"]
        shown = self.candidates[:limit]
        for rank, cand in enumerate(shown, start=1):
            lines.append(f"  {rank:>3}. {cand.total_ns / 1e3:>12.1f} us  "
                         f"{cand.signature}")
        if len(self.candidates) > limit:
            lines.append(f"  ... {len(self.candidates) - limit} more")
        return "\n".join(lines)


class Optimizer:
    """Enumerates physical plans for a logical tree and ranks them by
    derived whole-plan cost.

    Parameters
    ----------
    hierarchy:
        Machine profile the plans are costed against.
    config:
        Enumeration knobs (:class:`PlannerConfig`).  The optimizer
        builds its join, sort and aggregate advisors from it, on
        ``config.memory_budget``; that budget is also the one every
        spilling node is built with.

    Optimizers are **re-entrant**: :meth:`optimize` touches no mutable
    instance state (enumeration memos are call-local), so one instance
    may serve several sessions — or interleaved calls — concurrently.
    Plan caching is the caller's: :meth:`cache_key` is the key a
    :class:`repro.session.PlanCache` stores :meth:`optimize`'s result
    under, and :meth:`enumeration_key` the key it keeps the enumerated
    plans under, which :meth:`rank` prices again on another machine.
    """

    def __init__(self, hierarchy: MemoryHierarchy,
                 config: PlannerConfig | None = None) -> None:
        self.hierarchy = hierarchy
        self.model = CostModel(hierarchy)
        self.config = config or PlannerConfig()
        self.fingerprint = hierarchy.fingerprint()
        self.geometry = hierarchy.geometry_key()
        budget = self.config.memory_budget
        self.join_advisor = JoinAdvisor(hierarchy, memory_budget=budget)
        self.sort_advisor = SortAdvisor(hierarchy, memory_budget=budget)
        self.aggregate_advisor = AggregateAdvisor(hierarchy,
                                                  memory_budget=budget)

    # ------------------------------------------------------------------
    def _stop_bytes(self) -> int:
        return self.sort_advisor.stop_bytes()

    def _sort_node(self, child: PlanNode) -> PlanNode:
        """The admissible sort of ``child``'s output: in-place
        quick-sort, or external merge sort once the input exceeds the
        memory budget (the sort advisor's call)."""
        if self.sort_advisor.needs_external(child.output_region()):
            return ExternalSortNode(child, self.config.memory_budget,
                                    stop_bytes=self._stop_bytes())
        return SortNode(child, stop_bytes=self._stop_bytes())

    # ------------------------------------------------------------------
    def _resolve_method(self, logical: LogicalOp, method: str) -> str:
        if method not in ("auto", "exhaustive", "dp"):
            raise ValueError(f"unknown method {method!r}")
        if method == "auto":
            n_relations = sum(
                1 for _ in _walk_logical(logical) if isinstance(_, Relation)
            )
            method = ("exhaustive"
                      if n_relations <= MAX_EXHAUSTIVE_RELATIONS else "dp")
        return method

    def cache_key(self, logical: LogicalOp,
                  method: str = "auto") -> tuple[str, str, str, str]:
        """The plan-cache key for ``logical`` under this optimizer:
        (profile fingerprint, planner config, resolved enumeration
        method, canonical logical tree).  ``"auto"`` is resolved first,
        so it shares entries with the equivalent explicit method."""
        return self.keyed(self.tree_key(logical, method))

    def tree_key(self, logical: LogicalOp,
                 method: str = "auto") -> tuple[str, str]:
        """The tree's part of :meth:`cache_key`: (resolved enumeration
        method, canonical logical tree).  It depends on the tree alone,
        not on this optimizer, so a caller that keeps the tree (and
        with it the objects its canonical key names) may keep this."""
        return (self._resolve_method(logical, method),
                logical.canonical_key())

    def keyed(self, tree_key: tuple[str, str]) -> tuple[str, str, str, str]:
        """The plan-cache key of a :meth:`tree_key` under this
        optimizer: the live profile fingerprint and planner config in
        front of it."""
        return (self.fingerprint, repr(self.config)) + tree_key

    def enumeration_key(self, tree_key: tuple[str, str]) -> tuple:
        """The key of a :meth:`tree_key`'s enumerated plans under this
        optimizer: the machine's geometry
        (:meth:`~repro.hardware.MemoryHierarchy.geometry_key`) and the
        planner config in front of it.  The exhaustive enumeration
        reads capacities, line counts and the budget, never a latency
        or the clock, so every machine of one geometry enumerates the
        same plans in the same order.  The dynamic program prunes
        sub-plans by cost, so a ``"dp"`` tree keeps the full profile
        fingerprint instead."""
        machine = (self.geometry if tree_key[0] == "exhaustive"
                   else self.fingerprint)
        return (machine, repr(self.config)) + tree_key

    def optimize(self, logical: LogicalOp,
                 method: str = "auto") -> PlannedQuery:
        """Enumerate, cost, and rank plans for ``logical``.

        ``method`` is ``"exhaustive"`` (every join order costed as a
        whole plan), ``"dp"`` (dynamic programming over relation
        subsets), or ``"auto"`` (exhaustive up to
        :data:`MAX_EXHAUSTIVE_RELATIONS` base relations)."""
        method = self._resolve_method(logical, method)
        roots = self._alternatives(logical, use_dp=(method == "dp"))
        return self.rank(QueryPlan(root) for root in roots)

    def rank(self, plans: Iterable[QueryPlan]) -> PlannedQuery:
        """Cost ``plans`` (an enumeration, in its order) on this
        machine and rank them, cheapest first — what :meth:`optimize`
        does after enumerating.  Given a :attr:`PlannedQuery.plans` of
        a machine with this one's :meth:`enumeration_key`, the result
        is this optimizer's own :meth:`optimize` of the tree: every
        candidate is costed under this model and the stable sort sees
        them in the same order."""
        return PlannedQuery([self._candidate(plan) for plan in plans])

    def _candidate(self, plan: QueryPlan) -> PlanCandidate:
        return PlanCandidate(plan=plan, estimate=plan.estimate(self.model))

    # ------------------------------------------------------------------
    def _alternatives(self, op: LogicalOp, use_dp: bool) -> list[PlanNode]:
        if isinstance(op, Relation):
            return [ScanNode(column=op.column, region=op.region,
                             sorted=op.sorted)]
        if isinstance(op, Filter):
            return [SelectNode(alt, op.predicate, op.selectivity)
                    for alt in self._alternatives(op.child, use_dp)]
        if isinstance(op, Sort):
            return [alt if alt.produces_sorted_output
                    else self._sort_node(alt)
                    for alt in self._alternatives(op.child, use_dp)]
        if isinstance(op, Aggregate):
            if op.key_of is not None and _contains_join(op.child):
                # A positional key_of reads the raw (outer oid, inner
                # oid) pairs, whose meaning depends on join order,
                # operand sides and output row order.  Any enumeration
                # freedom would change the query's *result*, so the
                # child subtree is pinned to the canonical
                # order-preserving physical form.
                return [AggregateNode(self._canonical(op.child),
                                      groups=op.groups, key_of=op.key_of)]
            out: list[PlanNode] = []
            specs = self.aggregate_advisor.candidate_specs
            params = dict(
                groups=op.groups, key_of=op.key_of,
                stop_bytes=self._stop_bytes(),
                memory_budget=self.config.memory_budget)
            for alt in self._alternatives(op.child, use_dp):
                if op.key_of is None and alt.produces_pairs:
                    # Group by the join key: narrow the pair output to
                    # its key column so the grouping is independent of
                    # the join order the enumerator picked.
                    alt = ProjectNode(alt)
                names = specs(composite_input=(alt.produces_pairs
                                               or op.key_of is not None),
                              U=alt.output_region(), groups=op.groups)
                out.extend(implementation(name, (alt,), self._sorted_input,
                                          **params)
                           for name in names)
            return out
        if isinstance(op, Join):
            leaves = self._flatten_join(op)
            if leaves is not None and len(leaves) >= 2:
                if use_dp:
                    return self._dp_join_plans(leaves)
                return self._all_join_trees(leaves)
            out = []
            for l in self._alternatives(op.left, use_dp):
                for r in self._alternatives(op.right, use_dp):
                    out.extend(self._join_impls(l, r, op.match_fraction))
            return out
        raise TypeError(f"not a logical operator: {op!r}")

    def _canonical(self, op: LogicalOp) -> PlanNode:
        """The one physical plan that mirrors ``op`` exactly and
        preserves output row order (hash joins follow their outer
        input's order; no reordering, no operand swaps, no sort-based
        implementations) — required under a positional ``key_of``.
        Spilling variants repartition rows, so the canonical plan stays
        in-memory even under a budget (positional grouping over a
        spilled join would read reshuffled pairs)."""
        if isinstance(op, Relation):
            return ScanNode(column=op.column, region=op.region,
                            sorted=op.sorted)
        if isinstance(op, Filter):
            return SelectNode(self._canonical(op.child), op.predicate,
                              op.selectivity)
        if isinstance(op, Sort):
            return self._sorted_input(self._canonical(op.child))
        if isinstance(op, Join):
            left = self._key_input(self._canonical(op.left))
            right = self._key_input(self._canonical(op.right))
            return HashJoinNode(left, right, op.match_fraction)
        if isinstance(op, Aggregate):
            child = self._canonical(op.child)
            if op.key_of is None and child.produces_pairs:
                child = ProjectNode(child)
            return AggregateNode(child, groups=op.groups, key_of=op.key_of)
        raise TypeError(f"not a logical operator: {op!r}")

    # -- join ordering --------------------------------------------------
    def _flatten_join(self, join: Join) -> list[LogicalOp] | None:
        """The inputs of the n-way join ``join`` heads, or ``None`` when
        reordering must not change the oracle's cardinalities (a join
        chain with non-unit match fractions is left in the given
        association; implementations are still chosen per operator)."""
        leaves: list[LogicalOp] = []
        fractions: list[float] = []

        def collect(op: LogicalOp) -> None:
            if isinstance(op, Join):
                fractions.append(op.match_fraction)
                collect(op.left)
                collect(op.right)
            else:
                leaves.append(op)

        collect(join)
        if all(f == 1.0 for f in fractions):
            return leaves
        return None

    def _all_join_trees(self, leaves: list[LogicalOp]) -> list[PlanNode]:
        """Every binary association tree over ``leaves`` (both operand
        orders), with every implementation per join."""
        memo: dict[frozenset, list[PlanNode]] = {}

        def build(subset: frozenset) -> list[PlanNode]:
            if subset in memo:
                return memo[subset]
            if len(subset) == 1:
                (index,) = subset
                result = self._alternatives(leaves[index], use_dp=False)
            else:
                result = []
                members = sorted(subset)
                for k in range(1, len(members)):
                    for left_ids in combinations(members, k):
                        left_set = frozenset(left_ids)
                        right_set = subset - left_set
                        for l in build(left_set):
                            for r in build(right_set):
                                result.extend(self._join_impls(l, r, 1.0))
            memo[subset] = result
            return result

        return build(frozenset(range(len(leaves))))

    def _dp_join_plans(self, leaves: list[LogicalOp]) -> list[PlanNode]:
        """Dynamic programming over relation subsets, keeping per subset
        the cheapest sub-plan for each interesting order (sorted /
        unsorted output)."""
        best: dict[frozenset, dict[bool, tuple[float, PlanNode]]] = {}

        def keep(subset: frozenset, node: PlanNode) -> None:
            cost = self._standalone_cost(node)
            slot = best.setdefault(subset, {})
            key = node.produces_sorted_output
            if key not in slot or cost < slot[key][0]:
                slot[key] = (cost, node)

        n = len(leaves)
        for index in range(n):
            subset = frozenset((index,))
            for alt in self._alternatives(leaves[index], use_dp=True):
                keep(subset, alt)
                if not alt.produces_sorted_output:
                    keep(subset, self._sort_node(alt))
        indices = frozenset(range(n))
        for size in range(2, n + 1):
            for members in combinations(range(n), size):
                subset = frozenset(members)
                for k in range(1, size):
                    for left_ids in combinations(sorted(subset), k):
                        left_set = frozenset(left_ids)
                        right_set = subset - left_set
                        if left_set not in best or right_set not in best:
                            continue
                        for _, l in best[left_set].values():
                            for _, r in best[right_set].values():
                                for node in self._join_impls(l, r, 1.0):
                                    keep(subset, node)
        return [node for _, node in best[indices].values()]

    def _standalone_cost(self, node: PlanNode) -> float:
        return QueryPlan(node).estimate(self.model).total_ns

    # -- per-join implementation selection ------------------------------
    def _key_input(self, node: PlanNode) -> PlanNode:
        """Joins consume plain key columns; narrow join-pair outputs."""
        return ProjectNode(node) if node.produces_pairs else node

    def _sorted_input(self, node: PlanNode) -> PlanNode:
        """Sort-ahead: order an input for a merge join if needed
        (external merge sort when the input exceeds the budget)."""
        if node.produces_sorted_output:
            return node
        return self._sort_node(node)

    def _join_impls(self, left: PlanNode, right: PlanNode,
                    match_fraction: float) -> list[PlanNode]:
        left = self._key_input(left)
        right = self._key_input(right)
        U, V = left.output_region(), right.output_region()
        impls: list[PlanNode] = []
        for spec in self.join_advisor.candidate_specs(
                U, V, include_nested_loop=self.config.include_nested_loop):
            m = spec.partitions
            if m is not None:
                # an injected fan-out never exceeds the input sizes, and
                # a partitioned join of fewer than two clusters is not one
                m = min(m, U.n, V.n)
                if m < 2:
                    continue
            impls.append(implementation(
                spec.algorithm, (left, right), self._sorted_input,
                match_fraction=match_fraction, partitions=m,
                memory_budget=self.config.memory_budget))
        return impls


def _walk_logical(op: LogicalOp):
    yield op
    for child in op.children():
        yield from _walk_logical(child)


def _contains_join(op: LogicalOp) -> bool:
    return any(isinstance(node, Join) for node in _walk_logical(op))
