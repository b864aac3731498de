"""Physical plan operators with pipeline-aware pattern composition.

A physical plan is a tree of operator nodes.  Each node knows

* how to **execute** against the engine (producing real columns and a
  real access trace in the simulator), and
* which **catalog entry** (:class:`repro.core.Algorithm`) describes it,
  and with which operands — the regions of its inputs and output plus
  its parameters.  The node's access pattern, its phases and its
  Eq. 6.1 CPU cycles are all read from that entry; no formula is
  restated here, so a node and the advisor scoring the same algorithm
  on bare regions cannot disagree.

Composition follows the paper's Section 3.3 operators: a *materialized*
edge (the consumer starts after the producer finished) combines the two
patterns with sequential execution ``⊕``; a *pipelined* edge (the
consumer processes items while the producer emits them) combines them
with concurrent execution ``⊙``.  Whether an edge pipelines is derived
from two declared traits:

* :attr:`PlanNode.is_pipelined` — the producer emits output items
  incrementally (a selection does; a sort only finishes all at once);
* :meth:`PlanNode.pipelined_inputs` — the consumer drains each input as
  a stream (a merge join does; a sort needs its input materialized).

Multi-phase operators (hash join: build ⊕ probe; aggregation:
consume ⊕ emit) pipeline each input edge into the *phase* the catalog
says drains it: a streamed inner input overlaps the build, a streamed
outer input overlaps the probe, and the output streams with the probe
only.  One :meth:`PlanNode.compose` implements that scheme for every
operator.

Cardinalities come from the logical cost component, which the paper
assumes to be a perfect oracle; nodes take explicit selectivity/
cardinality hints for the same effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

from ..core.algorithms import (
    DEFAULT_HASH_MAX_LOAD,
    EXTERNAL_MERGE_SORT,
    GRACE_HASH_JOIN,
    HASH_AGGREGATE,
    HASH_JOIN,
    MERGE_JOIN,
    NESTED_LOOP_JOIN,
    PARTITIONED_HASH_JOIN,
    PROJECT,
    QUICK_SORT,
    SELECT,
    SORT_AGGREGATE,
    SPILLING_HASH_AGGREGATE,
    Algorithm,
    grace_partition_count,
    group_table_region,
    hash_table_region,
    spill_run_count,
    spilling_aggregate_partition_count,
)
from ..core.cost import CostEstimate, CostModel
from ..core.patterns import Conc, Pattern, STrav, conc, seq
from ..core.regions import DataRegion
from ..db.aggregate import hash_aggregate, sort_aggregate
from ..db.column import Column
from ..db.context import Database
from ..db.join import OUTPUT_WIDTH, hash_join, merge_join, nested_loop_join
from ..db.partition import join_partitions, partition
from ..db.scan import project_node, select
from ..db.sort import quick_sort
from ..db.spill import (
    GraceJoinResult,
    external_merge_sort,
    grace_hash_join,
    spilling_hash_aggregate,
)

__all__ = [
    "PlanNode",
    "ScanNode",
    "SelectNode",
    "ProjectNode",
    "SortNode",
    "ExternalSortNode",
    "MergeJoinNode",
    "HashJoinNode",
    "NestedLoopJoinNode",
    "PartitionedHashJoinNode",
    "GraceHashJoinNode",
    "AggregateNode",
    "SortAggregateNode",
    "SpillingAggregateNode",
    "QueryPlan",
    "plan_signature",
]


def _merge_stream(stream: Pattern | None, phase: Pattern | None,
                  shared: DataRegion | None) -> Pattern | None:
    """``⊙``-merge a pipelined producer's ``stream`` into the consumer
    ``phase``, coalescing the one co-moving cursor pair.

    The producer's output cursor and the consumer's input cursor sweep
    the *same* intermediate region (``shared``) in lock-step — the
    consumer touches each line while the producer's write has it
    resident — so the pair contributes the misses and footprint of a
    single traversal: exactly one duplicate of one equal
    :class:`~repro.core.STrav` pair over ``shared`` is dropped.

    Dropping requires an actual producer cursor: coalescing happens only
    when the stream itself carries a sequential traversal of ``shared``,
    and removes exactly one equal occurrence beyond it.  It is per
    pipelined edge and region-targeted, never generic value-equality
    over the whole ``⊙``: a self-join's two independent cursors over one
    region (a bare-scan self-join has no stream at all), or two
    different selections of the same base column, keep all their
    cursors.
    """
    if stream is None or phase is None or shared is None:
        return conc(stream, phase)
    stream_parts = stream.parts if isinstance(stream, Conc) else (stream,)
    producer = next(
        (p for p in stream_parts
         if isinstance(p, STrav) and p.region == shared), None)
    merged = conc(stream, phase)
    if producer is None or not isinstance(merged, Conc):
        return merged
    parts = list(merged.parts)
    matches = [i for i, p in enumerate(parts) if p == producer]
    if len(matches) >= 2:
        del parts[matches[-1]]
    if len(parts) == 1:
        return parts[0]
    return Conc(parts)


class PlanNode:
    """Base class of physical plan operators.

    A concrete operator declares its constant traits as class
    attributes and supplies :meth:`output_region`, :meth:`_operands`
    and :meth:`_run`; everything priced is read from its catalog entry.
    """

    #: The catalog entry describing this operator's data access and CPU
    #: work; ``None`` for nodes that perform no access of their own.
    algorithm: Algorithm | None = None
    #: Whether this operator emits output items incrementally while
    #: consuming input (so a downstream streaming consumer can overlap
    #: with it, ``⊙``).
    is_pipelined = False
    #: Per child: whether this operator drains that input as a stream
    #: (rather than requiring it materialized first) — the value of
    #: :meth:`pipelined_inputs`.
    _streamed: tuple[bool, ...] = ()
    #: Whether the output is ordered by join/sort key (for joins: the
    #: key order of the would-be projected key column).
    produces_sorted_output = False
    #: Whether output values are (outer oid, inner oid) pairs (join
    #: results) rather than plain keys.
    produces_pairs = False
    #: Whether the planner must order the inputs before this operator.
    needs_sorted_inputs = False
    #: Whether this operator runs an out-of-core variant (its working
    #: structure exceeded the memory budget); surfaced by
    #: :meth:`QueryPlan.explain`.
    spills = False
    #: This operator's name in :func:`plan_signature` (``None``: the
    #: class name).
    short: str | None = None

    def output_region(self) -> DataRegion:
        """The (oracle-estimated) region this node produces."""
        raise NotImplementedError

    def _operands(self) -> tuple:
        """What :attr:`algorithm` is evaluated on: input region(s),
        output region, parameters."""
        raise NotImplementedError

    def _phases(self) -> tuple[Pattern | None, ...]:
        if self.algorithm is None:
            return (None,)
        return self.algorithm.phases(*self._operands())

    def pattern(self) -> Pattern | None:
        """This node's own data access pattern (excluding children).
        ``None`` for nodes that perform no access of their own."""
        return seq(*self._phases())

    def cpu_cycles(self) -> float:
        """Calibrated pure-CPU cycles of this operator alone (Eq. 6.1)."""
        if self.algorithm is None:
            return 0.0
        return self.algorithm.cycles(*self._operands())

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def pipelined_inputs(self) -> tuple[bool, ...]:
        """Per child: whether this operator drains that input as a
        stream (rather than requiring it materialized first)."""
        return self._streamed

    def execute(self, db: Database) -> Column:
        """Run this operator (children included) against ``db``.

        When the database's operator probe is active
        (:meth:`Database.operator_measurement
        <repro.db.Database.operator_measurement>`), the run is scoped
        in simulator snapshots and its inclusive counter delta is
        reported — the substrate of per-operator measured attribution
        (:class:`repro.query.MeasuredResult`).  The operator work
        itself lives in :meth:`_run`."""
        probe = db._operator_probe
        if probe is None:
            return self._run(db)
        before = db.mem.snapshot()
        out = self._run(db)
        probe.append((self, db.mem.snapshot() - before))
        return out

    def _run(self, db: Database) -> Column:
        """The operator's work (subclass hook; call :meth:`execute`)."""
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__

    def signature_params(self) -> str:
        """What :func:`plan_signature` brackets after :attr:`short`
        (``""``: no bracket)."""
        return ""

    def recover_key(self, row: int, value) -> int:
        """The join key of an output item (pair-producing sub-plans
        only; valid after :meth:`execute`).

        Recovery is *value-based* — derived from ``value``, not from
        ``row`` — so it stays correct through operators that filter or
        reorder rows (a selection or sort above a join delegates here
        with its own row numbers but unchanged values)."""
        raise NotImplementedError(f"{type(self).__name__} has no join keys")

    def walk(self) -> Iterator["PlanNode"]:
        """All nodes of this sub-plan, post-order."""
        for child in self.children():
            yield from child.walk()
        yield self

    # -- pattern composition -------------------------------------------
    def compose(self) -> tuple[Pattern | None, Pattern | None]:
        """This sub-plan's pattern, split as ``(prefix, stream)``.

        ``prefix`` must complete before the first output item appears;
        ``stream`` is the work that runs while output streams (``None``
        for blocking operators).

        The operator's phases run in order, each fed by the children
        its catalog entry names (a single phase by all of them): a
        child streaming into a phase that drains it contributes its
        prefix before the phase and its stream ``⊙``-merged into it;
        any other child completes as a whole before the phase.  The
        last phase is the stream iff the operator pipelines.
        """
        children, streamed = self.children(), self.pipelined_inputs()
        phases = self._phases()
        feeds = (self.algorithm.feeds if len(phases) > 1
                 else (range(len(children)),))
        parts: list[Pattern | None] = []
        for phase, feed in zip(phases, feeds, strict=True):
            for i in feed:
                child = children[i]
                c_prefix, c_stream = child.compose()
                if streamed[i] and child.is_pipelined:
                    parts.append(c_prefix)
                    phase = _merge_stream(c_stream, phase,
                                          child.output_region())
                else:
                    parts.append(seq(c_prefix, c_stream))
            parts.append(phase)
        if self.is_pipelined:
            return seq(*parts[:-1]), parts[-1]
        return seq(*parts), None


def _check_budget(memory_budget: int) -> None:
    if memory_budget < 1:
        raise ValueError("memory_budget must be positive")


@dataclass
class ScanNode(PlanNode):
    """A base-table column (no access of its own: the scan is folded
    into the consuming operator's sequential input sweep, so a bare scan
    costs nothing extra).  ``sorted`` declares an existing physical
    order.  A region-only scan (``column=None``) supports model-only
    planning and cannot execute."""

    column: Column | None = None
    region: DataRegion | None = None
    sorted: bool = False

    is_pipelined = True

    def __post_init__(self) -> None:
        if (self.column is None) == (self.region is None):
            raise ValueError("a ScanNode needs exactly one of column/region")

    def output_region(self) -> DataRegion:
        return self.column.region() if self.column is not None else self.region

    @property
    def produces_sorted_output(self) -> bool:
        return self.sorted

    def _run(self, db: Database) -> Column:
        if self.column is None:
            raise ValueError(
                f"scan of bare region {self.region.name} is model-only"
            )
        return self.column

    def label(self) -> str:
        return f"scan({self.output_region().name})"

    @property
    def short(self) -> str:
        return self.output_region().name


class _UnaryNode(PlanNode):
    """Shared behaviour of the one-input operators."""

    child: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


class _RowPreservingNode(_UnaryNode):
    """Unary operators that filter or reorder rows but keep their
    values, so join-pair outputs (and their key recovery) pass
    through."""

    @property
    def produces_pairs(self) -> bool:
        return self.child.produces_pairs

    def recover_key(self, row: int, value) -> int:
        return self.child.recover_key(row, value)


@dataclass
class SelectNode(_RowPreservingNode):
    """Filter; ``selectivity`` is the oracle's output fraction."""

    child: PlanNode
    predicate: Callable[[int], bool]
    selectivity: float = 0.5

    algorithm = SELECT
    short = "σ"
    is_pipelined = True
    _streamed = (True,)

    def __post_init__(self) -> None:
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError("selectivity must be in (0, 1]")

    def _operands(self) -> tuple:
        src = self.child.output_region()
        n = max(1, int(src.n * self.selectivity))
        return src, DataRegion(f"σ({src.name})", n=n, w=src.w)

    def output_region(self) -> DataRegion:
        return self._operands()[1]

    @property
    def produces_sorted_output(self) -> bool:
        return self.child.produces_sorted_output

    def _run(self, db: Database) -> Column:
        source = self.child.execute(db)
        return select(db, source, self.predicate,
                      output_name=self.output_region().name)

    def label(self) -> str:
        return f"select(sel={self.selectivity})"


@dataclass
class ProjectNode(_UnaryNode):
    """Narrow a wide intermediate to its join-key column.

    The optimizer inserts this between two joins: join results store
    (outer oid, inner oid) pairs, and the next join needs a plain key
    column to sort, hash or merge on.  Only the key bytes of each input
    item are read (``u = width``), matching the paper's projection
    pattern ``s_trav+(U, u) ⊙ s_trav+(W)``.
    """

    child: PlanNode
    width: int = 8

    algorithm = PROJECT
    short = "k"
    is_pipelined = True
    _streamed = (True,)

    def _operands(self) -> tuple:
        src = self.child.output_region()
        return (src, DataRegion(f"k({src.name})", n=src.n, w=self.width),
                min(self.width, src.w))

    def output_region(self) -> DataRegion:
        return self._operands()[1]

    @property
    def produces_sorted_output(self) -> bool:
        return self.child.produces_sorted_output

    def _run(self, db: Database) -> Column:
        source = self.child.execute(db)
        recover = self.child.recover_key if self.child.produces_pairs else None
        return project_node(db, source, self.output_region().name,
                            self.width, min(self.width, source.width),
                            recover)

    def label(self) -> str:
        return "project(key)"


class _SortingNode(_RowPreservingNode):
    """Shared behaviour of the two sorts: the input is materialized,
    the output is the same items in key order."""

    produces_sorted_output = True
    _streamed = (False,)

    def output_region(self) -> DataRegion:
        src = self.child.output_region()
        return DataRegion(f"sort({src.name})", n=src.n, w=src.w)


@dataclass
class SortNode(_SortingNode):
    """In-place quick-sort of the child's (materialized) output."""

    child: PlanNode
    stop_bytes: int | None = None

    algorithm = QUICK_SORT
    short = "sort"

    def _operands(self) -> tuple:
        return self.child.output_region(), self.stop_bytes

    def _run(self, db: Database) -> Column:
        column = self.child.execute(db)
        quick_sort(db, column)
        return column

    def label(self) -> str:
        return "sort"


@dataclass
class ExternalSortNode(_SortingNode):
    """External merge sort under a sort-area budget: quick-sort
    budget-sized runs in place, then merge the sorted runs into a fresh
    output column with one sequential cursor per run (the classic
    out-of-core sort; its I/O stays sequential, which is why sort-based
    plans win once hash tables spill to random page access)."""

    child: PlanNode
    memory_budget: int = 0
    stop_bytes: int | None = None

    algorithm = EXTERNAL_MERGE_SORT
    short = "xsort"

    def __post_init__(self) -> None:
        _check_budget(self.memory_budget)

    def runs(self) -> int:
        return spill_run_count(self.child.output_region(),
                               self.memory_budget)

    def _operands(self) -> tuple:
        return (self.child.output_region(), self.output_region(),
                self.memory_budget, self.stop_bytes)

    @property
    def spills(self) -> bool:
        return self.runs() > 1

    def _run(self, db: Database) -> Column:
        column = self.child.execute(db)
        return external_merge_sort(db, column, self.memory_budget,
                                   output_name=self.output_region().name)

    def label(self) -> str:
        return f"external_sort(runs={self.runs()}, budget={self.memory_budget})"

    def signature_params(self) -> str:
        return f"r={self.runs()}"


class _JoinNode(PlanNode):
    """Shared behaviour of the binary join operators.

    Output values are (index, inner oid) pairs whose first component
    indexes ``_keys`` — the join-key table :meth:`_run` leaves behind —
    which keeps key recovery value-based (correct under filtering or
    reordering above the join)."""

    left: PlanNode
    right: PlanNode
    match_fraction: float

    produces_pairs = True
    _streamed = (True, True)

    def __post_init__(self) -> None:
        if not 0.0 < self.match_fraction <= 1.0:
            raise ValueError("match_fraction must be in (0, 1]")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def _operands(self) -> tuple:
        l, r = self.left.output_region(), self.right.output_region()
        n = max(1, int(min(l.n, r.n) * self.match_fraction))
        return l, r, DataRegion(f"({l.name}⋈{r.name})", n=n, w=OUTPUT_WIDTH)

    def output_region(self) -> DataRegion:
        return self._operands()[2]

    def recover_key(self, row: int, value) -> int:
        keys = getattr(self, "_keys", None)
        if keys is None:
            raise RuntimeError(
                f"{type(self).__name__}.recover_key needs the join to have "
                "executed first"
            )
        return keys[value[0]]

    def _run(self, db: Database) -> Column:
        """The unpartitioned joins: :attr:`_kernel` over both executed
        inputs.  Those kernels emit (outer row, inner oid) pairs, so
        the outer values are the key table."""
        left = self.left.execute(db)
        right = self.right.execute(db)
        self._keys = left.values
        return self._kernel(db, left, right,
                            output_name=self.output_region().name,
                            output_capacity=max(left.n, right.n, 1))

    def _concatenate(self, db: Database, outputs, outer_clusters) -> Column:
        """One column over the per-cluster join ``outputs``, its pairs
        re-indexed to (global output row, local inner oid): the
        cluster-local outer oid is ambiguous once clusters are
        concatenated, and a global first component keeps key recovery
        value-based.  The cluster outputs already live in simulated
        memory (the ``W_j`` regions of the pattern); the combined column
        is a zero-copy view for the consumer, so its creation is not
        measured."""
        values: list = []
        keys: list[int] = []
        for out_col, outer_cluster in zip(outputs, outer_clusters):
            for pair in out_col.values:
                keys.append(outer_cluster.values[pair[0]])
                values.append((len(values), pair[1]))
        self._keys = keys
        return db.create_column(self.output_region().name, values,
                                width=OUTPUT_WIDTH)


@dataclass
class MergeJoinNode(_JoinNode):
    """Merge join; both inputs must already be sorted."""

    left: PlanNode
    right: PlanNode
    match_fraction: float = 1.0

    algorithm = MERGE_JOIN
    short = "mj"
    is_pipelined = True
    produces_sorted_output = True
    needs_sorted_inputs = True
    _kernel = staticmethod(merge_join)

    def label(self) -> str:
        return "merge_join"


@dataclass
class HashJoinNode(_JoinNode):
    """Hash join (builds on the right/inner input).

    Two phases: *build* drains the inner input (streamed if the inner
    child pipelines) into the hash table; *probe* drains the outer input
    and streams the output.  Pipelined composition overlaps each input
    with its phase only — the probe never starts before the build ends.
    """

    left: PlanNode
    right: PlanNode
    match_fraction: float = 1.0

    algorithm = HASH_JOIN
    short = "hj"
    is_pipelined = True

    def _hash_region(self) -> DataRegion:
        return hash_table_region(self.right.output_region(),
                                 max_load=DEFAULT_HASH_MAX_LOAD)

    @property
    def produces_sorted_output(self) -> bool:
        # Output follows the outer (probe) order.
        return self.left.produces_sorted_output

    @staticmethod
    def _kernel(db: Database, left: Column, right: Column,
                **output) -> Column:
        return hash_join(db, left, right, **output)[0]

    def label(self) -> str:
        return "hash_join"


@dataclass
class NestedLoopJoinNode(_JoinNode):
    """Nested-loop join: a full inner traversal per outer item.  The
    inner input must be materialized (it is rescanned)."""

    left: PlanNode
    right: PlanNode
    match_fraction: float = 1.0

    algorithm = NESTED_LOOP_JOIN
    short = "nlj"
    is_pipelined = True
    _streamed = (True, False)
    _kernel = staticmethod(nested_loop_join)

    @property
    def produces_sorted_output(self) -> bool:
        return self.left.produces_sorted_output

    def label(self) -> str:
        return "nested_loop_join"


@dataclass
class PartitionedHashJoinNode(_JoinNode):
    """Partition both inputs into ``partitions`` clusters, then hash-join
    matching cluster pairs (paper Section 6.2, Figure 7e).  The partition
    count is injected by the optimizer (smallest count making each
    per-cluster hash table cache-resident).

    Each partition pass streams its input; the join phase starts only
    after both passes finished, so the node itself blocks."""

    left: PlanNode
    right: PlanNode
    match_fraction: float = 1.0
    partitions: int = 2

    algorithm = PARTITIONED_HASH_JOIN
    short = "phj"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.partitions < 2:
            raise ValueError("partitioned hash join needs >= 2 partitions "
                             "(use HashJoinNode for m = 1)")

    def _operands(self) -> tuple:
        U, V, W = super()._operands()
        return U, V, W, max(1, min(self.partitions, U.n, V.n, W.n))

    def _effective_partitions(self) -> int:
        return self._operands()[3]

    def _run(self, db: Database) -> Column:
        left = self.left.execute(db)
        right = self.right.execute(db)
        # The cluster count the pattern was priced with, re-clamped only
        # by the actual input sizes (partition() needs m <= n).
        m = max(1, min(self._effective_partitions(), left.n, right.n))
        left_parts = partition(db, left, m)
        right_parts = partition(db, right, m)
        outputs, _ = join_partitions(
            db, left_parts, right_parts,
            output_name=self.output_region().name,
        )
        return self._concatenate(db, outputs, left_parts.clusters)

    def label(self) -> str:
        return f"partitioned_hash_join(m={self.partitions})"

    def signature_params(self) -> str:
        return f"m={self.partitions}"


@dataclass
class GraceHashJoinNode(_JoinNode):
    """Grace (spilling partitioned) hash join: partition both inputs
    until each per-partition hash table fits ``memory_budget``, then
    hash-join matching partition pairs.  The in-memory
    :class:`PartitionedHashJoinNode` picks its fan-out to make tables
    *cache*-resident; this node picks it to make them fit the working
    memory the engine is allowed at all — the paper's Section 7
    unification makes the two the same decision at different levels of
    the hierarchy.  Blocks like its in-memory twin, also when the table
    fits and the plain hash join runs as its single phase."""

    left: PlanNode
    right: PlanNode
    match_fraction: float = 1.0
    memory_budget: int = 0

    algorithm = GRACE_HASH_JOIN
    short = "ghj"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_budget(self.memory_budget)

    def effective_partitions(self) -> int:
        U, V, _, memory_budget = self._operands()
        return grace_partition_count(U, V, memory_budget)

    @property
    def spills(self) -> bool:
        return self.effective_partitions() > 1

    def _operands(self) -> tuple:
        return (*super()._operands(), self.memory_budget)

    def _run(self, db: Database) -> Column:
        left = self.left.execute(db)
        right = self.right.execute(db)
        result = grace_hash_join(db, left, right, self.memory_budget,
                                 output_name=self.output_region().name)
        if not isinstance(result, GraceJoinResult):
            # No spill: the plain hash join ran; its pairs are
            # (outer row, inner oid), so the outer values are the keys.
            self._keys = left.values
            return result[0]
        return self._concatenate(db, result.outputs,
                                 result.outer_parts.clusters)

    def label(self) -> str:
        return (f"grace_hash_join(m={self.effective_partitions()}, "
                f"budget={self.memory_budget})")

    def signature_params(self) -> str:
        return f"m={self.effective_partitions()}"


class _GroupingNode(_UnaryNode):
    """Shared behaviour of the group-count operators; ``groups`` is the
    oracle's group count."""

    groups: int

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ValueError("groups must be positive")

    def output_region(self) -> DataRegion:
        return DataRegion("agg", n=max(1, self.groups), w=16)


@dataclass
class AggregateNode(_GroupingNode):
    """Hash-based group-count.  ``key_of`` extracts the grouping key
    from a stored value (join outputs store (outer oid, inner oid)
    pairs).

    Two phases: *consume* drains the input (streamed if the child
    pipelines), *emit* sweeps the group table — so only the consume
    phase ``⊙``-overlaps a pipelined producer.
    """

    child: PlanNode
    groups: int = 64
    key_of: Callable | None = None

    algorithm = HASH_AGGREGATE
    short = "agg"
    _streamed = (True,)

    def _group_region(self) -> DataRegion:
        return group_table_region(self.groups)

    def _operands(self) -> tuple:
        return self.child.output_region(), self.output_region(), self.groups

    def _run(self, db: Database) -> Column:
        source = self.child.execute(db)
        return hash_aggregate(db, source, groups_hint=self.groups,
                              key_of=self.key_of)

    def label(self) -> str:
        return f"aggregate(groups={self.groups})"


@dataclass
class SortAggregateNode(_GroupingNode):
    """Sort-based group-count: quick-sort the (materialized) input in
    place, then one sequential grouping pass.  Only applicable when the
    raw values are the grouping keys (no ``key_of`` extraction)."""

    child: PlanNode
    groups: int = 64
    stop_bytes: int | None = None

    algorithm = SORT_AGGREGATE
    short = "sort_agg"
    produces_sorted_output = True
    _streamed = (False,)

    def _operands(self) -> tuple:
        return (self.child.output_region(), self.output_region(),
                self.stop_bytes)

    def _run(self, db: Database) -> Column:
        source = self.child.execute(db)
        return sort_aggregate(db, source)

    def label(self) -> str:
        return f"sort_aggregate(groups={self.groups})"


@dataclass
class SpillingAggregateNode(_GroupingNode):
    """Hash-based group-count under a group-table budget: partition the
    input by (extracted) grouping key until each per-partition group
    table fits ``memory_budget``, then hash-aggregate every partition.
    A key meets all its duplicates inside one partition, so the
    concatenated per-partition results are the exact group counts.

    Two phases like :class:`AggregateNode`: the *partition* pass drains
    the input (streamed if the child pipelines); the per-partition
    aggregates run after it."""

    child: PlanNode
    groups: int = 64
    memory_budget: int = 0
    key_of: Callable | None = None

    algorithm = SPILLING_HASH_AGGREGATE
    short = "spill_agg"
    _streamed = (True,)

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_budget(self.memory_budget)

    def _operands(self) -> tuple:
        return (self.child.output_region(), self.output_region(),
                self.groups, self.memory_budget)

    def effective_partitions(self) -> int:
        """The spill fan-out, without building the phase patterns."""
        return spilling_aggregate_partition_count(*self._operands())

    @property
    def spills(self) -> bool:
        return self.effective_partitions() > 1

    def _run(self, db: Database) -> Column:
        source = self.child.execute(db)
        return spilling_hash_aggregate(db, source, self.memory_budget,
                                       groups_hint=self.groups,
                                       key_of=self.key_of)

    def label(self) -> str:
        return (f"spilling_aggregate(groups={self.groups}, "
                f"budget={self.memory_budget})")


#: Advisor spec name (``JoinSpec.algorithm`` / an aggregate spec string
#: — the catalog names) → the node class implementing it.
_IMPLEMENTATIONS: dict[str, type[PlanNode]] = {
    cls.algorithm.name: cls
    for cls in (MergeJoinNode, HashJoinNode, NestedLoopJoinNode,
                PartitionedHashJoinNode, GraceHashJoinNode,
                AggregateNode, SortAggregateNode, SpillingAggregateNode)
}


def implementation(name: str, inputs: tuple[PlanNode, ...],
                   sort: Callable[[PlanNode], PlanNode],
                   **params) -> PlanNode:
    """The node implementing advisor spec ``name`` over ``inputs``.
    ``params`` is everything the planner could inject (match fraction,
    fan-out, budget, group count, …); each node class takes the ones it
    has a field for.  ``sort`` orders the inputs of an implementation
    that needs them sorted."""
    cls = _IMPLEMENTATIONS[name]
    if cls.needs_sorted_inputs:
        inputs = tuple(sort(node) for node in inputs)
    return cls(*inputs, **{key: value for key, value in params.items()
                           if key in cls.__dataclass_fields__})


def plan_signature(node: PlanNode) -> str:
    """A compact one-line rendering of a physical plan's shape: per
    node its :attr:`~PlanNode.short` name, its bracketed parameters if
    it declares any, and its children in parentheses."""
    head = node.short or type(node).__name__
    params = node.signature_params()
    if params:
        head += f"[{params}]"
    children = node.children()
    if not children:
        return head
    return f"{head}({', '.join(map(plan_signature, children))})"


class QueryPlan:
    """A physical plan with derived whole-query costs."""

    def __init__(self, root: PlanNode) -> None:
        self.root = root
        #: This plan's recorded access traces, one per (engine, address
        #: offset, execution mode), owned by
        #: :func:`repro.service.executor.record_trace`: kept beside the
        #: plan, which lives while any plan-cache entry holds it — a
        #: ranked entry of any profile, or the enumeration its machine
        #: geometry shares (:meth:`repro.session.PlanCache.enumeration`)
        #: — so the traces go when the last such entry is evicted or
        #: retired.
        self.traces: dict = {}

    @cached_property
    def signature(self) -> str:
        """The plan's :func:`plan_signature`, rendered once — plan
        trees are not mutated after construction, and a cached plan
        serves thousands of queries that all report this string."""
        return plan_signature(self.root)

    @cached_property
    def access_pattern(self) -> Pattern | None:
        """The whole plan's access pattern, derived once: pipelined
        producer/consumer edges are ``⊙``-combined, materialized edges
        ``⊕``-combined (Section 3.3).  ``None`` for an access-free plan
        (a bare scan)."""
        return seq(*self.root.compose())

    def pattern(self) -> Pattern:
        """:attr:`access_pattern`; raises for an access-free plan (a
        bare scan)."""
        if self.access_pattern is None:
            raise ValueError("the plan performs no data access (bare scan)")
        return self.access_pattern

    def cpu_cycles(self) -> float:
        """Whole-plan calibrated CPU cycles (shared Eq. 6.1 constants),
        summed once like :attr:`access_pattern`: a cached plan is priced
        by every model that admits or sweeps it."""
        return self._cpu_cycles

    @cached_property
    def _cpu_cycles(self) -> float:
        return sum(node.cpu_cycles() for node in self.root.walk())

    def estimate(self, model: CostModel,
                 cpu_ns: float | None = None) -> CostEstimate:
        """Whole-plan cost.  ``cpu_ns=None`` derives the CPU term from
        the shared per-operator calibration; pass an explicit value (or
        ``0.0`` for memory cost only) to override.  An access-free
        plan (a bare scan) costs no memory time on any level."""
        if cpu_ns is None:
            cpu_ns = model.hierarchy.nanoseconds(self.cpu_cycles())
        if self.access_pattern is None:
            return CostEstimate(levels=(), cpu_ns=cpu_ns)
        return model.estimate(self.access_pattern, cpu_ns=cpu_ns)

    def execute(self, db: Database) -> Column:
        return self.root.execute(db)

    def explanation(self, model: CostModel, signature: str | None = None,
                    cache_hit: bool | None = None) -> "Explanation":
        """This plan's typed :class:`~repro.query.Explanation`: the
        operator tree with per-node pattern notation, spill flags, and
        per-cache-level predictions (standalone and state-threaded),
        plus the pipeline-aware whole-plan totals."""
        from .observe import Explanation
        return Explanation.from_plan(self, model, signature=signature,
                                     cache_hit=cache_hit)

    def explain(self, model: CostModel, notation_width: int = 48) -> str:
        """Per-operator predicted memory cost and pattern notation,
        post-order, plus the pipeline-aware whole-plan total broken
        down per cache level (including a buffer pool, if the profile
        has one).  Spilling operators are marked ``[spill]``.

        Rendered via :meth:`explanation` — prefer that for anything
        machine-readable; this is its ``to_text()``."""
        return self.explanation(model).to_text(
            notation_width=notation_width)
