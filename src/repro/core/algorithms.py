"""Pattern descriptions of database algorithms (paper Table 2 & Section 6.2).

Building a physical cost function for an operator "boils down to
describing the algorithm's data access in a pattern language"
(Section 7).  This module is that pattern library: factories for the
Table 2 shapes and for each operator's phases, returning the compound
patterns whose cost functions the :class:`~repro.core.cost.CostModel`
then derives automatically.

It is also the **operator catalog** (bottom of the file): one
:class:`Algorithm` entry per implementation the engine can run, holding
its ordered phases *and* its Eq. 6.1 CPU cycle count side by side.  An
operator's whole pattern is its entry's ``.pattern(...)``.  The
advisors (:mod:`repro.optimizer`) and the plan nodes
(:mod:`repro.query.physical`) both price an operator by reading its
entry, so neither restates a formula.

Conventions (matching the paper's Table 2):

* ``U`` — (left/outer) input region, ``V`` — right/inner input region,
* ``W`` — output region,
* ``H`` — hash-table region (``H.n`` entries of ``H.w`` bytes),
* ``G`` — aggregate/group table region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .cost import CostEstimate, CostModel
from .cpu import cpu_cycles, sort_depth
from .patterns import (
    RANDOM,
    UNI,
    Conc,
    Nest,
    Pattern,
    QuickSort,
    RAcc,
    RSTrav,
    RTrav,
    Seq,
    STrav,
    seq,
)
from .regions import DataRegion

__all__ = [
    "scan_pattern",
    "select_pattern",
    "project_pattern",
    "hash_table_region",
    "group_table_region",
    "hash_capacity",
    "hash_build_pattern",
    "hash_probe_pattern",
    "hash_join_pattern",
    "merge_join_pattern",
    "nested_loop_join_pattern",
    "partition_pattern",
    "partitioned_hash_join_pattern",
    "partitioned_hash_join_phases",
    "quick_sort_pattern",
    "sort_aggregate_pattern",
    "hash_aggregate_pattern",
    "hash_aggregate_phases",
    "duplicate_elimination_pattern",
    "spill_run_count",
    "spill_partition_count",
    "grace_partition_count",
    "spilling_aggregate_partition_count",
    "partition_capacity",
    "external_merge_sort_phases",
    "grace_hash_join_phases",
    "spilling_hash_aggregate_phases",
    "TABLE2",
    "Table2Row",
    "DEFAULT_HASH_MAX_LOAD",
    "Algorithm",
    "SELECT",
    "PROJECT",
    "QUICK_SORT",
    "EXTERNAL_MERGE_SORT",
    "MERGE_JOIN",
    "HASH_JOIN",
    "NESTED_LOOP_JOIN",
    "PARTITIONED_HASH_JOIN",
    "GRACE_HASH_JOIN",
    "HASH_AGGREGATE",
    "SORT_AGGREGATE",
    "SPILLING_HASH_AGGREGATE",
]

#: Default bytes per hash-table entry (key + payload/oid).
DEFAULT_HASH_ENTRY_WIDTH = 16

#: Default load-factor bound for hash structures.  The engine's
#: open-addressing tables (``db.hashtable``, ``db.aggregate``) size their
#: slot arrays to the smallest power of two keeping the load at or below
#: this bound; cost descriptions that should match those executions round
#: the same way (pass ``max_load=DEFAULT_HASH_MAX_LOAD`` to
#: :func:`hash_table_region`).
DEFAULT_HASH_MAX_LOAD = 0.5


def hash_capacity(n: int, max_load: float = DEFAULT_HASH_MAX_LOAD) -> int:
    """The engine's capacity-rounding policy for hash structures.

    The smallest power of two ``c`` with ``c * max_load >= n`` — i.e. the
    slot count that keeps the load factor at or below ``max_load``.  This
    is the single source of truth used by the simulated hash table, the
    hash aggregate's group table, and the plan nodes' hash regions.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < max_load <= 1.0:
        raise ValueError("max_load must be in (0, 1]")
    capacity = 1
    while capacity * max_load < n:
        capacity *= 2
    return capacity


# ----------------------------------------------------------------------
# Unary operators.
# ----------------------------------------------------------------------

def scan_pattern(U: DataRegion, u: int | None = None) -> Pattern:
    """Table scan: one sequential sweep over the input."""
    return STrav(U, u)


def select_pattern(U: DataRegion, W: DataRegion, u: int | None = None) -> Pattern:
    """Selection: sequential input cursor, sequential output cursor."""
    return STrav(U, u) * STrav(W)


def project_pattern(U: DataRegion, W: DataRegion, u: int | None = None) -> Pattern:
    """Projection: like selection, but reading only ``u`` bytes per item."""
    return STrav(U, u) * STrav(W)


def quick_sort_pattern(U: DataRegion, stop_bytes: int | None = None) -> Pattern:
    """In-place quick-sort (Section 6.2).

    Each partitioning pass runs two cursors concurrently towards each
    other, one over each half of the sub-table
    (``s_trav+(sub.L) ⊙ s_trav+(sub.R)``); recursion then descends
    depth-first into both halves, ``⊕``-sequencing the passes.  Recursion
    depth is ``ceil(log2 R.n)``.

    The result is one :class:`~repro.core.patterns.QuickSort` node
    holding ``(U, stop_bytes)`` — or, when ``U`` does not recurse, its
    single pass.  The node is the ``⊕`` of the passes in pre-order, and
    the cost evaluator prices it by folding the passes' misses, in that
    order, into the running total of the enclosing ``⊕``: the estimate
    equals the one-node-per-pass tree's to the bit, at O(depth) size.

    ``stop_bytes`` ends the recursion at sub-tables no larger than it
    (the planner passes the *smallest* cache capacity of the target
    machine); without a bound it runs down to two-item sub-tables.  The
    pruning is an approximation, not exact: a pruned pass over data that
    fits the smallest cache still misses on its ``⊙`` half share of it,
    so pruning *lowers* the estimate, mostly its L1 misses.  On
    ``origin2000_scaled`` at n = 1 024 (8-byte items) the unpruned sort
    prices 874 sequential / 22 random L1 misses and 20 432 ns; pruned
    at the smallest capacity, 754 / 14 and 19 280 ns.
    """
    sort = QuickSort(U, stop_bytes)
    return sort if sort.splits(U.n) else sort.first_pass()


# ----------------------------------------------------------------------
# Hash-based building blocks.
# ----------------------------------------------------------------------

def hash_table_region(V: DataRegion, max_load: float | None = None,
                      name: str | None = None) -> DataRegion:
    """The hash-table region ``H`` for an input ``V``.

    With the default ``max_load=None`` the region has one entry per item
    (the paper's abstract description).  Passing a load bound applies the
    engine's explicit capacity-rounding policy (:func:`hash_capacity`):
    slot count is the smallest power of two keeping the load at or below
    the bound, matching what ``db.SimHashTable`` actually allocates.
    """
    n = V.n if max_load is None else hash_capacity(V.n, max_load)
    return DataRegion(name=name or f"H({V.name})", n=n,
                      w=DEFAULT_HASH_ENTRY_WIDTH)


def group_table_region(groups: int) -> DataRegion:
    """The group table ``G`` a hash aggregate over ``groups`` distinct
    keys allocates (engine capacity rounding, like every hash region the
    catalog prices)."""
    return hash_table_region(
        DataRegion("G", n=max(1, groups), w=DEFAULT_HASH_ENTRY_WIDTH),
        max_load=DEFAULT_HASH_MAX_LOAD, name="G")


def hash_build_pattern(V: DataRegion, H: DataRegion) -> Pattern:
    """Hash-table build: sequential input, random writes into ``H``.

    A good hash function destroys any order, so the output cursor's hops
    are modelled as a random traversal (Section 3.2).
    """
    return STrav(V) * RTrav(H)


def hash_probe_pattern(U: DataRegion, H: DataRegion, W: DataRegion) -> Pattern:
    """Hash-table probe: sequential outer input, ``U.n`` random hits into
    ``H``, sequential output."""
    return STrav(U) * RAcc(H, r=U.n) * STrav(W)


def hash_join_pattern(U: DataRegion, V: DataRegion, W: DataRegion,
                      H: DataRegion | None = None) -> Pattern:
    """Hash join (Section 6.2)::

        hash_join(U,V,W) = s_trav(V) ⊙ r_trav(H)
                         ⊕ s_trav(U) ⊙ r_acc(U.n, H) ⊙ s_trav(W)

    builds a hash table on the inner input ``V``, then probes it with the
    outer input ``U``.
    """
    H = H or hash_table_region(V)
    return hash_build_pattern(V, H) + hash_probe_pattern(U, H, W)


# ----------------------------------------------------------------------
# Other joins.
# ----------------------------------------------------------------------

def merge_join_pattern(U: DataRegion, V: DataRegion, W: DataRegion) -> Pattern:
    """Merge join of sorted operands: three concurrent sequential sweeps
    (Section 6.2)."""
    return STrav(U) * STrav(V) * STrav(W)


def nested_loop_join_pattern(U: DataRegion, V: DataRegion, W: DataRegion) -> Pattern:
    """Nested-loop join: for every outer item, a full sequential traversal
    of the inner input (Section 3.2)."""
    return STrav(U) * RSTrav(V, r=U.n, direction=UNI) * STrav(W)


# ----------------------------------------------------------------------
# Partitioning (Section 6.2).
# ----------------------------------------------------------------------

def partition_pattern(U: DataRegion, H: DataRegion, m: int) -> Pattern:
    """Partition ``U`` into ``m`` clusters::

        partition(U,H,m) = s_trav(U) ⊙ nest(H, m, s_trav, rand)

    The input is read sequentially; the output region holds one
    sequential local cursor per cluster, picked in (hash-)random order by
    the global cursor.
    """
    return STrav(U) * Nest(H, m=m, local="s_trav", order=RANDOM)


def partitioned_hash_join_pattern(
        U_parts: tuple[DataRegion, ...],
        V_parts: tuple[DataRegion, ...],
        W_parts: tuple[DataRegion, ...],
        H_regions: tuple[DataRegion, ...] | None = None) -> Pattern:
    """Partitioned hash join: a hash join per matching cluster pair::

        part_hash_join = ⊕_{j=1..m} hash_join(U_j, V_j, W_j)

    ``H_regions`` optionally overrides the default per-pair hash-table
    regions (e.g. with the capacities an actual implementation chose).
    """
    if not (len(U_parts) == len(V_parts) == len(W_parts)):
        raise ValueError("operand partition counts differ")
    if H_regions is not None and len(H_regions) != len(U_parts):
        raise ValueError("H_regions count differs from partition count")
    joins = [
        hash_join_pattern(u, v, w, H=H_regions[j] if H_regions else None)
        for j, (u, v, w) in enumerate(zip(U_parts, V_parts, W_parts))
    ]
    return Seq.of(*joins)


def partitioned_hash_join_phases(U: DataRegion, V: DataRegion,
                                 W: DataRegion, m: int
                                 ) -> tuple[Pattern, Pattern, Pattern]:
    """The three phases of the in-memory partitioned hash join —
    (partition ``U``, partition ``V``, per-cluster joins) — with ``m``
    clusters of exactly ``n/m`` items each and one capacity-rounded hash
    table per inner cluster.  The cache-targeted twin of
    :func:`grace_hash_join_phases`."""
    PU = DataRegion(f"P({U.name})", n=U.n, w=U.w)
    PV = DataRegion(f"P({V.name})", n=V.n, w=V.w)
    V_parts = PV.split(m)
    H_regions = tuple(hash_table_region(v, max_load=DEFAULT_HASH_MAX_LOAD)
                      for v in V_parts)
    joins = partitioned_hash_join_pattern(PU.split(m), V_parts, W.split(m),
                                          H_regions=H_regions)
    return (partition_pattern(U, PU, m), partition_pattern(V, PV, m), joins)


# ----------------------------------------------------------------------
# Out-of-core (spilling) variants — paper Section 7.
#
# With the buffer pool modelled as one more cache level, operators whose
# auxiliary structure (sort area, hash table, group table) exceeds an
# explicit *memory budget* must run their disk-era variants: external
# merge sort, grace hash join, partitioned aggregation.  Their patterns
# compose from exactly the same basic vocabulary — runs are sequential
# traversals of sub-regions, spilled tables are RAcc over per-partition
# regions small enough to stay pool-resident.  A variant's whole pattern
# is its catalog entry's ``.pattern(...)``: ``EXTERNAL_MERGE_SORT``,
# ``GRACE_HASH_JOIN``, ``SPILLING_HASH_AGGREGATE``.
# ----------------------------------------------------------------------

def spill_run_count(U: DataRegion, memory_budget: int) -> int:
    """How many sorted runs external merge sort produces for ``U`` under
    ``memory_budget`` bytes of sort area: ``ceil(||U|| / M)``, clamped
    so a run holds at least one item.  ``1`` means the whole input fits
    — no spill."""
    if memory_budget < 1:
        raise ValueError("memory_budget must be positive")
    return min(U.n, max(1, math.ceil(U.size / memory_budget)))


def partition_capacity(n: int, m: int, slack_sigmas: float = 6.0) -> int:
    """Items allocated per partition buffer when splitting ``n`` items
    ``m`` ways: the expected fill ``n/m`` plus ``slack_sigmas`` binomial
    standard deviations (uniform keys make cluster sizes
    Binomial(n, 1/m)).  The single capacity policy shared by the engine
    (:func:`repro.db.partition`) and the pattern builders, so the model
    prices the buffers the engine actually allocates."""
    if m < 1:
        raise ValueError("m must be positive")
    expected = n / m
    return int(expected + slack_sigmas * math.sqrt(expected) + 8)


def spill_partition_count(table_bytes: int, memory_budget: int) -> int:
    """The spill fan-out: smallest power of two ``m`` bringing a
    ``table_bytes`` structure to at most ``memory_budget`` per
    partition.  The budget analogue of
    :meth:`~repro.optimizer.JoinAdvisor.recommend_partitions` (which
    targets a cache level instead)."""
    if memory_budget < 1:
        raise ValueError("memory_budget must be positive")
    m = 1
    while table_bytes / m > memory_budget:
        m *= 2
    return m


def grace_partition_count(U: DataRegion, V: DataRegion,
                          memory_budget: int) -> int:
    """The grace hash join's fan-out: the spill policy applied to the
    build table on ``V``, clamped by the *input* sizes only, exactly
    like the engine — a selective join's small output must not collapse
    the fan-out.  ``1`` means the table fits (no spill)."""
    H = hash_table_region(V, max_load=DEFAULT_HASH_MAX_LOAD)
    return min(spill_partition_count(H.size, memory_budget), U.n, V.n)


def spilling_aggregate_partition_count(
        U: DataRegion, W: DataRegion, groups: int,
        memory_budget: int) -> int:
    """The spilling hash aggregate's fan-out: the spill policy applied
    to the group table, clamped by the input, group and output counts.
    ``1`` means the table fits (no spill)."""
    G = group_table_region(groups)
    return min(spill_partition_count(G.size, memory_budget),
               U.n, max(1, groups), W.n)


def _output_parts(W: DataRegion, m: int) -> tuple[DataRegion, ...]:
    """``m`` per-partition output sub-regions of ``W``.  Identical to
    ``W.split(m)`` when the output has at least ``m`` items; a smaller
    output (selective join) still gets ``m`` one-item regions — the
    fan-out follows the *inputs*, never the output cardinality."""
    if m <= W.n:
        return W.split(m)
    return tuple(W.subregion(f"{W.name}[{j}]", n=1) for j in range(m))


def external_merge_sort_phases(
        U: DataRegion, W: DataRegion, memory_budget: int,
        stop_bytes: int | None = None) -> tuple[tuple[Pattern, ...], Pattern]:
    """The two phases of external merge sort, separately::

        ext_sort(U,W,M) = ⊕_{j=1..r} quick_sort(U_j) ⊕ (⊙_j s_trav+(U_j) ⊙ s_trav+(W))

    Phase 1 quick-sorts each of the ``r = ceil(||U|| / M)`` runs of
    ``U`` in place; phase 2 merges the sorted runs into ``W`` with
    ``r + 1`` concurrent sequential cursors — the
    :func:`merge_join_pattern` shape generalized to ``r`` inputs, which
    is why external sort's I/O stays sequential (the classic reason it
    wins out of core).
    """
    r = spill_run_count(U, memory_budget)
    runs = U.split(r) if r > 1 else (U,)
    run_sorts = tuple(quick_sort_pattern(run, stop_bytes) for run in runs)
    merge = Conc.of(*(STrav(run) for run in runs), STrav(W))
    return run_sorts, merge


def grace_hash_join_phases(U: DataRegion, V: DataRegion, W: DataRegion,
                           memory_budget: int) -> tuple[Pattern, ...]:
    """The three phases of a grace hash join — (partition ``U``,
    partition ``V``, per-partition joins) — or, when the build table
    already fits ``memory_budget`` (no spill), the plain
    :func:`hash_join_pattern` as its single phase.  Exposed separately
    so pipelined plan composition can ``⊙``-overlap each input with its
    partition pass only."""
    m = grace_partition_count(U, V, memory_budget)
    if m <= 1:
        H = hash_table_region(V, max_load=DEFAULT_HASH_MAX_LOAD)
        return (hash_join_pattern(U, V, W, H=H),)
    # Price what the engine allocates: partition buffers carry binomial
    # slack (partition_capacity), and every per-partition hash table is
    # sized uniformly from that *planned* capacity — not the actual
    # cluster fill, whose binomial variance would double the table
    # whenever a cluster crosses a power-of-two boundary and decouple
    # the prediction from the execution.
    cap_U = partition_capacity(U.n, m)
    cap_V = partition_capacity(V.n, m)
    PU = DataRegion(f"P({U.name})", n=m * cap_U, w=U.w)
    PV = DataRegion(f"P({V.name})", n=m * cap_V, w=V.w)
    # The join phases traverse the expected fills, not the slack.
    U_parts = tuple(PU.subregion(f"P({U.name})[{j}]", n=max(1, U.n // m))
                    for j in range(m))
    V_parts = tuple(PV.subregion(f"P({V.name})[{j}]", n=max(1, V.n // m))
                    for j in range(m))
    H_regions = tuple(
        hash_table_region(DataRegion(f"V[{j}]", n=cap_V, w=V.w),
                          max_load=DEFAULT_HASH_MAX_LOAD, name=f"H[{j}]")
        for j in range(m)
    )
    joins = partitioned_hash_join_pattern(U_parts, V_parts,
                                          _output_parts(W, m),
                                          H_regions=H_regions)
    return (partition_pattern(U, PU, m), partition_pattern(V, PV, m), joins)


def spilling_hash_aggregate_phases(
        U: DataRegion, W: DataRegion, groups: int,
        memory_budget: int) -> tuple[Pattern, ...]:
    """The two phases of a spilling hash aggregate — (partition the
    input by key, ``⊕`` of the per-partition aggregates) — or, when the
    group table fits ``memory_budget`` (no spill), the plain
    :func:`hash_aggregate_pattern` as its single phase.  Like the
    engine, the partition buffers carry the shared
    :func:`partition_capacity` slack."""
    m = spilling_aggregate_partition_count(U, W, groups, memory_budget)
    if m <= 1:
        return (hash_aggregate_pattern(U, group_table_region(groups), W),)
    cap = partition_capacity(U.n, m)
    PU = DataRegion(f"P({U.name})", n=m * cap, w=U.w)
    U_parts = tuple(PU.subregion(f"P({U.name})[{j}]", n=max(1, U.n // m))
                    for j in range(m))
    per_part_groups = max(1, math.ceil(groups / m))
    passes = []
    for j, (part, w_part) in enumerate(zip(U_parts, W.split(m))):
        G_j = hash_table_region(
            DataRegion(f"G[{j}]", n=per_part_groups,
                       w=DEFAULT_HASH_ENTRY_WIDTH),
            max_load=DEFAULT_HASH_MAX_LOAD, name=f"G[{j}]")
        passes.append(hash_aggregate_pattern(part, G_j, w_part))
    return partition_pattern(U, PU, m), Seq.of(*passes)


# ----------------------------------------------------------------------
# Aggregation / duplicate elimination.
# ----------------------------------------------------------------------

def sort_aggregate_pattern(U: DataRegion, W: DataRegion,
                           stop_bytes: int | None = None) -> Pattern:
    """Sort-based aggregation: quick-sort the input, then one sequential
    pass emitting group results."""
    return quick_sort_pattern(U, stop_bytes) + (STrav(U) * STrav(W))


def hash_aggregate_phases(U: DataRegion, G: DataRegion,
                          W: DataRegion) -> tuple[Pattern, Pattern]:
    """The two phases of hash aggregation, separately.

    Phase 1 consumes the input (sequential input cursor, one random
    group-table hit per item); phase 2 emits the group results.  Exposed
    separately so pipeline-aware plan composition can ``⊙``-combine a
    producer's stream with phase 1 only (phase 2 cannot start before the
    last input item arrived).
    """
    return (STrav(U) * RAcc(G, r=U.n), STrav(G) * STrav(W))


def hash_aggregate_pattern(U: DataRegion, G: DataRegion, W: DataRegion) -> Pattern:
    """Hash-based aggregation: sequential input, one random hit into the
    group table per item, sequential output of group results."""
    consume, emit = hash_aggregate_phases(U, G, W)
    return consume + emit


def duplicate_elimination_pattern(U: DataRegion, H: DataRegion,
                                  W: DataRegion) -> Pattern:
    """Hash-based duplicate elimination (the paper notes aggregation and
    duplicate elimination perform the sorting or hashing patterns)."""
    return STrav(U) * RAcc(H, r=U.n) * STrav(W)


# ----------------------------------------------------------------------
# Table 2 registry (for rendering the paper's table).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table2Row:
    """One row of paper Table 2: an algorithm and its pattern description."""

    algorithm: str
    description: str
    example: Callable[[], Pattern]


def _demo_regions() -> dict[str, DataRegion]:
    U = DataRegion("U", n=1000, w=8)
    V = DataRegion("V", n=1000, w=8)
    W = DataRegion("W", n=1000, w=16)
    return {
        "U": U, "V": V, "W": W,
        "H": hash_table_region(V),
        "G": DataRegion("G", n=64, w=16),
    }


def _table2() -> tuple[Table2Row, ...]:
    r = _demo_regions()
    return (
        Table2Row("scan(U)", "s_trav+(U)",
                  lambda: scan_pattern(r["U"])),
        Table2Row("select(U,W)", "s_trav+(U) ⊙ s_trav+(W)",
                  lambda: select_pattern(r["U"], r["W"])),
        Table2Row("project(U,W,u)", "s_trav+(U,u) ⊙ s_trav+(W)",
                  lambda: project_pattern(r["U"], r["W"], u=4)),
        Table2Row("sort(U)", "⊕_levels (s_trav+(U.L) ⊙ s_trav+(U.R)) — quick-sort",
                  lambda: quick_sort_pattern(r["U"], stop_bytes=r["U"].size // 4)),
        Table2Row("build(V,H)", "s_trav+(V) ⊙ r_trav(H)",
                  lambda: hash_build_pattern(r["V"], r["H"])),
        Table2Row("probe(U,H,W)", "s_trav+(U) ⊙ r_acc(U.n,H) ⊙ s_trav+(W)",
                  lambda: hash_probe_pattern(r["U"], r["H"], r["W"])),
        Table2Row("hash_join(U,V,W)",
                  "build(V,H) ⊕ probe(U,H,W)",
                  lambda: hash_join_pattern(r["U"], r["V"], r["W"])),
        Table2Row("merge_join(U,V,W)", "s_trav+(U) ⊙ s_trav+(V) ⊙ s_trav+(W)",
                  lambda: merge_join_pattern(r["U"], r["V"], r["W"])),
        Table2Row("nl_join(U,V,W)",
                  "s_trav+(U) ⊙ rs_trav(U.n, uni, V) ⊙ s_trav+(W)",
                  lambda: nested_loop_join_pattern(r["U"], r["V"], r["W"])),
        Table2Row("partition(U,H,m)", "s_trav+(U) ⊙ nest(H, m, s_trav, rand)",
                  lambda: partition_pattern(r["U"], DataRegion("Hp", 1000, 8), 16)),
        Table2Row("part_hash_join", "⊕_j hash_join(U_j, V_j, W_j)",
                  lambda: partitioned_hash_join_pattern(
                      r["U"].split(4), r["V"].split(4),
                      tuple(DataRegion(f"W[{j}]", 250, 16) for j in range(4)))),
        Table2Row("hash_aggr(U,G,W)", "s_trav+(U) ⊙ r_acc(U.n,G) ⊕ s_trav+(G) ⊙ s_trav+(W)",
                  lambda: hash_aggregate_pattern(r["U"], r["G"], r["W"])),
    )


#: The rendered rows of paper Table 2 (algorithm, description, example).
TABLE2: tuple[Table2Row, ...] = _table2()


# ----------------------------------------------------------------------
# The operator catalog (Section 6: phases in the pattern language plus
# one calibrated T_cpu term per algorithm, Eq. 6.1).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Algorithm:
    """One implementation the engine can run, described once.

    ``phases(*operands)`` are its ordered ``⊕`` phases in the pattern
    language and ``cycles(*operands)`` its calibrated pure-CPU cycles;
    both take the same operands — the input region(s) ``U``[, ``V``],
    the output region ``W`` where there is one, then the algorithm's
    parameters.  ``feeds`` names, per phase of a multi-phase run, the
    inputs that phase drains (``0`` = ``U``, ``1`` = ``V``); a run of a
    single phase drains every input.  The whole pattern and the cost
    follow by composition, for an advisor scoring bare regions and for
    a plan node pipelining its children into the right phase alike.
    """

    name: str
    phases: Callable[..., tuple[Pattern, ...]]
    cycles: Callable[..., float]
    feeds: tuple[tuple[int, ...], ...] = ()

    def pattern(self, *operands) -> Pattern:
        """The whole algorithm: its phases, ``⊕``-sequenced."""
        return seq(*self.phases(*operands))

    def estimate(self, model: CostModel, *operands) -> CostEstimate:
        """``T_mem + T_cpu`` of one standalone run on ``model``'s machine."""
        return model.estimate(
            self.pattern(*operands),
            cpu_ns=model.hierarchy.nanoseconds(self.cycles(*operands)))


def _external_merge_sort_phases(U, W, memory_budget, stop_bytes=None):
    run_sorts, merge = external_merge_sort_phases(U, W, memory_budget,
                                                 stop_bytes)
    if len(run_sorts) == 1:
        return run_sorts
    return (seq(*run_sorts), merge)


def _external_merge_sort_cycles(U, W, memory_budget, stop_bytes=None):
    runs = spill_run_count(U, memory_budget)
    cycles = cpu_cycles("sort", U.n * sort_depth(-(-U.n // runs)))
    if runs > 1:
        cycles += cpu_cycles("merge_pass", U.n)
    return cycles


def _hash_join_phases(U, V, W):
    # the capacity-rounded table the engine actually builds
    H = hash_table_region(V, max_load=DEFAULT_HASH_MAX_LOAD)
    return (hash_build_pattern(V, H), hash_probe_pattern(U, H, W))


def _spilling_hash_aggregate_cycles(U, W, groups, memory_budget):
    cycles = cpu_cycles("hash_aggregate", U.n)
    if spilling_aggregate_partition_count(U, W, groups, memory_budget) > 1:
        cycles += cpu_cycles("partition_pass", U.n)
    return cycles


#: ``select(U, W)``
SELECT = Algorithm(
    "select",
    lambda U, W: (select_pattern(U, W),),
    lambda U, W: cpu_cycles("select", U.n))
#: ``project(U, W, u)`` — ``u`` bytes of every input item are read
PROJECT = Algorithm(
    "project",
    lambda U, W, u: (project_pattern(U, W, u),),
    lambda U, W, u: cpu_cycles("project", U.n))
#: ``quick_sort(U, stop_bytes)`` — in place
QUICK_SORT = Algorithm(
    "quick_sort",
    lambda U, stop_bytes=None: (quick_sort_pattern(U, stop_bytes),),
    lambda U, stop_bytes=None: cpu_cycles("sort", U.n * sort_depth(U.n)))
#: ``external_merge_sort(U, W, memory_budget, stop_bytes)`` — sort the
#: budget-sized runs (draining the input), then merge them
EXTERNAL_MERGE_SORT = Algorithm(
    "external_merge_sort",
    _external_merge_sort_phases, _external_merge_sort_cycles,
    feeds=((0,), ()))
#: ``merge_join(U, V, W)`` — operands already sorted
MERGE_JOIN = Algorithm(
    "merge_join",
    lambda U, V, W: (merge_join_pattern(U, V, W),),
    lambda U, V, W: cpu_cycles("merge_join", U.n + V.n))
#: ``hash_join(U, V, W)`` — build on the inner ``V``, probe with ``U``
HASH_JOIN = Algorithm(
    "hash_join",
    _hash_join_phases,
    lambda U, V, W: cpu_cycles("hash_join", U.n + V.n),
    feeds=((1,), (0,)))
#: ``nested_loop_join(U, V, W)`` — one comparison per (outer, inner) pair
NESTED_LOOP_JOIN = Algorithm(
    "nested_loop_join",
    lambda U, V, W: (nested_loop_join_pattern(U, V, W),),
    lambda U, V, W: cpu_cycles("nested_loop_join", U.n * V.n))
#: ``partitioned_hash_join(U, V, W, m)`` — the constant includes the
#: two partitioning passes
PARTITIONED_HASH_JOIN = Algorithm(
    "partitioned_hash_join",
    partitioned_hash_join_phases,
    lambda U, V, W, m: cpu_cycles("partitioned_hash_join", U.n + V.n),
    feeds=((0,), (1,), ()))
#: ``grace_hash_join(U, V, W, memory_budget)``
GRACE_HASH_JOIN = Algorithm(
    "grace_hash_join",
    grace_hash_join_phases,
    lambda U, V, W, memory_budget: cpu_cycles("partitioned_hash_join",
                                              U.n + V.n),
    feeds=((0,), (1,), ()))
#: ``hash_aggregate(U, W, groups)`` — consume the input, emit the groups
HASH_AGGREGATE = Algorithm(
    "hash_aggregate",
    lambda U, W, groups: hash_aggregate_phases(
        U, group_table_region(groups), W),
    lambda U, W, groups: cpu_cycles("hash_aggregate", U.n),
    feeds=((0,), ()))
#: ``sort_aggregate(U, W, stop_bytes)`` — quick-sort, then one grouping pass
SORT_AGGREGATE = Algorithm(
    "sort_aggregate",
    lambda U, W, stop_bytes=None: (sort_aggregate_pattern(U, W, stop_bytes),),
    lambda U, W, stop_bytes=None: (QUICK_SORT.cycles(U)
                                   + cpu_cycles("aggregate_pass", U.n)))
#: ``spilling_hash_aggregate(U, W, groups, memory_budget)`` — the
#: partition pass is charged iff the group table spills
SPILLING_HASH_AGGREGATE = Algorithm(
    "spilling_hash_aggregate",
    spilling_hash_aggregate_phases, _spilling_hash_aggregate_cycles,
    feeds=((0,), ()))
