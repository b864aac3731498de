"""Spilling (out-of-core) operator variants under an explicit memory budget.

The in-memory operators of this package assume their auxiliary
structures — quick-sort's whole working array, a hash join's build
table, an aggregate's group table — fit in working memory.  Out of
core they do not, and each operator falls back to its classic
disk-era variant:

* :func:`external_merge_sort` — quick-sort budget-sized runs in place,
  then merge the sorted runs with one sequential cursor per run;
* :func:`grace_hash_join` — partition both inputs until every
  per-partition hash table fits the budget, then hash-join matching
  partition pairs (the grace/hybrid hash join family);
* :func:`spilling_hash_aggregate` — partition the input by grouping
  key until every per-partition group table fits the budget, then
  hash-aggregate each partition independently.

Every variant produces exactly the access trace its catalog entry in
:mod:`repro.core.algorithms` describes (its whole pattern is
``EXTERNAL_MERGE_SORT.pattern(...)`` etc.), so the derived cost
functions price what the engine really does — on a
:func:`~repro.hardware.disk_extended` hierarchy, down to buffer-pool
misses.  The budget → fan-out policy is shared with the model through
:func:`~repro.core.spill_run_count` / :func:`~repro.core.spill_partition_count`.
"""

from __future__ import annotations

from ..core.algorithms import (
    DEFAULT_HASH_MAX_LOAD,
    hash_table_region,
    partition_capacity,
    spill_partition_count,
    spill_run_count,
)
from ..core.regions import DataRegion
from .aggregate import hash_aggregate
from .column import Column
from .context import Database, leaf_kernel
from .hashtable import ENTRY_WIDTH, SimHashTable, fill_table
from .join import hash_join, probe_join
from .partition import Partitions, partition, partition_key
from .sort import quick_sort

__all__ = [
    "external_merge_sort",
    "grace_hash_join",
    "spilling_hash_aggregate",
    "GraceJoinResult",
]


def external_merge_sort(db: Database, col: Column, memory_budget: int,
                        output_name: str | None = None) -> Column:
    """Sort ``col`` using at most ``memory_budget`` bytes of sort area.

    Runs of ``memory_budget`` bytes are quick-sorted in place, then
    merged into a fresh output column (``col`` is left run-sorted).
    When the column fits the budget this *is* an in-place quick sort
    and ``col`` itself is returned.
    """
    region = col.region()
    r = spill_run_count(region, memory_budget)
    if r <= 1 or col.n <= 1:
        quick_sort(db, col)
        return col
    width = col.width
    run_items = -(-col.n // r)  # ceil
    bounds: list[tuple[int, int]] = []
    for j, start in enumerate(range(0, col.n, run_items)):
        end = min(col.n, start + run_items)
        run = Column(f"{col.name}.run{j}", width,
                     col.item_address(start), col.values[start:end])
        quick_sort(db, run)
        # Same storage, correct simulated addresses — only the Python
        # backing list is stitched back (no extra simulated access).
        col.values[start:end] = run.values
        bounds.append((start, end))

    out = db.allocate_column(output_name or f"sort({col.name})",
                             n=col.n, width=width)
    merge_runs(db, col, bounds, out)
    return out


@leaf_kernel
def merge_runs(db: Database, col: Column, bounds: list[tuple[int, int]],
               out: Column) -> None:
    """The k-way merge of :func:`external_merge_sort`: the sorted runs
    ``col[start:end]`` of ``bounds`` merged into ``out``."""
    mem = db.mem
    # One sequential cursor per run; the global order follows the data.
    heads: list[tuple[int, int, int]] = []  # (value, run index, position)
    for j, (start, _) in enumerate(bounds):
        heads.append((col.read(mem, start), j, start))
    count = 0
    while heads:
        index = min(range(len(heads)), key=lambda k: heads[k][0])
        value, j, pos = heads[index]
        out.write(mem, count, value)
        count += 1
        pos += 1
        if pos < bounds[j][1]:
            heads[index] = (col.read(mem, pos), j, pos)
        else:
            del heads[index]


def _partition_with_retry(db: Database, col: Column, m: int,
                          key_func=None) -> Partitions:
    """Partition, widening the buffer slack on overflow.

    Buffer capacity assumes binomially spread cluster fills; skewed
    cluster functions (partitioning by a grouping key whose groups have
    very different sizes, or duplicate-heavy join keys) can overflow a
    buffer.  A real system re-spills in that case; here the retry
    re-runs the pass with doubled slack — the repeated input sweep is
    the measured re-spill cost.  Terminates because the slack term
    eventually covers the whole input."""
    slack = 6.0
    while True:
        try:
            return partition(db, col, m, slack_sigmas=slack,
                             key_func=key_func)
        except RuntimeError:
            slack *= 2


class GraceJoinResult:
    """The pieces of one grace hash join: per-partition output columns
    plus the partitioned operands (whose cluster columns key-recovery
    needs)."""

    def __init__(self, outputs: list[Column], outer_parts: Partitions,
                 inner_parts: Partitions, partitions: int) -> None:
        self.outputs = outputs
        self.outer_parts = outer_parts
        self.inner_parts = inner_parts
        self.partitions = partitions

    @property
    def n(self) -> int:
        return sum(out.n for out in self.outputs)


def grace_hash_join(db: Database, outer: Column, inner: Column,
                    memory_budget: int, output_name: str = "W",
                    max_load: float = DEFAULT_HASH_MAX_LOAD
                    ) -> GraceJoinResult | tuple[Column, None]:
    """Hash-join with the build table capped at ``memory_budget`` bytes.

    Partitions both inputs ``m``-ways (``m`` the shared
    :func:`~repro.core.spill_partition_count` policy over the
    capacity-rounded build table) and hash-joins matching pairs.  With
    ``m == 1`` this *is* a plain in-memory hash join and a
    ``(output column, None)`` pair is returned; otherwise a
    :class:`GraceJoinResult`.
    """
    table_bytes = hash_table_region(inner.region(), max_load=max_load).size
    m = spill_partition_count(table_bytes, memory_budget)
    m = max(1, min(m, outer.n, inner.n))
    if m <= 1:
        out, _ = hash_join(db, outer, inner, output_name=output_name,
                           max_load=max_load)
        return out, None
    outer_parts = _partition_with_retry(db, outer, m)
    inner_parts = _partition_with_retry(db, inner, m)
    # Per-partition tables are sized uniformly from the *planned*
    # cluster capacity (the shared partition_capacity policy), not each
    # cluster's actual fill: binomial fill variance would otherwise
    # double a table whenever a cluster crosses a power-of-two
    # boundary, decoupling the execution from its pattern description.
    planned = partition_capacity(inner.n, m)
    outputs: list[Column] = []
    for j, (outer_col, inner_col) in enumerate(zip(outer_parts, inner_parts)):
        # max() only matters after a skew retry widened the buffers:
        # an overfull cluster still gets a table it fits in.
        table = SimHashTable(db, n=max(planned, inner_col.n),
                             max_load=max_load, name=f"H[{j}]")
        fill_table(db, table, inner_col)
        outputs.append(probe_join(
            db, outer_col, table,
            output_name=f"{output_name}[{j}]",
            output_capacity=max(outer_col.n, inner_col.n, 1)))
    return GraceJoinResult(outputs, outer_parts, inner_parts, m)


def spilling_hash_aggregate(db: Database, col: Column, memory_budget: int,
                            groups_hint: int | None = None,
                            output_name: str = "agg",
                            key_of=None) -> Column:
    """Group-count with the group table capped at ``memory_budget``
    bytes.

    Partitions the input by (extracted) grouping key until each
    per-partition group table fits the budget, then hash-aggregates
    every partition; a key meets all its duplicates inside one
    partition, so concatenating the per-partition results is the exact
    group count (in partition-then-table order rather than plain
    :func:`~repro.db.hash_aggregate`'s table order).
    """
    hint = groups_hint or max(1, col.n)
    table_bytes = hash_table_region(
        DataRegion("G", n=hint, w=ENTRY_WIDTH),
        max_load=DEFAULT_HASH_MAX_LOAD, name="G").size
    m = spill_partition_count(table_bytes, memory_budget)
    m = max(1, min(m, col.n, hint))
    if m <= 1:
        return hash_aggregate(db, col, groups_hint=hint,
                              output_name=output_name, key_of=key_of)
    extract = key_of or (lambda value: value)
    parts = _partition_with_retry(
        db, col, m,
        key_func=lambda value, mm: partition_key(extract(value), mm))
    per_part_hint = -(-hint // m)  # ceil
    pieces: list[Column] = []
    for j, part in enumerate(parts):
        if part.n == 0:
            continue
        pieces.append(hash_aggregate(db, part,
                                     groups_hint=per_part_hint,
                                     output_name=f"{output_name}[{j}]",
                                     key_of=key_of))
    values: list = []
    for piece in pieces:
        values.extend(piece.values)
    # The per-partition outputs already live in simulated memory; this
    # combined column is a zero-copy view for the consumer (same
    # convention as the partitioned hash join's combined output).
    return db.create_column(output_name, values, width=ENTRY_WIDTH)
