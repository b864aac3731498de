"""Figure 7: operator-level validation experiments.

Each experiment runs a real database operator against the simulated
memory ("measured", the paper's hardware-counter series) and evaluates
the automatically derived cost function of the operator's pattern
description ("predicted", the paper's model lines).  All experiments use
the scaled Origin2000 profile; sizes bracket the same capacity crossings
the paper's x-axes mark (``||U|| = C2``, ``||H|| = C3/C2``, ``m = #``,
``||H_j|| = C1/C2/C3``).
"""

from __future__ import annotations

from ..core.algorithms import (
    hash_join_pattern,
    merge_join_pattern,
    partition_pattern,
    partitioned_hash_join_pattern,
    quick_sort_pattern,
)
from ..core.cost import CostModel
from ..core.regions import DataRegion
from ..db.context import Database
from ..db.datagen import random_permutation, sorted_ints, uniform_ints
from ..db.join import OUTPUT_WIDTH, hash_join, merge_join
from ..db.partition import join_partitions, partition
from ..db.sort import quick_sort
from ..hardware.hierarchy import MemoryHierarchy
from ..hardware.profiles import origin2000_scaled
from .reporting import ExperimentResult, ExperimentRow, size_label

__all__ = [
    "figure7a_quicksort",
    "figure7b_mergejoin",
    "figure7c_hashjoin",
    "figure7d_partition",
    "figure7e_partitioned_hashjoin",
]

KB = 1024


def _sweep(result: ExperimentResult, hierarchy: MemoryHierarchy | None,
           points, prepare) -> ExperimentResult:
    """The loop every Figure 7 experiment runs, once.

    Per point of the sweep: ``prepare(db, point)`` builds the operands
    on a fresh :class:`Database` over ``hierarchy`` (default: the
    scaled Origin2000), unmeasured, and returns ``run``; ``run()``
    executes the operator from cold caches — the only measured part —
    and returns the point's x label and the pattern describing what it
    executed, whose cost estimate is compared with the measured
    counters as one row of ``result``.
    """
    hierarchy = hierarchy or origin2000_scaled()
    model = CostModel(hierarchy)
    for point in points:
        db = Database(hierarchy)
        run = prepare(db, point)
        db.reset()
        with db.measure() as res:
            label, pattern = run()
        result.rows.append(ExperimentRow.from_comparison(
            label, res[0], model.estimate(pattern)))
    return result


def figure7a_quicksort(hierarchy: MemoryHierarchy | None = None,
                       sizes_kb: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256),
                       width: int = 8, seed: int = 11) -> ExperimentResult:
    """Quick-sort: misses and time vs table size (Figure 7a).

    The paper sweeps 128 KB - 128 MB across C2 = 4 MB; scaled, the sweep
    crosses the scaled C2 = 64 KB at the same ratio.
    """
    def prepare(db, size_kb):
        n = size_kb * KB // width
        col = db.create_column("U", uniform_ints(n, seed=seed), width=width)
        stop = min(l.capacity for l in db.hierarchy.all_levels)

        def run():
            quick_sort(db, col)
            return (size_label(size_kb * KB),
                    quick_sort_pattern(col.region(), stop_bytes=stop))
        return run

    return _sweep(ExperimentResult(
        experiment_id="F7a", title="Quick-Sort", x_name="||U||",
    ), hierarchy, sizes_kb, prepare)


def figure7b_mergejoin(hierarchy: MemoryHierarchy | None = None,
                       sizes_kb: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256),
                       width: int = 8) -> ExperimentResult:
    """Merge-join of sorted 1:1 operands vs operand size (Figure 7b)."""
    def prepare(db, size_kb):
        n = size_kb * KB // width
        left = db.create_column("U", sorted_ints(n), width=width)
        right = db.create_column("V", sorted_ints(n), width=width)

        def run():
            out = merge_join(db, left, right)
            W = DataRegion("W", n=max(1, len(out.values)), w=OUTPUT_WIDTH)
            return (size_label(size_kb * KB),
                    merge_join_pattern(left.region(), right.region(), W))
        return run

    return _sweep(ExperimentResult(
        experiment_id="F7b", title="Merge-Join", x_name="||U||=||V||",
    ), hierarchy, sizes_kb, prepare)


def figure7c_hashjoin(hierarchy: MemoryHierarchy | None = None,
                      sizes_kb: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256),
                      width: int = 8, seed: int = 23) -> ExperimentResult:
    """Hash-join vs operand size (Figure 7c).

    The interesting crossings are where the hash table ``H`` outgrows
    the TLB's virtual capacity (scaled C3 = 32 KB) and L2 (scaled
    C2 = 64 KB).  The model is evaluated with the hash-table region the
    implementation actually allocated (capacity, not cardinality).
    """
    def prepare(db, size_kb):
        n = size_kb * KB // width
        outer = db.create_column("U", random_permutation(n, seed=seed), width=width)
        inner = db.create_column("V", random_permutation(n, seed=seed + 1), width=width)

        def run():
            out, table = hash_join(db, outer, inner)
            W = DataRegion("W", n=max(1, len(out.values)), w=OUTPUT_WIDTH)
            return (size_label(size_kb * KB),
                    hash_join_pattern(outer.region(), inner.region(), W,
                                      H=table.region()))
        return run

    return _sweep(ExperimentResult(
        experiment_id="F7c", title="Hash-Join", x_name="||U||=||V||",
    ), hierarchy, sizes_kb, prepare)


def figure7d_partition(hierarchy: MemoryHierarchy | None = None,
                       total_kb: int = 256,
                       m_values: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128,
                                                    256, 512, 1024, 2048),
                       width: int = 8, seed: int = 31) -> ExperimentResult:
    """Partitioning a fixed-size table into ``m`` clusters (Figure 7d).

    Misses jump once the ``m`` concurrently active output lines/pages
    exceed a level's line count (scaled: 8 TLB entries, 64 L1 lines,
    512 L2 lines — the paper's ``m = #`` markers).
    """
    n = total_kb * KB // width

    def prepare(db, m):
        col = db.create_column("U", uniform_ints(n, seed=seed), width=width)

        def run():
            parts = partition(db, col, m)
            return str(m), partition_pattern(col.region(), parts.region, m)
        return run

    return _sweep(ExperimentResult(
        experiment_id="F7d",
        title=f"Partitioning (||U|| = {total_kb}kB)",
        x_name="partitions m",
    ), hierarchy, m_values, prepare)


def figure7e_partitioned_hashjoin(
        hierarchy: MemoryHierarchy | None = None,
        total_kb: int = 128,
        m_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
        width: int = 8, seed: int = 41) -> ExperimentResult:
    """Partitioned hash-join vs partition size (Figure 7e).

    Operand size is fixed; the partition count sweeps the per-pair hash
    table ``||H_j||`` across (scaled) C2, C3 and C1.  Only the join
    phase is measured (partitioning itself is Figure 7d).
    """
    n = total_kb * KB // width

    def prepare(db, m):
        outer = db.create_column("U", random_permutation(n, seed=seed), width=width)
        inner = db.create_column("V", random_permutation(n, seed=seed), width=width)
        outer_parts = partition(db, outer, m)
        inner_parts = partition(db, inner, m)

        def run():
            outputs, tables = join_partitions(db, outer_parts, inner_parts)
            W_regions = tuple(
                DataRegion(f"W[{j}]", n=max(1, len(o.values)), w=OUTPUT_WIDTH)
                for j, o in enumerate(outputs)
            )
            pattern = partitioned_hash_join_pattern(
                tuple(c.region() for c in outer_parts),
                tuple(c.region() for c in inner_parts), W_regions,
                H_regions=tuple(t.region() for t in tables),
            )
            table_bytes = tables[0].size if tables else 0
            return f"{size_label(table_bytes)} (m={m})", pattern
        return run

    return _sweep(ExperimentResult(
        experiment_id="F7e",
        title=f"Partitioned Hash-Join (||U||=||V|| = {total_kb}kB)",
        x_name="||Hj||",
    ), hierarchy, m_values, prepare)
