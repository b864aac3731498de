"""Partitioning and partitioned hash join (paper Section 6.2).

``partition`` reads its input sequentially and appends every item to the
output buffer its key hashes to — one local sequential cursor per buffer,
a global cursor hopping between buffers in key order: exactly the
``s_trav(U) ⊙ nest(H, m, s_trav, rand)`` pattern.  The buffers are
allocated back-to-back, so together they form the contiguous output
region ``H`` (of which each buffer is a sub-region).

``join_partitions`` then hash-joins each matching buffer pair
(``⊕_j hash_join(U_j, V_j, W_j)``); once buffers fit in a cache, the
per-pair hash tables stay resident and the random-access penalty of plain
hash join disappears — the effect of paper Figure 7e.
"""

from __future__ import annotations

from ..core.algorithms import partition_capacity
from ..core.regions import DataRegion
from .column import Column
from .context import Database, leaf_kernel
from .hashtable import SimHashTable
from .join import hash_join

__all__ = ["Partitions", "partition", "join_partitions", "partition_key"]


def partition_key(key: int, m: int) -> int:
    """The cluster a key belongs to (Fibonacci hash, then modulo)."""
    return ((key * 0x9E3779B97F4A7C15) >> 16) % m


class Partitions:
    """The result of partitioning one column: ``m`` cluster columns that
    are sub-regions of one contiguous output region."""

    def __init__(self, source_name: str, clusters: list[Column],
                 region: DataRegion) -> None:
        self.source_name = source_name
        self.clusters = clusters
        self.region = region

    @property
    def m(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)


@leaf_kernel
def partition(db: Database, col: Column, m: int,
              output_name: str | None = None,
              slack_sigmas: float = 6.0,
              key_func=None) -> Partitions:
    """Split ``col`` into ``m`` hash clusters.

    Buffer capacity is ``n/m`` plus ``slack_sigmas`` binomial standard
    deviations (uniform keys make cluster sizes Binomial(n, 1/m)); an
    overflowing buffer raises rather than silently spilling, because a
    spill would change the access pattern under measurement.

    ``key_func(value, m)`` overrides the cluster function (multi-pass
    radix clustering feeds different hash digits to each pass).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > col.n:
        raise ValueError("more partitions than items")
    name = output_name or f"P({col.name})"
    cluster_of = key_func or partition_key
    mem = db.mem
    n = col.n
    # Shared policy with the pattern builders (the model prices the
    # buffers the engine allocates).
    capacity = partition_capacity(n, m, slack_sigmas)

    region = DataRegion(name=name, n=m * capacity, w=col.width)
    buffers: list[Column] = []
    for j in range(m):
        buffers.append(
            db.allocate_column(f"{name}[{j}]", n=capacity, width=col.width)
        )
    fills = [0] * m

    for i in range(n):
        value = col.read(mem, i)
        j = cluster_of(value, m)
        slot = fills[j]
        if slot >= capacity:
            raise RuntimeError(
                f"partition buffer {j} overflowed (capacity {capacity}); "
                f"increase slack_sigmas for skewed keys"
            )
        buffers[j].write(mem, slot, value)
        fills[j] = slot + 1

    clusters = []
    for j, buf in enumerate(buffers):
        buf.values = buf.values[:fills[j]]
        clusters.append(buf)
    return Partitions(source_name=col.name, clusters=clusters, region=region)


def join_partitions(db: Database, outer_parts: Partitions,
                    inner_parts: Partitions,
                    output_name: str = "W",
                    max_load: float = 0.5) -> tuple[list[Column], list[SimHashTable]]:
    """Hash-join matching cluster pairs: ``⊕_j hash_join(U_j, V_j, W_j)``.

    Returns the per-pair outputs and hash tables (the tables' regions are
    needed to evaluate the cost model for the same execution).
    """
    if outer_parts.m != inner_parts.m:
        raise ValueError("operand partition counts differ")
    outputs: list[Column] = []
    tables: list[SimHashTable] = []
    for j, (outer, inner) in enumerate(zip(outer_parts, inner_parts)):
        capacity = max(outer.n, inner.n)
        out, table = hash_join(
            db, outer, inner,
            output_name=f"{output_name}[{j}]",
            output_capacity=capacity,
            max_load=max_load,
        )
        outputs.append(out)
        tables.append(table)
    return outputs, tables
