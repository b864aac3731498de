"""Column-oriented main-memory engine over the simulated memory
(the reproduction's stand-in for the paper's Monet platform)."""

from .aggregate import hash_aggregate, hash_distinct, sort_aggregate, sort_distinct
from .allocator import Allocator
from .btree import SimBTree, btree_lookup_pattern, index_nested_loop_join
from .column import Column, IntVector
from .context import Database
from .radix import (
    radix_bits,
    radix_partition,
    radix_partition_pattern,
    recommended_fanout,
)
from .datagen import grouped_keys, random_permutation, sorted_ints, uniform_ints
from .hashtable import ENTRY_WIDTH, SimHashTable
from .join import OUTPUT_WIDTH, hash_join, merge_join, nested_loop_join, probe_join
from .partition import Partitions, join_partitions, partition, partition_key
from .scan import project, scan, select
from .sort import is_sorted, quick_sort
from .spill import (
    GraceJoinResult,
    external_merge_sort,
    grace_hash_join,
    spilling_hash_aggregate,
)

__all__ = [
    "Allocator",
    "Column",
    "IntVector",
    "Database",
    "uniform_ints",
    "random_permutation",
    "sorted_ints",
    "grouped_keys",
    "SimHashTable",
    "ENTRY_WIDTH",
    "OUTPUT_WIDTH",
    "scan",
    "select",
    "project",
    "quick_sort",
    "is_sorted",
    "external_merge_sort",
    "grace_hash_join",
    "spilling_hash_aggregate",
    "GraceJoinResult",
    "merge_join",
    "nested_loop_join",
    "hash_join",
    "probe_join",
    "partition",
    "join_partitions",
    "Partitions",
    "partition_key",
    "hash_aggregate",
    "sort_aggregate",
    "hash_distinct",
    "sort_distinct",
    "SimBTree",
    "index_nested_loop_join",
    "btree_lookup_pattern",
    "radix_partition",
    "radix_partition_pattern",
    "radix_bits",
    "recommended_fanout",
]
