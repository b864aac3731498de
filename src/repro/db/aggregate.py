"""Aggregation and duplicate elimination.

The paper notes (Section 3.2) that aggregation and duplicate elimination
are implemented with sorting or hashing and perform the respective
patterns; both variants are provided.
"""

from __future__ import annotations

from ..core.algorithms import hash_capacity
from .column import Column
from .context import Database, leaf_kernel
from .hashtable import ENTRY_WIDTH, SimHashTable
from .sort import quick_sort

__all__ = [
    "hash_aggregate",
    "sort_aggregate",
    "hash_distinct",
    "sort_distinct",
]


@leaf_kernel
def hash_aggregate(db: Database, col: Column, groups_hint: int | None = None,
                   output_name: str = "agg", key_of=None) -> Column:
    """Group-count via a hash group table.

    One random group-table hit per input item (``r_acc(U.n, G)``), then a
    sequential pass over the group table emitting results.  ``key_of``
    extracts the integer grouping key from a stored value (e.g. the
    outer oid of a join-result pair); identity by default.
    """
    mem = db.mem
    extract = key_of or (lambda value: value)
    hint = groups_hint or max(1, col.n)
    capacity = hash_capacity(hint)
    mask = capacity - 1
    address = db.allocator.allocate(capacity * ENTRY_WIDTH, alignment=ENTRY_WIDTH)
    keys: list = [None] * capacity
    counts = [0] * capacity

    occupied = 0
    for i in range(col.n):
        key = extract(col.read(mem, i))
        slot = ((key * 0x9E3779B97F4A7C15) >> 16) & mask
        while True:
            mem.access(address + slot * ENTRY_WIDTH, ENTRY_WIDTH, write=True)
            if keys[slot] is None:
                if occupied >= capacity - 1:
                    raise RuntimeError("group table full; raise groups_hint")
                keys[slot] = key
                counts[slot] = 1
                occupied += 1
                break
            if keys[slot] == key:
                counts[slot] += 1
                break
            slot = (slot + 1) & mask

    out = db.allocate_column(output_name, n=max(1, occupied), width=ENTRY_WIDTH,
                             fill=(0, 0))
    emitted = 0
    for slot in range(capacity):
        mem.access(address + slot * ENTRY_WIDTH, ENTRY_WIDTH)
        if keys[slot] is not None:
            out.write(mem, emitted, (keys[slot], counts[slot]))
            emitted += 1
    out.values = out.values[:emitted]
    return out


@leaf_kernel
def sort_aggregate(db: Database, col: Column,
                   output_name: str = "agg") -> Column:
    """Group-count by sorting in place, then one sequential pass."""
    mem = db.mem
    quick_sort(db, col)
    out = db.allocate_column(output_name, n=max(1, col.n), width=ENTRY_WIDTH,
                             fill=(0, 0))
    emitted = 0
    current = None
    count = 0
    for i in range(col.n):
        value = col.read(mem, i)
        if value == current:
            count += 1
        else:
            if count:
                out.write(mem, emitted, (current, count))
                emitted += 1
            current = value
            count = 1
    if count:
        out.write(mem, emitted, (current, count))
        emitted += 1
    out.values = out.values[:emitted]
    return out


@leaf_kernel
def hash_distinct(db: Database, col: Column,
                  output_name: str = "dist") -> Column:
    """Duplicate elimination via hashing: one random table hit per item,
    sequential output of first occurrences."""
    mem = db.mem
    table = SimHashTable(db, n=max(1, col.n), name=f"D({col.name})")
    out = db.allocate_column(output_name, n=max(1, col.n), width=col.width)
    emitted = 0
    for i in range(col.n):
        value = col.read(mem, i)
        if not table.lookup(value):
            table.insert(value, i)
            out.write(mem, emitted, value)
            emitted += 1
    out.values = out.values[:emitted]
    return out


@leaf_kernel
def sort_distinct(db: Database, col: Column,
                  output_name: str = "dist") -> Column:
    """Duplicate elimination by sorting in place, then one pass."""
    mem = db.mem
    quick_sort(db, col)
    out = db.allocate_column(output_name, n=max(1, col.n), width=col.width)
    emitted = 0
    previous = None
    for i in range(col.n):
        value = col.read(mem, i)
        if emitted == 0 or value != previous:
            out.write(mem, emitted, value)
            emitted += 1
            previous = value
    out.values = out.values[:emitted]
    return out
