"""Join operators: merge join, nested-loop join, hash join.

Every implementation produces the access trace its Table 2 pattern
describes:

* ``merge_join`` — three concurrent sequential cursors (both inputs
  sorted, one output);
* ``nested_loop_join`` — a sequential outer cursor, one full sequential
  inner traversal per outer item, a sequential output cursor;
* ``hash_join`` — build (sequential inner input, random hash-table
  writes) then probe (sequential outer input, random hash-table hits,
  sequential output).

Join results are materialised as an output column of (outer index, inner
index) pairs, 16 bytes wide — matching the ``W`` regions the experiments
model.
"""

from __future__ import annotations

from .column import Column
from .context import Database, leaf_kernel
from .hashtable import SimHashTable

__all__ = ["merge_join", "nested_loop_join", "hash_join", "OUTPUT_WIDTH"]

#: Bytes per output pair (two 8-byte oids).
OUTPUT_WIDTH = 16


def _output(db: Database, name: str, capacity: int) -> Column:
    return db.allocate_column(name, n=max(1, capacity), width=OUTPUT_WIDTH,
                              fill=(0, 0))


def _trim(col: Column, count: int) -> Column:
    col.values = col.values[:count]
    return col


@leaf_kernel
def merge_join(db: Database, outer: Column, inner: Column,
               output_name: str = "W",
               output_capacity: int | None = None) -> Column:
    """Join two *sorted* columns with two merge cursors.

    Handles duplicate keys on both sides (block-nested re-scan of the
    matching inner run, which stays cache-resident).
    """
    mem = db.mem
    capacity = output_capacity or max(outer.n, inner.n)
    out = _output(db, output_name, capacity)
    count = 0
    i = j = 0
    while i < outer.n and j < inner.n:
        left = outer.read(mem, i)
        right = inner.read(mem, j)
        if left < right:
            i += 1
        elif left > right:
            j += 1
        else:
            # Emit the cross product of the two equal-key runs.
            run_start = j
            while j < inner.n and inner.read(mem, j) == left:
                if count >= len(out.values):
                    raise RuntimeError("join output capacity exceeded")
                out.write(mem, count, (i, j))
                count += 1
                j += 1
            i += 1
            if i < outer.n and outer.peek(i) == left:
                j = run_start
    return _trim(out, count)


@leaf_kernel
def nested_loop_join(db: Database, outer: Column, inner: Column,
                     output_name: str = "W",
                     output_capacity: int | None = None) -> Column:
    """Join by scanning the whole inner input once per outer item."""
    mem = db.mem
    capacity = output_capacity or max(outer.n, inner.n)
    out = _output(db, output_name, capacity)
    count = 0
    for i in range(outer.n):
        left = outer.read(mem, i)
        for j in range(inner.n):
            if inner.read(mem, j) == left:
                if count >= len(out.values):
                    raise RuntimeError("join output capacity exceeded")
                out.write(mem, count, (i, j))
                count += 1
    return _trim(out, count)


def hash_join(db: Database, outer: Column, inner: Column,
              output_name: str = "W",
              output_capacity: int | None = None,
              max_load: float = 0.5) -> tuple[Column, SimHashTable]:
    """Build a hash table on the inner input, probe with the outer.

    Returns the output column *and* the hash table (whose region the
    experiments need for model evaluation).
    """
    table = SimHashTable.build(db, inner, max_load=max_load,
                               name=f"H({inner.name})")
    out = probe_join(db, outer, table, output_name=output_name,
                     output_capacity=output_capacity)
    return out, table


@leaf_kernel
def probe_join(db: Database, outer: Column, table: SimHashTable,
               output_name: str = "W",
               output_capacity: int | None = None) -> Column:
    """The probe phase of a hash join, reusable for pre-built tables."""
    mem = db.mem
    capacity = output_capacity or max(outer.n, table.entries)
    out = _output(db, output_name, capacity)
    count = 0
    for i in range(outer.n):
        key = outer.read(mem, i)
        for payload in table.lookup(key):
            if count >= len(out.values):
                raise RuntimeError("join output capacity exceeded")
            out.write(mem, count, (i, payload))
            count += 1
    return _trim(out, count)
