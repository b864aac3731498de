"""Vectorized (chunked) twins of the scalar leaf kernels.

Every function here mirrors one scalar *leaf* kernel of this package —
a function whose own loop issues the simulated accesses — with the same
signature, the same simulated access sequence, the same allocator calls
in the same order, the same result values and the same exceptions, but
issues the accesses through the simulator's batch layer instead of one
:meth:`MemorySystem.access` call per item:

* maximal sequential runs become one
  :meth:`~repro.simulator.MemorySystem.access_range` call (the
  range-coalesced reporting API, byte-identical to the per-item loop);
* everything that cannot coalesce (hash chains, sort cursors, writes
  interleaved into a sweep) goes through a fused accessor from
  :meth:`~repro.simulator.MemorySystem.batch`, which is
  call-for-call identical to ``access`` with the cascade set-up hoisted
  out of the loop.

The leaf rule: a twin exists only where the *loop* differs.  A kernel
that merely composes other kernels (hash join = build ⊕ probe, grace
hash join, spilling aggregate, the run sorts of an external merge
sort) is written once, in its scalar module, and reaches these twins
through the leaves it calls.  The mode switch is written once too:
:func:`~repro.db.context.leaf_kernel` decorates each scalar leaf
``name`` and forwards to ``name_v`` here while the engine runs
vectorized
(:meth:`Database.execution_scope <repro.db.Database.execution_scope>`).

The differential suite (``tests/test_vectorized.py``) asserts the
equivalence that makes this refactor safe: identical result columns AND
identical simulator counter deltas against the scalar kernels, operator
by operator, on multiple machine profiles.

Speedups are bounded by the access pattern itself: sequential sweeps
coalesce into a few Python calls per cache line (order-of-magnitude
gains on scans), while random hash-table chains still pay one fused
event-engine call per probed slot (roughly halving the per-access cost)
— the same sequential-vs-random asymmetry the cost model prices.
"""

from __future__ import annotations

from ..core.algorithms import hash_capacity, partition_capacity
from ..core.regions import DataRegion
from .column import Column
from .context import Database
from .hashtable import ENTRY_WIDTH, SimHashTable, _EMPTY
from .join import OUTPUT_WIDTH
from .partition import Partitions, partition_key

__all__ = [
    "scan_v",
    "select_v",
    "project_v",
    "project_node_v",
    "quick_sort_v",
    "fill_table_v",
    "probe_join_v",
    "merge_join_v",
    "nested_loop_join_v",
    "hash_aggregate_v",
    "sort_aggregate_v",
    "hash_distinct_v",
    "sort_distinct_v",
    "partition_v",
    "merge_runs_v",
]

#: Sequential runs at least this long go through ``access_range``;
#: shorter runs stay on the fused accessor (the coalescing fast lane
#: needs a few items to amortize its setup, and ``access_range`` itself
#: only engages its aligned-sweep engine from 8 items).
_COALESCE_MIN = 8


def _sweep_with_marks(mem, fused, base: int, width: int, n: int,
                      marks, on_mark) -> None:
    """Reads of items ``0..n-1`` (sequential, ``width`` bytes each at
    ``base``), with ``on_mark(p)`` invoked directly after the read of
    each position in ``marks`` (ascending) — the shared shape of every
    "sweep with interleaved output" kernel (select, aggregate emit,
    distinct emit, inner traversal of a nested-loop join)."""
    start = 0
    for p in marks:
        run = p - start + 1
        if run >= _COALESCE_MIN:
            mem.access_range(base + start * width, width, width, run)
        else:
            addr = base + start * width
            for _ in range(run):
                fused(addr, width)
                addr += width
        on_mark(p)
        start = p + 1
    if start < n:
        run = n - start
        if run >= _COALESCE_MIN:
            mem.access_range(base + start * width, width, width, run)
        else:
            addr = base + start * width
            for _ in range(run):
                fused(addr, width)
                addr += width


# ----------------------------------------------------------------------
# unary pipeline operators (scan.py twins)
# ----------------------------------------------------------------------

def scan_v(db: Database, col: Column, used_bytes: int | None = None) -> int:
    """Vectorized :func:`repro.db.scan`: the whole sweep is one
    ``access_range`` call and the checksum one C-level ``sum``."""
    u = used_bytes or col.width
    if u > col.width:
        raise ValueError("used_bytes exceeds the item width")
    db.mem.access_range(col.address, u, col.width, col.n)
    # (a + v0) & m ... folded item-wise equals the masked total: & is
    # mod 2**32 on Python ints, and mod distributes over the sum.
    return sum(col.values) & 0xFFFFFFFF


def select_v(db: Database, col: Column, predicate,
             output_name: str = "sel") -> Column:
    """Vectorized :func:`repro.db.select`: the selection vector is
    computed first, then the input sweep is replayed as coalesced runs
    split at the match positions (each followed by its output write)."""
    mem = db.mem
    out = db.allocate_column(output_name, n=max(1, col.n), width=col.width)
    values = col.values
    n = col.n
    matches = [i for i in range(n) if predicate(values[i])]
    fused = mem.batch()
    width = col.width
    out_base = out.address
    selected = []

    def emit(p: int) -> None:
        fused(out_base + len(selected) * width, width, True)
        selected.append(values[p])

    _sweep_with_marks(mem, fused, col.address, width, n, matches, emit)
    out.values = selected
    return out


def project_v(db: Database, col: Column, used_bytes: int,
              output_width: int | None = None,
              output_name: str = "prj") -> Column:
    """Vectorized :func:`repro.db.project`: fused alternating
    input-read/output-write cursors (the two streams interleave item by
    item, so there is no run to coalesce), one bulk value copy."""
    if not 1 <= used_bytes <= col.width:
        raise ValueError("used_bytes must be within the item width")
    mem = db.mem
    width = output_width or used_bytes
    out = db.allocate_column(output_name, n=col.n, width=width)
    fused = mem.batch()
    in_addr = col.address
    in_width = col.width
    out_addr = out.address
    for _ in range(col.n):
        fused(in_addr, used_bytes)
        fused(out_addr, width, True)
        in_addr += in_width
        out_addr += width
    out.values = list(col.values)
    return out


def project_node_v(db: Database, col: Column, output_name: str,
                   width: int, used_bytes: int, recover=None) -> Column:
    """Vectorized :func:`repro.db.scan.project_node`: like
    :func:`project_v` but with the plan node's key recovery
    (``recover(row, value)``, or ``None`` for raw values) applied per
    item."""
    mem = db.mem
    out = db.allocate_column(output_name, n=max(1, col.n), width=width)
    fused = mem.batch()
    values = col.values
    in_addr = col.address
    in_width = col.width
    out_addr = out.address
    keys = []
    for row in range(col.n):
        fused(in_addr, used_bytes)
        value = values[row]
        keys.append(recover(row, value) if recover is not None else value)
        fused(out_addr, width, True)
        in_addr += in_width
        out_addr += width
    out.values = keys
    return out


# ----------------------------------------------------------------------
# sort (sort.py twin)
# ----------------------------------------------------------------------

def quick_sort_v(db: Database, col: Column) -> None:
    """Vectorized :func:`repro.db.quick_sort`: the identical Hoare
    two-cursor algorithm with all accesses through one fused accessor
    (sort cursors alternate directions and swap mid-run, so there is no
    stable sequential run to coalesce; the fused single-line shortcut
    still picks up the cursors' intra-line steps)."""
    from .sort import INSERTION_THRESHOLD, _hoare_partition

    mem = db.mem
    fused = mem.batch()
    values = col.values
    width = col.width
    base = col.address

    def read(i: int) -> int:
        fused(base + i * width, width)
        return values[i]

    def swap(i: int, j: int) -> None:
        fused(base + i * width, width, True)
        fused(base + j * width, width, True)
        values[i], values[j] = values[j], values[i]

    stack: list[tuple[int, int]] = [(0, col.n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo + 1 <= INSERTION_THRESHOLD:
            _insertion_sort_v(fused, values, base, width, lo, hi)
            continue
        split = _hoare_partition(read, swap, values, lo, hi)
        if split - lo > hi - split - 1:
            stack.append((lo, split))
            stack.append((split + 1, hi))
        else:
            stack.append((split + 1, hi))
            stack.append((lo, split))


def _insertion_sort_v(fused, values, base: int, width: int,
                      lo: int, hi: int) -> None:
    for i in range(lo + 1, hi + 1):
        fused(base + i * width, width)
        current = values[i]
        j = i - 1
        while j >= lo:
            fused(base + j * width, width)
            if values[j] <= current:
                break
            fused(base + (j + 1) * width, width, True)
            values[j + 1] = values[j]
            j -= 1
        fused(base + (j + 1) * width, width, True)
        values[j + 1] = current


# ----------------------------------------------------------------------
# hash table (hashtable.py twins)
# ----------------------------------------------------------------------

def fill_table_v(db: Database, table: SimHashTable, col: Column) -> None:
    """Vectorized :func:`repro.db.hashtable.fill_table`: sequential
    input reads with the insert probe chains inlined into one fused
    accessor (double-hash chains jump randomly, nothing coalesces)."""
    mem = db.mem
    fused = mem.batch()
    values = col.values
    in_addr = col.address
    in_width = col.width
    keys = table._keys
    payloads = table._payloads
    mask = table.mask
    capacity = table.capacity
    table_base = table.address
    entries = table.entries
    for i in range(col.n):
        fused(in_addr, in_width)
        in_addr += in_width
        key = values[i]
        if entries >= capacity:
            table.entries = entries
            raise RuntimeError("hash table full")
        slot = ((key * 0x9E3779B97F4A7C15) >> 16) & mask
        step = (((key * 0xC2B2AE3D27D4EB4F) >> 24) | 1) & mask
        while True:
            fused(table_base + slot * ENTRY_WIDTH, ENTRY_WIDTH, True)
            if keys[slot] is _EMPTY:
                keys[slot] = key
                payloads[slot] = i
                entries += 1
                break
            slot = (slot + step) & mask
    table.entries = entries


def probe_join_v(db: Database, outer: Column, table: SimHashTable,
                 output_name: str = "W",
                 output_capacity: int | None = None) -> Column:
    """Vectorized :func:`repro.db.probe_join`: fused outer reads and
    probe chains; each key's full lookup chain completes before its
    matches are written (the scalar ordering)."""
    mem = db.mem
    capacity = output_capacity or max(outer.n, table.entries)
    out = db.allocate_column(output_name, n=max(1, capacity),
                             width=OUTPUT_WIDTH, fill=(0, 0))
    fused = mem.batch()
    values = outer.values
    in_addr = outer.address
    in_width = outer.width
    keys = table._keys
    payloads = table._payloads
    mask = table.mask
    table_base = table.address
    out_base = out.address
    cap_len = out.n
    pairs: list = []
    count = 0
    for i in range(outer.n):
        fused(in_addr, in_width)
        in_addr += in_width
        key = values[i]
        slot = ((key * 0x9E3779B97F4A7C15) >> 16) & mask
        step = (((key * 0xC2B2AE3D27D4EB4F) >> 24) | 1) & mask
        matches = []
        while True:
            fused(table_base + slot * ENTRY_WIDTH, ENTRY_WIDTH)
            stored = keys[slot]
            if stored is _EMPTY:
                break
            if stored == key:
                matches.append(payloads[slot])
            slot = (slot + step) & mask
        for payload in matches:
            if count >= cap_len:
                raise RuntimeError("join output capacity exceeded")
            fused(out_base + count * OUTPUT_WIDTH, OUTPUT_WIDTH, True)
            pairs.append((i, payload))
            count += 1
    out.values = pairs
    return out


# ----------------------------------------------------------------------
# joins (join.py twins)
# ----------------------------------------------------------------------

def merge_join_v(db: Database, outer: Column, inner: Column,
                 output_name: str = "W",
                 output_capacity: int | None = None) -> Column:
    """Vectorized :func:`repro.db.merge_join`: the three cursors
    interleave item by item (outer and inner are re-read every
    iteration), so all accesses go through one fused accessor."""
    mem = db.mem
    capacity = output_capacity or max(outer.n, inner.n)
    out = db.allocate_column(output_name, n=max(1, capacity),
                             width=OUTPUT_WIDTH, fill=(0, 0))
    fused = mem.batch()
    outer_values = outer.values
    inner_values = inner.values
    outer_base = outer.address
    inner_base = inner.address
    outer_width = outer.width
    inner_width = inner.width
    outer_n = outer.n
    inner_n = inner.n
    out_base = out.address
    cap_len = out.n
    pairs: list = []
    count = 0
    i = j = 0
    while i < outer_n and j < inner_n:
        fused(outer_base + i * outer_width, outer_width)
        left = outer_values[i]
        fused(inner_base + j * inner_width, inner_width)
        right = inner_values[j]
        if left < right:
            i += 1
        elif left > right:
            j += 1
        else:
            run_start = j
            while True:
                if j >= inner_n:
                    break
                fused(inner_base + j * inner_width, inner_width)
                if inner_values[j] != left:
                    break
                if count >= cap_len:
                    raise RuntimeError("join output capacity exceeded")
                fused(out_base + count * OUTPUT_WIDTH, OUTPUT_WIDTH, True)
                pairs.append((i, j))
                count += 1
                j += 1
            i += 1
            if i < outer_n and outer_values[i] == left:
                j = run_start
    out.values = pairs
    return out


def nested_loop_join_v(db: Database, outer: Column, inner: Column,
                       output_name: str = "W",
                       output_capacity: int | None = None) -> Column:
    """Vectorized :func:`repro.db.nested_loop_join`: the match positions
    per key are indexed once, then every inner traversal is replayed as
    coalesced runs split at that outer item's matches."""
    mem = db.mem
    capacity = output_capacity or max(outer.n, inner.n)
    out = db.allocate_column(output_name, n=max(1, capacity),
                             width=OUTPUT_WIDTH, fill=(0, 0))
    fused = mem.batch()
    outer_values = outer.values
    inner_values = inner.values
    inner_n = inner.n
    inner_width = inner.width
    inner_base = inner.address
    outer_base = outer.address
    outer_width = outer.width
    out_base = out.address
    cap_len = out.n
    positions: dict = {}
    for j in range(inner_n):
        positions.setdefault(inner_values[j], []).append(j)
    pairs: list = []
    count = 0
    for i in range(outer.n):
        fused(outer_base + i * outer_width, outer_width)
        left = outer_values[i]

        def emit(j: int, i=i) -> None:
            nonlocal count
            if count >= cap_len:
                raise RuntimeError("join output capacity exceeded")
            fused(out_base + count * OUTPUT_WIDTH, OUTPUT_WIDTH, True)
            pairs.append((i, j))
            count += 1

        _sweep_with_marks(mem, fused, inner_base, inner_width, inner_n,
                          positions.get(left, ()), emit)
    out.values = pairs
    return out


# ----------------------------------------------------------------------
# aggregation / distinct (aggregate.py twins)
# ----------------------------------------------------------------------

def hash_aggregate_v(db: Database, col: Column,
                     groups_hint: int | None = None,
                     output_name: str = "agg", key_of=None) -> Column:
    """Vectorized :func:`repro.db.hash_aggregate`: fused consume phase
    (input reads interleave with group-table chains), then the emit
    sweep over the whole table coalesced into runs split at the occupied
    slots."""
    mem = db.mem
    extract = key_of or (lambda value: value)
    hint = groups_hint or max(1, col.n)
    capacity = hash_capacity(hint)
    mask = capacity - 1
    address = db.allocator.allocate(capacity * ENTRY_WIDTH,
                                    alignment=ENTRY_WIDTH)
    keys: list = [None] * capacity
    counts = [0] * capacity

    fused = mem.batch()
    values = col.values
    in_addr = col.address
    in_width = col.width
    occupied = 0
    for i in range(col.n):
        fused(in_addr, in_width)
        in_addr += in_width
        key = extract(values[i])
        slot = ((key * 0x9E3779B97F4A7C15) >> 16) & mask
        while True:
            fused(address + slot * ENTRY_WIDTH, ENTRY_WIDTH, True)
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

    out = db.allocate_column(output_name, n=max(1, occupied),
                             width=ENTRY_WIDTH, fill=(0, 0))
    out_base = out.address
    groups: list = []

    def emit(slot: int) -> None:
        fused(out_base + len(groups) * ENTRY_WIDTH, ENTRY_WIDTH, True)
        groups.append((keys[slot], counts[slot]))

    marks = [slot for slot in range(capacity) if keys[slot] is not None]
    _sweep_with_marks(mem, fused, address, ENTRY_WIDTH, capacity, marks, emit)
    out.values = groups
    return out


def sort_aggregate_v(db: Database, col: Column,
                     output_name: str = "agg") -> Column:
    """Vectorized :func:`repro.db.sort_aggregate`: vectorized sort, then
    the grouping pass coalesced into runs split at the group
    boundaries (the sorted values make them known up front)."""
    mem = db.mem
    quick_sort_v(db, col)
    out = db.allocate_column(output_name, n=max(1, col.n),
                             width=ENTRY_WIDTH, fill=(0, 0))
    values = col.values
    n = col.n
    fused = mem.batch()
    out_base = out.address
    groups: list = []
    # The scalar pass flushes group g when it reads the first item of
    # group g+1, and flushes the last group after the loop.
    bounds = [i for i in range(1, n) if values[i] != values[i - 1]]
    starts = [0] + bounds

    def flush(p: int) -> None:
        fused(out_base + len(groups) * ENTRY_WIDTH, ENTRY_WIDTH, True)
        start = starts[len(groups)]
        groups.append((values[start], p - start))

    _sweep_with_marks(mem, fused, col.address, col.width, n, bounds, flush)
    if n:
        fused(out_base + len(groups) * ENTRY_WIDTH, ENTRY_WIDTH, True)
        start = starts[len(groups)]
        groups.append((values[start], n - start))
    out.values = groups
    return out


def hash_distinct_v(db: Database, col: Column,
                    output_name: str = "dist") -> Column:
    """Vectorized :func:`repro.db.hash_distinct`: fused input reads,
    lookup and insert chains, and output writes."""
    mem = db.mem
    table = SimHashTable(db, n=max(1, col.n), name=f"D({col.name})")
    out = db.allocate_column(output_name, n=max(1, col.n), width=col.width)
    fused = mem.batch()
    values = col.values
    in_addr = col.address
    in_width = col.width
    keys = table._keys
    payloads = table._payloads
    mask = table.mask
    capacity = table.capacity
    table_base = table.address
    out_base = out.address
    out_width = out.width
    entries = 0
    distinct: list = []
    for i in range(col.n):
        fused(in_addr, in_width)
        in_addr += in_width
        value = values[i]
        slot = ((value * 0x9E3779B97F4A7C15) >> 16) & mask
        step = (((value * 0xC2B2AE3D27D4EB4F) >> 24) | 1) & mask
        found = False
        while True:
            fused(table_base + slot * ENTRY_WIDTH, ENTRY_WIDTH)
            stored = keys[slot]
            if stored is _EMPTY:
                break
            if stored == value:
                found = True
            slot = (slot + step) & mask
        if not found:
            if entries >= capacity:
                table.entries = entries
                raise RuntimeError("hash table full")
            slot = ((value * 0x9E3779B97F4A7C15) >> 16) & mask
            while True:
                fused(table_base + slot * ENTRY_WIDTH, ENTRY_WIDTH, True)
                if keys[slot] is _EMPTY:
                    keys[slot] = value
                    payloads[slot] = i
                    entries += 1
                    break
                slot = (slot + step) & mask
            fused(out_base + len(distinct) * out_width, out_width, True)
            distinct.append(value)
    table.entries = entries
    out.values = distinct
    return out


def sort_distinct_v(db: Database, col: Column,
                    output_name: str = "dist") -> Column:
    """Vectorized :func:`repro.db.sort_distinct`: vectorized sort, then
    the de-duplication pass coalesced into runs split at the first
    occurrence of each distinct value."""
    mem = db.mem
    quick_sort_v(db, col)
    out = db.allocate_column(output_name, n=max(1, col.n), width=col.width)
    values = col.values
    n = col.n
    fused = mem.batch()
    out_base = out.address
    out_width = out.width
    distinct: list = []
    marks = [0] + [i for i in range(1, n) if values[i] != values[i - 1]] \
        if n else []

    def emit(p: int) -> None:
        fused(out_base + len(distinct) * out_width, out_width, True)
        distinct.append(values[p])

    _sweep_with_marks(mem, fused, col.address, col.width, n, marks, emit)
    out.values = distinct
    return out


# ----------------------------------------------------------------------
# partitioning (partition.py twin)
# ----------------------------------------------------------------------

def partition_v(db: Database, col: Column, m: int,
                output_name: str | None = None,
                slack_sigmas: float = 6.0,
                key_func=None) -> Partitions:
    """Vectorized :func:`repro.db.partition`: fused input reads and
    buffer writes (the write cursor hops between the ``m`` buffers in
    key order, so consecutive writes rarely share a run)."""
    if m < 1:
        raise ValueError("m must be positive")
    if m > col.n:
        raise ValueError("more partitions than items")
    name = output_name or f"P({col.name})"
    cluster_of = key_func or partition_key
    mem = db.mem
    n = col.n
    capacity = partition_capacity(n, m, slack_sigmas)

    region = DataRegion(name=name, n=m * capacity, w=col.width)
    buffers: list[Column] = []
    for j in range(m):
        buffers.append(
            db.allocate_column(f"{name}[{j}]", n=capacity, width=col.width)
        )
    fused = mem.batch()
    values = col.values
    width = col.width
    in_addr = col.address
    addresses = [buf.address for buf in buffers]
    fills = [0] * m
    collected: list[list] = [[] for _ in range(m)]
    for i in range(n):
        fused(in_addr, width)
        in_addr += width
        value = values[i]
        j = cluster_of(value, m)
        slot = fills[j]
        if slot >= capacity:
            raise RuntimeError(
                f"partition buffer {j} overflowed (capacity {capacity}); "
                f"increase slack_sigmas for skewed keys"
            )
        fused(addresses[j] + slot * width, width, True)
        collected[j].append(value)
        fills[j] = slot + 1

    clusters = []
    for j, buf in enumerate(buffers):
        buf.values = collected[j]
        clusters.append(buf)
    return Partitions(source_name=col.name, clusters=clusters, region=region)


# ----------------------------------------------------------------------
# spilling operators (spill.py twin)
# ----------------------------------------------------------------------

def merge_runs_v(db: Database, col: Column, bounds: list[tuple[int, int]],
                 out: Column) -> None:
    """Vectorized :func:`repro.db.spill.merge_runs`: the k-way merge of
    an external sort through one fused accessor (the merge cursor hops
    between run heads, so the merge itself does not coalesce)."""
    fused = db.mem.batch()
    width = col.width
    values = col.values
    base = col.address
    out_base = out.address
    heads: list[tuple[int, int, int]] = []
    for j, (start, _) in enumerate(bounds):
        fused(base + start * width, width)
        heads.append((values[start], j, start))
    merged: list = []
    count = 0
    while heads:
        index = min(range(len(heads)), key=lambda k: heads[k][0])
        value, j, pos = heads[index]
        fused(out_base + count * width, width, True)
        merged.append(value)
        count += 1
        pos += 1
        if pos < bounds[j][1]:
            fused(base + pos * width, width)
            heads[index] = (values[pos], j, pos)
        else:
            del heads[index]
    out.values = merged
