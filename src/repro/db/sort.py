"""In-place quick-sort with the paper's two-cursor partitioning pass.

"Quick-sort uses two cursors, one starting at the front and the other
starting at the end.  Both cursors sequentially walk towards each other
swapping data items where necessary, until they meet in the middle"
(Section 6.2) — i.e. a Hoare partition.  Recursion then proceeds
depth-first on both parts.  The access trace this produces is exactly the
compound pattern :func:`repro.core.quick_sort_pattern` describes.
"""

from __future__ import annotations

from .column import Column
from .context import Database, leaf_kernel

__all__ = ["quick_sort", "is_sorted"]

#: Sub-arrays of at most this many items are finished with insertion
#: sort, like production quick-sorts; the threshold is small enough not
#: to disturb the modelled pattern.
INSERTION_THRESHOLD = 8


@leaf_kernel
def quick_sort(db: Database, col: Column) -> None:
    """Sort a column in place (ascending)."""
    mem = db.mem
    values = col.values
    width = col.width
    base = col.address

    def read(i: int) -> int:
        mem.access(base + i * width, width)
        return values[i]

    def swap(i: int, j: int) -> None:
        mem.access(base + i * width, width, write=True)
        mem.access(base + j * width, width, write=True)
        values[i], values[j] = values[j], values[i]

    # Explicit stack: recursion depth is O(log n) in expectation but the
    # adversarial worst case is O(n).
    stack: list[tuple[int, int]] = [(0, col.n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo + 1 <= INSERTION_THRESHOLD:
            _insertion_sort(mem, col, lo, hi)
            continue
        split = _hoare_partition(read, swap, values, lo, hi)
        # Push the larger side first so the smaller is processed next,
        # bounding the stack at O(log n).
        if split - lo > hi - split - 1:
            stack.append((lo, split))
            stack.append((split + 1, hi))
        else:
            stack.append((split + 1, hi))
            stack.append((lo, split))


def _hoare_partition(read, swap, values, lo: int, hi: int) -> int:
    """The two-cursor partitioning pass of Section 6.2."""
    pivot = values[(lo + hi) // 2]
    i = lo - 1
    j = hi + 1
    while True:
        i += 1
        while read(i) < pivot:
            i += 1
        j -= 1
        while read(j) > pivot:
            j -= 1
        if i >= j:
            return j
        swap(i, j)


def _insertion_sort(mem, col: Column, lo: int, hi: int) -> None:
    values = col.values
    width = col.width
    base = col.address
    for i in range(lo + 1, hi + 1):
        mem.access(base + i * width, width)
        current = values[i]
        j = i - 1
        while j >= lo:
            mem.access(base + j * width, width)
            if values[j] <= current:
                break
            mem.access(base + (j + 1) * width, width, write=True)
            values[j + 1] = values[j]
            j -= 1
        mem.access(base + (j + 1) * width, width, write=True)
        values[j + 1] = current


def is_sorted(col: Column) -> bool:
    """Verification helper (no simulated accesses)."""
    values = col.values
    return all(values[i] <= values[i + 1] for i in range(len(values) - 1))
