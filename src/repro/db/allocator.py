"""Bump allocator for the simulated address space.

The database engine places every column, hash table and partition buffer
at an explicit address in the simulated memory, because cache behaviour
depends on addresses (line alignment, page spread, conflict sets).  A
simple monotonic bump allocator with alignment control is sufficient: the
experiments never free memory mid-run, they reset the whole system.

Because it only bumps upward, a deterministic run of allocations is
*relocatable*: started ``d`` bytes higher, with ``d`` a multiple of every
alignment the run requested, it hands out exactly the same addresses
shifted by ``d``.  :meth:`Allocator.watch` reports the alignments a run
requested and :meth:`Allocator.advance` replays a run's effect on the
allocator without its allocations — the two halves of the trace cache
in :func:`repro.service.executor.record_trace`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["Allocator"]


class Allocator:
    """Monotonic address allocator.

    Parameters
    ----------
    base:
        First address handed out.  Starting above zero avoids the
        (harmless but confusing) address-0 line.
    """

    #: Alignment applied when an allocation does not request its own.
    DEFAULT_ALIGNMENT = 8

    def __init__(self, base: int = 4096) -> None:
        if base < 0:
            raise ValueError("base must be non-negative")
        self._next = base
        self._bytes_allocated = 0
        # the alignments requested inside a watch() block
        self._watched: set[int] | None = None

    def allocate(self, nbytes: int, alignment: int | None = None) -> int:
        """Reserve ``nbytes`` and return the start address."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        align = self.DEFAULT_ALIGNMENT if alignment is None else alignment
        if align < 1:
            raise ValueError("alignment must be positive")
        if self._watched is not None:
            self._watched.add(align)
        addr = -(-self._next // align) * align
        self._next = addr + nbytes
        self._bytes_allocated += nbytes
        return addr

    @contextmanager
    def watch(self) -> Iterator[set[int]]:
        """Collect the alignment of every allocation inside the block
        into the yielded set."""
        self._watched = requested = set()
        try:
            yield requested
        finally:
            self._watched = None

    def advance(self, span: int, nbytes: int) -> None:
        """Move past ``span`` bytes of which ``nbytes`` count as
        allocated: the effect a recorded run of allocations had, with
        no allocation made."""
        self._next += span
        self._bytes_allocated += nbytes

    @property
    def bytes_allocated(self) -> int:
        """Total bytes reserved so far (alignment padding excluded)."""
        return self._bytes_allocated

    @property
    def next_address(self) -> int:
        return self._next
