"""Bump allocator for the simulated address space.

The database engine places every column, hash table and partition buffer
at an explicit address in the simulated memory, because cache behaviour
depends on addresses (line alignment, page spread, conflict sets).  A
simple monotonic bump allocator with alignment control is sufficient: the
experiments never free memory mid-run, they reset the whole system.
"""

from __future__ import annotations

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

    def allocate(self, nbytes: int, alignment: int | None = None) -> int:
        """Reserve ``nbytes`` and return the start address."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        align = self.DEFAULT_ALIGNMENT if alignment is None else alignment
        if align < 1:
            raise ValueError("alignment must be positive")
        addr = -(-self._next // align) * align
        self._next = addr + nbytes
        self._bytes_allocated += nbytes
        return addr

    @property
    def bytes_allocated(self) -> int:
        """Total bytes reserved so far (alignment padding excluded)."""
        return self._bytes_allocated

    @property
    def next_address(self) -> int:
        return self._next
