"""Columns over the simulated memory.

The engine is column-oriented in the spirit of Monet (the paper's
experimentation platform): a :class:`Column` is a contiguous array of
fixed-width items at a simulated address; every read or write of an item
is reported to the :class:`~repro.simulator.MemorySystem` before the
Python-level value is touched, so the simulator observes the operator's
true access trace.

Since the vectorized execution engine, integer columns are *really*
contiguous: values live in an :class:`IntVector` — a 64-bit
:class:`array.array` subclass — so chunked kernels iterate machine
integers in one flat buffer instead of a list of boxed objects.
Columns holding non-integer values (the ``(outer, inner)`` pair outputs
of joins and aggregates) transparently fall back to a plain list.

A column maps 1:1 onto a cost-model :class:`~repro.core.DataRegion`
(length = cardinality, width = item size), which is how measured and
predicted costs are connected.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from ..core.regions import DataRegion
from ..simulator.memory import MemorySystem

__all__ = ["Column", "IntVector"]


class IntVector(array):
    """A contiguous vector of signed 64-bit integers.

    The storage type of integer columns: one flat C buffer (8 bytes per
    item, the default column width) instead of a list of boxed Python
    ints.  Compares equal to lists and tuples holding the same values,
    so the column API is unchanged for consumers.
    """

    def __new__(cls, values: Iterable = ()) -> "IntVector":
        return super().__new__(cls, "q", values)

    def __eq__(self, other):
        if isinstance(other, array):
            return array.__eq__(self, other)
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    # Mutable sequence with value-based equality.
    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IntVector({self.tolist()!r})"


class Column:
    """A fixed-width column at a simulated address.

    Parameters
    ----------
    name:
        Column identifier (also used for the derived region).
    width:
        Item width in bytes (the region's ``R.w``).
    address:
        Simulated start address (line/page alignment matters!).
    values:
        Backing Python values; the column owns them.  Integer values
        are stored in a contiguous :class:`IntVector`; anything else
        (join-result pairs, ...) keeps a plain list.
    """

    __slots__ = ("name", "width", "address", "_values")

    def __init__(self, name: str, width: int, address: int,
                 values) -> None:
        if width < 1:
            raise ValueError("width must be positive")
        if address < 0:
            raise ValueError("address must be non-negative")
        self.name = name
        self.width = width
        self.address = address
        self.values = values

    # ------------------------------------------------------------------
    @property
    def values(self):
        """The backing storage (:class:`IntVector` for integer columns,
        a list otherwise)."""
        return self._values

    @values.setter
    def values(self, new_values) -> None:
        if type(new_values) is IntVector:
            self._values = new_values
            return
        try:
            self._values = IntVector(new_values)
        except (TypeError, ValueError, OverflowError):
            # Non-integer payloads (pairs) or out-of-64-bit values.
            self._values = list(new_values)

    def copy_values(self):
        """A copy of the backing storage, of its own kind — what a
        snapshot holds and hands back to the setter.  An integer column
        is one buffer copy (and the setter takes an :class:`IntVector`
        back as it is); ``list(values)`` would box every item and the
        restore re-pack them."""
        values = self._values
        return (IntVector(values) if type(values) is IntVector
                else list(values))

    @property
    def n(self) -> int:
        return len(self._values)

    @property
    def size(self) -> int:
        """Bytes occupied: ``n * width``."""
        return self.n * self.width

    def item_address(self, index: int) -> int:
        return self.address + index * self.width

    def region(self, parent: DataRegion | None = None) -> DataRegion:
        """The cost-model region describing this column.

        An empty column (a join with no matches) is described as a
        one-item region — regions are never empty in the paper's model.
        """
        return DataRegion(name=self.name, n=max(1, self.n), w=self.width,
                          parent=parent)

    # ------------------------------------------------------------------
    def read(self, mem: MemorySystem, index: int, nbytes: int | None = None):
        """Read item ``index`` (touching ``nbytes`` of it, default all)."""
        mem.access(self.item_address(index), nbytes or self.width)
        return self._values[index]

    def write(self, mem: MemorySystem, index: int, value,
              nbytes: int | None = None) -> None:
        """Write item ``index``."""
        mem.access(self.item_address(index), nbytes or self.width, write=True)
        try:
            self._values[index] = value
        except (TypeError, OverflowError):
            # A non-integer value written into contiguous integer
            # storage (e.g. partitioning pair-valued intermediates):
            # demote the backing to a plain list and retry.
            self._values = list(self._values)
            self._values[index] = value

    def swap(self, mem: MemorySystem, i: int, j: int) -> None:
        """Swap two items (one read + one write per side)."""
        width = self.width
        mem.access(self.item_address(i), width)
        mem.access(self.item_address(j), width)
        mem.access(self.item_address(i), width, write=True)
        mem.access(self.item_address(j), width, write=True)
        values = self._values
        values[i], values[j] = values[j], values[i]

    def peek(self, index: int):
        """Read a value *without* simulating an access (test/debug only)."""
        return self._values[index]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Column({self.name}, n={self.n}, w={self.width}, @{self.address})"
