"""Open-addressing hash table in simulated memory.

The cost model describes a hash table as a single data region ``H`` of
fixed-width entries that is written in random order at build time
(``r_trav(H)``) and hit randomly at probe time (``r_acc(r, H)``).  An
open-addressing table with double hashing matches that abstraction
directly: one contiguous slot array, one (expected ``~1.x``) slot touch
per operation.  Chained tables would add a second region (the chain
nodes) that the paper's single-region description does not model.

Slots are 16 bytes (key + payload); the capacity is the smallest power of
two at or above ``n / max_load``.
"""

from __future__ import annotations

from ..core.algorithms import hash_capacity
from ..core.regions import DataRegion
from .column import Column
from .context import Database, leaf_kernel

__all__ = ["SimHashTable", "ENTRY_WIDTH", "fill_table"]

#: Bytes per slot: 8-byte key + 8-byte payload.
ENTRY_WIDTH = 16

_EMPTY = object()


class SimHashTable:
    """A fixed-capacity open-addressing hash table.

    Parameters
    ----------
    db:
        Execution context (provides memory + allocator).
    n:
        Expected number of entries.
    max_load:
        Load factor bound; capacity is sized to keep the average probe
        sequence short so the measured trace stays close to the modelled
        one-hit-per-operation abstraction.
    """

    def __init__(self, db: Database, n: int, max_load: float = 0.5,
                 name: str = "H") -> None:
        capacity = hash_capacity(n, max_load)
        self.db = db
        self.name = name
        self.capacity = capacity
        self.mask = capacity - 1
        self.address = db.allocator.allocate(capacity * ENTRY_WIDTH,
                                             alignment=ENTRY_WIDTH)
        self._keys: list = [_EMPTY] * capacity
        self._payloads: list = [None] * capacity
        self.entries = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Bytes occupied by the slot array: ``capacity * ENTRY_WIDTH``."""
        return self.capacity * ENTRY_WIDTH

    def region(self) -> DataRegion:
        """The cost-model region for this table: the whole slot array."""
        return DataRegion(name=self.name, n=self.capacity, w=ENTRY_WIDTH)

    def _slot_address(self, slot: int) -> int:
        return self.address + slot * ENTRY_WIDTH

    def _hash1(self, key: int) -> int:
        # Fibonacci hashing: spreads consecutive keys over the table.
        return ((key * 0x9E3779B97F4A7C15) >> 16) & self.mask

    def _hash2(self, key: int) -> int:
        # Odd step for full-cycle double hashing on a power-of-two table.
        return (((key * 0xC2B2AE3D27D4EB4F) >> 24) | 1) & self.mask

    # ------------------------------------------------------------------
    def insert(self, key: int, payload) -> None:
        """Insert a key (duplicates allowed: each gets its own slot)."""
        if self.entries >= self.capacity:
            raise RuntimeError("hash table full")
        mem = self.db.mem
        slot = self._hash1(key)
        step = self._hash2(key)
        while True:
            mem.access(self._slot_address(slot), ENTRY_WIDTH, write=True)
            if self._keys[slot] is _EMPTY:
                self._keys[slot] = key
                self._payloads[slot] = payload
                self.entries += 1
                return
            slot = (slot + step) & self.mask

    def lookup(self, key: int) -> list:
        """All payloads stored under ``key`` (empty list if none)."""
        mem = self.db.mem
        slot = self._hash1(key)
        step = self._hash2(key)
        matches = []
        while True:
            mem.access(self._slot_address(slot), ENTRY_WIDTH)
            stored = self._keys[slot]
            if stored is _EMPTY:
                return matches
            if stored == key:
                matches.append(self._payloads[slot])
            slot = (slot + step) & self.mask

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, db: Database, col: Column, max_load: float = 0.5,
              name: str = "H") -> "SimHashTable":
        """Build a table over a column: a table sized for it, filled
        by :func:`fill_table`."""
        table = cls(db, n=max(1, col.n), max_load=max_load, name=name)
        fill_table(db, table, col)
        return table


@leaf_kernel
def fill_table(db: Database, table: SimHashTable, col: Column) -> None:
    """Insert every item of ``col`` into an existing table: sequential
    read of the input, random writes into ``H`` — the ``build(V,H)``
    pattern."""
    mem = db.mem
    for i in range(col.n):
        mem.access(col.item_address(i), col.width)
        table.insert(col.values[i], i)
