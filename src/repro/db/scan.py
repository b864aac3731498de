"""Unary pipeline operators: scan, select, project.

Each operator is implemented exactly as its Table 2 pattern describes:
a sequential input cursor and (where there is output) a sequential output
cursor; ``u`` — the bytes actually used per input item — surfaces as the
``used_bytes`` argument.
"""

from __future__ import annotations

from typing import Callable

from .column import Column
from .context import Database, leaf_kernel

__all__ = ["scan", "select", "project", "project_node"]


@leaf_kernel
def scan(db: Database, col: Column, used_bytes: int | None = None) -> int:
    """Sequential sweep over a column; returns a checksum so the work is
    observable.  Pattern: ``s_trav+(U[, u])``."""
    mem = db.mem
    u = used_bytes or col.width
    if u > col.width:
        raise ValueError("used_bytes exceeds the item width")
    checksum = 0
    for i in range(col.n):
        mem.access(col.item_address(i), u)
        checksum = (checksum + col.values[i]) & 0xFFFFFFFF
    return checksum


@leaf_kernel
def select(db: Database, col: Column, predicate: Callable[[int], bool],
           output_name: str = "sel") -> Column:
    """Filter a column; sequential input and output cursors.
    Pattern: ``s_trav+(U) ⊙ s_trav+(W)``."""
    mem = db.mem
    out = db.allocate_column(output_name, n=max(1, col.n), width=col.width)
    count = 0
    for i in range(col.n):
        value = col.read(mem, i)
        if predicate(value):
            out.write(mem, count, value)
            count += 1
    out.values = out.values[:count]
    return out


@leaf_kernel
def project(db: Database, col: Column, used_bytes: int,
            output_width: int | None = None,
            output_name: str = "prj") -> Column:
    """Copy ``used_bytes`` of every item to a narrower output column.
    Pattern: ``s_trav+(U, u) ⊙ s_trav+(W)``."""
    if not 1 <= used_bytes <= col.width:
        raise ValueError("used_bytes must be within the item width")
    mem = db.mem
    width = output_width or used_bytes
    out = db.allocate_column(output_name, n=col.n, width=width)
    for i in range(col.n):
        mem.access(col.item_address(i), used_bytes)
        out.write(mem, i, col.values[i])
    return out


@leaf_kernel
def project_node(db: Database, col: Column, output_name: str, width: int,
                 used_bytes: int, recover=None) -> Column:
    """The projection a plan's :class:`~repro.query.ProjectNode` runs:
    like :func:`project` (same pattern), but every output item is
    ``recover(row, value)`` — the plan's join-key recovery — when
    ``recover`` is given, and an empty input still yields a (one-item
    capacity, zero-row) column."""
    mem = db.mem
    out = db.allocate_column(output_name, n=max(1, col.n), width=width)
    for row in range(col.n):
        mem.access(col.item_address(row), used_bytes)
        value = col.values[row]
        out.write(mem, row,
                  recover(row, value) if recover is not None else value)
    out.values = out.values[:col.n]
    return out
