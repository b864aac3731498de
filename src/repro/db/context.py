"""Execution context: simulated memory plus address allocation.

A :class:`Database` bundles the pieces every operator needs — the
hierarchy profile, the trace-driven :class:`MemorySystem`, and the bump
allocator that places columns in the simulated address space — and offers
the measurement helpers the experiments use (snapshot deltas around an
operator run, the software analogue of reading hardware counters).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Iterator, Sequence

from ..hardware.hierarchy import MemoryHierarchy
from ..simulator.counters import CounterSnapshot
from ..simulator.memory import MemorySystem
from .allocator import Allocator
from .column import Column

__all__ = ["Database", "leaf_kernel"]


def leaf_kernel(scalar):
    """The execution-mode switch, written once.

    Decorates a scalar *leaf* kernel ``name(db, ...)`` — one whose own
    loop issues the simulated accesses — so that a call while
    ``db.execution`` is ``"vectorized"`` runs its chunked twin
    ``repro.db.vectorized.name_v`` with the same arguments (twins keep
    their scalar's signature).  Compositions of kernels are not
    decorated: they are written once and reach the twins through the
    leaves they call.
    """
    twin = scalar.__name__ + "_v"

    @functools.wraps(scalar)
    def kernel(db, *args, **kwargs):
        if db.execution == "scalar":
            return scalar(db, *args, **kwargs)
        from . import vectorized  # imports the scalar modules: not at load
        return getattr(vectorized, twin)(db, *args, **kwargs)

    return kernel


class Database:
    """A tiny column-oriented main-memory engine instance."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        self.mem = MemorySystem(hierarchy)
        self.allocator = Allocator()
        #: named-table catalog: the columns query frontends resolve by
        #: name.  Registration is explicit (see :meth:`register`) so
        #: intermediate results never shadow base tables.
        self.catalog: dict[str, Column] = {}
        # Active per-operator measurement collector (None outside a
        # :meth:`operator_measurement` block); plan nodes report their
        # inclusive counter deltas here.
        self._operator_probe: list | None = None
        #: execution mode for the db-layer operators: ``"scalar"``
        #: (item-at-a-time, the historical behaviour and the default for
        #: direct db-level calls) or ``"vectorized"`` (chunked kernels
        #: with range-coalesced simulator reporting — identical counters
        #: and results, much faster wall-clock).  The query layer scopes
        #: this per plan execution via :meth:`execution_scope`.
        self.execution = "scalar"

    # ------------------------------------------------------------------
    def register(self, column: Column, name: str | None = None) -> Column:
        """Register a column in the named-table catalog (under its own
        name by default).  Re-registering a name rebinds it."""
        self.catalog[name or column.name] = column
        return column

    def column(self, name: str) -> Column:
        """Look up a registered table/column by name."""
        try:
            return self.catalog[name]
        except KeyError:
            known = ", ".join(sorted(self.catalog)) or "none registered"
            raise KeyError(
                f"no registered table {name!r} (known: {known})") from None

    def set_hierarchy(self, hierarchy: MemoryHierarchy) -> None:
        """Switch to a new (e.g. re-calibrated) machine profile in
        place.  The address space, catalog, and column contents all
        survive; the trace-driven memory system restarts cold against
        the new hierarchy."""
        self.hierarchy = hierarchy
        self.mem = MemorySystem(hierarchy)

    # ------------------------------------------------------------------
    def create_column(self, name: str, values: Sequence, width: int = 8,
                      alignment: int | None = None) -> Column:
        """Materialise values as a column in simulated memory.

        Creation itself is *not* measured (the experiments measure the
        operators, not the loader), so no accesses are simulated here.
        """
        values = list(values)
        address = self.allocator.allocate(
            max(1, len(values)) * width, alignment=alignment
        )
        return Column(name=name, width=width, address=address, values=values)

    def allocate_column(self, name: str, n: int, width: int = 8,
                        fill=0, alignment: int | None = None) -> Column:
        """Pre-allocate an output column of ``n`` items."""
        if n < 1:
            raise ValueError("n must be positive")
        return self.create_column(name, [fill] * n, width=width, alignment=alignment)

    # ------------------------------------------------------------------
    def execute(self, plan) -> Column:
        """Run a physical plan (a :class:`~repro.query.QueryPlan` or any
        plan node) against this database and return its result column.

        The executor entry point: plans are duck-typed (anything with an
        ``execute(db)`` method), so the db layer needs no dependency on
        the query layer."""
        return plan.execute(self)

    def execute_measured(self, plan,
                         cold: bool = True) -> "tuple[Column, CounterSnapshot]":
        """Run a plan and return ``(result, counter delta)``.

        ``cold=True`` (the default) resets caches and counters first, so
        the delta is the plan's full cold-cache cost — the setting the
        model's empty-initial-state assumption (Section 4.5) describes.
        """
        if cold:
            self.reset()
        with self.measure() as result:
            out = plan.execute(self)
        return out, result[0]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Cold caches and zeroed counters (address space is kept)."""
        self.mem.reset()

    @contextmanager
    def execution_scope(self, mode: str) -> Iterator[None]:
        """Run the block under the given execution mode::

            with db.execution_scope("vectorized"):
                quick_sort(db, column)

        Restores the previous mode on exit (scopes nest).  Counters and
        results are identical across modes by construction; only the
        Python wall-clock differs.
        """
        if mode not in ("scalar", "vectorized"):
            raise ValueError(
                f"execution mode must be 'scalar' or 'vectorized', got {mode!r}")
        previous = self.execution
        self.execution = mode
        try:
            yield
        finally:
            self.execution = previous

    @contextmanager
    def operator_measurement(self) -> Iterator[list]:
        """Collect per-operator counter deltas inside the block.

        While active, every plan-operator execution (any node whose
        ``execute`` runs against this database — see
        :meth:`repro.query.PlanNode.execute`) appends an
        ``(operator, inclusive counter delta)`` pair to the yielded
        list, children included in the delta.  The scoped-measurement
        substrate of :func:`repro.query.measure_plan`; nests and
        restores any outer collector on exit."""
        records: list = []
        previous = self._operator_probe
        self._operator_probe = records
        try:
            yield records
        finally:
            self._operator_probe = previous

    @contextmanager
    def measure(self) -> Iterator[list[CounterSnapshot]]:
        """Measure the counter delta around a block::

            with db.measure() as result:
                quick_sort(db, column)
            delta = result[0]

        The yielded list receives exactly one element — the difference of
        the after/before snapshots — once the block exits.
        """
        result: list[CounterSnapshot] = []
        before = self.mem.snapshot()
        yield result
        after = self.mem.snapshot()
        result.append(after - before)
