"""Fluent query builder lowering to the logical algebra.

A :class:`QueryBuilder` wraps a :class:`~repro.query.logical.LogicalOp`
tree and grows it method by method::

    s.table("orders").filter(even, selectivity=0.5) \\
     .join(s.table("customers"), match=1.0) \\
     .group_by(groups=64).agg("count")

Builders are immutable: every composition method returns a *new*
builder, so partial queries can be shared and extended independently.
The builder adds no semantics of its own — :meth:`QueryBuilder.logical`
is a plain algebra tree, byte-identical (same classes, same hints, same
canonical key) to one assembled by hand, so both paths compile to the
same physical plan.  Terminal methods (:meth:`~QueryBuilder.prepare`,
:meth:`~QueryBuilder.execute`, :meth:`~QueryBuilder.explain`) delegate
to the owning :class:`~repro.session.Session`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..query.logical import Aggregate, Filter, Join, LogicalOp, Sort

if TYPE_CHECKING:
    from ..db.column import Column
    from .session import Session

__all__ = ["QueryBuilder", "GroupedBuilder"]


class QueryBuilder:
    """An immutable fluent wrapper around a logical tree, bound to a
    session."""

    def __init__(self, session: "Session", logical: LogicalOp) -> None:
        self.session = session
        self._logical = logical

    def _wrap(self, logical: LogicalOp) -> "QueryBuilder":
        return QueryBuilder(self.session, logical)

    # -- composition ---------------------------------------------------
    def filter(self, predicate: Callable | str,
               selectivity: float = 0.5) -> "QueryBuilder":
        """Select items satisfying ``predicate`` (a callable or the name
        of a session-registered predicate); ``selectivity`` is the
        oracle's output fraction."""
        return self._wrap(Filter(self._logical,
                                 self.session.function(predicate),
                                 selectivity=selectivity))

    def join(self, other: "QueryBuilder | LogicalOp | str",
             match: float = 1.0) -> "QueryBuilder":
        """Equi-join with ``other`` (a builder, a logical tree, a
        registered table name, or query text); ``match`` is the oracle's
        match fraction."""
        return self._wrap(Join(self._logical,
                               self.session.as_logical(other),
                               match_fraction=match))

    def sort(self) -> "QueryBuilder":
        """Request a sorted result (ORDER BY)."""
        return self._wrap(Sort(self._logical))

    def group_by(self, groups: int = 64,
                 key: Callable | str | None = None) -> "GroupedBuilder":
        """Group by value (or by ``key``, a callable or registered
        function name, for positional grouping); ``groups`` is the
        oracle's group count.  Returns the grouped stage — pick the
        aggregate with :meth:`GroupedBuilder.agg` or
        :meth:`GroupedBuilder.count`."""
        return GroupedBuilder(self.session, self._logical, groups,
                              self.session.function(key))

    def aggregate(self, groups: int = 64,
                  key: Callable | str | None = None) -> "QueryBuilder":
        """Shortcut for ``group_by(groups, key).count()``."""
        return self.group_by(groups, key).count()

    # -- terminals -----------------------------------------------------
    def logical(self) -> LogicalOp:
        """The underlying logical algebra tree."""
        return self._logical

    def canonical_key(self) -> str:
        """Canonical tree rendering (the plan-cache key component)."""
        return self._logical.canonical_key()

    def describe(self) -> str:
        """The logical tree with oracle cardinalities, one node per
        line."""
        return self._logical.describe()

    def prepare(self):
        """Compile (through the session's plan cache) into a
        :class:`~repro.session.PreparedStatement`."""
        return self.session.prepare(self)

    def explain_query(self):
        """The chosen plan's typed
        :class:`~repro.query.Explanation`."""
        return self.session.explain_query(self)

    def execute(self, restore: bool = False) -> "Column":
        """Compile (cached) and run the chosen plan."""
        return self.session.execute(self, restore=restore)

    def run(self, restore: bool = False):
        """Compile (cached) and run, returning a typed
        :class:`~repro.query.QueryResult`."""
        return self.session.run(self, restore=restore)

    def execute_measured(self, cold: bool = True, restore: bool = False):
        """Compile (cached), run, and measure; returns a typed
        :class:`~repro.query.MeasuredResult`."""
        return self.session.execute_measured(self, cold=cold,
                                             restore=restore)

    def __repr__(self) -> str:
        return f"QueryBuilder({self._logical.label()})"


class GroupedBuilder:
    """The ``group_by(...)`` stage: choose the aggregate to compute.

    The engine's aggregation operator is group-count, so ``"count"`` is
    the one supported aggregate; the stage exists so the fluent surface
    reads like the query it builds (``.group_by(...).agg("count")``) and
    can grow with the engine.
    """

    def __init__(self, session: "Session", logical: LogicalOp,
                 groups: int, key_of: Callable | None) -> None:
        self.session = session
        self._logical = logical
        self._groups = groups
        self._key_of = key_of

    def agg(self, kind: str = "count") -> QueryBuilder:
        """Finalize the grouping with aggregate ``kind``."""
        if kind != "count":
            raise ValueError(
                f"unsupported aggregate {kind!r}: the engine computes "
                "group counts")
        return QueryBuilder(
            self.session,
            Aggregate(self._logical, groups=self._groups,
                      key_of=self._key_of))

    def count(self) -> QueryBuilder:
        """Finalize as a group-count."""
        return self.agg("count")
