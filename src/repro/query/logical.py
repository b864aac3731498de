"""Logical relational algebra with a cardinality oracle.

The paper assumes "a perfect oracle to predict the data volumes"; the
logical layer carries that oracle as explicit hints (selectivity, match
fraction, group count) so the optimizer can derive the regions of every
intermediate result *before* choosing physical operators for it.

A logical tree says **what** to compute::

    Aggregate(Join(Filter(Relation(orders), p, 0.5), Relation(customers)),
              groups=64)

and :class:`repro.query.Optimizer` decides **how**: join order, one
implementation per operator (merge vs. hash vs. partitioned hash vs.
nested loop; hash vs. sort aggregation), sort-ahead placement, and
partition counts — by minimizing the cost the model derives from each
candidate plan's combined access pattern.

Relations either wrap an engine :class:`~repro.db.Column` (executable
plans) or a bare :class:`~repro.core.DataRegion` (model-only planning at
sizes the trace-driven simulator cannot execute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.regions import DataRegion
from ..db.column import Column
from ..db.join import OUTPUT_WIDTH

__all__ = [
    "LogicalOp",
    "Relation",
    "Filter",
    "Join",
    "Sort",
    "Aggregate",
    "callable_key",
]


def callable_key(fn: Callable | None) -> str:
    """A canonicalization token for a predicate/key callable.

    Two trees share a token only while they reference the *same* callable
    object — ``id()`` can only be reused after the object dies, and a plan
    cache entry keeps every callable its compiled plan references alive,
    so a token can never match a stale cache entry."""
    if fn is None:
        return "-"
    name = getattr(fn, "__name__", type(fn).__name__)
    return f"{name}@{id(fn):x}"


class LogicalOp:
    """Base class of logical operators."""

    def children(self) -> tuple["LogicalOp", ...]:
        return ()

    def output_region(self) -> DataRegion:
        """The oracle-estimated region of this operator's result."""
        raise NotImplementedError

    def canonical_key(self) -> str:
        """A canonical rendering of this tree for plan-cache keys.

        Two logical trees with equal keys describe the same query over
        the same base columns with the same oracle hints (and the same
        predicate/key callables), so a plan compiled for one is valid
        for the other.  Keys embed object identity for columns and
        callables (see :func:`callable_key`); they are meaningful only
        while those objects are alive, which any cache holding the
        compiled plan guarantees."""
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__.lower()

    def describe(self, depth: int = 0) -> str:
        lines = [f"{'  ' * depth}{self.label()}  [n={self.output_region().n}]"]
        for child in self.children():
            lines.append(child.describe(depth + 1))
        return "\n".join(lines)


@dataclass
class Relation(LogicalOp):
    """A base relation: an engine column, or a bare region for
    model-only planning.  ``sorted`` declares an existing physical
    order the optimizer may exploit (merge join without sort-ahead)."""

    column: Column | None = None
    region: DataRegion | None = None
    sorted: bool = False

    def __post_init__(self) -> None:
        if (self.column is None) == (self.region is None):
            raise ValueError("a Relation needs exactly one of column/region")

    @classmethod
    def of_column(cls, column: Column, sorted: bool = False) -> "Relation":
        return cls(column=column, sorted=sorted)

    @classmethod
    def of_region(cls, region: DataRegion, sorted: bool = False) -> "Relation":
        return cls(region=region, sorted=sorted)

    def output_region(self) -> DataRegion:
        return self.column.region() if self.column is not None else self.region

    def canonical_key(self) -> str:
        if self.column is not None:
            src = f"col:{self.column.name}@{id(self.column):x}"
        else:
            src = f"reg:{self.region.name}/{self.region.n}/{self.region.w}"
        return f"rel({src},sorted={int(self.sorted)})"

    def label(self) -> str:
        return f"relation({self.output_region().name})"


@dataclass
class Filter(LogicalOp):
    """Selection; ``selectivity`` is the oracle's output fraction."""

    child: LogicalOp
    predicate: Callable[[int], bool]
    selectivity: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError("selectivity must be in (0, 1]")

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def output_region(self) -> DataRegion:
        src = self.child.output_region()
        n = max(1, int(src.n * self.selectivity))
        return DataRegion(f"σ({src.name})", n=n, w=src.w)

    def canonical_key(self) -> str:
        # float() normalizes int-valued hints (sel=1 vs the text
        # frontend's sel=1.0) so all frontends render one key
        return (f"filter({self.child.canonical_key()},"
                f"sel={float(self.selectivity)!r},"
                f"pred={callable_key(self.predicate)})")

    def label(self) -> str:
        return f"filter(sel={self.selectivity})"


@dataclass
class Join(LogicalOp):
    """Equi-join; ``match_fraction`` is the oracle's fraction of the
    smaller input that finds matches (containment assumption, so the
    output cardinality is ``min(|L|, |R|) * match_fraction``).

    Nested joins form an n-way join whose association the optimizer is
    free to reorder (all joins of one chain are over a shared key
    domain, the engine's oid-style semantics).
    """

    left: LogicalOp
    right: LogicalOp
    match_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.match_fraction <= 1.0:
            raise ValueError("match_fraction must be in (0, 1]")

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.left, self.right)

    def output_region(self) -> DataRegion:
        l, r = self.left.output_region(), self.right.output_region()
        n = max(1, int(min(l.n, r.n) * self.match_fraction))
        return DataRegion(f"({l.name}⋈{r.name})", n=n, w=OUTPUT_WIDTH)

    def canonical_key(self) -> str:
        return (f"join({self.left.canonical_key()},"
                f"{self.right.canonical_key()},"
                f"mf={float(self.match_fraction)!r})")

    def label(self) -> str:
        return f"join(mf={self.match_fraction})"


@dataclass
class Sort(LogicalOp):
    """Request a sorted result (ORDER BY)."""

    child: LogicalOp

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def output_region(self) -> DataRegion:
        src = self.child.output_region()
        return DataRegion(f"sort({src.name})", n=src.n, w=src.w)

    def canonical_key(self) -> str:
        return f"sort({self.child.canonical_key()})"


@dataclass
class Aggregate(LogicalOp):
    """Group-count; ``groups`` is the oracle's group count and
    ``key_of`` extracts the grouping key from a stored value (join
    outputs store (outer oid, inner oid) pairs).

    With ``key_of=None`` over a join, the optimizer groups by the join
    *key* (inserting a projection), which is invariant under join
    reordering — the recommended form.  A provided ``key_of`` is
    *positional*: it reads the raw pair structure, whose meaning depends
    on join order, operand sides and row order, so the optimizer pins
    the child subtree to the canonical order-preserving plan instead of
    enumerating alternatives."""

    child: LogicalOp
    groups: int = 64
    key_of: Callable | None = None

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ValueError("groups must be positive")

    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def output_region(self) -> DataRegion:
        return DataRegion("agg", n=max(1, self.groups), w=16)

    def canonical_key(self) -> str:
        return (f"agg({self.child.canonical_key()},"
                f"groups={self.groups},"
                f"key={callable_key(self.key_of)})")

    def label(self) -> str:
        return f"aggregate(groups={self.groups})"
