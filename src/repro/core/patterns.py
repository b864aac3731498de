"""The access-pattern language of Section 3.

Basic patterns (Section 3.2)::

    s_trav  — single sequential traversal        STrav(R, u)
    r_trav  — single random traversal            RTrav(R, u)
    rs_trav — repetitive sequential traversal    RSTrav(r, direction, R, u)
    rr_trav — repetitive random traversal        RRTrav(r, R, u)
    r_acc   — random access (r hits)             RAcc(r, R, u)
    nest    — interleaved multi-cursor access    Nest(R, m, local, order, ...)

Sequential traversals come in two latency variants (Section 4.1): the
``seq_latency=True`` variant (written ``s_trav+``) models code that can
exploit the EDO/prefetch stream and incurs *sequential* misses; the
``seq_latency=False`` variant (``s_trav-``) incurs the same *number* of
misses but at random latency (data dependencies defeat overlapping).

Compound patterns (Section 3.3) combine children with sequential
execution ``⊕`` (:class:`Seq`) or concurrent execution ``⊙``
(:class:`Conc`).  Python operators mirror the paper's precedence (``⊙``
binds tighter than ``⊕``): ``a * b`` is concurrent, ``a + b`` is
sequential, and ``*`` binds tighter than ``+`` in Python.

:class:`QuickSort` is the one recursive description: the ``⊕`` of
quick-sort's partitioning passes (Section 6.2), stored as its input
region and recursion bound rather than as one node per sub-table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

from .regions import DataRegion

__all__ = [
    "Pattern",
    "BasicPattern",
    "STrav",
    "RTrav",
    "RSTrav",
    "RRTrav",
    "RAcc",
    "Nest",
    "Seq",
    "Conc",
    "QuickSort",
    "seq",
    "conc",
    "UNI",
    "BI",
    "SEQUENTIAL",
    "RANDOM",
]

#: Traversal directions (parameter ``d`` of the paper).
UNI: Literal["uni"] = "uni"
BI: Literal["bi"] = "bi"

#: Global cursor orders of ``nest`` (parameter ``o`` of the paper).
SEQUENTIAL: Literal["seq"] = "seq"
RANDOM: Literal["rand"] = "rand"


class Pattern:
    """Base class of all access patterns (basic and compound)."""

    def __add__(self, other: "Pattern") -> "Seq":
        """Sequential execution ``self ⊕ other`` (paper operator ⊕)."""
        if not isinstance(other, Pattern):
            return NotImplemented
        return Seq.of(self, other)

    def __mul__(self, other: "Pattern") -> "Conc":
        """Concurrent execution ``self ⊙ other`` (paper operator ⊙)."""
        if not isinstance(other, Pattern):
            return NotImplemented
        return Conc.of(self, other)

    def regions(self) -> list[DataRegion]:
        """All data regions referenced by this pattern, in order."""
        raise NotImplementedError

    def notation(self) -> str:
        """Rendering in the paper's pattern notation."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.notation()


@dataclass(frozen=True, repr=False)
class BasicPattern(Pattern):
    """A basic pattern over one data region.

    ``u`` is the number of bytes actually used of each data item
    (Section 3.2); it defaults to the full item width and must satisfy
    ``1 <= u <= R.w``.
    """

    region: DataRegion
    u: int | None = None

    def __post_init__(self) -> None:
        if self.u is not None:
            if self.u < 1:
                raise ValueError(f"u must be >= 1, got {self.u}")
            if self.u > self.region.w:
                raise ValueError(
                    f"u ({self.u}) exceeds item width {self.region.w} "
                    f"of region {self.region.name}"
                )

    @property
    def used_bytes(self) -> int:
        """``u`` with the default (full item width) resolved."""
        return self.region.w if self.u is None else self.u

    @property
    def is_random(self) -> bool:
        """Whether this is a random pattern (only random misses)."""
        raise NotImplementedError

    def regions(self) -> list[DataRegion]:
        return [self.region]

    def _u_suffix(self) -> str:
        return "" if self.u is None else f", {self.u}"


@dataclass(frozen=True, repr=False)
class STrav(BasicPattern):
    """Single sequential traversal ``s_trav(R[, u])``.

    ``seq_latency`` selects the ``s_trav+`` (True) or ``s_trav-`` (False)
    variant of Section 4.1.
    """

    seq_latency: bool = True

    @property
    def is_random(self) -> bool:
        return False

    def notation(self) -> str:
        sign = "+" if self.seq_latency else "-"
        return f"s_trav{sign}({self.region.name}{self._u_suffix()})"


@dataclass(frozen=True, repr=False)
class RTrav(BasicPattern):
    """Single random traversal ``r_trav(R[, u])``: every item exactly once,
    in random order."""

    @property
    def is_random(self) -> bool:
        return True

    def notation(self) -> str:
        return f"r_trav({self.region.name}{self._u_suffix()})"


@dataclass(frozen=True, repr=False)
class RSTrav(BasicPattern):
    """Repetitive sequential traversal ``rs_trav(r, d, R[, u])``.

    ``r`` traversals, each a full sequential sweep; ``direction`` says
    whether subsequent sweeps run in the same (:data:`UNI`) or alternating
    (:data:`BI`) direction — only bi-directional sweeps can re-use the
    cache tail left by their predecessor (Section 4.5.1).
    """

    r: int = 1
    direction: str = UNI
    seq_latency: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.direction not in (UNI, BI):
            raise ValueError(f"direction must be 'uni' or 'bi', got {self.direction!r}")

    @property
    def is_random(self) -> bool:
        return False

    def notation(self) -> str:
        sign = "+" if self.seq_latency else "-"
        return (f"rs_trav{sign}({self.r}, {self.direction}, "
                f"{self.region.name}{self._u_suffix()})")


@dataclass(frozen=True, repr=False)
class RRTrav(BasicPattern):
    """Repetitive random traversal ``rr_trav(r, R[, u])``.

    Permutation orders of subsequent traversals are independent, so no
    direction parameter exists (Section 3.2).
    """

    r: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")

    @property
    def is_random(self) -> bool:
        return True

    def notation(self) -> str:
        return f"rr_trav({self.r}, {self.region.name}{self._u_suffix()})"


@dataclass(frozen=True, repr=False)
class RAcc(BasicPattern):
    """Random access ``r_acc(r, R[, u])``: ``r`` independent uniform hits,
    items may repeat and need not all be touched."""

    r: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")

    @property
    def is_random(self) -> bool:
        return True

    def notation(self) -> str:
        return f"r_acc({self.r}, {self.region.name}{self._u_suffix()})"


@dataclass(frozen=True, repr=False)
class Nest(BasicPattern):
    """Interleaved multi-cursor access ``nest(R, m, P, o[, d])``.

    ``R`` is divided into ``m`` equal sub-regions, each with a local
    cursor performing ``local`` (the name of a basic pattern class); a
    global cursor picks local cursors sequentially (``order=SEQUENTIAL``,
    optionally with direction ``direction``) or randomly
    (``order=RANDOM``).  This is the paper's model for partitioning
    output: one sequential cursor per output buffer, hopping between
    buffers in input-data order.
    """

    m: int = 1
    local: str = "s_trav"
    order: str = RANDOM
    direction: str = UNI
    seq_latency: bool = True
    #: For a local ``r_acc``: total number of accesses across all cursors.
    r: int | None = None

    _LOCALS = ("s_trav", "r_trav", "r_acc")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.m > self.region.n:
            raise ValueError(
                f"m ({self.m}) exceeds the region length {self.region.n}"
            )
        if self.local not in self._LOCALS:
            raise ValueError(f"local must be one of {self._LOCALS}, got {self.local!r}")
        if self.order not in (SEQUENTIAL, RANDOM):
            raise ValueError(f"order must be 'seq' or 'rand', got {self.order!r}")
        if self.direction not in (UNI, BI):
            raise ValueError(f"direction must be 'uni' or 'bi', got {self.direction!r}")
        if self.local == "r_acc" and self.r is None:
            raise ValueError("a local r_acc nest needs the total access count r")

    @property
    def is_random(self) -> bool:
        return self.local != "s_trav" or self.order == RANDOM

    def notation(self) -> str:
        return (f"nest({self.region.name}, {self.m}, {self.local}, "
                f"{self.order})")


class _Compound(Pattern):
    """Shared behaviour of ``Seq`` and ``Conc``."""

    _symbol = "?"
    #: Lazily filled per instance, each by its first asker: the
    #: structural hash, the footprint per line size
    #: (:func:`repro.core.cost.footprint_lines`), and a node the cost
    #: evaluator's memo has compared this one with and found congruent.
    _hash: int | None = None
    _footprints: "dict[int, float] | None" = None
    _twin: "_Compound | None" = None

    def __init__(self, parts: Iterable[Pattern]) -> None:
        parts = tuple(parts)
        if len(parts) < 1:
            raise ValueError("a compound pattern needs at least one part")
        for part in parts:
            if not isinstance(part, Pattern):
                raise TypeError(f"not a pattern: {part!r}")
        self.parts = parts

    @classmethod
    def of(cls, *parts: Pattern) -> "_Compound":
        """Build, flattening nested compounds of the same kind
        (both ⊕ and ⊙ are associative; ⊙ is also commutative).

        Flattening is one level deep per call, which suffices for
        incremental composition: growing a compound one part at a time
        (``Conc.of(Conc.of(a, b), c)``, or equivalently ``a * b * c``)
        always yields the flat ``(a, b, c)``, because the inner compound
        was itself built flat.  Only the *direct constructor*
        (``Conc(Conc(...), c)``) preserves nesting — the cost evaluator
        divides the cache identically either way (⊙ sharing is
        proportional, hence associative), but canonical flat parts are
        what notation, equality and the schedulers rely on.
        """
        flat: list[Pattern] = []
        for part in parts:
            if type(part) is cls:
                flat.extend(part.parts)  # type: ignore[attr-defined]
            else:
                flat.append(part)
        return cls(flat)

    def regions(self) -> list[DataRegion]:
        out: list[DataRegion] = []
        for part in self.parts:
            out.extend(part.regions())
        return out

    def notation(self) -> str:
        return f" {self._symbol} ".join(map(self._render, self.parts))

    def _render(self, part: Pattern) -> str:
        """A part's notation inside this compound: parenthesized when
        the part is itself compound — except a quick-sort inside ``⊕``,
        whose passes read as this ``⊕``'s own parts (the ``⊕`` of
        passes that it stands for would have been flattened in)."""
        if isinstance(part, QuickSort) and isinstance(self, Seq):
            return part.notation()
        if isinstance(part, (_Compound, QuickSort)):
            return f"({part.notation()})"
        return part.notation()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other) or hash(self) != hash(other):
            return False
        return self.parts == other.parts  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # Structural, computed on first use and kept: a compound is
        # immutable, the cost evaluator's memo hashes the same node once
        # per lookup, and a tree nobody ever hashes pays nothing.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((type(self).__name__, self.parts))
        return cached


class Seq(_Compound):
    """Sequential execution ``P1 ⊕ P2 ⊕ ...``: parts run one after the
    other; later parts may re-use cache contents left by earlier ones
    (Section 5.1)."""

    _symbol = "⊕"


class Conc(_Compound):
    """Concurrent execution ``P1 ⊙ P2 ⊙ ...``: parts compete for the
    cache, which the model divides proportionally to the parts'
    footprints (Section 5.2)."""

    _symbol = "⊙"


class QuickSort(Pattern):
    """In-place quick-sort of ``region`` (Section 6.2), as one node.

    A sub-table is partitioned by one pass of two cursors running
    towards each other, one over each half
    (``s_trav+(sub.L) ⊙ s_trav+(sub.R)``); the recursion then descends
    depth first into both halves, as long as each half keeps at least
    two items and the sub-table exceeds ``stop_bytes``.  The node
    stands for the ``⊕`` of those passes in that pre-order —
    :meth:`passes` lists them, the halves named ``<sub>.L@<depth>`` and
    ``<sub>.R@<depth>`` and parented to their sub-table — but stores
    only ``(region, stop_bytes)``: it costs O(1) to build, hash and
    compare, however deep the recursion.  :meth:`notation` and
    :meth:`regions` are generated from the passes when asked, and equal
    those of the ``⊕`` of the passes.

    **The fold.**  The cost evaluator (:func:`repro.core.cost._fold`)
    never lists the passes.  It adds their misses, in pre-order, to the
    running total of the *enclosing* ``⊕`` — the float additions of
    the ``⊕`` of passes, in its order, so the estimate is that tree's
    to the bit.  ``Seq.of`` therefore keeps the node whole, and inside
    a ``⊕`` it renders without parentheses.

    Equality and hash cover what the evaluator reads: ``stop_bytes``
    and ``region``'s ``(name, n, w)`` along its whole parent chain.
    Build one with :func:`~repro.core.algorithms.quick_sort_pattern`,
    which returns the single pass of a table that does not recurse.
    """

    #: A node the cost evaluator's memo compared this one with and
    #: found congruent (:func:`repro.core.cost._congruent`).
    _twin: "QuickSort | None" = None

    def __init__(self, region: DataRegion,
                 stop_bytes: int | None = None) -> None:
        self.region = region
        self.stop_bytes = stop_bytes

    def splits(self, n: int) -> bool:
        """Whether a sub-table of ``n`` items recurses into its halves:
        both keep at least two items (``n >= 4``) and it exceeds
        ``stop_bytes``."""
        return n >= 4 and n * self.region.w > (self.stop_bytes or 0)

    @staticmethod
    def pass_of(sub: DataRegion, depth: int = 0) -> Conc:
        """The partitioning pass over ``sub`` at recursion ``depth``."""
        left, right = sub.halves(suffix=f"@{depth}")
        return Conc((STrav(left), STrav(right)))

    def first_pass(self) -> Conc:
        """The pass over the whole input."""
        return self.pass_of(self.region)

    def last_pass(self) -> Conc:
        """The pass over the rightmost sub-table — the one whose cache
        state the sort leaves behind."""
        sub, depth = self.region, 0
        while self.splits(sub.n):
            sub = sub.halves(suffix=f"@{depth}")[1]
            depth += 1
        return self.pass_of(sub, depth)

    def passes(self) -> Iterator[Conc]:
        """The partitioning passes, in execution (pre-)order."""
        stack = [(self.region, 0)]
        while stack:
            sub, depth = stack.pop()
            step = self.pass_of(sub, depth)
            yield step
            if self.splits(sub.n):
                left, right = (cursor.region for cursor in step.parts)
                stack.append((right, depth + 1))
                stack.append((left, depth + 1))

    def regions(self) -> list[DataRegion]:
        return [region for step in self.passes() for region in step.regions()]

    def notation(self) -> str:
        return " ⊕ ".join(f"({step.notation()})" for step in self.passes())

    def _chain(self) -> tuple[tuple[str, int, int], ...]:
        return tuple((r.name, r.n, r.w) for r in self.region.ancestors())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (type(other) is type(self)
                and self.stop_bytes == other.stop_bytes  # type: ignore[attr-defined]
                and self._chain() == other._chain())  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.stop_bytes, self._chain()))


def seq(*parts: Pattern | None) -> Pattern | None:
    """``⊕``-combine the non-``None`` parts.

    ``None`` parts (access-free plan stages, e.g. bare scans) are
    skipped; a single surviving part is returned unwrapped, and ``None``
    is returned when nothing remains.  This is the composition helper
    external layers (plan composition, the concurrent workload service)
    use to assemble patterns without special-casing emptiness.
    """
    present = [p for p in parts if p is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return Seq.of(*present)


def conc(*parts: Pattern | None) -> Pattern | None:
    """``⊙``-combine the non-``None`` parts (same conventions as
    :func:`seq`).  Composing the whole patterns of queries that are to
    run *concurrently* under one ``conc`` is exactly the paper's
    Section 5.2 model of inter-query cache contention."""
    present = [p for p in parts if p is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return Conc.of(*present)
