"""Automatic cost-function assembly (paper Sections 3.3, 5 and 6.1).

Given a (compound) access pattern and a machine profile, the
:class:`CostModel` derives the pattern's memory-access cost by

1. estimating, per cache level, the sequential/random miss pair of every
   basic pattern (Section 4, :mod:`repro.core.misses`),
2. threading cache state through sequential combinations ``⊕``
   (Eqs. 5.1 / 5.2),
3. dividing the cache among concurrent combinations ``⊙`` proportionally
   to the parts' footprints (Eq. 5.3), and
4. scoring misses with their latencies and summing over levels
   (Eq. 3.1), optionally adding calibrated pure CPU time (Eq. 6.1).

Eq. 3.1, ``T_mem = Σ_i M_i · l_i``, keeps what a pattern *misses* apart
from what a miss *costs*, and so does this module.  Steps 1 - 3 are one
pure function of ``(pattern, LevelGeometry, CacheState)`` —
:func:`_evaluate`, which reads no latency and no hierarchy — and its
answers are remembered in **one process-wide miss memo**; step 4 is
:attr:`LevelCost.time_ns`, done afresh per machine.  Every
:class:`CostModel` on every machine of equal geometry therefore shares
the counted misses: a what-if sweep's candidates that differ in
latency or cores, a server's tenants with equal catalogs, a profile
republished after a latency-only recalibration.

The memo
--------
*Key*: the compound pattern an entry point was asked about (its tree in
part order — that fixes the float summation order — and every region's
``(name, n, w)`` **along its whole parent chain**, which
``DataRegion.__eq__`` leaves out and the state rules walk; a
:class:`~repro.core.patterns.QuickSort` counts by its input's chain
and ``stop_bytes``, which fix its passes), the level geometry after
any ⊙ scale-down, and the incoming cache state (its regions' parent
chains included).  *Value*: the ``(MissPair,
CacheState)`` the evaluation returned — never a latency, a hierarchy,
a plan or a session.  *Where*: at the entry points only — what
``estimate`` / ``level_misses`` / ``sequential_estimates`` /
``concurrent_estimates`` ask per level and part — not at the nodes
below them, and never for a basic pattern (cheaper to evaluate than to
look up).  *Lifetime*: the process, or until :func:`miss_memo_clear`;
:func:`miss_memo_info` says what it did.  *Bound*:
:data:`MISS_MEMO_ENTRIES`, oldest entry out first (:func:`remember`).
*Threads*: a hit is a lock-free ``dict.get``; every insert and eviction
holds the memo's lock; two threads that miss on one key both evaluate
and store equal values.  Compound nodes keep their structural hash (and
their footprint per line size) once computed, so a lookup hashes in
O(1) and a tree nobody looks up pays nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

from ..hardware.cache_level import CacheLevel
from ..hardware.hierarchy import MemoryHierarchy
from .misses import LevelGeometry, MissPair, basic_pattern_misses
from .patterns import BasicPattern, Conc, Pattern, QuickSort, RTrav, Seq, STrav
from .regions import DataRegion
from .state import CacheState

__all__ = ["CostModel", "CostEstimate", "LevelCost", "footprint_lines",
           "cache_shares", "remember", "MISS_MEMO_ENTRIES",
           "MissMemoInfo", "miss_memo_info", "miss_memo_clear"]


def footprint_lines(pattern: Pattern, line_size: int) -> float:
    """A pattern's footprint: the cache lines it potentially revisits
    (Section 5.2).

    Single sequential traversals never return to a line once past it, so
    their footprint is a single line; the same holds for single random
    traversals whose untouched gaps span at least a line.  Every other
    basic pattern may revisit any line covered by its region.  Sequential
    compounds occupy the maximum of their parts (one part runs at a
    time); concurrent compounds the sum (all parts compete at once).
    """
    if isinstance(pattern, STrav):
        return 1.0
    if isinstance(pattern, RTrav):
        if pattern.region.w - pattern.used_bytes >= line_size:
            return 1.0
        return float(pattern.region.lines(line_size))
    if isinstance(pattern, BasicPattern):
        return float(pattern.region.lines(line_size))
    if isinstance(pattern, QuickSort):
        # a ⊕ of passes that are all the same two sequential cursors
        return footprint_lines(pattern.first_pass(), line_size)
    if not isinstance(pattern, (Seq, Conc)):
        raise TypeError(f"not a pattern: {pattern!r}")
    # A compound's footprint is asked once per level per ⊙ division it
    # takes part in; it is kept on the (immutable) node per line size.
    known = pattern._footprints
    if known is None:
        known = pattern._footprints = {}
    lines = known.get(line_size)
    if lines is None:
        combine = max if isinstance(pattern, Seq) else sum
        lines = known[line_size] = combine(
            footprint_lines(p, line_size) for p in pattern.parts)
    return lines


def cache_shares(parts: "list[Pattern] | tuple[Pattern, ...]",
                 line_size: int) -> list[float]:
    """The cache fraction each concurrent part receives under ⊙
    (Eq. 5.3): proportional to the parts' footprints, equal when every
    footprint is zero.  Exposed for external co-run composition — the
    workload scheduler uses it to reason about contention without
    re-deriving the division rule."""
    if not parts:
        raise ValueError("cache_shares needs at least one pattern")
    prints = [footprint_lines(p, line_size) for p in parts]
    total = sum(prints)
    if total <= 0:
        return [1.0 / len(prints)] * len(prints)
    return [fp / total for fp in prints]


@dataclass(frozen=True)
class LevelCost:
    """Predicted misses and time of one cache level (one Eq. 3.1 summand)."""

    level: CacheLevel
    misses: MissPair

    @property
    def name(self) -> str:
        return self.level.name

    @property
    def time_ns(self) -> float:
        return self.misses.time_ns(
            self.level.seq_miss_latency_ns, self.level.rand_miss_latency_ns
        )


@dataclass(frozen=True)
class CostEstimate:
    """The full cost prediction of one pattern on one machine."""

    levels: tuple[LevelCost, ...]
    cpu_ns: float = 0.0

    @property
    def memory_ns(self) -> float:
        """Memory-access time ``T_mem`` (Eq. 3.1)."""
        return sum(lc.time_ns for lc in self.levels)

    @property
    def total_ns(self) -> float:
        """Total execution time ``T = T_mem + T_cpu`` (Eq. 6.1)."""
        return self.memory_ns + self.cpu_ns

    def level(self, name: str) -> LevelCost:
        for lc in self.levels:
            if lc.name == name:
                return lc
        raise KeyError(f"no level named {name!r}")

    def misses(self, name: str) -> float:
        """Total predicted misses of the named level."""
        return self.level(name).misses.total

    def as_dict(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for lc in self.levels:
            out[lc.name] = {
                "seq_misses": lc.misses.seq,
                "rand_misses": lc.misses.rand,
                "time_ns": lc.time_ns,
            }
        out["total"] = {"memory_ns": self.memory_ns, "cpu_ns": self.cpu_ns,
                        "total_ns": self.total_ns}
        return out


class CostModel:
    """Derives cost functions from pattern descriptions automatically.

    A model holds nothing but its machine: the misses it counts come
    from (and go to) the module's miss memo, shared by every model in
    the process whose levels have the same geometry, and only the
    scoring with ``hierarchy``'s latencies is this model's own (see the
    module docstring).

    Parameters
    ----------
    hierarchy:
        The machine profile (data caches and TLBs are all costed, each
        with its own geometry — the paper treats TLBs as caches whose
        line size is the page size).
    """

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

    # ------------------------------------------------------------------
    def estimate(self, pattern: Pattern, cpu_ns: float = 0.0) -> CostEstimate:
        """Predict per-level misses and total time for ``pattern``.

        ``cpu_ns`` is the calibrated pure CPU time of the algorithm
        (Eq. 6.1); it defaults to zero, which predicts memory time only.
        """
        levels = tuple(
            LevelCost(level=level, misses=self.level_misses(pattern, level))
            for level in self.hierarchy.all_levels
        )
        return CostEstimate(levels=levels, cpu_ns=cpu_ns)

    def level_misses(self, pattern: Pattern, level: CacheLevel,
                     state: CacheState | None = None) -> MissPair:
        """Predicted misses of ``pattern`` on one level (Eq. 4.1 pair)."""
        pair, _ = _evaluate(pattern, LevelGeometry.of(level),
                            state or CacheState.empty())
        return pair

    def misses(self, pattern: Pattern) -> dict[str, MissPair]:
        """Predicted misses of every level, keyed by level name."""
        return {
            level.name: self.level_misses(pattern, level)
            for level in self.hierarchy.all_levels
        }

    def sequential_estimates(self, parts: "list[Pattern | None] | tuple[Pattern | None, ...]"
                             ) -> tuple[CostEstimate, ...]:
        """Per-part cost of running ``parts`` one after another (⊕).

        Cache state is threaded left to right (Eqs. 5.1 / 5.2), so each
        part is priced with the residency its predecessors left behind —
        exactly how :meth:`estimate` prices the equivalent ``Seq``, which
        makes these the per-part *attribution* of a materialized
        execution: operator ``i`` runs after operators ``0..i-1``
        finished, starting from a cold cache overall.  ``None`` parts
        (access-free operators, e.g. bare scans) price as zero and leave
        the state unchanged.  This is the ⊕ dual of
        :meth:`concurrent_estimates`: that divides one instant among
        co-runners, this threads one cache through successors."""
        per_part_levels: list[list[LevelCost]] = [[] for _ in parts]
        for level in self.hierarchy.all_levels:
            geo = LevelGeometry.of(level)
            state = CacheState.empty()
            for i, part in enumerate(parts):
                if part is None:
                    pair = MissPair()
                else:
                    pair, state = _evaluate(part, geo, state)
                per_part_levels[i].append(LevelCost(level=level, misses=pair))
        return tuple(CostEstimate(levels=tuple(levels))
                     for levels in per_part_levels)

    def concurrent_estimates(self, parts: "list[Pattern] | tuple[Pattern, ...]"
                             ) -> tuple[CostEstimate, ...]:
        """Per-part cost of running ``parts`` concurrently (⊙).

        Each part is priced against its Eq. 5.3 share of every level —
        exactly the division :meth:`estimate` applies to
        ``Conc.of(*parts)``, so the per-part memory times sum to the
        compound's total.  This is the attribution the workload service
        needs: the compound estimate says what a co-run *batch* costs,
        these say what each *member* contributes (its inflated, not
        standalone, cost)."""
        per_part_levels: list[list[LevelCost]] = [[] for _ in parts]
        for level in self.hierarchy.all_levels:
            state = CacheState.empty()
            shared = _shared(parts, LevelGeometry.of(level))
            for levels, part, geo in zip(per_part_levels, parts, shared):
                pair, _ = _evaluate(part, geo, state)
                levels.append(LevelCost(level=level, misses=pair))
        return tuple(CostEstimate(levels=tuple(levels))
                     for levels in per_part_levels)


# ----------------------------------------------------------------------
# Miss evaluation: a pure function of (pattern, geometry, incoming
# state), remembered in one process-wide memo.
# ----------------------------------------------------------------------

def remember(memo: dict, key, value, cap: int) -> None:
    """Insert into a bounded memo, dropping its oldest entry when full.

    The repo's one bounded-memo rule (this module's miss memo and both
    pricing memos of :class:`~repro.service.InterferenceModel`): hits
    are plain lock-free ``dict.get`` calls, every insert happens with
    the memo's lock held — an unlocked ``del memo[next(iter(memo))]``
    can raise "dictionary changed size during iteration" — and ``cap``
    is read by the caller at call time."""
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value


#: Entries the miss memo holds before it drops its oldest: four times
#: the largest working set measured (520 entries — one 64-query stream
#: priced on nine machines; a 48-query serving run keeps 274, 96 session
#: queries 316).  A key keeps its pattern tree alive, measured (with
#: ``tracemalloc``, what clearing the memo frees after one seed-7 rep of
#: ``benchmarks/perf``) at 1.2 KB per entry for the sweep, 1.2 KB for
#: the serving run and 2.7 KB for the session queries — a quick-sort
#: being one node, not one per sub-table (2.0, 2.6 and 7.1 KB before) —
#: so a full memo holds ≈ 2.5 - 5.5 MB.
MISS_MEMO_ENTRIES = 2048


class MissMemoInfo(NamedTuple):
    """:func:`miss_memo_info`'s answer (``functools.lru_cache`` style)."""

    hits: int
    misses: int
    entries: int


_memo: "dict[_MemoKey, tuple[MissPair, CacheState]]" = {}
_memo_lock = threading.Lock()
_hits = 0
_misses = 0


def miss_memo_info() -> MissMemoInfo:
    """Lookups served from / added to the miss memo since the last
    :func:`miss_memo_clear`, and the entries it holds now.  Misses are
    counted under the memo's lock; hits are not, so threads pricing
    concurrently may under-count them."""
    return MissMemoInfo(_hits, _misses, len(_memo))


def miss_memo_clear() -> None:
    """Forget every remembered evaluation and zero the counters."""
    global _hits, _misses
    with _memo_lock:
        _memo.clear()
        _hits = _misses = 0


def _same_region(a: DataRegion | None, b: DataRegion | None) -> bool:
    """Equal by value along the whole parent chain (``DataRegion.__eq__``
    leaves ``parent`` out; the state rules walk it)."""
    while a is not b:
        if a is None or b is None or a != b:
            return False
        a, b = a.parent, b.parent
    return True


def _same_pattern(p: Pattern, q: Pattern) -> bool:
    """``p == q`` and every region hangs under an equal parent chain."""
    if p is q:
        return True
    if isinstance(p, BasicPattern):
        return p == q and _same_region(p.region.parent, q.region.parent)
    if isinstance(p, QuickSort):
        return p == q  # compares the input's whole parent chain
    return (type(p) is type(q) and len(p.parts) == len(q.parts)
            and all(map(_same_pattern, p.parts, q.parts)))


def _congruent(fresh: Pattern, kept: Pattern) -> bool:
    """:func:`_same_pattern` for the two non-basic roots of a memo
    lookup — ``fresh`` being asked about, ``kept`` in a stored key —
    with a positive verdict left on ``fresh``: a server's tenants and a
    sweep's candidates build equal trees afresh and look each up many
    times, and only the first lookup should walk them.  The pointer
    only ever leads to a tree the memo holds (or held), never from one
    to a tree that would otherwise die with its session."""
    if fresh is kept:
        return True
    known = kept._twin or kept
    if (fresh._twin or fresh) is known:
        return True
    if not _same_pattern(fresh, kept):
        return False
    if fresh._twin is None:
        fresh._twin = known
    return True


class _MemoKey:
    """Everything one evaluation reads — the pattern tree (part order
    included: it fixes the float summation order), every region's
    parent chain, the level geometry and the incoming state — and
    nothing it does not: no latency, no hierarchy."""

    __slots__ = ("pattern", "geo", "state", "kept", "_hash")

    def __init__(self, pattern: Pattern, geo: LevelGeometry,
                 state: CacheState) -> None:
        self.pattern = pattern
        self.geo = geo
        self.state = state
        self.kept = False  # set as the key goes into the memo
        self._hash = hash((pattern, geo, state))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: "_MemoKey") -> bool:
        fresh, kept = (other, self) if self.kept else (self, other)
        mine, theirs = fresh.state.entries, kept.state.entries
        return (fresh.geo == kept.geo and len(mine) == len(theirs)
                and all(rho == other_rho and _same_region(region, other_region)
                        for (region, rho), (other_region, other_rho)
                        in zip(mine, theirs))
                and _congruent(fresh.pattern, kept.pattern))


def _evaluate(pattern: Pattern, geo: LevelGeometry, state: CacheState
              ) -> tuple[MissPair, CacheState]:
    """Misses of ``pattern`` on a level of geometry ``geo`` (any ⊙
    scale-down already applied) entered in ``state``, and the state it
    leaves: what every public method of :class:`CostModel` asks, served
    from the miss memo when a congruent question was answered before.

    Only these entry points are looked up, not the nodes the walk below
    them visits, and a basic pattern is cheaper to evaluate than to look
    up.  Measured when the memo came in, on a cold 576-query sweep of
    nine machines: 5.45 M Python calls without a memo, 1.26 M with
    entry points looked up (5 589 lookups, 91 % hit, 520 entries kept),
    1.22 M with every compound node looked up (8 942 lookups, 67 % hit,
    2 967 entries) — the nodes below buy 3 % and cost six times the
    memory.  Re-measured once a quick-sort became one node whose passes
    :func:`_fold` adds up, rather than one uniquely named node per
    sub-table that no lookup could ever hit: the same sweep (seed 7)
    makes 0.82 M calls with the memo and 2.86 M without (1.18 M and
    4.56 M with one node per sub-table), and
    ``examples/disk_spill_planning.py``, whose eight sorts at n up to
    2·10⁸ were ≈ 475 000 such nodes, runs in 0.3 s instead of 87 s."""
    if isinstance(pattern, BasicPattern):
        return _walk(pattern, geo, state)
    global _hits, _misses
    key = _MemoKey(pattern, geo, state)
    found = _memo.get(key)
    if found is not None:
        _hits += 1
        return found
    result = _walk(pattern, geo, state)
    key.kept = True
    with _memo_lock:
        _misses += 1
        remember(_memo, key, result, MISS_MEMO_ENTRIES)
    return result


def _shared(parts: "list[Pattern] | tuple[Pattern, ...]",
            geo: LevelGeometry) -> list[LevelGeometry]:
    """Eq. 5.3: the geometry each concurrent part sees — its footprint's
    share of ``geo``."""
    return [geo.scaled(max(fraction, 1e-9))
            for fraction in cache_shares(parts, geo.line_size)]


def _walk(pattern: Pattern, geo: LevelGeometry, state: CacheState
          ) -> tuple[MissPair, CacheState]:
    """The recursive evaluation itself (Eqs. 5.1 - 5.3), one frame per
    pattern node."""
    if isinstance(pattern, BasicPattern):
        # Eq. 5.1: initial-state benefit, then the Section 4 formulas.
        region = pattern.region
        rho = state.cached_fraction(region)
        if rho >= 1.0:
            pair = MissPair()
        else:
            pair = basic_pattern_misses(pattern, geo)
            if rho > 0.0 and pattern.is_random:
                # Random patterns benefit from a partially resident region
                # proportionally; sequential ones only from full residency.
                pair = pair.scaled(1.0 - rho)
        return pair, CacheState.after_pattern(region, geo.capacity)
    if isinstance(pattern, Seq):
        # Eq. 5.2: thread the state left by each part into the next; a
        # quick-sort adds its passes one by one, as its ⊕ of them would.
        seq = rand = 0.0
        for part in pattern.parts:
            if isinstance(part, QuickSort):
                seq, rand, state = _fold(part, geo, state, seq, rand)
            else:
                pair, state = _walk(part, geo, state)
                seq += pair.seq
                rand += pair.rand
        return MissPair(seq, rand), state
    if isinstance(pattern, QuickSort):
        seq, rand, state = _fold(pattern, geo, state, 0.0, 0.0)
        return MissPair(seq, rand), state
    total = MissPair()
    if isinstance(pattern, Conc):
        # Eq. 5.3: every part evaluated on its footprint's share of the
        # cache, all from the same initial state; the parts' misses add
        # up, their resulting states merge.
        left = CacheState.empty()
        for part, share in zip(pattern.parts, _shared(pattern.parts, geo)):
            pair, part_state = _walk(part, share, state)
            total = total + pair
            left = left.merged(part_state)
        return total, left
    raise TypeError(f"not a pattern: {pattern!r}")


def _fold(sort: QuickSort, geo: LevelGeometry, state: CacheState,
          seq: float, rand: float) -> tuple[float, float, CacheState]:
    """Add ``sort``'s passes, in pre-order, to the running ``⊕`` total
    ``(seq, rand)``: the new total, and the state the last pass leaves.

    Only the first pass meets ``state``; it is walked on its real
    regions.  A pass is a ``⊙`` whose state is its two halves' entries
    and nothing else, so every later pass sees only what the previous
    pass left, and its price follows from sizes alone:

    * both cursors have one-line footprints, so every pass runs on the
      same half share of ``geo`` (capacity ``room``);
    * a half no larger than ``room`` is left fully resident, promoted to
      its largest ancestor that fits as well.  So the pass over a left
      half ``X.L`` (run right after ``X``'s) finds its data resident iff
      ``X.L`` fits, and the pass over ``X.R`` (run after all of ``X.L``'s
      subtree) iff ``X`` fits;
    * a resident pass misses nothing and leaves its sub-table resident,
      so its whole subtree is free and skipped — adding zeros would not
      change the total;
    * any other pass misses in full on both halves (sequential cursors
      gain nothing from partial residency): a function of the halves'
      item counts, priced once per sub-table size and call.

    Real regions are built only for the first pass and the last one
    (along the rightmost path), whose state the sort leaves behind.
    """
    first = sort.first_pass()
    pair, left_behind = _walk(first, geo, state)
    seq += pair.seq
    rand += pair.rand
    n = sort.region.n
    if not sort.splits(n):
        return seq, rand, left_behind
    w = sort.region.w
    room = _shared(first.parts, geo)[0].capacity
    splits = sort.splits
    priced: dict[int, MissPair] = {}

    def price(n: int) -> None:
        # the pass over a non-resident sub-table of n items, then its
        # subtree
        nonlocal seq, rand
        pair = priced.get(n)
        if pair is None:
            step = QuickSort.pass_of(DataRegion(sort.region.name, n, w))
            pair = priced[n] = _walk(step, geo, CacheState.empty())[0]
        seq += pair.seq
        rand += pair.rand
        if splits(n):
            below(n)

    def below(n: int) -> None:
        # "fits" is `size <= room`, the promotion rule's test; the
        # residency rule's `room / size >= 1.0` agrees with it for every
        # size below 2**53
        left = n // 2
        if left * w > room:
            price(left)
        if n * w > room:
            price(n - left)

    below(n)
    return seq, rand, _walk(sort.last_pass(), geo, CacheState.empty())[1]
