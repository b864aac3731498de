"""Profile-keyed plan cache and prepared statements.

Compiling a query — enumerating join orders and implementations and
pricing every candidate against the hierarchy profile — costs orders of
magnitude more than looking a plan up, and the paper's premise is that
one calibrated profile makes the chosen plan *deterministic*: the same
logical tree on the same profile always compiles to the same physical
plan.  That determinism is exactly what makes plans cacheable, keyed by
(profile fingerprint, planner configuration, canonicalized logical
tree).  Recalibrating the machine changes the fingerprint, which retires
every cached plan without any explicit invalidation walk.

Of the two halves of a compile, only ranking reads the prices.  The
exhaustive enumeration reads capacities, line counts and the budget —
the miss counts' side of ``T_mem = Σ_i M_i · l_i`` — so the cache also
keeps each tree's enumerated plans under (machine geometry, planner
configuration, tree), and a recalibration that moves only latencies
re-ranks them instead of enumerating again.  The dynamic program
prunes by cost, so its trees keep the fingerprint in that key too.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable

from ..db.column import Column
from ..query.logical import LogicalOp
from ..query.observe import Explanation, MeasuredResult, QueryResult
from ..query.optimizer import PlannedQuery
from ..query.physical import QueryPlan

if TYPE_CHECKING:
    from .session import Session

__all__ = ["PlanCache", "PreparedStatement"]


class PlanCache:
    """An LRU cache of compiled :class:`~repro.query.PlannedQuery`
    objects, and of the enumerations they were ranked from.

    Entries hold the compiled plans, which in turn keep every referenced
    column and predicate callable alive — so the ``id()``-based tokens
    inside canonical keys (:func:`repro.query.logical.callable_key`)
    stay unambiguous for exactly as long as their entry lives.

    Beside the ranked entries (keyed by profile fingerprint) the cache
    keeps each tree's *enumeration* — its plans in enumeration order,
    :attr:`PlannedQuery.plans <repro.query.PlannedQuery.plans>` — under
    :meth:`Optimizer.enumeration_key
    <repro.query.Optimizer.enumeration_key>` (the machine's geometry for
    an exhaustive tree).  A ranked miss on a machine whose geometry was
    seen re-ranks the stored plans instead of enumerating again, and is
    still counted as a miss.  The enumerations have their own LRU order
    under the same ``max_entries`` bound and send no events.

    The cache is thread-safe: spawned client sessions
    (:meth:`~repro.session.Session.spawn`) share one instance across
    worker threads, so every entry/counter mutation happens under one
    lock, and :meth:`get_or_compute` and :meth:`enumeration`
    additionally gate computation per key — when several threads miss
    the same key at once, exactly one runs the compile while the rest
    wait for its result, so concurrent clients never duplicate (or
    lose) a compilation.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, PlannedQuery] = OrderedDict()
        #: Enumeration key -> the tree's plans in enumeration order.
        self._enumerations: OrderedDict[Hashable, tuple[QueryPlan, ...]] \
            = OrderedDict()
        self._lock = threading.Lock()
        #: Per-key in-flight compile gates, one dict per store (key ->
        #: Event set when the owning thread has published its result).
        #: A ``dp`` tree's enumeration key equals its ranked key, and a
        #: ranked compile waits on the enumeration's gate.
        self._inflight: dict[Hashable, threading.Event] = {}
        self._enumerating: dict[Hashable, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        #: Event callbacks ``fn(event, count)`` with event one of
        #: ``"hit"`` / ``"miss"`` / ``"retire"`` — how a metrics
        #: registry watches the cache without the cache knowing about
        #: metrics.  Always notified *outside* the cache lock.
        self._observers: list[Callable[[str, int], None]] = []

    # ------------------------------------------------------------------
    def attach_observer(self, observer: Callable[[str, int], None]
                        ) -> None:
        """Subscribe to cache events (``"hit"``/``"miss"``/``"retire"``,
        each with a count).  Callbacks run outside the cache lock, on
        whichever thread triggered the event — they must be
        thread-safe and must not call back into the cache."""
        self._observers.append(observer)

    def _notify(self, event: str, count: int = 1) -> None:
        for observer in self._observers:
            observer(event, count)

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], PlannedQuery]
                       ) -> tuple[PlannedQuery, bool]:
        """The cached plan for ``key``, compiling it via ``compute``
        on a miss; returns ``(plan, was_hit)``.  The cache's one
        lookup: a hit refreshes the entry, a miss stores the compiled
        plan and evicts the least recently used entries beyond
        ``max_entries``.

        Concurrency contract: for each key at most one thread runs
        ``compute`` at a time — contenders block on the owner's gate
        and then re-read the published entry (counted as a hit: they
        were served a plan they did not compile).  If the owner's
        ``compute`` raises, its waiters retry, so a failed compile
        never wedges the key.
        """
        value, hit, retired = self._fetch(self._entries, self._inflight,
                                          key, compute, counted=True)
        if hit:
            self._notify("hit")
            return value, True
        self._notify("miss")
        if retired:
            self._notify("retire", retired)
        return value, False

    def enumeration(self, key: Hashable,
                    compute: Callable[[], tuple[QueryPlan, ...]]
                    ) -> tuple[QueryPlan, ...]:
        """The stored enumeration for ``key``, computed via ``compute``
        when there is none — gated, refreshed and bounded like
        :meth:`get_or_compute`, but neither counted nor observed: a
        ranked compile that re-ranks it is a plan-cache miss all the
        same."""
        return self._fetch(self._enumerations, self._enumerating, key,
                           compute, counted=False)[0]

    def _fetch(self, entries: OrderedDict, inflight: dict, key: Hashable,
               compute: Callable, counted: bool) -> tuple[object, bool, int]:
        """The one gated LRU lookup of both stores: ``(value, was_hit,
        entries evicted)``; ``counted`` bumps :attr:`hits` /
        :attr:`misses` under the lock."""
        while True:
            with self._lock:
                try:
                    value = entries[key]
                    entries.move_to_end(key)
                except KeyError:
                    pass
                else:
                    if counted:
                        self.hits += 1
                    return value, True, 0
                gate = inflight.get(key)
                if gate is None:
                    gate = threading.Event()
                    inflight[key] = gate
                    owner = True
                else:
                    owner = False
            if not owner:
                gate.wait()
                continue  # re-read: owner published (or failed)
            try:
                value = compute()
            except BaseException:
                with self._lock:
                    del inflight[key]
                gate.set()
                raise
            with self._lock:
                if counted:
                    self.misses += 1
                entries[key] = value
                retired = 0
                while len(entries) > self.max_entries:
                    entries.popitem(last=False)
                    retired += 1
                del inflight[key]
            gate.set()
            return value, False, retired

    def clear(self) -> int:
        """Drop every ranked entry, returning how many were retired.
        Observers see one ``"retire"`` event with the count — the
        explicit retirement a profile swap performs, as opposed to the
        silent key mismatch that merely strands old-profile entries.
        Enumerations stay: they name no latency, so after a swap to a
        machine of the same geometry (a recalibration) compiles re-rank
        them."""
        with self._lock:
            retired = len(self._entries)
            self._entries.clear()
        if retired:
            self._notify("retire", retired)
        return retired

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries),
                    "hits": self.hits, "misses": self.misses}


class PreparedStatement:
    """A compiled query handle bound to a :class:`Session`.

    Holds the logical tree and its compiled plan.  Every use
    re-validates the session's profile fingerprint first and
    transparently recompiles (through the session's plan cache) if the
    profile changed since compilation — a prepared statement never runs
    a plan priced for a profile the session no longer uses.  Running
    and explaining are the session's own entry points handed this
    statement (:meth:`Session.compile` revalidates it), so a prepared
    run is traced and observed exactly like an ad-hoc one.
    """

    def __init__(self, session: "Session", logical: LogicalOp,
                 planned: PlannedQuery, fingerprint: str) -> None:
        self.session = session
        self.logical = logical
        self._planned = planned
        self._fingerprint = fingerprint

    # ------------------------------------------------------------------
    def revalidate(self) -> tuple[PlannedQuery, bool]:
        """The compilation valid for the session's current profile, and
        whether the existing one was reused (the prepared analogue of a
        plan-cache hit) rather than recompiled."""
        current = self.session.fingerprint
        reused = current == self._fingerprint
        if not reused:
            self._planned = self.session.compile(self.logical)
            self._fingerprint = current
        return self._planned, reused

    @property
    def planned(self) -> PlannedQuery:
        """The compiled candidate set (revalidated against the current
        profile)."""
        return self.revalidate()[0]

    @property
    def plan(self):
        """The chosen physical :class:`~repro.query.QueryPlan`."""
        return self.planned.plan

    @property
    def fingerprint(self) -> str:
        """Profile fingerprint the current compilation is valid for."""
        return self._fingerprint

    # ------------------------------------------------------------------
    def explain_query(self) -> Explanation:
        """The chosen plan's typed
        :class:`~repro.query.Explanation` (signature included)."""
        return self.session.explain_query(self)

    def summary(self, limit: int = 8) -> str:
        """The enumerated candidates, cheapest first."""
        return self.planned.summary(limit)

    def execute(self, restore: bool = False) -> Column:
        """Run the chosen plan against the session's database
        (``restore=True`` puts registered columns back afterwards — see
        :class:`~repro.session.Session` on in-place execution)."""
        return self.session.execute(self, restore=restore)

    def run(self, restore: bool = False) -> QueryResult:
        """Run the chosen plan, returning a typed
        :class:`~repro.query.QueryResult` (column, explanation,
        reuse provenance, wall/simulated time)."""
        return self.session.run(self, restore=restore)

    def execute_measured(self, cold: bool = True, restore: bool = False
                         ) -> MeasuredResult:
        """Run and measure the chosen plan, returning a typed
        :class:`~repro.query.MeasuredResult` with per-operator
        predicted-vs-measured attribution."""
        return self.session.execute_measured(self, cold=cold,
                                             restore=restore)

    def __repr__(self) -> str:
        return (f"PreparedStatement({self._planned.best.signature}, "
                f"profile={self._fingerprint})")
