"""The session façade: one front door over engine, model, and optimizer.

The paper's point is that a single calibrated hardware profile lets the
optimizer pick the best implementation per operator automatically — a
:class:`Session` packages that loop end to end.  It owns a
:class:`~repro.db.Database`, a name catalog for tables and predicate/key
functions, the cost model and a re-entrant optimizer for the current
profile, and a profile-keyed :class:`~repro.session.PlanCache`.  Queries
arrive through any of three equivalent frontends —

* the **fluent builder**: ``s.table("orders").filter(even, 0.5)...``,
* the **text frontend**: ``s.query("join(filter(orders, even), ...)")``,
* the **explicit algebra**: a hand-assembled
  :class:`~repro.query.logical.LogicalOp` tree

— and all three lower to the same logical algebra, so they compile to
identical physical plans and share plan-cache entries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Sequence

from ..core.cost import CostModel, Memo
from ..core.regions import DataRegion
from ..db.column import Column
from ..db.context import Database
from ..hardware.hierarchy import MemoryHierarchy
from ..hardware.profiles import origin2000_scaled
from ..obs import Tracer
from ..query.logical import LogicalOp, Relation
from ..query.observe import Explanation, MeasuredResult, QueryResult
from ..query.optimizer import Optimizer, PlannedQuery, PlannerConfig
from .builder import QueryBuilder
from .cache import PlanCache, PreparedStatement
from .frontend import parse_names, parse_query

__all__ = ["Session"]

#: Query texts one session remembers the parse of
#: (:meth:`Session.as_logical`) before it drops its oldest: over six
#: times the most distinct texts one session meets in a
#: ``benchmarks/perf`` rep (10 on ``serve_contention``,
#: ``session_mixed`` and ``plan_whatif`` — the workload generator's two
#: templates for each of its five kinds — and 4 on ``serve_small_hot``,
#: seeds 7 and 11).  An entry (the tree, its bindings and its key) is
#: about 1.1 kB, so a full memo holds ≈ 70 kB per session.
STATEMENT_ENTRIES = 64
_UNBOUND = object()


class _Statement:
    """A remembered parse of one query text: the logical tree, every
    name the parse resolved with the object (and ``sorted`` flag) it
    resolved to, and the tree's part of the plan-cache key
    (:meth:`~repro.query.Optimizer.tree_key`).  Holding the objects
    keeps them alive, so no ``id()`` in the key can be reused while the
    entry exists."""

    __slots__ = ("logical", "tables", "functions", "tree_key")

    def __init__(self, logical: LogicalOp,
                 tables: tuple[tuple[str, Column, bool], ...],
                 functions: tuple[tuple[str, Callable], ...],
                 tree_key: tuple[str, str]) -> None:
        self.logical = logical
        self.tables = tables
        self.functions = functions
        self.tree_key = tree_key

    def holds(self, catalog: dict, sorted_flags: dict,
              functions: dict) -> bool:
        """Whether every name still resolves to the identical object,
        with an equal ``sorted`` flag, in these live registries — so a
        fresh parse of the text would build this very tree."""
        for name, column, flag in self.tables:
            if (catalog.get(name, _UNBOUND) is not column
                    or sorted_flags.get(name, False) != flag):
                return False
        for name, fn in self.functions:
            if functions.get(name, _UNBOUND) is not fn:
                return False
        return True


class Session:
    """A database session: catalog, compilation, caching, execution.

    Every query method accepts a :class:`~repro.session.QueryBuilder`,
    a bare :class:`~repro.query.logical.LogicalOp` tree, query text, or
    a :class:`~repro.session.PreparedStatement` of this session.

    Every run replays the chosen plan's recording on the engine's
    memory system (:func:`repro.service.executor.run_recorded`); the
    plan executes once, under a trace recorder.  A run leaves the
    counters, caches, allocator and base columns as executing the plan
    there would, provided the plan is a pure function of its input
    columns: predicates are not re-run when a recording is reused.

    Like the engine it wraps, execution is *in place*: sort-based
    operators in a chosen plan reorder the shared base columns they
    read (Monet-style semantics), so the catalog reflects execution
    history — each such column is given a new value list; the old one
    is not mutated.  Pass ``restore=True`` to leave every registered
    column's values as found (a Python-level copy, invisible to the
    simulated access trace).

    Parameters
    ----------
    hierarchy:
        Machine profile to run on; defaults to the scaled Origin2000
        (the simulator-friendly profile the experiments use).  Mutually
        exclusive with ``db``.
    db:
        Adopt an existing engine instance (its hierarchy becomes the
        session profile) instead of creating a fresh one.
    config:
        Planner knobs (:class:`~repro.query.PlannerConfig`).
    cache:
        Plan cache to use; defaults to a fresh
        :class:`~repro.session.PlanCache`.  Sessions on the same machine
        profile may share one — keys carry the profile fingerprint.
    memory_budget:
        Working-memory bound per operator in bytes (sort area, hash
        table, group table); ``None`` (default) plans purely in memory.
        With a budget the optimizer compiles spilling implementations
        exactly when working structures exceed it.  Folded into the
        planner config — and therefore into every plan-cache key, so
        cached plans never leak across budgets.  May not be combined
        with an explicit ``config`` that already sets a budget.
    execution:
        Execution mode plans run under: ``"vectorized"`` (chunked
        kernels, the config default) or ``"scalar"`` (item-at-a-time).
        Folded into the planner config — and therefore into every
        plan-cache key — overriding whatever the ``config`` carries.
        Results and simulated counters are identical across modes; only
        real wall-clock differs.
    tracer:
        Opt-in observability (:class:`~repro.obs.Tracer`): compile
        spans (wall interval, simulated instant) and, for
        :meth:`execute_measured`, per-operator execution spans plus
        drift-monitor samples keyed by the profile fingerprint.
        ``None`` (the default) records nothing.
    """

    def __init__(self, hierarchy: MemoryHierarchy | None = None,
                 db: Database | None = None,
                 config: PlannerConfig | None = None,
                 cache: PlanCache | None = None,
                 memory_budget: int | None = None,
                 execution: str | None = None,
                 tracer: Tracer | None = None) -> None:
        if db is not None and hierarchy is not None:
            raise ValueError(
                "pass either hierarchy or db, not both (a Database "
                "already carries its hierarchy)")
        self.db = db if db is not None else Database(
            hierarchy if hierarchy is not None else origin2000_scaled())
        self.config = config or PlannerConfig()
        if memory_budget is not None:
            if (config is not None
                    and config.memory_budget is not None
                    and config.memory_budget != memory_budget):
                raise ValueError(
                    "conflicting memory budgets: config.memory_budget="
                    f"{config.memory_budget} vs memory_budget="
                    f"{memory_budget}")
            self.config = replace(self.config, memory_budget=memory_budget)
        if execution is not None:
            self.config = replace(self.config, execution=execution)
        # `cache or ...` would drop a shared cache that is still empty
        # (PlanCache defines __len__, so an empty cache is falsy)
        self.plan_cache = cache if cache is not None else PlanCache()
        self.tracer = tracer
        #: Callbacks ``fn(result)`` run after every
        #: :meth:`execute_measured` — how an online recalibrator
        #: (:class:`repro.calibrator.Recalibrator`) taps the live
        #: measurement stream without the session knowing about it.
        self._measurement_observers: list[Callable] = []
        self._functions: dict[str, Callable] = {}
        self._sorted: dict[str, bool] = {}
        #: Query text -> its remembered parse (:meth:`as_logical`).
        self._statements: Memo[str, _Statement] = Memo()
        #: Whether the most recent :meth:`compile` was served from the
        #: plan cache (per-query provenance for shared-cache clients;
        #: :meth:`PlanCache.stats` only counts globally).
        self.last_compile_cached: bool = False
        #: Session-local plan-cache hit/miss counters (the shared
        #: :class:`PlanCache` counts globally across clients); surfaced
        #: by :meth:`stats`.
        self.compile_hits: int = 0
        self.compile_misses: int = 0
        self._rebind(self.db.hierarchy)

    def spawn(self) -> "Session":
        """A new client session over the *same* engine and plan cache.

        The spawned session shares this session's :class:`Database`
        (catalog, simulated address space, memory system), its
        :class:`~repro.session.PlanCache`, its planner config, and its
        predicate registry and sorted-table flags themselves, not
        copies: whatever either registers later, the other compiles
        against — the multi-client wiring of the concurrent workload
        service: many front doors, one engine, one cache.  Compile
        provenance (:attr:`last_compile_cached`) stays per session."""
        child = Session(db=self.db, config=self.config,
                        cache=self.plan_cache, tracer=self.tracer)
        child._functions = self._functions
        child._sorted = self._sorted
        return child

    def _rebind(self, hierarchy: MemoryHierarchy) -> None:
        self.optimizer = Optimizer(hierarchy, self.config)
        self.model = CostModel(hierarchy)

    # -- profile -------------------------------------------------------
    @property
    def hierarchy(self) -> MemoryHierarchy:
        return self.db.hierarchy

    @property
    def memory_budget(self) -> int | None:
        """The working-memory bound compilation plans under (``None``
        for unbounded in-memory planning)."""
        return self.config.memory_budget

    @property
    def fingerprint(self) -> str:
        """Fingerprint of the current machine profile (the profile
        component of every plan-cache key)."""
        self._sync_profile()
        return self.optimizer.fingerprint

    def set_hierarchy(self, hierarchy: MemoryHierarchy) -> None:
        """Switch the session to a new (e.g. re-calibrated) machine
        profile.  Tables survive; cached plans for the old profile stop
        matching (keys carry the fingerprint), and prepared statements
        recompile transparently on their next use.  A recompile on a
        machine of the old one's geometry (only latencies or the clock
        moved) re-ranks the plan cache's stored enumeration of an
        exhaustive tree instead of enumerating it again
        (:meth:`PlanCache.enumeration`); the plans it returns are the
        ones a cold compile would."""
        self.db.set_hierarchy(hierarchy)
        self._rebind(hierarchy)

    def attach_measurement_observer(self, observer: Callable) -> None:
        """Subscribe ``observer(result)`` to every
        :meth:`execute_measured` result of *this* session (spawned
        siblings keep their own lists).  This is the live sample feed
        of the online recalibration loop —
        ``session.attach_measurement_observer(recalibrator.observe)``
        wires a :class:`repro.calibrator.Recalibrator` in."""
        self._measurement_observers.append(observer)

    # -- catalog -------------------------------------------------------
    def create_table(self, name: str, values: Sequence, width: int = 8,
                     sorted: bool = False) -> Column:
        """Materialise ``values`` as a column and register it as a named
        table.  ``sorted`` declares an existing physical order the
        optimizer may exploit."""
        column = self.db.register(
            self.db.create_column(name, values, width=width), name)
        self._sorted[name] = sorted
        return column

    def register_table(self, column: Column, name: str | None = None,
                       sorted: bool = False) -> Column:
        """Register an existing column as a named table."""
        name = name or column.name
        self.db.register(column, name)
        self._sorted[name] = sorted
        return column

    def predicate(self, name: str, fn: Callable) -> Callable:
        """Register a named predicate/key function for the text frontend
        and for name references in the builder."""
        self._functions[name] = fn
        return fn

    def function(self, ref: Callable | str | None) -> Callable | None:
        """Resolve a predicate/key reference: callables pass through,
        names look up the registry."""
        if ref is None or callable(ref):
            return ref
        try:
            return self._functions[ref]
        except KeyError:
            known = ", ".join(sorted(self._functions)) or "none registered"
            raise KeyError(
                f"no registered predicate/key function {ref!r} "
                f"(known: {known})") from None

    # -- frontends -----------------------------------------------------
    def table(self, name: str) -> QueryBuilder:
        """Start a fluent query from a registered table."""
        column = self.db.column(name)
        return QueryBuilder(self, Relation.of_column(
            column, sorted=self._sorted.get(name, False)))

    def relation(self, name: str, n: int, width: int = 8,
                 sorted: bool = False) -> QueryBuilder:
        """Start a fluent query from a bare region (model-only planning
        at sizes the simulator cannot execute)."""
        return QueryBuilder(self, Relation.of_region(
            DataRegion(name, n=n, w=width), sorted=sorted))

    def _tables(self) -> dict[str, Relation]:
        """The catalog as the text frontend resolves it: every table
        name to a relation over its column, with its ``sorted`` flag."""
        return {
            name: Relation.of_column(column,
                                     sorted=self._sorted.get(name, False))
            for name, column in self.db.catalog.items()
        }

    def query(self, text: str) -> QueryBuilder:
        """Parse query text (the small query language of
        :mod:`repro.session.frontend`) against the session catalog.
        Every call parses afresh (:meth:`as_logical` is the remembered
        path)."""
        return QueryBuilder(self, parse_query(text, tables=self._tables(),
                                              functions=self._functions))

    def as_logical(self, q) -> LogicalOp:
        """Lower any accepted query form to its logical tree.

        Query text goes through a per-session memo (at most
        :data:`STATEMENT_ENTRIES` texts): a text parsed before returns
        the remembered tree, without running the frontend, as long as
        every name that parse resolved still resolves to the *identical*
        object in the live registries — each table name to the same
        catalog column (the catalog is shared with spawned siblings)
        with an equal ``sorted`` flag, each predicate/key name to the
        same function.  Otherwise the text is parsed again and its
        entry replaced; a parse that raises leaves nothing behind.  The
        memo is this session's own, read without a lock: like the
        compile provenance, it assumes the one-session-per-thread
        discipline of :meth:`spawn`."""
        if isinstance(q, QueryBuilder):
            return q.logical()
        if isinstance(q, LogicalOp):
            return q
        if isinstance(q, str):
            return self._statement(q).logical
        raise TypeError(
            f"not a query: {q!r} (expected a QueryBuilder, a LogicalOp, "
            "or query text)")

    def _statement(self, text: str) -> _Statement:
        """The remembered parse of ``text``, parsed (and remembered)
        again unless every binding still holds."""
        statement = self._statements.recall(text)
        if statement is not None and statement.holds(
                self.db.catalog, self._sorted, self._functions):
            return statement
        tables = self._tables()
        logical, table_names, function_names = parse_names(
            text, tables, self._functions)
        statement = _Statement(
            logical,
            tuple((name, tables[name].column, tables[name].sorted)
                  for name in table_names),
            tuple((name, self._functions[name]) for name in function_names),
            self.optimizer.tree_key(logical))
        self._statements.store(text, statement, STATEMENT_ENTRIES)
        return statement

    # -- compile & run -------------------------------------------------
    def _sync_profile(self) -> None:
        """Re-bind optimizer and model if the shared engine's hierarchy
        changed under us (a sibling session over the same
        :class:`~repro.db.Database` may have switched profiles — see
        :meth:`spawn`).  Identity check, so the common path is free."""
        if self.optimizer.hierarchy is not self.db.hierarchy:
            self._rebind(self.db.hierarchy)

    def compile(self, q) -> PlannedQuery:
        """Enumerate/rank plans through the profile-keyed plan cache.

        Sets :attr:`last_compile_cached` to whether the plan came from
        the cache (hit) or was enumerated by this call (miss).  One of
        this session's :class:`PreparedStatement` handles is
        revalidated instead, and counts as a hit exactly when its
        compilation was reused — which is how every ``execute*`` /
        ``run`` / ``explain_query`` entry point serves a prepared
        statement.

        Query text is lowered by :meth:`as_logical`, so a repeated text
        skips the frontend while every name it resolved still resolves
        to the identical object (the name-identity rule documented
        there), and its remembered tree key spares the tree walk; the
        key still takes the live profile fingerprint and planner config,
        and the plan-cache lookup, its counters and its provenance are
        the same as for a freshly parsed text.

        Safe to call from concurrent spawned sessions sharing one
        :class:`PlanCache`: the cache's per-key compile gating
        (:meth:`PlanCache.get_or_compute`) guarantees a key is
        enumerated by exactly one thread, with contenders served the
        published plan.  Per-session state (provenance flag, hit/miss
        counters, the statement memo) is only ever touched by the
        session's own thread — the one-session-per-client spawn
        discipline."""
        if isinstance(q, PreparedStatement):
            planned, self.last_compile_cached = q.revalidate()
            return planned
        wall_start = time.perf_counter_ns()
        self._sync_profile()
        optimizer = self.optimizer  # pinned: a sibling's profile
        #                             switch must not retarget mid-call
        logical = self.as_logical(q)
        statement = self._statements.get(q) if isinstance(q, str) else None
        tree_key = (statement.tree_key
                    if statement is not None and statement.logical is logical
                    else optimizer.tree_key(logical))
        planned, hit = self.plan_cache.get_or_compute(
            optimizer.keyed(tree_key),
            lambda: self._rank(optimizer, logical, tree_key))
        self.last_compile_cached = hit
        if hit:
            self.compile_hits += 1
        else:
            self.compile_misses += 1
        if self.tracer is not None:
            # an instant on the simulated clock (the machine never pays
            # for compilation), an interval on the wall clock
            at = getattr(self.db.mem, "elapsed_ns", 0.0)
            self.tracer.span(
                "compile", track="session", category="compile",
                sim_start_ns=at, sim_end_ns=at,
                wall_start_ns=wall_start,
                wall_end_ns=time.perf_counter_ns(),
                cache_hit=hit, signature=planned.best.signature)
        return planned

    def _rank(self, optimizer: Optimizer, logical: LogicalOp,
              tree_key: tuple[str, str]) -> PlannedQuery:
        """A plan-cache miss: ``optimizer`` re-ranks the tree's stored
        enumeration at its machine's geometry, or optimizes the tree
        cold — and the cold run's plans become the stored enumeration
        (:meth:`PlanCache.enumeration`)."""
        cold = None

        def enumerate_plans():
            nonlocal cold
            cold = optimizer.optimize(logical)
            return cold.plans

        plans = self.plan_cache.enumeration(
            optimizer.enumeration_key(tree_key), enumerate_plans)
        return cold if cold is not None else optimizer.rank(plans)

    def prepare(self, q) -> PreparedStatement:
        """Compile ``q`` into a reusable prepared statement."""
        logical = self.as_logical(q)
        return PreparedStatement(self, logical, self.compile(logical),
                                 self.fingerprint)

    @contextmanager
    def _restoring(self, restore: bool):
        """Snapshot/restore registered columns' values around a run
        (plans may sort shared base columns in place).  If the plan's
        *result* aliases a base column (a bare sort of a table), the
        restored values win — restore is meant for queries producing
        derived output columns.  The one snapshot/restore in the
        codebase: trace recording
        (:func:`repro.service.executor.record_trace`, behind every run
        of this session) holds it around each execution it records,
        and a raising kernel still restores."""
        saved = ({column: column.copy_values()
                  for column in self.db.catalog.values()} if restore else {})
        try:
            yield
        finally:
            for column, values in saved.items():
                column.values = values

    def _replay(self, plan, restore: bool):
        """``plan`` run warm on the engine's own memory system."""
        # imported here: the service layer builds on sessions
        from ..service.executor import run_recorded

        return run_recorded(self, plan, self.db.mem, cold=False,
                            restore=restore)

    def execute(self, q, restore: bool = False) -> Column:
        """Compile (cached) and run the chosen plan, warm (see the
        class docstring).  ``restore=True`` puts registered columns'
        values back afterwards.

        The bare-column fast path; :meth:`run` returns the same
        execution as a typed :class:`~repro.query.QueryResult` with
        plan provenance and timing attached."""
        return self._replay(self.compile(q).plan, restore)[0]

    def run(self, q, restore: bool = False) -> QueryResult:
        """Compile (cached) and run the chosen plan as :meth:`execute`
        does, returning a typed :class:`~repro.query.QueryResult`: the
        result column, the plan's :class:`~repro.query.Explanation`
        (signature included), the compile's plan-cache provenance, and
        wall/simulated execution time."""
        planned = self.compile(q)
        explanation = planned.explanation(self.model,
                                          cache_hit=self.last_compile_cached)
        start = time.perf_counter()
        column, counters, _ = self._replay(planned.plan, restore)
        return QueryResult(column, explanation, explanation.cache_hit,
                           time.perf_counter() - start, counters.elapsed_ns)

    def execute_measured(self, q, cold: bool = True, restore: bool = False
                         ) -> MeasuredResult:
        """Compile (cached), run, and measure the chosen plan.

        Returns a :class:`~repro.query.MeasuredResult`: the result
        column, the whole-plan counter delta, and per-operator measured
        attribution next to the model's per-operator predictions —
        every query is a paper-style model-vs-measured experiment.

        The run is :meth:`execute`'s, on a memory system reset first
        when ``cold`` (:func:`repro.service.executor.measure`): it
        measures what executing the plan directly under the operator
        probe (:func:`~repro.query.capture_measured`) would.
        """
        # imported here: the service layer builds on sessions
        from ..service.executor import measure

        planned = self.compile(q)
        cache_hit = self.last_compile_cached
        explanation = planned.explanation(self.model, cache_hit=cache_hit)
        # ``cold=True`` resets the engine clock to zero before running,
        # so the execute span starts at 0; warm runs start at the
        # engine's current simulated time.
        start = 0.0 if cold else getattr(self.db.mem, "elapsed_ns", 0.0)
        result = measure(self, planned.plan, self.db.mem, explanation,
                         cold=cold, restore=restore)
        if self.tracer is not None:
            self.tracer.record_measured(result, track="session",
                                        sim_start_ns=start,
                                        fingerprint=self.fingerprint)
        for observer in self._measurement_observers:
            observer(result)
        return result

    def explain_query(self, q) -> Explanation:
        """The chosen plan's typed :class:`~repro.query.Explanation` —
        operator tree, pattern notation, spill flags, per-cache-level
        predictions — stamped with the compile's plan-cache provenance
        (hit/miss).  ``explain_query(q).to_text()`` is the classic
        rendered breakdown."""
        planned = self.compile(q)
        return planned.explanation(self.model,
                                   cache_hit=self.last_compile_cached)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Cache statistics plus the active profile fingerprint.

        ``hits``/``misses``/``entries`` count over the (possibly
        shared) :class:`PlanCache`; ``session_hits``/``session_misses``
        count this session's own compiles, and ``last_compile_cached``
        is the most recent compile's provenance (the per-query flag the
        plan cache cannot see)."""
        stats: dict[str, object] = dict(self.plan_cache.stats())
        stats["session_hits"] = self.compile_hits
        stats["session_misses"] = self.compile_misses
        stats["last_compile_cached"] = self.last_compile_cached
        stats["profile"] = self.fingerprint
        return stats

    def __repr__(self) -> str:
        return (f"Session({self.hierarchy.name!r}, "
                f"tables={sorted(self.db.catalog)}, "
                f"cache={self.plan_cache.stats()})")
