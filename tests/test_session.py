"""The session façade: fluent builder, text frontend, prepared
statements, and the profile-keyed plan cache.

Acceptance: the same query expressed via the fluent builder, the text
frontend, and the explicit logical algebra yields an identical chosen
physical plan and an identical result column; a prepared statement's
re-compilation hits the cache (skipping enumeration) and a profile
change silently retires cached plans.
"""

import pytest

from repro.db import Column, Database, IntVector, random_permutation
from repro.hardware import (
    origin2000_scaled,
    profile_fingerprint,
    tiny_test_machine,
)
from repro.query import (
    Aggregate,
    Filter,
    Join,
    Optimizer,
    PlannerConfig,
    Relation,
    Sort,
)
from repro.session import (
    PlanCache,
    PreparedStatement,
    QueryBuilder,
    QuerySyntaxError,
    Session,
    parse_query,
)

N = 512
GROUPS = 256

#: Text the frontend rejects, and what its error says.
ERRORS = [
    ("", "empty query"),
    ("missing", "unknown table"),
    ("filter(orders, odd)", "unknown predicate"),
    ("frobnicate(orders)", "unknown operator"),
    ("join(orders customers)", "expected"),
    ("filter(orders, even) trailing", "trailing input"),
    ("filter(orders, even, wat=1)", "unknown keyword"),
    ("filter(orders, even, sel=even)", "expected a number"),
    ("join(orders, customers, match=0.5) ?", "unexpected character"),
    ("filter(orders, even, sel=0.5, sel=0.25)", "duplicate keyword 'sel'"),
    ("filter(orders, even, sel=0.5, selectivity=0.25)",
     "duplicate keyword 'selectivity'"),
    ("join(orders, customers, match=0.5, match_fraction=0.25)",
     "duplicate keyword 'match_fraction'"),
    ("aggregate(orders, groups=2.7)", "whole number for groups"),
]

QUERY_TEXT = ("aggregate(join(filter(orders, even, sel=0.5), customers), "
              f"groups={GROUPS})")


@pytest.fixture
def session(scaled):
    s = Session(scaled)
    s.create_table("orders", random_permutation(N, seed=1))
    s.create_table("customers", random_permutation(N, seed=2))
    s.create_table("nations", list(range(64)), sorted=True)
    s.predicate("even", lambda v: v % 2 == 0)
    return s


def builder_query(s):
    return (s.table("orders").filter("even", selectivity=0.5)
            .join(s.table("customers")).group_by(groups=GROUPS).agg("count"))


def algebra_query(s):
    return Aggregate(
        Join(Filter(Relation.of_column(s.db.column("orders")),
                    s.function("even"), selectivity=0.5),
             Relation.of_column(s.db.column("customers"))),
        groups=GROUPS)


def execute_restoring(s, q):
    """Execute and return the result values; ``restore=True`` puts the
    base columns back (chosen plans may sort them in place)."""
    return list(s.execute(q, restore=True).values)


class TestCanonicalKeys:
    def test_same_tree_same_key(self, session):
        assert (builder_query(session).canonical_key()
                == algebra_query(session).canonical_key()
                == session.query(QUERY_TEXT).canonical_key())

    def test_hints_change_the_key(self, session):
        base = session.table("orders").filter("even", selectivity=0.5)
        assert (base.canonical_key()
                != session.table("orders").filter("even", selectivity=0.25)
                .canonical_key())
        j = session.table("orders").join("customers")
        assert (j.canonical_key()
                != session.table("orders").join("customers", match=0.5)
                .canonical_key())

    def test_int_valued_hints_normalize(self, session):
        """sel=1 (int, hand-assembled) and sel=1.0 (the text frontend's
        float) must render one key."""
        even = session.function("even")
        by_hand = Filter(Relation.of_column(session.db.column("orders")),
                         even, selectivity=1)
        by_text = session.query("filter(orders, even, sel=1)").logical()
        assert by_hand.canonical_key() == by_text.canonical_key()
        hand_join = Join(Relation.of_column(session.db.column("orders")),
                         Relation.of_column(session.db.column("customers")),
                         match_fraction=1)
        assert (hand_join.canonical_key()
                == session.query("join(orders, customers)").canonical_key())

    def test_predicate_identity_matters(self, session):
        """Two distinct callables never collide, even if equal in
        effect — a cached plan embeds the callable it was compiled
        with."""
        a = session.table("orders").filter(lambda v: v > 0)
        b = session.table("orders").filter(lambda v: v > 0)
        assert a.canonical_key() != b.canonical_key()

    def test_sort_and_key_of_in_key(self, session):
        sorted_key = session.table("nations").canonical_key()
        assert "sorted=1" in sorted_key
        key_of = session.function("even")
        agg = session.table("orders").group_by(groups=4, key=key_of).count()
        assert "key=-" not in agg.canonical_key()
        plain = session.table("orders").aggregate(groups=4)
        assert "key=-" in plain.canonical_key()
        assert agg.canonical_key() != plain.canonical_key()


class TestBuilder:
    def test_lowers_to_logical_algebra(self, session):
        logical = builder_query(session).logical()
        assert isinstance(logical, Aggregate)
        assert isinstance(logical.child, Join)
        assert isinstance(logical.child.left, Filter)
        assert logical.child.left.selectivity == 0.5
        assert logical.groups == GROUPS

    def test_builders_are_immutable(self, session):
        base = session.table("orders")
        filtered = base.filter("even")
        assert base.logical() is not filtered.logical()
        assert isinstance(base.logical(), Relation)

    def test_join_accepts_name_builder_and_tree(self, session):
        by_name = session.table("orders").join("customers")
        by_builder = session.table("orders").join(session.table("customers"))
        by_tree = session.table("orders").join(
            Relation.of_column(session.db.column("customers")))
        assert (by_name.canonical_key() == by_builder.canonical_key()
                == by_tree.canonical_key())

    def test_sort_builds_sort_node(self, session):
        q = session.table("orders").sort()
        assert isinstance(q.logical(), Sort)

    def test_unknown_aggregate_rejected(self, session):
        with pytest.raises(ValueError, match="unsupported aggregate"):
            session.table("orders").group_by(groups=4).agg("sum")

    def test_unknown_function_name_rejected(self, session):
        with pytest.raises(KeyError, match="no registered predicate"):
            session.table("orders").filter("odd")

    def test_relation_builder_is_model_only(self, session):
        q = session.relation("big", n=1_000_000).join(
            session.relation("huge", n=1_000_000))
        planned = session.compile(q)
        assert planned.best.total_ns > 0

    def test_describe_and_repr(self, session):
        q = builder_query(session)
        assert "aggregate" in q.describe()
        assert "QueryBuilder" in repr(q)


class TestTextFrontend:
    def test_parses_full_query(self, session):
        q = session.query(QUERY_TEXT)
        assert q.canonical_key() == builder_query(session).canonical_key()

    def test_defaults_match_algebra_defaults(self, session):
        logical = session.query("filter(orders, even)").logical()
        assert logical.selectivity == 0.5
        logical = session.query("join(orders, customers)").logical()
        assert logical.match_fraction == 1.0
        logical = session.query("aggregate(orders)").logical()
        assert logical.groups == 64

    def test_aliases_and_keywords(self, session):
        for text in (f"agg(orders, groups={GROUPS})",
                     f"group(orders, groups={GROUPS})",
                     f"group_by(orders, groups={GROUPS})"):
            assert session.query(text).logical().groups == GROUPS
        logical = session.query(
            "join(orders, customers, match_fraction=0.5)").logical()
        assert logical.match_fraction == 0.5

    def test_sort_and_key(self, session):
        logical = session.query("sort(filter(orders, even))").logical()
        assert isinstance(logical, Sort)
        logical = session.query("agg(orders, groups=4, key=even)").logical()
        assert logical.key_of is session.function("even")

    @pytest.mark.parametrize("text, message", ERRORS)
    def test_errors(self, session, text, message):
        with pytest.raises(QuerySyntaxError, match=message):
            session.query(text)

    @pytest.mark.parametrize("text, message", ERRORS)
    def test_errors_are_never_memoized(self, session, text, message):
        """``compile(text)`` takes the statement memo; a text that
        fails to parse raises the same error every time."""
        raised = []
        for _ in range(2):
            with pytest.raises(QuerySyntaxError, match=message) as error:
                session.compile(text)
            raised.append(str(error.value))
        assert raised[0] == raised[1]

    def test_a_failed_name_compiles_once_registered(self, session):
        for text in ("missing", "filter(orders, odd)"):
            with pytest.raises(QuerySyntaxError, match="unknown"):
                session.compile(text)
        session.create_table("missing", random_permutation(64, seed=5))
        session.predicate("odd", lambda v: v % 2 == 1)
        for text in ("missing", "filter(orders, odd)"):
            session.compile(text)
            assert not session.last_compile_cached

    def test_parse_query_standalone(self, scaled):
        """The parser works against explicit registries (no session)."""
        region = Relation.of_region(
            __import__("repro.core", fromlist=["DataRegion"])
            .DataRegion("R", 1000, 8))
        logical = parse_query("filter(r, keep, sel=0.25)",
                              tables={"r": region},
                              functions={"keep": lambda v: True})
        assert logical.selectivity == 0.25
        assert logical.child is region


class TestThreeFrontendsAgree:
    """Acceptance criterion: identical chosen plan, identical result."""

    def test_identical_chosen_plan_and_result(self, session):
        prepared = [session.prepare(q) for q in
                    (builder_query(session), session.query(QUERY_TEXT),
                     algebra_query(session))]
        signatures = {p.planned.best.signature for p in prepared}
        assert len(signatures) == 1
        # one shared cache entry: the same compiled object serves all
        assert (prepared[0].planned is prepared[1].planned
                is prepared[2].planned)
        results = [execute_restoring(session, q) for q in
                   (builder_query(session), QUERY_TEXT,
                    algebra_query(session))]
        assert results[0] == results[1] == results[2]
        assert sum(count for _, count in results[0]) == N // 2

    def test_explicit_algebra_without_session_matches(self, session,
                                                      scaled):
        """The pre-session path (bare Optimizer, no cache) chooses the
        same plan as the session façade."""
        planned = Optimizer(scaled).optimize(
            algebra_query(session).logical()
            if isinstance(algebra_query(session), QueryBuilder)
            else algebra_query(session))
        assert (planned.best.signature
                == session.compile(QUERY_TEXT).best.signature)


class TestPreparedStatements:
    def test_prepare_execute_explain(self, session):
        stmt = session.prepare(QUERY_TEXT)
        assert isinstance(stmt, PreparedStatement)
        out = stmt.execute()
        assert len(out.values) == GROUPS
        text = stmt.explain_query().to_text()
        assert "T_mem" in text and "plan (post-order):" in text
        assert "candidate plans" in stmt.summary()

    def test_reprepare_hits_cache(self, session):
        first = session.prepare(QUERY_TEXT)
        assert session.plan_cache.stats()["misses"] == 1
        second = session.prepare(QUERY_TEXT)
        assert second.planned is first.planned
        stats = session.plan_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_execute_measured_warm_vs_cold(self, session):
        """``cold=False`` must not reset: the global counters keep
        accumulating across prepared re-executions."""
        stmt = session.prepare("filter(orders, even, sel=0.5)")
        cold = stmt.execute_measured().counters
        warm = stmt.execute_measured(cold=False).counters
        assert (session.db.mem.accesses
                == cold.accesses + warm.accesses)

    def test_profile_change_recompiles(self, session):
        stmt = session.prepare(QUERY_TEXT)
        old_fingerprint = stmt.fingerprint
        old_planned = stmt.planned
        session.set_hierarchy(tiny_test_machine())
        out = stmt.execute()  # transparently recompiled
        assert len(out.values) == GROUPS
        assert stmt.fingerprint != old_fingerprint
        assert stmt.fingerprint == session.fingerprint
        assert stmt.planned is not old_planned
        # both compilations are cached, each under its own profile
        assert len(session.plan_cache) == 2
        assert session.plan_cache.stats()["misses"] == 2

    def test_returning_to_old_profile_hits_old_entry(self, session,
                                                     scaled):
        stmt = session.prepare(QUERY_TEXT)
        session.set_hierarchy(tiny_test_machine())
        stmt.execute()
        session.set_hierarchy(scaled)
        session.prepare(QUERY_TEXT)
        assert session.plan_cache.stats()["hits"] == 1


    def test_a_prepared_run_is_observed_like_an_ad_hoc_one(self, scaled):
        """``execute_measured`` feeds the tracer and the measurement
        observers (the recalibrator's sample stream) through either
        entry point."""
        from repro.obs import Tracer

        def spans_and_samples(run):
            s = Session(scaled, tracer=Tracer())
            s.create_table("orders", random_permutation(128, seed=1))
            seen = []
            s.attach_measurement_observer(seen.append)
            run(s, "sort(orders)")
            return [span.name for span in s.tracer.spans], seen

        ad_hoc, seen = spans_and_samples(
            lambda s, q: s.execute_measured(q, restore=True))
        prepared, seen_prepared = spans_and_samples(
            lambda s, q: s.prepare(q).execute_measured(restore=True))
        assert len(seen) == len(seen_prepared) == 1
        assert "compile" in ad_hoc and len(ad_hoc) > 1
        assert prepared == ad_hoc


class TestRestoreSurvivesARaisingKernel:
    """``restore=True`` puts base columns back even when the plan dies
    half way (here: after an in-place sort, inside the filter)."""

    @pytest.mark.parametrize("prepared", [False, True],
                             ids=["ad-hoc", "prepared"])
    @pytest.mark.parametrize("method",
                             ["execute", "run", "execute_measured"])
    def test_base_columns_are_put_back(self, scaled, method, prepared):
        s = Session(scaled)
        s.create_table("t", random_permutation(64, seed=3))
        s.create_table("u", random_permutation(32, seed=4))

        def boom(value):
            raise RuntimeError("boom")

        s.predicate("boom", boom)
        query = "filter(sort(t), boom, sel=0.5)"
        target = s.prepare(query) if prepared else s
        args = () if prepared else (query,)
        before = {name: list(column.values)
                  for name, column in s.db.catalog.items()}
        assert before["t"] != sorted(before["t"])
        with pytest.raises(RuntimeError, match="boom"):
            getattr(target, method)(*args, restore=True)
        assert {name: list(column.values)
                for name, column in s.db.catalog.items()} == before


class TestRestoreKeepsTheStorageKind:
    """The snapshot copies each column's storage as what it is — an
    integer column buffer to buffer, a pair column item by item — and
    an in-place sort of either is undone."""

    @pytest.mark.parametrize("execution", ["scalar", "vectorized"])
    def test_in_place_sorts_are_undone_in_kind(self, scaled, execution):
        s = Session(scaled, execution=execution)
        s.create_table("t", random_permutation(64, seed=3))
        s.create_table("pairs", [(v, -v) for v in
                                 random_permutation(16, seed=4)], width=16)
        kinds = {"t": IntVector, "pairs": list}
        before = {name: list(column.values)
                  for name, column in s.db.catalog.items()}
        for name, kind in kinds.items():
            assert type(s.db.column(name).values) is kind
            assert before[name] != sorted(before[name])
            s.execute(f"sort({name})")  # sorts the base in place
            assert s.db.column(name).values == sorted(before[name])
            s.db.column(name).values = before[name]
            s.execute(f"sort({name})", restore=True)
        for name, kind in kinds.items():
            assert type(s.db.column(name).values) is kind
            assert s.db.column(name).values == before[name]

    def test_the_snapshot_is_a_copy(self):
        column = Column("c", 8, 4096, [3, 1, 2])
        copy = column.copy_values()
        assert type(copy) is IntVector and copy is not column.values
        copy[0] = 9
        assert column.values == [3, 1, 2]
        column.values = copy
        assert column.values is copy  # taken back without re-packing


def compiled(cache, optimizer, logical):
    """``optimizer``'s plans for ``logical`` through ``cache``'s one
    door, as :meth:`Session.compile` goes through it."""
    planned, _ = cache.get_or_compute(optimizer.cache_key(logical),
                                      lambda: optimizer.optimize(logical))
    return planned


class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        assert cache.get_or_compute("a", lambda: 9) == (1, True)  # refresh
        cache.get_or_compute("c", lambda: 3)                      # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache
        assert len(cache) == 2

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_clear(self):
        cache = PlanCache()
        cache.get_or_compute("a", lambda: 1)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get_or_compute("a", lambda: 2) == (2, False)

    def test_shared_cache_across_sessions(self, scaled):
        """Sessions on one profile may share a cache; keys embed the
        column identities, so same-named tables in different databases
        never collide."""
        cache = PlanCache()
        sessions = []
        for seed in (1, 2):
            s = Session(scaled, cache=cache)
            s.create_table("orders", random_permutation(128, seed=seed))
            sessions.append(s)
        a = sessions[0].compile("aggregate(orders, groups=128)")
        b = sessions[1].compile("aggregate(orders, groups=128)")
        assert a is not b
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 0


class TestFingerprint:
    def test_stable_across_instances(self):
        assert (profile_fingerprint(origin2000_scaled())
                == profile_fingerprint(origin2000_scaled())
                == origin2000_scaled().fingerprint())

    def test_distinguishes_profiles(self):
        assert (profile_fingerprint(origin2000_scaled())
                != profile_fingerprint(tiny_test_machine()))
        assert (profile_fingerprint(origin2000_scaled())
                != profile_fingerprint(
                    origin2000_scaled().scaled_capacities(2)))


class TestSessionLifecycle:
    def test_rejects_both_hierarchy_and_db(self, scaled):
        with pytest.raises(ValueError, match="not both"):
            Session(scaled, db=Database(scaled))

    def test_adopts_existing_database(self, scaled):
        db = Database(scaled)
        col = db.create_column("orders", [v % 16 for v in range(64)])
        s = Session(db=db)
        s.register_table(col)
        assert len(s.execute("aggregate(orders, groups=16)").values) == 16

    def test_rejects_non_queries(self, session):
        with pytest.raises(TypeError, match="not a query"):
            session.compile(42)

    def test_optimizer_is_shared_and_reentrant(self, session, scaled):
        """One Optimizer instance serves interleaved compilations for
        several caches without cross-talk."""
        opt = Optimizer(scaled, PlannerConfig())
        logical = builder_query(session).logical()
        cache_a, cache_b = PlanCache(), PlanCache()
        first_a = compiled(cache_a, opt, logical)
        first_b = compiled(cache_b, opt, logical)
        assert first_a is not first_b
        assert compiled(cache_a, opt, logical) is first_a
        assert compiled(cache_b, opt, logical) is first_b
        assert cache_a.stats() == cache_b.stats() == {
            "entries": 1, "hits": 1, "misses": 1}

    def test_custom_registry_keys_separately(self, session, scaled):
        """A shared cache never serves plans enumerated under another
        memory budget; optimizers with equal configs share entries."""
        logical = builder_query(session).logical()
        cache = PlanCache()
        for budget in (None, 4096):
            compiled(cache, Optimizer(scaled, PlannerConfig(
                memory_budget=budget)), logical)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 0
        compiled(cache, Optimizer(scaled, PlannerConfig(memory_budget=4096)),
                 logical)
        assert cache.stats()["hits"] == 1

    def test_execute_restore_puts_base_columns_back(self, session):
        """``restore=True`` undoes the in-place sorts a chosen plan
        applies to shared base columns."""
        before = list(session.db.column("orders").values)
        assert before != sorted(before)
        session.execute("sort(orders)")  # quick-sorts the base in place
        assert session.db.column("orders").values == sorted(before)
        session.db.column("orders").values = list(before)
        out = session.execute("sort(orders)", restore=True)
        assert session.db.column("orders").values == before
        # a bare sort's result IS the base column, so the restored
        # values win (documented alias behaviour)
        assert out is session.db.column("orders")
        # derived results (new output columns) survive the restore
        groups = session.execute(
            "aggregate(join(orders, customers), groups=%d)" % N,
            restore=True)
        assert len(groups.values) == N
        assert session.db.column("orders").values == before

    def test_spawn_shares_the_registries_both_ways(self, session):
        """A spawned child reads and writes its root's predicate
        registry and ``sorted`` flags: what either registers after the
        spawn, the other compiles against."""
        child = session.spawn()
        assert child._functions is session._functions
        assert child._sorted is session._sorted
        session.predicate("odd", lambda v: v % 2 == 1)
        session.create_table("ranks", list(range(64)), sorted=True)
        child.predicate("small", lambda v: v < 8)
        child.create_table("steps", list(range(64)), sorted=True)
        for s, other in ((child, session), (session, child)):
            assert s.function("odd") is other.function("odd")
            assert s.function("small") is other.function("small")
            for name in ("ranks", "steps"):
                signature = s.compile(f"sort({name})").plan.signature
                assert "sort" not in signature  # the flag spared the sort

    def test_repr_and_stats(self, session):
        assert "Session(" in repr(session)
        stats = session.stats()
        assert stats["profile"] == session.fingerprint
