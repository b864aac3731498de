"""``Session.execute_measured`` against direct execution, twin for twin.

The oracle is :func:`repro.query.capture_measured` run on an identically
built twin engine at the same allocator position, held in the session's
restore scope and execution mode: every kernel executed against the
simulator, every operator scoped in snapshots.  Whatever path
``execute_measured`` takes, after every call it must agree with that
oracle in the whole-plan counters, every operator's exclusive counters,
the result values, the allocator's next address and every base
column's values.
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro import Session
from repro.hardware import disk_extended_scaled
from repro.db import random_permutation
from repro.query import QueryPlan, Relation, capture_measured
from repro.service import TraceRecorder, WorkloadGenerator
from repro.session import QueryBuilder
from repro.service.workload import KINDS

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

#: Base-table cardinality of the twin engines: small enough for many
#: examples, big enough that the spilling engine partitions and merges.
SCALE = 96
#: The spilling engine's per-operator working-memory budget (bytes).
SPILL_BUDGET = 512
GOLDEN = pathlib.Path(__file__).parent / "golden" / "recorded_traces.json"


def _engine(kind, mode):
    """A fresh engine of ``kind`` (``"inmem"``: the scaled Origin2000;
    ``"spill"``: the disk-extended profile under a budget that makes
    joins, sorts and aggregates spill) running in ``mode``.  Two calls
    build identical engines: same tables, same addresses."""
    if kind == "inmem":
        session = Session(execution=mode)
        WorkloadGenerator(session=session, seed=5, scale=SCALE)
    else:
        session = Session(hierarchy=disk_extended_scaled(),
                          memory_budget=SPILL_BUDGET, execution=mode)
        WorkloadGenerator.out_of_core(session=session, seed=5, scale=SCALE)
    return session


def _templates():
    """Every query the workload generator draws, plus a bare sort of a
    table (the plan that sorts a base column in place)."""
    generator = WorkloadGenerator(session=Session(), seed=5, scale=SCALE)
    texts = [text for kind in KINDS for text in generator._templates(kind)]
    return tuple(texts) + ("sort(orders)", "sort(events)")


TEMPLATES = _templates()


def _direct(twin, query, cold, restore):
    """The oracle: ``query`` executed directly on ``twin`` under
    per-operator measurement."""
    planned = twin.compile(query)
    explanation = planned.explanation(twin.model)
    with twin._restoring(restore), \
            twin.db.execution_scope(twin.config.execution):
        return capture_measured(twin.db, planned.plan, explanation,
                                cold=cold)


def _state(session):
    """What a call leaves behind: the allocator's next address and
    every base column's values."""
    return (session.db.allocator.next_address,
            {name: list(column.values)
             for name, column in session.db.catalog.items()})


def assert_same_measurement(got, expected):
    assert got.counters == expected.counters
    assert repr(got.counters) == repr(expected.counters)
    assert [op.operator for op in got.operators] == \
        [op.operator for op in expected.operators]
    assert [op.counters for op in got.operators] == \
        [op.counters for op in expected.operators]
    assert list(got.column.values) == list(expected.column.values)
    assert got.column.address == expected.column.address


def _call(session, twin, text, cold, restore):
    got = session.execute_measured(text, cold=cold, restore=restore)
    expected = _direct(twin, text, cold, restore)
    assert_same_measurement(got, expected)
    assert _state(session) == _state(twin)
    return got


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestTwinEngine:
    """Every call of ``execute_measured`` equals direct execution on a
    twin engine, whatever the calls before it left behind (cached
    plans and recordings, warm caches, sorted base columns)."""

    @settings(max_examples=150)
    @given(engine=st.sampled_from(["inmem", "spill"]),
           mode=st.sampled_from(["scalar", "vectorized"]),
           calls=st.lists(st.tuples(
               st.integers(0, len(TEMPLATES) - 1),
               st.booleans(), st.booleans()), min_size=1, max_size=6))
    def test_execute_measured_equals_direct_execution(self, engine, mode,
                                                      calls):
        session, twin = _engine(engine, mode), _engine(engine, mode)
        assert _state(session) == _state(twin)
        for template, cold, restore in calls:
            _call(session, twin, TEMPLATES[template], cold, restore)

    @pytest.mark.parametrize("mode", ["scalar", "vectorized"])
    @pytest.mark.parametrize("engine", ["inmem", "spill"])
    def test_repeated_in_place_sorts_without_restore(self, engine, mode):
        """``sort(<table>)`` sorts the base column in place: the first
        call without ``restore`` leaves it sorted (and returns it), the
        second sorts a sorted column, the third repeats the second.
        (The spilling engine's external sort leaves the base column
        sorted run by run instead.)"""
        session, twin = _engine(engine, mode), _engine(engine, mode)
        expected = sorted(session.db.column("orders").values)
        for call in range(3):
            got = _call(session, twin, "sort(orders)", cold=True,
                        restore=False)
            assert list(got.column.values) == expected, call
        if engine == "inmem":
            assert list(session.db.column("orders").values) == expected

    def test_a_repeated_query_runs_no_kernel(self, monkeypatch):
        """The second call of a query reuses the first one's recording
        (no kernel runs on the session's engine) and still measures
        what direct execution measures; a warm call after it too."""
        session, twin = _engine("inmem", "vectorized"), \
            _engine("inmem", "vectorized")
        ran = []
        execute = QueryPlan.execute

        def counting(plan, db):
            ran.append(db)
            return execute(plan, db)

        monkeypatch.setattr(QueryPlan, "execute", counting)
        text = "aggregate(join(orders, parts), groups=96)"
        for cold, executes in ((True, 1), (True, 1), (False, 1)):
            _call(session, twin, text, cold=cold, restore=True)
            assert ran.count(session.db) == executes

    def test_an_unregistered_column_keeps_its_sort(self):
        """``restore`` puts back *registered* columns only: a column a
        query sorts in place that is not in the catalog stays sorted,
        as under direct execution — also when its values are put back
        by hand and the same query runs again."""
        engines = [_engine("inmem", "scalar") for _ in range(2)]
        original = random_permutation(64, seed=9)
        loose = [engine.db.create_column("loose", original)
                 for engine in engines]
        queries = [QueryBuilder(engine, Relation.of_column(column)).sort()
                   for engine, column in zip(engines, loose)]
        for _ in range(2):
            got = engines[0].execute_measured(queries[0], restore=True)
            expected = _direct(engines[1], queries[1], True, True)
            assert_same_measurement(got, expected)
            assert _state(engines[0]) == _state(engines[1])
            assert list(loose[0].values) == list(loose[1].values) \
                == sorted(original)
            for column in loose:
                column.values = list(original)

    def test_restore_puts_an_in_place_sort_back(self):
        session, twin = _engine("inmem", "vectorized"), \
            _engine("inmem", "vectorized")
        unsorted = list(session.db.column("parts").values)
        for _ in range(2):
            _call(session, twin, "sort(parts)", cold=True, restore=True)
            assert list(session.db.column("parts").values) == unsorted


def _live(session, text, cold, restore):
    """The live oracle: ``text``'s compiled plan run through
    ``Database.execute`` against the simulator, the memory system reset
    first when ``cold``, base columns put back by hand when
    ``restore``."""
    db = session.db
    plan = session.compile(text).plan
    if cold:
        db.reset()
    saved = ({column: list(column.values)
              for column in db.catalog.values()} if restore else {})
    try:
        with db.execution_scope(session.config.execution):
            return db.execute(plan)
    finally:
        for column, values in saved.items():
            column.values = values


def _everything(session):
    """A session's whole observable state: the memory system's
    counters, the allocator and every base column's values."""
    db = session.db
    return (db.mem.snapshot(), db.allocator.next_address,
            db.allocator.bytes_allocated,
            {name: list(column.values)
             for name, column in db.catalog.items()})


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestTwinSessions:
    """``Session.execute`` and ``Session.run``, ``execute_measured`` and
    the plan run live through ``Database.execute`` leave three twin
    sessions in one state after every call: counters, result,
    allocator and base columns."""

    @settings(max_examples=100)
    @given(mode=st.sampled_from(["scalar", "vectorized"]),
           calls=st.lists(st.tuples(
               st.integers(0, len(TEMPLATES) - 1), st.booleans(),
               st.booleans(), st.booleans()), min_size=1, max_size=6))
    def test_execute_and_run_equal_measured_and_live_execution(
            self, mode, calls):
        plain, measured, live = (_engine("inmem", mode) for _ in range(3))
        for template, cold, restore, typed in calls:
            text = TEMPLATES[template]
            if cold:
                plain.db.reset()
            before = plain.db.mem.elapsed_ns
            if typed:
                result = plain.run(text, restore=restore)
                column = result.column
                assert result.simulated_ns == \
                    plain.db.mem.elapsed_ns - before
            else:
                column = plain.execute(text, restore=restore)
            got = measured.execute_measured(text, cold=cold,
                                            restore=restore)
            expected = _live(live, text, cold, restore)
            assert list(column.values) == list(got.column.values) \
                == list(expected.values)
            assert column.address == got.column.address == expected.address
            assert _everything(plain) == _everything(measured) \
                == _everything(live)

    def test_a_repeated_execute_runs_no_kernel(self, monkeypatch):
        """The second ``execute`` of a text reuses the first one's
        recording: no kernel runs on the session's engine."""
        session = _engine("inmem", "vectorized")
        ran = []
        execute = QueryPlan.execute

        def counting(plan, db):
            ran.append(db)
            return execute(plan, db)

        monkeypatch.setattr(QueryPlan, "execute", counting)
        text = "aggregate(join(orders, parts), groups=96)"
        first = session.execute(text, restore=True)
        again = session.execute(text, restore=True)
        assert ran.count(session.db) == 1
        assert list(again.values) == list(first.values)


#: ``(engine, template)`` of the recorded-trace pins.
RECORDED = (("inmem", "filter(orders, quarter, sel=0.25)"),
            ("inmem", "join(orders, customers)"),
            ("inmem", "sort(parts)"),
            ("inmem", "aggregate(join(orders, parts), groups=96)"),
            ("spill", "aggregate(join(filter(orders, even, sel=0.5), "
                      "customers), groups=48)"))


def _bare_trace(engine, mode, text):
    """``text`` run once on a fresh engine under a bare
    ``TraceRecorder``: its ``trace``, decoded to tuples."""
    session = _engine(engine, mode)
    plan = session.compile(text).plan
    db = session.db
    recorder = TraceRecorder()
    real, db.mem = db.mem, recorder
    try:
        with db.execution_scope(mode):
            plan.execute(db)
    finally:
        db.mem = real
    return recorder.trace


def _digest(trace):
    return hashlib.sha256(repr(list(trace)).encode()).hexdigest()


class TestRecordedTraces:
    """A recorder's ``trace`` is the tuple list it has always been,
    entry for entry: read and write forms, coalesced ranges, the order.
    ``tests/golden/recorded_traces.json`` holds each trace's length and
    the SHA-256 of its ``repr``; regenerate with
    ``REPRO_UPDATE_GOLDEN=1`` only for a change that means to alter
    what the kernels access."""

    def test_traces_equal_the_pinned_recordings(self):
        traces = {f"{engine}:{mode}:{text}": _bare_trace(engine, mode, text)
                  for engine, text in RECORDED
                  for mode in ("scalar", "vectorized")}
        got = {key: {"entries": len(trace), "sha256": _digest(trace)}
               for key, trace in traces.items()}
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True)
                              + "\n")
        assert got == json.loads(GOLDEN.read_text())
        for trace in traces.values():
            assert all(type(entry) is tuple for entry in trace)
            assert any(len(entry) == 3 and entry[2] is True
                       for entry in trace)
