"""The typed observability API (PR 5 acceptance).

* :class:`Explanation` — JSON round-trip losslessness and ``to_text()``
  byte parity against the existing golden explain snapshots,
* :class:`MeasuredResult` — per-operator exclusive attribution summing
  *exactly* to the whole-plan counters, and agreeing with the
  state-threaded per-operator model predictions inside the established
  0.35 band on the seeded template-plan sweep (pure-memory and
  disk-extended profiles),
* the :meth:`Session.stats` cache-provenance surface, and
* the bench JSON schema (``BENCH_*.json``) builders and validator.
"""

import json

import pytest

from repro import Session
from repro.db import random_permutation
from repro.hardware import disk_extended_scaled, origin2000_scaled
from repro.query import Explanation, MeasuredResult, QueryResult
from repro.service import ServiceExecutor
from repro.service.workload import WorkloadGenerator
from repro.validation import (
    ExperimentResult,
    ExperimentRow,
    payload_from_experiment,
    payload_from_results,
    validate_bench_payload,
)

from test_explain_golden import GOLDEN_DIR, QUERIES, make_session
from test_model_vs_simulator_deep import (
    BAND,
    _DISK_TEMPLATES,
    _TEMPLATES,
    _sweep_session,
)


@pytest.fixture(scope="module")
def mem_session():
    return make_session(origin2000_scaled())


@pytest.fixture(scope="module")
def disk_session():
    return make_session(disk_extended_scaled(), memory_budget=1536)


class TestExplanationStructure:
    def test_tree_mirrors_plan(self, mem_session):
        planned = mem_session.compile(QUERIES["join_aggregate"])
        explanation = planned.explanation(mem_session.model)
        operators = [node.operator for node in explanation.nodes()]
        assert operators == [n.label() for n in planned.plan.root.walk()]
        assert explanation.signature == planned.best.signature
        assert explanation.total_ns == pytest.approx(
            explanation.memory_ns + explanation.cpu_ns)
        assert explanation.cpu_ns > 0

    def test_per_node_levels_cover_all_cache_levels(self, disk_session):
        explanation = disk_session.explain_query(QUERIES["join_aggregate"])
        names = [lv.name for lv in explanation.levels]
        assert "BufferPool" in names
        for node in explanation.nodes():
            if node.pattern is None:        # bare scans cost nothing
                assert node.levels == ()
                continue
            assert [lv.name for lv in node.levels] == names
            assert [lv.name for lv in node.attributed_levels] == names
            assert node.memory_ns == pytest.approx(
                sum(lv.time_ns for lv in node.levels))

    def test_spill_flags_surface(self, disk_session):
        explanation = disk_session.explain_query(QUERIES["join_aggregate"])
        assert any(node.spill for node in explanation.nodes())

    def test_level_accessor(self, mem_session):
        explanation = mem_session.explain_query(QUERIES["select"])
        assert explanation.level("L1").time_ns >= 0
        with pytest.raises(KeyError, match="no level"):
            explanation.level("L9")


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_lossless_through_json_text(self, mem_session, disk_session,
                                        name):
        for session in (mem_session, disk_session):
            explanation = session.explain_query(QUERIES[name])
            payload = json.loads(json.dumps(explanation.to_json()))
            restored = Explanation.from_json(payload)
            assert restored == explanation
            assert restored.to_text() == explanation.to_text()
            # payloads written while plans carried a pipeline flag
            assert Explanation.from_json(
                {**payload, "pipeline": True}) == explanation

    def test_rejects_foreign_payloads(self):
        with pytest.raises(ValueError, match="not an explanation"):
            Explanation.from_json({"kind": "query_result"})


class TestGoldenByteParity:
    """`to_text()` must reproduce the legacy strings byte for byte —
    checked against the *same snapshot files* the legacy renderer is
    pinned to, so the two paths cannot drift apart silently."""

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_matches_golden_snapshots(self, mem_session, disk_session,
                                      name):
        for prefix, session in (("mem", mem_session),
                                ("disk", disk_session)):
            golden = (GOLDEN_DIR / f"{prefix}_{name}.txt").read_text()
            planned = session.compile(QUERIES[name])
            explanation = planned.explanation(session.model)
            assert explanation.to_text() == golden.rstrip("\n")

    def test_session_explain_query_appends_provenance(self, mem_session):
        text = mem_session.explain_query(QUERIES["join"]).to_text()
        golden = (GOLDEN_DIR / "mem_join.txt").read_text().rstrip("\n")
        assert text.splitlines()[:-1] == golden.splitlines()
        assert text.splitlines()[-1] in ("  plan cache: hit",
                                         "  plan cache: miss")


class TestAttribution:
    """Per-operator measured attribution: exact whole-plan sums, and
    model agreement inside the established band on the seeded sweep."""

    def assert_sums_exactly(self, measured: MeasuredResult):
        total = measured.counters
        assert sum(op.counters.elapsed_ns for op in measured.operators) \
            == pytest.approx(total.elapsed_ns, rel=1e-9)
        assert sum(op.counters.accesses for op in measured.operators) \
            == total.accesses
        for level in total.levels:
            for field in ("hits", "seq_misses", "rand_misses"):
                assert sum(getattr(op.counters.level(level.name), field)
                           for op in measured.operators) \
                    == getattr(level, field), (level.name, field)

    def sweep(self, session, templates):
        """Yield (query, operator measurement, measured share) over the
        template sweep."""
        for query in templates:
            measured = session.execute_measured(query, restore=True)
            self.assert_sums_exactly(measured)
            total = measured.measured_ns
            for op in measured.operators:
                share = op.measured_ns / total if total > 0 else 0.0
                yield query, op, share

    def assert_band(self, session, templates):
        checked = 0
        for query, op, share in self.sweep(session, templates):
            if share < 0.05:
                # sub-5% operators are noise at these scales (their
                # absolute times are a handful of misses; the existing
                # validations use the same skip-small idiom)
                continue
            checked += 1
            assert op.predicted_memory_ns == pytest.approx(
                op.measured_ns, rel=BAND), (query, op.operator, share)
        return checked

    def test_pure_memory_per_operator_band(self):
        from repro.hardware import tiny_test_machine
        session = _sweep_session(tiny_test_machine(), memory_budget=None)
        assert self.assert_band(session, _TEMPLATES) >= 10

    def test_disk_extended_per_operator_band(self):
        session = _sweep_session(disk_extended_scaled(), memory_budget=1536)
        checked = self.assert_band(session, _DISK_TEMPLATES)
        assert checked >= 10
        # the sweep genuinely attributes spilling operators
        spilled = [op for q, op, _ in self.sweep(session, _DISK_TEMPLATES)
                   if op.spill]
        assert spilled

    def test_shared_node_instance_attributes_per_position(self, scaled):
        """A node instance reused across tree positions executes once
        per position; each execution must be attributed to its own
        position (never zeroed/folded into the parent)."""
        from repro.core import CostModel
        from repro.db import Database
        from repro.query import (MergeJoinNode, QueryPlan, ScanNode,
                                 SortNode, measure_plan)
        db = Database(scaled)
        col = db.create_column("A", random_permutation(512, seed=1),
                               width=8)
        shared = SortNode(ScanNode(col))
        plan = QueryPlan(MergeJoinNode(shared, shared))
        measured = measure_plan(db, plan, CostModel(scaled))
        self.assert_sums_exactly(measured)
        sorts = [op for op in measured.operators if op.operator == "sort"]
        assert len(sorts) == 2
        assert all(op.measured_ns > 0 for op in sorts)
        # first execution sorts a permutation, the second re-sorts the
        # (now sorted) column in place — strictly cheaper
        assert sorts[0].measured_ns > sorts[1].measured_ns

    def test_legacy_execute_override_raises_clearly(self, scaled):
        """A PlanNode subclass overriding execute() (the pre-1.2 hook)
        bypasses the operator probe; the capture must fail with a
        diagnostic, not a bare KeyError."""
        from repro.core import CostModel
        from repro.db import Database
        from repro.query import QueryPlan, ScanNode, SortNode, measure_plan

        class LegacySort(SortNode):
            def execute(self, db):          # old-style override
                column = self.child.execute(db)
                from repro.db.sort import quick_sort
                quick_sort(db, column)
                return column

        db = Database(scaled)
        col = db.create_column("A", random_permutation(64, seed=1),
                               width=8)
        plan = QueryPlan(LegacySort(ScanNode(col)))
        with pytest.raises(ValueError, match="must.*implement _run"):
            measure_plan(db, plan, CostModel(scaled))

    def test_operator_rows_align_with_plan(self, mem_session):
        planned = mem_session.compile(QUERIES["join_aggregate"])
        measured = mem_session.execute_measured(QUERIES["join_aggregate"],
                                                restore=True)
        assert [op.operator for op in measured.operators] \
            == [n.label() for n in planned.plan.root.walk()]
        assert "whole plan" in measured.attribution_table()


class TestQueryResultSurface:
    def test_run_returns_typed_result(self, scaled):
        from repro.db import grouped_keys
        s = Session(scaled)
        s.create_table("orders", grouped_keys(256, groups=16, seed=1))
        result = s.run("aggregate(orders, groups=16)")
        assert isinstance(result, QueryResult)
        assert not isinstance(result, MeasuredResult)
        assert result.cache_hit is False
        assert result.signature == s.compile(
            "aggregate(orders, groups=16)").best.signature
        assert len(result) == 16
        assert result.simulated_ns > 0
        assert result.wall_seconds >= 0
        again = s.run("aggregate(orders, groups=16)")
        assert again.cache_hit is True

    def test_to_json_shapes(self, scaled):
        s = Session(scaled)
        s.create_table("orders", random_permutation(256, seed=1))
        s.create_table("customers", random_permutation(256, seed=2))
        measured = s.execute_measured("join(orders, customers)",
                                      restore=True)
        payload = json.loads(json.dumps(measured.to_json(
            include_values=True)))
        assert payload["kind"] == "measured_result"
        assert payload["rows"] == len(measured.values)
        assert payload["explanation"]["kind"] == "explanation"
        assert len(payload["operators"]) == len(measured.operators)
        assert payload["measured"]["accesses"] == measured.counters.accesses
        # join pairs serialize as 2-lists
        assert all(isinstance(v, list) and len(v) == 2
                   for v in payload["values"])
        assert measured.error >= 0

    def test_prepared_statement_typed_paths(self, scaled):
        from repro.hardware import tiny_test_machine
        s = Session(scaled)
        s.create_table("orders", random_permutation(256, seed=1))
        stmt = s.prepare("sort(orders)")
        explanation = stmt.explain_query()
        assert explanation.cache_hit is True       # compiled reused
        result = stmt.run(restore=True)
        assert isinstance(result, QueryResult)
        measured = stmt.execute_measured(restore=True)
        assert isinstance(measured, MeasuredResult)
        s.set_hierarchy(tiny_test_machine())
        assert stmt.explain_query().cache_hit is False   # recompiled
        assert stmt.explain_query().cache_hit is True


class TestStatsSurface:
    def test_session_local_counters_and_provenance(self, scaled):
        s = Session(scaled)
        s.create_table("orders", random_permutation(128, seed=1))
        stats = s.stats()
        assert stats["session_hits"] == 0
        assert stats["session_misses"] == 0
        assert stats["last_compile_cached"] is False
        s.compile("sort(orders)")
        s.compile("sort(orders)")
        stats = s.stats()
        assert stats["session_hits"] == 1
        assert stats["session_misses"] == 1
        assert stats["last_compile_cached"] is True
        # a spawned client counts its own compiles over the shared cache
        client = s.spawn()
        client.compile("sort(orders)")
        assert client.stats()["session_hits"] == 1
        assert client.stats()["session_misses"] == 0
        assert s.stats()["session_hits"] == 1   # unchanged
        assert client.stats()["hits"] == 2      # global cache counter


class TestServiceAttribution:
    @pytest.fixture(scope="class")
    def session(self):
        s = Session()
        WorkloadGenerator(session=s, seed=5, scale=256)
        return s

    def test_singleton_batches_carry_operator_attribution(self, session):
        gen = WorkloadGenerator(session=session, seed=5, scale=256)
        report = ServiceExecutor(session, mode="fifo-serial").run(
            gen.generate(4, clients=2))
        for q in report.queries:
            assert q.operators is not None
            assert sum(op.counters.elapsed_ns for op in q.operators) \
                == pytest.approx(q.memory_ns, rel=1e-9)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["kind"] == "workload_report"
        assert all("operators" in q for q in payload["queries"])

    def test_co_run_members_have_no_operator_scope(self, session):
        gen = WorkloadGenerator(session=session, seed=6, scale=256)
        report = ServiceExecutor(session, mode="max-parallel").run(
            gen.generate(4, clients=2))
        co_run = [q for q in report.queries
                  if report.batches[q.batch_index].size > 1]
        assert co_run
        assert all(q.operators is None for q in co_run)
        payload = report.to_json()
        assert all("operators" not in q for q in payload["queries"]
                   if report.batches[q["batch_index"]].size > 1)


class TestBenchSchema:
    def _measured(self, scaled):
        s = Session(scaled)
        s.create_table("orders", random_permutation(256, seed=1))
        return s.execute_measured("sort(orders)", restore=True)

    def test_payload_from_results_validates(self, scaled):
        measured = self._measured(scaled)
        payload = payload_from_results("unit", [(256, measured)],
                                       tolerance=0.5)
        assert validate_bench_payload(payload) == []
        # and survives a JSON round trip
        assert validate_bench_payload(
            json.loads(json.dumps(payload))) == []
        assert payload["band"]["max_error"] == measured.error

    def test_payload_from_experiment_validates(self):
        result = ExperimentResult("X1", "unit", "n")
        result.rows.append(ExperimentRow(
            x_label="4kB", measured={"L1": 10.0, "time_us": 3.0},
            predicted={"L1": 12.0, "time_us": 4.0}))
        payload = payload_from_experiment("unit", result, tolerance=2.0)
        assert validate_bench_payload(payload) == []
        assert payload["detail"]["kind"] == "experiment"

    @pytest.mark.parametrize("mutate, problem", [
        (lambda p: p.pop("kind"), "kind"),
        (lambda p: p.update(bench=""), "bench"),
        (lambda p: p.update(sizes=[]), "sizes"),
        (lambda p: p.update(series=[]), "series"),
        (lambda p: p["series"][0].pop("size"), "size"),
        (lambda p: p["series"][0].update(error=-1.0), "error"),
        (lambda p: p["series"][0].update(measured_ns="fast"),
         "measured_ns"),
        (lambda p: p.update(band={}), "tolerance"),
        (lambda p: p.update(sizes=[1, 2]), "entries for"),
    ])
    def test_violations_are_reported(self, scaled, mutate, problem):
        payload = payload_from_results(
            "unit", [(256, self._measured(scaled))], tolerance=0.5)
        mutate(payload)
        problems = validate_bench_payload(payload)
        assert any(problem in text for text in problems), problems
