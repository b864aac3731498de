"""The concurrent workload service: generator, interference model,
batch former, executor, metrics — plus the session hooks it rides on
(spawned client sessions, plan-cache provenance)."""

import asyncio
import math

import pytest

from repro.query.physical import QueryPlan
from repro.core import Conc, Seq, footprint_lines
from repro.hardware import parametric_profile
from repro.server import QueryServer, TenantQuota
from repro.service import (
    MODES,
    AdmissionController,
    BatchFormer,
    InterferenceModel,
    ServiceExecutor,
    Stepper,
    WorkloadGenerator,
    compile_task,
    percentile,
)
from repro.whatif import ProfileSpace, capacity_plan
from repro.service.executor import (
    DEFAULT_QUANTUM,
    execute_batch,
    record_trace,
    replay_interleaved,
)
from repro.simulator import MemorySystem
from repro.service.workload import (
    WorkloadQuery,
    poisson_gaps,
    stamp_arrivals,
)
from repro.session import Session


@pytest.fixture(scope="module")
def small_service():
    """One shared session + a small balanced workload (module-scoped:
    populating and compiling is the expensive part)."""
    session = Session()
    gen = WorkloadGenerator(session=session, seed=3, scale=256)
    return session, gen


class TestWorkloadGenerator:
    def test_stream_is_deterministic(self, small_service):
        _, gen = small_service
        a = gen.generate(12, clients=3)
        b = gen.generate(12, clients=3)
        assert a == b
        assert [q.qid for q in a] == list(range(12))
        assert {q.client for q in a} <= {0, 1, 2}

    def test_different_seeds_differ(self):
        s1, s2 = Session(), Session()
        a = WorkloadGenerator(session=s1, seed=1, scale=256).generate(16)
        b = WorkloadGenerator(session=s2, seed=2, scale=256).generate(16)
        assert [q.text for q in a] != [q.text for q in b]

    def test_every_template_compiles(self, small_service):
        session, gen = small_service
        from repro.service.workload import KINDS
        for kind in KINDS:
            for text in gen._templates(kind):
                planned = session.compile(text)
                assert planned.best.total_ns > 0

    def test_mix_validation(self):
        with pytest.raises(ValueError, match="unknown workload kinds"):
            WorkloadGenerator(session=Session(), scale=256,
                              mix={"nope": 1.0})
        with pytest.raises(ValueError, match="positive"):
            WorkloadGenerator(session=Session(), scale=256,
                              mix={"join": 0.0})

    def test_contention_heavy_mix_is_join_dominated(self):
        gen = WorkloadGenerator.contention_heavy(session=Session(),
                                                 scale=256)
        stream = gen.generate(40)
        joins = sum(1 for q in stream
                    if q.kind in ("join", "join_aggregate"))
        assert joins > len(stream) / 2


class TestSessionHooks:
    def test_spawn_shares_engine_and_cache(self, small_service):
        session, _ = small_service
        client = session.spawn()
        assert client.db is session.db
        assert client.plan_cache is session.plan_cache
        assert client.function("even") is session.function("even")
        # catalog is the same object: tables registered later are seen
        assert client.db.catalog is session.db.catalog

    def test_compile_provenance_hit_and_miss(self):
        session = Session()
        WorkloadGenerator(session=session, seed=5, scale=256)
        text = "filter(orders, even, sel=0.5)"
        session.compile(text)
        assert session.last_compile_cached is False
        session.compile(text)
        assert session.last_compile_cached is True
        # a spawned client session hits the shared cache immediately,
        # with its own provenance flag
        client = session.spawn()
        client.compile(text)
        assert client.last_compile_cached is True
        assert session.last_compile_cached is True

    def test_explain_marks_cache_provenance(self):
        session = Session()
        WorkloadGenerator(session=session, seed=5, scale=256)
        first = session.explain_query("join(orders, customers)")
        assert first.cache_hit is False
        assert first.to_text().rstrip().endswith("plan cache: miss")
        second = session.explain_query("join(orders, customers)")
        assert second.cache_hit is True
        assert second.to_text().rstrip().endswith("plan cache: hit")
        assert (second.to_text().splitlines()[:-1]
                == first.to_text().splitlines()[:-1])

    def test_sibling_profile_switch_is_seen(self):
        """When one session switches the *shared* engine's profile,
        spawned siblings re-bind on their next compile: fingerprints
        agree and old-profile cache entries stop matching."""
        from repro.hardware import tiny_test_machine
        session = Session()
        WorkloadGenerator(session=session, seed=5, scale=256)
        client = session.spawn()
        text = "filter(orders, even, sel=0.5)"
        client.compile(text)
        old = client.fingerprint
        session.set_hierarchy(tiny_test_machine())
        assert client.fingerprint == session.fingerprint != old
        client.compile(text)
        assert client.last_compile_cached is False  # re-enumerated
        client.compile(text)
        assert client.last_compile_cached is True

    def test_pipeline_stages_hook(self, small_service):
        session, _ = small_service
        plan = session.compile("aggregate(join(orders, customers), "
                               "groups=256)").plan
        stages = plan.pipeline_stages()
        pattern = plan.pattern(pipeline=True)
        assert isinstance(pattern, Seq)
        assert stages == pattern.parts
        # one stage at a time runs: the plan's competitive footprint is
        # its *max* stage footprint (what ⊙ composition divides by)
        line = session.hierarchy.levels[0].line_size
        assert footprint_lines(pattern, line) == \
            max(footprint_lines(s, line) for s in stages)


class TestInterferenceModel:
    @pytest.fixture(scope="class")
    def plans(self, small_service):
        session, _ = small_service
        texts = ["join(orders, customers)", "join(customers, parts)",
                 "filter(orders, even, sel=0.5)"]
        return session, [session.compile(t).plan for t in texts]

    def test_single_plan_is_standalone(self, plans):
        session, (join_plan, *_) = plans
        model = InterferenceModel(session.hierarchy)
        memory, cpu = model.standalone(join_plan)
        pred = model.co_run([join_plan])
        assert pred.memory_ns == (pytest.approx(memory),)
        assert pred.makespan_ns == pytest.approx(memory + cpu)
        assert pred.slowdown == pytest.approx(1.0)

    def test_co_run_matches_conc_composition(self, plans):
        """The batch memory time is exactly the ⊙-composed estimate."""
        session, ps = plans
        model = InterferenceModel(session.hierarchy)
        pred = model.co_run(ps)
        patterns = [p.pattern(pipeline=True) for p in ps]
        expected = model.model.estimate(Conc.of(*patterns)).memory_ns
        assert pred.batch_memory_ns == pytest.approx(expected)

    def test_contention_slows_joins_down(self, plans):
        session, (a, b, _) = plans
        model = InterferenceModel(session.hierarchy)
        pred = model.co_run([a, b])
        assert pred.slowdown > 1.0
        for shared, solo in zip(pred.memory_ns, pred.solo_memory_ns):
            assert shared >= solo

    def test_empty_batch_rejected(self, plans):
        session, _ = plans
        with pytest.raises(ValueError, match="at least one plan"):
            InterferenceModel(session.hierarchy).co_run([])

    def test_co_run_memo_is_keyed_by_member_order(self, plans):
        session, (a, b, _) = plans
        model = InterferenceModel(session.hierarchy)
        ab, ba = model.co_run([a, b]), model.co_run([b, a])
        assert model.co_run([a, b]) is ab  # served from the memo
        assert model.co_run((b, a)) is ba
        assert ab is not ba  # two entries, each aligned with its members
        solo = {id(p): model.standalone(p) for p in (a, b)}
        for members, pred in (((a, b), ab), ((b, a), ba)):
            assert pred.solo_memory_ns == tuple(solo[id(p)][0]
                                                for p in members)
            assert pred.cpu_ns == tuple(solo[id(p)][1] for p in members)
        assert ab.memory_ns != ab.solo_memory_ns  # really contended

    def test_pricing_memos_are_bounded_and_recompute_equal(
            self, plans, monkeypatch):
        from repro.service import interference
        monkeypatch.setattr(interference, "MEMO_ENTRIES", 2)
        session, (a, b, c) = plans
        model = InterferenceModel(session.hierarchy)
        first = model.co_run([a, b])
        model.co_run([b, c])
        model.co_run([c, a])  # full: drops the oldest, (a, b)
        assert len(model._co_runs) == len(model._solo) == 2
        assert tuple(map(id, (a, b))) not in model._co_runs
        again = model.co_run([a, b])
        assert again is not first and again == first
        unbounded = InterferenceModel(session.hierarchy)
        for batch in ([a, b], [b, c], [c, a], [a, b, c]):
            assert model.co_run(batch) == unbounded.co_run(batch)
            for plan in batch:
                assert model.standalone(plan) == unbounded.standalone(plan)

    def test_concurrent_pricing_returns_each_batch_its_own_prediction(
            self, small_service, monkeypatch):
        """Two threads compile and price different batches through one
        model whose memos churn (the ``test_plan_cache_threads``
        pattern): every prediction must be the one a private,
        single-threaded model gives for that very batch."""
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor
        from repro.service import interference
        monkeypatch.setattr(interference, "MEMO_ENTRIES", 3)
        root, _ = small_service
        texts = ["join(orders, customers)", "join(customers, parts)",
                 "filter(orders, even, sel=0.5)", "sort(orders)"]
        shared = InterferenceModel(root.hierarchy)
        batches = {0: [[0, 1], [1, 0], [0, 2], [2, 3, 0]],
                   1: [[1, 2], [3, 1], [2, 1], [1, 3, 2]]}
        barrier = threading.Barrier(2)

        def price(worker):
            session = root.spawn()
            barrier.wait(timeout=30)
            out = []
            for _ in range(25):
                for batch in batches[worker]:
                    tasks = [compile_task(
                        session, shared,
                        WorkloadQuery(qid=i, client=worker, kind="q",
                                      text=texts[i])) for i in batch]
                    out.append((batch, tasks, shared.co_run(
                        [t.plan for t in tasks])))
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = [f.result(timeout=120) for f in
                           [pool.submit(price, w) for w in (0, 1)]]
        finally:
            sys.setswitchinterval(interval)
        private = InterferenceModel(root.hierarchy)
        for rows in results:
            assert len(rows) == 100
            for batch, tasks, prediction in rows:
                assert prediction == private.co_run([t.plan for t in tasks])
                for task in tasks:
                    assert (task.solo_memory_ns, task.cpu_ns) \
                        == private.standalone(task.plan)
        assert len(shared._co_runs) <= 3 and len(shared._solo) <= 3


def _closed(model, tasks, **knobs):
    """The batches a closed loop's stepper decides over ``tasks``, in
    order."""
    admission = AdmissionController(model, max_queue=math.inf, **knobs)
    return [step.batch
            for step in Stepper.closed_loop(admission, list(tasks))]


class TestSchedulers:
    @pytest.fixture(scope="class")
    def tasks(self, small_service):
        session, gen = small_service
        model = InterferenceModel(session.hierarchy)
        return model, [compile_task(session, model, q)
                       for q in gen.generate(10, clients=2)]

    def test_fifo_serial_is_singletons(self, tasks):
        model, ts = tasks
        batches = _closed(model, ts, mode="fifo-serial")
        assert [len(b) for b in batches] == [1] * len(ts)
        assert [b[0].qid for b in batches] == list(range(len(ts)))

    def test_max_parallel_chunks_arrival_order(self, tasks):
        model, ts = tasks
        batches = _closed(model, ts, mode="max-parallel", max_batch=4)
        assert [len(b) for b in batches] == [4, 4, 2]
        flat = [t.qid for b in batches for t in b]
        assert flat == list(range(len(ts)))

    def test_interference_aware_schedules_everything_once(self, tasks):
        """Every mode dequeues exactly what it returns: each query is
        scheduled exactly once, and the handed-back prediction is the
        batch's own ⊙ price."""
        model, ts = tasks
        for mode in MODES:
            batches = _closed(model, ts, mode=mode, max_batch=4)
            scheduled = sorted(t.qid for b in batches for t in b)
            assert scheduled == list(range(len(ts)))
            assert all(1 <= len(b) <= 4 for b in batches)
            for batch in batches:
                assert (batch.prediction
                        == model.co_run([t.plan for t in batch]))

    def test_admission_never_predicts_worse_than_serial(self, tasks):
        """The admission rule guarantees every batch's predicted
        makespan is bounded by the sum of its members' standalone
        times (slack=1): co-scheduling never *predictably* loses to
        FIFO-serial."""
        model, ts = tasks
        for batch in _closed(model, ts, max_batch=4, slack=1.0):
            serial = sum(t.solo_total_ns for t in batch)
            assert batch.prediction.makespan_ns <= serial * (1 + 1e-9)

    def test_parameter_validation(self, tasks, small_service):
        model, _ = tasks
        session, _ = small_service
        for build in (lambda **kw: BatchFormer(model, **kw),
                      lambda **kw: ServiceExecutor(session, **kw)):
            with pytest.raises(ValueError, match="unknown admission mode"):
                build(mode="yolo")
            with pytest.raises(ValueError, match="max_batch"):
                build(mode="max-parallel", max_batch=0)
            with pytest.raises(ValueError, match="slack"):
                build(slack=0.0)
        with pytest.raises(ValueError, match="lookahead"):
            BatchFormer(model, lookahead=0)


def _serve_closed(stream, mode, seed, scale):
    """A single-tenant server fed ``stream`` with everything arrived at
    simulated time zero."""
    async def main():
        server = QueryServer(mode=mode, max_batch=4, max_queue=256)
        tenant = server.add_tenant("acme", TenantQuota(max_queued=256))
        WorkloadGenerator.contention_heavy(session=tenant.session,
                                           seed=seed, scale=scale)
        async with server:
            await server.serve(stream)
            await server.drain()
        return server

    return asyncio.run(main())


class TestOneServingCore:
    """The closed-loop executor, the server, and the what-if sweep are
    drivers over one core — so on the same all-arrived single-tenant
    stream they must agree batch for batch."""

    SEED, SCALE, QUERIES = 3, 256, 12

    def _stream(self, session):
        gen = WorkloadGenerator.contention_heavy(session=session,
                                                 seed=self.SEED,
                                                 scale=self.SCALE)
        stream = gen.generate(self.QUERIES, clients=4)
        assert all(q.arrival_ns == 0.0 for q in stream)
        return stream

    @pytest.mark.parametrize("mode", MODES)
    def test_server_forms_the_executors_batches(self, mode):
        session = Session()
        stream = self._stream(session)
        closed = ServiceExecutor(session, mode=mode, max_batch=4).run(stream)
        served = _serve_closed(stream, mode, self.SEED, self.SCALE).report()

        def members(index, rows):
            return sorted(r.qid for r in rows if r.batch_index == index)

        assert len(served.batches) == len(closed.batches)
        for ours, theirs in zip(closed.batches, served.batches):
            assert (members(ours.index, closed.queries)
                    == members(theirs.index, served.responses))
            assert ours == theirs  # ⊙ prediction and measurement alike
        assert served.makespan_ns == closed.makespan_ns

    @pytest.mark.parametrize("mode", MODES)
    def test_whatif_prices_the_batches_the_server_formed(self, mode):
        stream = self._stream(Session())
        server = _serve_closed(stream, mode, self.SEED, self.SCALE)
        served = server.report()
        # capacity_plan = WhatIfSweep.price under the server's own knobs;
        # the baseline row is the live profile
        live = capacity_plan(server, ProfileSpace({"cores": [4]})).baseline
        assert live.fingerprint == served.fingerprint
        assert live.batches == len(served.batches)
        assert live.co_run_batches == sum(b.size > 1
                                          for b in served.batches)
        assert live.makespan_ns == served.predicted_makespan_ns

    def test_reused_executor_follows_a_profile_switch(self):
        """One model per executor: after ``set_hierarchy`` a reused
        executor must form (and measure) exactly what a freshly built
        one does — batch formation may not keep pricing on the stale
        profile."""
        def build():
            session = Session()
            return session, self._stream(session)

        slow = parametric_profile(mem_ns=1600.0)
        session, stream = build()
        reused = ServiceExecutor(session, max_batch=4)
        reused.run(stream)
        session.set_hierarchy(slow)
        after_switch = reused.run(stream)

        session, stream = build()
        session.set_hierarchy(slow)
        fresh = ServiceExecutor(session, max_batch=4).run(stream)
        assert ([b.size for b in after_switch.batches]
                == [b.size for b in fresh.batches])
        assert ([b.predicted_makespan_ns for b in after_switch.batches]
                == [b.predicted_makespan_ns for b in fresh.batches])

    def test_a_run_that_raises_leaves_nothing_queued(self):
        """A batch whose kernel raises ends its run with later queries
        still queued; the executor's next run serves its own queries
        and nothing the failed run left behind."""
        def boom(value):
            raise RuntimeError("kernel exploded")

        session = Session()
        session.create_table("t", list(range(64)))
        session.predicate("small", lambda v: v < 10)
        session.predicate("boom", boom)
        executor = ServiceExecutor(session, mode="fifo-serial")

        def queries(*named):
            return [WorkloadQuery(qid=qid, client=0, kind="adhoc",
                                  text=f"filter(t, {predicate}, sel=0.2)")
                    for qid, predicate in named]

        with pytest.raises(RuntimeError, match="kernel exploded"):
            executor.run(queries((0, "small"), (1, "boom"), (2, "small")))
        report = executor.run(queries((3, "small")))
        assert [q.qid for q in report.queries] == [3]
        assert [b.index for b in report.batches] == [0]


class TestExecutor:
    def test_record_trace_restores_columns(self, small_service):
        session, _ = small_service
        plan = session.compile("sort(orders)").plan
        before = list(session.db.column("orders").values)
        trace, rows = record_trace(session, plan)
        assert len(trace) > 0 and rows == len(before)
        assert session.db.column("orders").values == before
        # and the real memory system is back in place
        assert session.db.mem.__class__.__name__ == "MemorySystem"

    def test_replay_quantum_validation(self, small_service):
        session, _ = small_service
        with pytest.raises(ValueError, match="quantum"):
            replay_interleaved(session.hierarchy, [[(0, 8)]], quantum=0)

    def test_execute_batch_resets_the_machine_it_is_given(self):
        """One machine for all of a driver's batches: whatever an
        earlier batch left in it, a batch measures what it would on a
        machine built for it."""
        def members():
            # a fresh engine each time: scratch addresses depend on
            # what the allocator handed out before
            session = Session()
            WorkloadGenerator(session, scale=128, seed=3)
            return [(session, session.compile(text).plan, offset)
                    for text, offset in (("join(orders, customers)", 0),
                                         ("sort(parts)", 1 << 32))]

        hierarchy = Session().hierarchy
        fresh = replay_interleaved(
            hierarchy, [record_trace(*member)[0] for member in members()])
        mem = MemorySystem(hierarchy)
        mem.replay([(address, 8) for address in range(0, 1 << 16, 32)])
        for _ in range(2):
            replay, rows, measured = execute_batch(
                members(), mem, DEFAULT_QUANTUM, attribute=False)
            assert replay == fresh and measured is None
            assert rows == [128, 128]

    def test_end_to_end_report(self, small_service):
        session, gen = small_service
        workload = gen.generate(8, clients=2)
        report = ServiceExecutor(session, mode="max-parallel").run(workload)
        assert len(report.queries) == 8
        assert [q.qid for q in report.queries] == list(range(8))
        assert sum(b.size for b in report.batches) == 8
        assert report.makespan_ns > 0
        assert report.throughput_qps > 0
        assert report.p50_latency_ns <= report.p95_latency_ns
        assert report.p95_latency_ns <= report.makespan_ns * (1 + 1e-9)
        for q in report.queries:
            assert q.finish_ns > q.start_ns
        text = report.render()
        assert "max-parallel" in text and "p95" in text

    def test_interference_aware_beats_naive_on_contention(self):
        """The tentpole claim at test scale: on a join-dominated mix
        whose hash tables thrash the shared cache, the ⊙-guided policy
        finishes the workload sooner than naive max-parallel, and its
        co-run predictions track the interleaved replay within the
        model-vs-simulator tolerance band (deterministic workload, so
        this is a stable check, not a flaky benchmark)."""
        session = Session()
        gen = WorkloadGenerator.contention_heavy(session=session, seed=7,
                                                 scale=512)
        workload = gen.generate(8, clients=2)
        naive = ServiceExecutor(session, mode="max-parallel").run(workload)
        aware = ServiceExecutor(session).run(workload)
        assert aware.makespan_ns < naive.makespan_ns
        assert naive.mean_contention_error < 0.35
        assert aware.mean_contention_error < 0.35


class TestMetrics:
    def test_percentile(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == pytest.approx(25.0)
        assert percentile([7.0], 95) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(values, 101)
    def test_percentile_edge_cases(self):
        # empty: raises by default, returns the supplied default when
        # one is given (including an explicit None)
        assert percentile([], 50, empty=None) is None
        assert percentile([], 99, empty=0.0) == 0.0
        # q is validated before the empty check
        with pytest.raises(ValueError, match="q must be"):
            percentile([], 101, empty=None)
        # a single sample is its own percentile at every q
        for q in (0, 50, 99, 100):
            assert percentile([3.5], q) == 3.5

    def test_p99_tracks_the_tail(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 99) > percentile(values, 95)
        assert percentile(values, 99) <= percentile(values, 100)

    def test_report_exposes_p99(self, small_service):
        session, gen = small_service
        report = ServiceExecutor(session, mode="max-parallel").run(
            gen.generate(8, clients=2))
        assert report.p95_latency_ns <= report.p99_latency_ns
        assert report.p99_latency_ns <= report.makespan_ns * (1 + 1e-9)
        assert report.to_json()["p99_latency_ns"] == report.p99_latency_ns
        assert "p99" in report.render()


class TestArrivalStamps:
    def test_poisson_gaps_validation(self):
        import random as _random
        with pytest.raises(ValueError, match="rate_qps"):
            next(iter(poisson_gaps(_random.Random(0), 0.0)))

    def test_stamp_arrivals_is_cumulative(self):
        queries = [WorkloadQuery(qid=i, client=0, kind="scan",
                                 text=f"q{i}") for i in range(4)]
        stamped = stamp_arrivals(queries, iter([5.0, 1.0, 2.0, 0.0]))
        assert [q.arrival_ns for q in stamped] == [5.0, 6.0, 8.0, 8.0]
        # the originals are untouched (streams are replayable)
        assert all(q.arrival_ns == 0.0 for q in queries)
        with pytest.raises(ValueError, match="non-negative"):
            stamp_arrivals(queries, iter([1.0, -2.0, 3.0, 4.0]))
        with pytest.raises(ValueError, match="exhausted"):
            stamp_arrivals(queries, iter([1.0, 2.0]))

    def test_generate_with_rate_stamps_arrivals(self, small_service):
        _, gen = small_service
        stamped = gen.generate(16, clients=2, rate_qps=1000.0)
        arrivals = [q.arrival_ns for q in stamped]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert arrivals[0] > 0
        # deterministic, and a rate-free stream stays unstamped
        again = gen.generate(16, clients=2, rate_qps=1000.0)
        assert [q.arrival_ns for q in again] == arrivals
        plain = gen.generate(16, clients=2)
        assert all(q.arrival_ns == 0.0 for q in plain)
        # same queries either way: the rate only adds timestamps
        assert [q.text for q in plain] == [q.text for q in stamped]
