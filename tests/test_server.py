"""The async multi-tenant query server: arrival processes, SLO
windows, admission control, tenant isolation, and the asyncio serving
loop end to end (including its determinism on the simulated clock)."""

import asyncio
import threading
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.hardware import tiny_test_machine
from repro.server import (
    AdmissionController,
    BurstArrivals,
    PoissonArrivals,
    QueryServer,
    SlidingWindow,
    SloTarget,
    SloTracker,
    TENANT_ADDRESS_STRIDE,
    Tenant,
    TenantQuota,
)
from repro.service import InterferenceModel, WorkloadGenerator, compile_task
from repro.service.workload import WorkloadQuery
from repro.session import Session


# ---------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------

class TestArrivals:
    def test_poisson_mean_rate(self):
        process = PoissonArrivals(rate_qps=1000.0, seed=11)
        stamps = process.timestamps(4000)
        assert len(stamps) == 4000
        assert all(b > a for a, b in zip(stamps, stamps[1:]))
        mean_gap = stamps[-1] / len(stamps)
        assert mean_gap == pytest.approx(1e6, rel=0.10)  # 1e9/1000

    def test_deterministic_in_seed(self):
        a = PoissonArrivals(500.0, seed=3).timestamps(100)
        b = PoissonArrivals(500.0, seed=3).timestamps(100)
        c = PoissonArrivals(500.0, seed=4).timestamps(100)
        assert a == b
        assert a != c

    def test_stamp_preserves_queries(self):
        queries = [WorkloadQuery(qid=i, client=0, kind="scan",
                                 text=f"q{i}") for i in range(5)]
        stamped = PoissonArrivals(1000.0, seed=1).stamp(queries)
        assert [q.qid for q in stamped] == [q.qid for q in queries]
        assert [q.text for q in stamped] == [q.text for q in queries]
        arrivals = [q.arrival_ns for q in stamped]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_burst_shape(self):
        process = BurstArrivals(1000.0, seed=7, burst=4,
                                burst_spread=0.1)
        gaps = process.gaps()
        first = [next(gaps) for _ in range(12)]
        intra = 0.1 * process.mean_gap_ns
        # gaps 1,2,3 / 5,6,7 / ... inside a burst are the short gap
        for i, gap in enumerate(first):
            if i % 4 != 0:
                assert gap == pytest.approx(intra)

    def test_burst_preserves_mean_rate(self):
        process = BurstArrivals(2000.0, seed=5, burst=6)
        stamps = process.timestamps(6000)
        mean_gap = stamps[-1] / len(stamps)
        assert mean_gap == pytest.approx(1e9 / 2000.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_qps"):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError, match="burst must"):
            BurstArrivals(100.0, burst=0)
        with pytest.raises(ValueError, match="burst_spread"):
            BurstArrivals(100.0, burst_spread=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            PoissonArrivals(100.0).timestamps(-1)


# ---------------------------------------------------------------------
# SLO windows
# ---------------------------------------------------------------------

class TestSlidingWindow:
    def test_trims_outside_window(self):
        window = SlidingWindow(window_ns=100.0)
        for t in (0.0, 50.0, 90.0, 160.0):
            window.observe(t, 1.0)
        # cutoff at 160-100=60: samples at 0 and 50 are gone
        assert len(window) == 2
        assert window.total_observed == 4

    def test_empty_percentile_is_none(self):
        window = SlidingWindow()
        assert window.latency_percentile(99.0) is None
        assert window.throughput_qps() == 0.0
        snap = window.snapshot()
        assert snap["count"] == 0 and snap["p99_ns"] is None

    def test_single_sample(self):
        window = SlidingWindow()
        window.observe(10.0, 42.0)
        assert window.latency_percentile(50.0) == 42.0
        assert window.throughput_qps() == 0.0  # no span yet

    def test_throughput_over_span(self):
        window = SlidingWindow(window_ns=1e9)
        for i in range(11):
            window.observe(i * 1e6, 1.0)  # 11 samples over 10 ms
        assert window.throughput_qps() == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="window_ns"):
            SlidingWindow(0.0)
        with pytest.raises(ValueError, match="p99_ns"):
            SloTarget(p99_ns=-1.0)


class TestSloTracker:
    def test_latency_breach(self):
        tracker = SloTracker(target=SloTarget(p99_ns=100.0))
        assert tracker.observe("a", 10.0, 50.0) == []
        caused = tracker.observe("a", 20.0, 500.0)
        assert [b.metric for b in caused] == ["p99_ns"]
        assert caused[0].scope == "global"
        assert caused[0].value > 100.0
        assert tracker.breaches == caused

    def test_tenant_scope_target(self):
        tracker = SloTracker(
            tenant_targets={"gold": SloTarget(p50_ns=10.0)})
        # only the gold tenant's window is checked
        assert tracker.observe("bronze", 1.0, 1000.0) == []
        caused = tracker.observe("gold", 2.0, 1000.0)
        assert [(b.scope, b.metric) for b in caused] == \
            [("gold", "p50_ns")]

    def test_throughput_needs_min_samples(self):
        tracker = SloTracker(
            target=SloTarget(min_throughput_qps=1e12))  # unholdable
        for i in range(SloTracker.MIN_THROUGHPUT_SAMPLES - 1):
            assert tracker.observe("a", float(i + 1), 1.0) == []
        caused = tracker.observe(
            "a", float(SloTracker.MIN_THROUGHPUT_SAMPLES), 1.0)
        assert [b.metric for b in caused] == ["throughput_qps"]

    def test_snapshot_shape(self):
        tracker = SloTracker()
        tracker.observe("a", 1.0, 2.0)
        snap = tracker.snapshot()
        assert snap["breaches"] == 0
        assert snap["global"]["count"] == 1
        assert "a" in snap["tenants"]


# ---------------------------------------------------------------------
# admission control (unit: real plans, hand-driven controller)
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def admission_setup():
    session = Session()
    gen = WorkloadGenerator(session=session, seed=5, scale=256)
    queries = gen.generate(10, clients=2)
    model = InterferenceModel(session.hierarchy)
    tasks = [compile_task(session, model,
                          replace(query, qid=i, arrival_ns=float(i)),
                          tenant="a" if i % 2 == 0 else "b")
             for i, query in enumerate(queries)]
    return model, tasks


def _task_like(task, *, qid, tenant, arrival_ns=0.0):
    return replace(task, qid=qid, tenant=tenant, arrival_ns=arrival_ns)


class TestAdmissionController:
    def test_mode_and_knob_validation(self, admission_setup):
        model, _ = admission_setup
        with pytest.raises(ValueError, match="unknown admission mode"):
            AdmissionController(model, mode="yolo")
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(model, max_queue=0)
        with pytest.raises(ValueError, match="slack"):
            AdmissionController(model, slack=0.0)

    def test_offer_respects_quota(self, admission_setup):
        model, tasks = admission_setup
        ctrl = AdmissionController(model, max_queue=8)
        quota = TenantQuota(max_queued=2)
        t = tasks[0]
        assert ctrl.offer(_task_like(t, qid=100, tenant="a"), quota) == []
        assert ctrl.offer(_task_like(t, qid=101, tenant="a"), quota) == []
        third = _task_like(t, qid=102, tenant="a")
        assert ctrl.offer(third, quota) == [third]  # over quota: shed
        assert len(ctrl.queue) == 2

    def test_full_queue_displaces_heaviest(self, admission_setup):
        model, tasks = admission_setup
        ctrl = AdmissionController(model, max_queue=3)
        quota = TenantQuota(max_queued=16)
        heavy = [_task_like(tasks[0], qid=i, tenant="hog")
                 for i in range(3)]
        for task in heavy:
            assert ctrl.offer(task, quota) == []
        light = _task_like(tasks[1], qid=10, tenant="light")
        shed = ctrl.offer(light, quota)
        # the hog's newest entry was displaced, the light tenant is in
        assert shed == [heavy[-1]]
        assert light in ctrl.queue
        # but a second hog arrival on a full queue is shed, not swapped
        more_hog = _task_like(tasks[0], qid=11, tenant="hog")
        assert ctrl.offer(more_hog, quota) == [more_hog]

    def test_next_batch_gates_on_arrival(self, admission_setup):
        model, tasks = admission_setup
        ctrl = AdmissionController(model, mode="max-parallel",
                                   max_batch=4)
        quota = TenantQuota()
        early = _task_like(tasks[0], qid=0, tenant="a", arrival_ns=10.0)
        late = _task_like(tasks[1], qid=1, tenant="a", arrival_ns=1e9)
        ctrl.offer(early, quota)
        ctrl.offer(late, quota)
        assert ctrl.next_batch(0.0) == []  # nothing has arrived
        batch = ctrl.next_batch(100.0)
        assert batch == [early]  # the late one hasn't arrived yet
        assert ctrl.queue == [late]

    def test_fifo_serial_is_singleton(self, admission_setup):
        model, tasks = admission_setup
        ctrl = AdmissionController(model, mode="fifo-serial")
        quota = TenantQuota()
        for i, task in enumerate(tasks[:3]):
            ctrl.offer(_task_like(task, qid=i, tenant="a"), quota)
        assert len(ctrl.next_batch(1.0)) == 1
        assert len(ctrl.queue) == 2

    def test_aware_batch_respects_admission_rule(self, admission_setup):
        model, tasks = admission_setup
        ctrl = AdmissionController(model, mode="interference-aware",
                                   max_batch=4, slack=1.0)
        quota = TenantQuota()
        for i, task in enumerate(tasks[:6]):
            ctrl.offer(_task_like(task, qid=i, tenant=task.tenant),
                       quota)
        batch = ctrl.next_batch(1.0)
        assert 1 <= len(batch) <= 4
        # growing the batch obeyed: makespan(batch) ≤ Σ solo (slack=1)
        predicted = model.co_run([t.plan for t in batch]).makespan_ns
        assert predicted <= sum(t.solo_total_ns for t in batch) * 1.001

    @given(ops=st.lists(st.sampled_from(["a", "b", "c", None]),
                        max_size=60),
           max_queue=st.integers(1, 6), max_queued=st.integers(1, 4),
           mode=st.sampled_from(["interference-aware", "max-parallel",
                                 "fifo-serial"]))
    def test_occupancy_equals_a_recount_of_the_queue(
            self, admission_setup, ops, max_queue, max_queued, mode):
        """Any interleaving of offers (a tenant name) and dispatches
        (``None``) leaves the per-tenant counts equal to a recount."""
        model, tasks = admission_setup
        ctrl = AdmissionController(model, mode=mode, max_queue=max_queue,
                                   max_batch=2)
        quota = TenantQuota(max_queued=max_queued)
        for step, tenant in enumerate(ops):
            if tenant is None:
                ctrl.next_batch(float(step))
            else:
                ctrl.offer(_task_like(tasks[step % len(tasks)], qid=step,
                                      tenant=tenant,
                                      arrival_ns=float(step)), quota)
            recount = Counter(task.tenant for task in ctrl.queue)
            assert {name: ctrl.occupancy(name) for name in "abc"} == \
                {name: recount[name] for name in "abc"}
            assert len(ctrl.queue) <= max_queue
            assert max(recount.values(), default=0) <= max_queued

    def test_round_robin_seed_rotates_tenants(self, admission_setup):
        model, tasks = admission_setup
        ctrl = AdmissionController(model, mode="interference-aware",
                                   max_batch=1)
        quota = TenantQuota()
        for i in range(4):
            ctrl.offer(_task_like(tasks[0], qid=i,
                                  tenant="a" if i < 2 else "b"), quota)
        seeds = [ctrl.next_batch(1.0)[0].tenant for _ in range(4)]
        # with max_batch=1 the seed IS the batch: tenants alternate
        assert seeds == ["a", "b", "a", "b"]


# ---------------------------------------------------------------------
# tenants
# ---------------------------------------------------------------------

class TestTenant:
    def test_quota_validation(self):
        with pytest.raises(ValueError, match="max_queued"):
            TenantQuota(max_queued=0)
        with pytest.raises(ValueError, match="plan_cache_entries"):
            TenantQuota(plan_cache_entries=0)

    def test_address_offsets_disjoint(self):
        machine = tiny_test_machine()
        a = Tenant("a", 0, machine)
        b = Tenant("b", 1, machine)
        assert a.address_offset == 0
        assert b.address_offset == TENANT_ADDRESS_STRIDE
        # the stride keeps line/page alignment on any sane geometry
        for level in machine.levels:
            assert TENANT_ADDRESS_STRIDE % level.line_size == 0

    def test_one_worker_session_for_every_thread(self):
        tenant = Tenant("a", 0, tiny_test_machine())
        tenant.session.predicate("small", lambda v: v < 10)
        main = tenant.worker_session()
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(tenant.worker_session()))
        thread.start()
        thread.join()
        assert seen == [main]  # spawned once, whichever thread asks
        assert main is not tenant.session
        assert main.db is tenant.db  # but over the same engine
        assert main.plan_cache is tenant.plan_cache
        assert "small" in main._functions  # what was registered by then


class TestTenantIsolation:
    """The acceptance criterion: one tenant's profile switch retires
    only its own plan-cache entries; cache churn cannot cross tenants."""

    def _populated(self, name, index):
        tenant = Tenant(name, index, tiny_test_machine())
        tenant.session.create_table("t", list(range(64)))
        tenant.session.predicate("small", lambda v: v < 10)
        return tenant

    def test_profile_switch_is_tenant_local(self):
        a = self._populated("a", 0)
        b = self._populated("b", 1)
        text = "filter(t, small, sel=0.2)"
        for tenant in (a, b):
            tenant.session.compile(text)
            tenant.session.compile(text)
            assert tenant.session.last_compile_cached  # warm
        # tenant a recalibrates: only its own entries stop matching
        from repro.hardware import origin2000_scaled
        a.set_hierarchy(origin2000_scaled())
        b.session.compile(text)
        assert b.session.last_compile_cached  # b: still a hit
        a.session.compile(text)
        assert not a.session.last_compile_cached  # a: recompiled

    def test_prepared_statement_survives_other_tenants_switch(self):
        a = self._populated("a", 0)
        b = self._populated("b", 1)
        statement = b.session.prepare("filter(t, small, sel=0.2)")
        first = statement.run()
        misses_before = b.plan_cache.misses
        from repro.hardware import origin2000_scaled
        a.set_hierarchy(origin2000_scaled())
        again = statement.run()  # no recompile: a's switch isn't b's
        assert b.plan_cache.misses == misses_before
        assert list(again.column.values) == list(first.column.values)

    def test_cache_churn_cannot_cross_tenants(self):
        a = self._populated("a", 0)
        b = self._populated("b", 1)
        b.session.compile("filter(t, small, sel=0.2)")
        before = len(b.plan_cache)
        # a floods its own (tiny) cache far past capacity
        small = Tenant("a2", 2, tiny_test_machine(),
                       quota=TenantQuota(plan_cache_entries=4))
        small.session.create_table("t", list(range(64)))
        small.session.predicate("small", lambda v: v < 10)
        for i in range(16):
            small.session.compile(f"filter(t, small, sel={0.01 * (i + 1):.2f})")
        assert len(small.plan_cache) <= 4  # its own bound held
        assert len(b.plan_cache) == before  # b never noticed


# ---------------------------------------------------------------------
# the asyncio server end to end
# ---------------------------------------------------------------------

def _serving_run(mode="interference-aware", n=16, rate_qps=12000.0,
                 scale=128, quotas=None, burst=None, tenants=("acme",
                 "globex"), slo=None, **server_kw):
    """Build a two-tenant server, serve one seeded stream, drain, and
    return (server, responses)."""
    quotas = quotas or {}

    async def main():
        server = QueryServer(mode=mode, slo=slo, **server_kw)
        for name in tenants:
            tenant = server.add_tenant(name, quotas.get(name))
            gen = WorkloadGenerator(tenant.session, scale=scale, seed=7)
            queries = gen.generate(n, clients=4)
        process = (BurstArrivals(rate_qps, seed=3, burst=burst)
                   if burst else PoissonArrivals(rate_qps, seed=3))
        queries = process.stamp(queries)
        async with server:
            responses = await server.serve(queries)
            await server.drain()
        return server, responses

    return asyncio.run(main())


class TestQueryServer:
    def test_serves_a_stream(self):
        server, responses = _serving_run(n=12)
        assert len(responses) == 12
        assert [r.qid for r in responses] == sorted(r.qid
                                                    for r in responses)
        done = [r for r in responses if r.ok]
        assert done, "nothing was served"
        for r in done:
            assert r.rows is not None and r.rows >= 0
            assert r.finish_ns >= r.start_ns >= r.arrival_ns
            assert r.batch_size >= 1
        report = server.report()
        assert len(report.completed) == len(done)
        assert report.makespan_ns > 0
        assert report.sustained_qps > 0
        assert server.clock_ns > 0

    def test_deterministic_on_the_simulated_clock(self):
        def simulated(responses):
            # compile wall time is the one legitimately nondeterministic
            # field — real thread time; everything else must repeat
            payloads = []
            for r in responses:
                payload = r.to_json()
                wall = payload["compile_ns"].pop("wall_ns")
                assert wall is None or wall >= 0
                payloads.append(payload)
            return payloads

        _, first = _serving_run(n=16, burst=5)
        _, second = _serving_run(n=16, burst=5)
        assert simulated(first) == simulated(second)

    def test_overload_sheds_within_quota(self):
        server, responses = _serving_run(
            n=24, rate_qps=50000.0, burst=8,
            quotas={"acme": TenantQuota(max_queued=2),
                    "globex": TenantQuota(max_queued=2)})
        shed = [r for r in responses if not r.ok]
        assert shed, "a hard overload should shed"
        for r in shed:
            assert r.rows is None and r.latency_ns == 0.0
        report = server.report()
        by_name = {t["name"]: t for t in report.tenants}
        for name in ("acme", "globex"):
            stats = by_name[name]
            assert stats["submitted"] == \
                stats["completed"] + stats["shed"]

    def test_no_tenant_is_starved_under_pressure(self):
        server, responses = _serving_run(n=32, rate_qps=40000.0)
        # round-robin deal over clients: both tenants make progress
        report = server.report()
        for stats in report.tenants:
            assert stats["completed"] > 0

    def test_co_run_batches_form_and_track_prediction(self):
        server, _ = _serving_run(n=20, rate_qps=30000.0, scale=256)
        report = server.report()
        co_run = [b for b in report.batches if b.size > 1]
        assert co_run, "overload should trigger co-run batches"
        assert report.mean_contention_error < 0.5
        for batch in co_run:
            assert batch.predicted_makespan_ns > 0
            assert batch.measured_makespan_ns > 0

    def test_slo_breaches_are_recorded(self):
        server, _ = _serving_run(
            n=12, rate_qps=30000.0,
            slo=SloTarget(p50_ns=1.0))  # unholdable: 1 ns p50
        report = server.report()
        assert report.breaches
        assert report.slo["breaches"] == len(report.breaches)
        assert all(b.metric == "p50_ns" for b in report.breaches)

    def test_live_submit_and_error_path(self):
        async def main():
            server = QueryServer()
            tenant = server.add_tenant("solo")
            tenant.session.create_table("t", list(range(64)))
            tenant.session.predicate("small", lambda v: v < 10)
            async with server:
                ok = await server.submit(
                    "solo", "filter(t, small, sel=0.2)")
                assert ok.ok and ok.rows == 10
                bad = await server.submit("solo", "filter(nada, nope)")
                assert (bad.outcome, bad.stage) == ("error", "compile")
                assert bad.to_json()["error"] == {
                    "stage": "compile", "type": bad.error_type,
                    "message": bad.error_message}
                assert "error" not in ok.to_json()
                await server.drain()
            with pytest.raises(KeyError, match="no tenant"):
                server.tenant("ghost")

        asyncio.run(main())

    def test_later_registrations_reach_the_server(self):
        # a predicate and a sorted table registered on the tenant's
        # session after the server has compiled for it are both seen
        async def main():
            server = QueryServer()
            tenant = server.add_tenant("solo")
            tenant.session.create_table("t", list(range(64)))
            tenant.session.predicate("small", lambda v: v < 10)
            async with server:
                first = await server.submit(
                    "solo", "filter(t, small, sel=0.125)")
                assert first.ok and first.rows == 10
                tenant.session.predicate("big", lambda v: v >= 10)
                second = await server.submit("solo",
                                             "filter(t, big, sel=0.8)")
                assert (second.outcome, second.stage,
                        second.error_message) == ("ok", None, None)
                assert second.rows == 54
                tenant.session.create_table("s", list(range(64)),
                                            sorted=True)
                ordered = await server.submit("solo", "sort(s)")
                await server.drain()
            expected = tenant.session.compile("sort(s)").plan.signature
            assert ordered.ok and ordered.signature == expected
            assert "sort" not in expected  # the flag spared the sort

        asyncio.run(main())

    def test_duplicate_tenant_and_unstarted_submit(self):
        server = QueryServer()
        server.add_tenant("a")
        with pytest.raises(ValueError, match="already exists"):
            server.add_tenant("a")
        with pytest.raises(RuntimeError, match="not started"):
            server.submit_nowait("a", "select v from t")

    def test_report_json_shape(self):
        server, _ = _serving_run(n=10)
        payload = server.report().to_json()
        assert payload["kind"] == "serving_report"
        assert payload["completed"] + payload["shed"] == 10
        assert len(payload["responses"]) == 10
        assert {t["name"] for t in payload["tenants"]} == \
            {"acme", "globex"}
        assert isinstance(payload["slo"]["global"]["count"], int)
        assert server.report().render()  # renders without error
