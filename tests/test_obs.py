"""The observability layer: bucketed histograms, the metrics registry,
EWMA drift monitoring (including detection of the pinned small-n
permutation-join overshoot), dual-clock spans, and the traced query
server end to end — span invariants, deterministic Chrome export,
tracing-off/-on response identity, and schema validation."""

import asyncio
import json
import pathlib

import pytest

from repro.db.datagen import random_permutation
from repro.hardware.profiles import origin2000_scaled
from repro.obs import (
    BucketedHistogram,
    Counter,
    DriftMonitor,
    Histogram,
    MetricsRegistry,
    Tracer,
    validate_chrome_trace,
    validate_event,
    validate_metrics_json,
)
from repro.server import PoissonArrivals, QueryServer, TenantQuota
from repro.server.dispatcher import METRIC_FAMILIES
from repro.service import WorkloadGenerator
from repro.service.metrics import percentile
from repro.session import Session


# ---------------------------------------------------------------------
# bucketed histogram
# ---------------------------------------------------------------------

class TestBucketedHistogram:
    def test_empty_has_no_percentile(self):
        assert BucketedHistogram().percentile(50.0) is None

    def test_single_sample_is_exact(self):
        hist = BucketedHistogram()
        hist.observe(42.0)
        assert hist.percentile(0.0) == 42.0
        assert hist.percentile(50.0) == 42.0
        assert hist.percentile(100.0) == 42.0

    def test_agrees_with_exact_within_one_bucket_width(self):
        # the satellite contract: histogram-vs-exact percentile
        # agreement within one bucket width, across a seeded spread
        values = [float((17 * i) % 4096 + 1) for i in range(200)]
        hist = BucketedHistogram()
        for value in values:
            hist.observe(value)
        for q in (0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0):
            exact = percentile(values, q)
            estimate = hist.percentile(q)
            lo, hi = hist.bucket_span(exact)
            width = hi - lo
            assert abs(estimate - exact) <= width, (
                f"p{q}: estimate {estimate} vs exact {exact} "
                f"(bucket width {width})")

    def test_monotone_in_q(self):
        hist = BucketedHistogram()
        for value in (3.0, 900.0, 17.0, 250.0, 12000.0, 5.0):
            hist.observe(value)
        estimates = [hist.percentile(q) for q in range(0, 101, 5)]
        assert estimates == sorted(estimates)

    def test_forget_reverses_observe(self):
        hist = BucketedHistogram()
        for value in (10.0, 20.0, 30.0):
            hist.observe(value)
        hist.forget(20.0)
        assert len(hist) == 2
        assert hist.total == pytest.approx(40.0)
        hist.forget(10.0)
        assert hist.percentile(50.0) == 30.0

    def test_forget_from_empty_bucket_raises(self):
        hist = BucketedHistogram()
        hist.observe(100.0)
        with pytest.raises(ValueError, match="already empty"):
            hist.forget(3.0)

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            BucketedHistogram(bounds=())
        with pytest.raises(ValueError, match="strictly increasing"):
            BucketedHistogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="q must be"):
            BucketedHistogram().percentile(101.0)

    def test_cumulative_ends_with_inf(self):
        hist = BucketedHistogram()
        hist.observe(5.0)
        hist.observe(1e30)  # overflow bucket
        rows = hist.cumulative()
        assert rows[-1] == (float("inf"), 2)


# ---------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        queries = registry.counter("queries_total", "Queries.",
                                   ("tenant",))
        queries.inc(tenant="acme")
        queries.inc(2, tenant="acme")
        assert queries.value(tenant="acme") == 3.0
        depth = registry.gauge("depth", "Queue depth.")
        depth.set(7)
        depth.inc(-2)
        assert depth.value() == 5.0

    def test_counters_only_go_up(self):
        counter = Counter("c")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)

    def test_label_set_is_enforced(self):
        counter = Counter("c", labelnames=("tenant",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(tenant="a", extra="b")

    def test_get_or_create_and_conflicts(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", "Hits.", ("tenant",))
        assert registry.counter("hits", "Hits.", ("tenant",)) is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("hits")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("hits", labelnames=("other",))

    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("hits", "Cache hits.", ("tenant",)) \
            .inc(3, tenant="acme")
        registry.histogram("lat", "Latency.").observe(10.0)
        text = registry.expose()
        assert "# TYPE hits counter" in text
        assert 'hits{tenant="acme"} 3' in text
        assert "# HELP hits Cache hits." in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert text.endswith("\n")

    def test_histogram_percentile_per_series(self):
        hist = Histogram("lat", labelnames=("tenant",))
        hist.observe(42.0, tenant="acme")
        assert hist.percentile(50.0, tenant="acme") == 42.0
        assert hist.percentile(50.0, tenant="globex") is None

    def test_to_json_validates(self):
        registry = MetricsRegistry()
        registry.counter("hits", "Hits.", ("tenant",)).inc(tenant="a")
        registry.gauge("depth").set(2)
        registry.histogram("lat", "Latency.", ("tenant",)) \
            .observe(5.0, tenant="a")
        assert validate_metrics_json(registry.to_json()) == []


# ---------------------------------------------------------------------
# drift monitor
# ---------------------------------------------------------------------

class TestDriftMonitor:
    def test_fires_on_persistent_overshoot_after_min_samples(self):
        monitor = DriftMonitor(band=0.35, alpha=0.3, min_samples=3)
        events = [monitor.observe("join", "fp", 50.0, 100.0,
                                  at_ns=float(i)) for i in range(4)]
        # signed error is +0.5 every sample; the EWMA is out of band
        # from the seed, but nothing may fire before min_samples
        assert events[0] is None and events[1] is None
        assert events[2] is not None and events[2].count == 3
        assert events[3] is None, "still in drift: no re-fire"
        assert len(monitor.events) == 1
        assert validate_event(monitor.events[0].to_json()) == []

    def test_rearms_after_returning_inside_band(self):
        monitor = DriftMonitor(band=0.35, alpha=1.0, min_samples=1)
        assert monitor.observe("op", "fp", 10.0, 100.0) is not None
        assert monitor.observe("op", "fp", 100.0, 100.0) is None
        assert monitor.observe("op", "fp", 10.0, 100.0) is not None
        assert len(monitor.events) == 2

    def test_single_outlier_decays_away(self):
        monitor = DriftMonitor()
        monitor.observe("op", "fp", 100.0, 100.0)
        monitor.observe("op", "fp", 100.0, 100.0)
        assert monitor.observe("op", "fp", 10.0, 100.0) is None \
            or abs(monitor.series[("op", "fp")].ewma) > 0.35
        # alpha=0.3 over two zero-error samples: 0.9 * 0.3 = 0.27 < band
        assert abs(monitor.series[("op", "fp")].ewma) <= 0.35
        assert monitor.events == []

    def test_skips_zero_measured(self):
        monitor = DriftMonitor()
        assert monitor.observe("op", "fp", 5.0, 0.0) is None
        assert monitor.series == {}

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="band"):
            DriftMonitor(band=0.0)
        with pytest.raises(ValueError, match="alpha"):
            DriftMonitor(alpha=1.5)
        with pytest.raises(ValueError, match="min_samples"):
            DriftMonitor(min_samples=0)

    def test_detects_known_permutation_join_gap(self):
        # tests/test_known_gaps.py pins the model's ~0.42 small-n
        # hash-join overshoot at n=1024 — the drift monitor must see it
        tracer = Tracer()
        session = Session(origin2000_scaled(), tracer=tracer)
        session.create_table("orders", random_permutation(1024, seed=1))
        session.create_table("customers",
                             random_permutation(1024, seed=2))
        for _ in range(4):
            session.execute_measured("join(orders, customers)",
                                     restore=True)
        joins = [e for e in tracer.drift.events
                 if e.operator == "hash_join"]
        assert joins, "the pinned overshoot must surface as drift"
        assert joins[0].ewma > 0.35  # underprediction, out of band
        assert joins[0].fingerprint == session.fingerprint

    def test_no_drift_where_the_model_holds(self):
        tracer = Tracer()
        session = Session(origin2000_scaled(), tracer=tracer)
        session.create_table("orders", random_permutation(256, seed=1))
        session.create_table("customers",
                             random_permutation(256, seed=2))
        for _ in range(4):
            session.execute_measured("join(orders, customers)",
                                     restore=True)
        assert tracer.drift.events == []


# ---------------------------------------------------------------------
# spans & the traced server
# ---------------------------------------------------------------------

def _traced_run(tracer, n=8, scale=256, mode="interference-aware",
                rate_qps=8000.0):
    """One seeded two-tenant serving run, optionally traced."""

    async def main():
        server = QueryServer(mode=mode, max_batch=4, max_queue=512,
                             tracer=tracer)
        for name in ("acme", "globex"):
            tenant = server.add_tenant(name, TenantQuota(max_queued=256))
            gen = WorkloadGenerator(tenant.session, scale=scale, seed=7)
            queries = gen.generate(n, clients=4)
        queries = PoissonArrivals(rate_qps, seed=3).stamp(queries)
        async with server:
            responses = await server.serve(queries)
            await server.drain()
        return server, responses

    return asyncio.run(main())


def _strip_wall(responses):
    payloads = []
    for response in responses:
        payload = response.to_json()
        payload["compile_ns"].pop("wall_ns")
        payloads.append(payload)
    return payloads


class TestTracedServer:
    def test_span_invariants(self):
        tracer = Tracer()
        _traced_run(tracer)
        assert tracer.spans
        by_sid = {span.sid: span for span in tracer.spans}
        for span in tracer.spans:
            if span.sim_start_ns is not None:
                assert span.sim_end_ns >= span.sim_start_ns
            if span.parent is not None:
                parent = by_sid[span.parent]
                if span.sim_start_ns is not None \
                        and parent.sim_start_ns is not None:
                    assert parent.sim_start_ns <= span.sim_start_ns
                    assert span.sim_end_ns <= parent.sim_end_ns
        # per query: queue → execute monotone on the simulated clock
        for root in tracer.spans:
            if root.category != "query" or root.attrs.get(
                    "outcome") != "ok":
                continue
            children = [s for s in tracer.spans if s.parent == root.sid]
            queue = next(s for s in children if s.name == "queue")
            execute = next(s for s in children
                           if s.category in ("execute", "plan"))
            assert queue.sim_start_ns == root.sim_start_ns
            assert queue.sim_end_ns <= execute.sim_start_ns \
                or queue.sim_end_ns == execute.sim_start_ns
            assert execute.sim_end_ns <= root.sim_end_ns

    def test_operator_spans_partition_the_plan_span_exactly(self):
        tracer = Tracer()
        session = Session(origin2000_scaled(), tracer=tracer)
        session.create_table("orders", random_permutation(1024, seed=1))
        session.create_table("customers",
                             random_permutation(1024, seed=2))
        session.execute_measured("join(orders, customers)", restore=True)
        plan_span = next(s for s in tracer.spans
                         if s.category == "plan")
        operators = [s for s in tracer.spans
                     if s.parent == plan_span.sid
                     and s.category == "operator"]
        assert len(operators) >= 2
        assert operators[0].sim_start_ns == plan_span.sim_start_ns
        for left, right in zip(operators, operators[1:]):
            assert left.sim_end_ns == right.sim_start_ns  # same float
        assert operators[-1].sim_end_ns == plan_span.sim_end_ns
        # the exclusive durations sum exactly to the plan-level span
        # (left-to-right, matching the counter invariant)
        total = 0.0
        for operator in operators:
            total += operator.sim_duration_ns
        assert total == plan_span.sim_end_ns - plan_span.sim_start_ns

    def test_chrome_export_validates_and_is_deterministic(self):
        first, second = Tracer(), Tracer()
        _traced_run(first)
        _traced_run(second)
        assert validate_chrome_trace(first.chrome_trace("sim")) == []
        assert validate_chrome_trace(first.chrome_trace("both")) == []
        dumps = [json.dumps(t.chrome_trace("sim"), sort_keys=True,
                            separators=(",", ":"))
                 for t in (first, second)]
        assert dumps[0] == dumps[1], \
            "simulated-clock export must be byte-identical across " \
            "same-seed runs"
        with pytest.raises(ValueError, match="unknown clock"):
            first.chrome_trace("lamport")

    def test_tracing_never_changes_responses(self):
        tracer = Tracer()
        _, traced = _traced_run(tracer)
        _, untraced = _traced_run(None)
        assert _strip_wall(traced) == _strip_wall(untraced)

    def test_response_json_carries_queue_and_compile_breakdown(self):
        _, responses = _traced_run(None, n=4)
        for response in responses:
            payload = response.to_json()
            assert payload["queue_ns"] == response.wait_ns
            assert payload["compile_ns"]["simulated_ns"] == 0.0
            if response.ok:
                assert payload["compile_ns"]["wall_ns"] > 0

    def test_metrics_cover_cache_admission_and_sim_levels(self):
        tracer = Tracer()
        server, responses = _traced_run(tracer)
        exposition = tracer.metrics.expose()
        for family in METRIC_FAMILIES:
            assert f"# TYPE {family.name} {family.kind}" in exposition, \
                f"missing {family.name}"
        queries = tracer.metrics.get("server_queries_total")
        served = sum(1 for r in responses if r.ok)
        total = sum(cell[0] for _, cell in queries.series())
        assert total == len(responses)
        ok = sum(cell[0] for key, cell in queries.series()
                 if key[-1] == "ok")
        assert ok == served
        assert validate_metrics_json(tracer.metrics.to_json()) == []

    def test_family_table_is_the_registry_and_the_readme_list(self):
        """``METRIC_FAMILIES`` is the one declaration: a traced server
        registers exactly its rows, and the README's table lists every
        one of them."""
        tracer = Tracer()
        QueryServer(tracer=tracer)
        names = [family.name for family in METRIC_FAMILIES]
        assert len(names) == len(set(names))
        assert sorted(names) == [entry["name"] for entry
                                 in tracer.metrics.to_json()["families"]]
        for family in METRIC_FAMILIES:
            registered = tracer.metrics.get(family.name)
            assert (registered.kind, registered.help,
                    registered.labelnames) == \
                (family.kind, family.help, family.labels)
        readme = (pathlib.Path(__file__).parent.parent
                  / "README.md").read_text()
        for family in METRIC_FAMILIES:
            assert f"| `{family.name}` | {family.kind} |" in readme, \
                f"README's family table misses {family.name}"

    def test_event_log_writes_and_validates(self, tmp_path):
        tracer = Tracer()
        _traced_run(tracer, n=4)
        path = tracer.write_events(tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer.log)
        for line in lines:
            assert validate_event(json.loads(line)) == []

    def test_slo_snapshot_carries_per_tenant_breaches(self):
        from repro.server import SloTarget, SloTracker
        tracker = SloTracker(target=SloTarget(p99_ns=100.0),
                             tenant_targets={
                                 "acme": SloTarget(p99_ns=50.0)})
        tracker.observe("acme", 1000.0, 500.0)   # breaches both scopes
        tracker.observe("globex", 2000.0, 10.0)  # breaches global p99
        snapshot = tracker.snapshot()
        assert snapshot["breaches"] == len(tracker.breaches)
        assert snapshot["global"]["breaches"] == \
            tracker.breach_count("global")
        assert snapshot["tenants"]["acme"]["breaches"] == 1
        assert snapshot["tenants"]["globex"]["breaches"] == 0
        assert snapshot["tenants"]["acme"]["throughput_qps"] >= 0.0
