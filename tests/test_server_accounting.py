"""Every way a query leaves the server, accounted: one traced, seeded
overload run whose report, render, metrics exposition and
simulated-clock event log are pinned byte for byte, plus the
closed-loop :class:`~repro.service.WorkloadReport` twin.

The run is small but leaves through every exit: served in a co-run
batch, served solo on the measured path (per-operator spans and drift
samples), refused on arrival (queue full / over quota), displaced by a
lighter tenant, failed with its batch (a raising kernel), failed at
compile (bad query text).  The goldens were generated on the commit
*before* the server's accounting was folded into one door; the
accounting golden was regenerated once, when failed queries became
``outcome="error"`` responses (its ok and shed slice is held to the old
one by :meth:`TestOverloadRun.test_served_and_shed_match_the_golden_slice`).
Regenerate only for an intentional change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_server_accounting.py

and review the golden diff like any other code change.
"""

import asyncio
import json
from collections import Counter

import pytest

from repro.obs import Tracer
from repro.server import QueryServer, TenantQuota
from repro.service import ServiceExecutor, WorkloadGenerator
from repro.session import Session

from test_dispatch import simulated
from test_trace_golden import GOLDEN_DIR, check_golden

TENANTS = ("acme", "globex")
SCALE = 128
BOOM = "filter(orders, boom, sel=0.5)"
GARBLED = "join(orders customers"


def _boom(value):
    raise RuntimeError("kernel exploded")


def _stream():
    """``(tenant, text, kind, arrival_ns)``: generator queries arriving
    three to a stamp, three in four of them acme's — the burst
    overfills the four-slot queue, so acme's excess is refused on
    arrival and globex displaces acme's newest — then, once the burst
    has drained, a query whose kernel raises, one that does not parse,
    and two stragglers far enough apart to be served alone."""
    generator = WorkloadGenerator(Session(), scale=SCALE, seed=7)
    stream = [(TENANTS[q.qid % 4 == 3], q.text, q.kind,
               (q.qid // 3) * 20_000.0)
              for q in generator.generate(18, clients=4)]
    late = stream[-1][3] + 2_000_000.0
    stream += [
        ("globex", BOOM, "boom", late),
        ("acme", GARBLED, "garbled", late + 1_000.0),
        ("acme", "join(orders, customers)", "join", late + 500_000.0),
        ("globex", "sort(parts)", "sort", late + 1_500_000.0),
    ]
    return stream


def _overload_run():
    """Serve :func:`_stream` traced (the server's one worker compiles
    in arrival order, so plan-cache provenance is pinned too).
    Returns the server, the tracer and every future's response, in
    submission order."""
    tracer = Tracer()

    async def main():
        server = QueryServer(mode="interference-aware", max_queue=4,
                             tracer=tracer)
        for name in TENANTS:
            tenant = server.add_tenant(name, TenantQuota(max_queued=3))
            WorkloadGenerator(tenant.session, scale=SCALE, seed=7)
            tenant.session.predicate("boom", _boom)
        async with server:
            results = await asyncio.wait_for(asyncio.gather(*(
                server.submit_nowait(tenant, text, kind=kind,
                                     arrival_ns=arrival)
                for tenant, text, kind, arrival in _stream())),
                timeout=60)
            await asyncio.wait_for(server.drain(), timeout=60)
        return server, results

    server, results = asyncio.run(main())
    return server, tracer, results


@pytest.fixture(scope="module")
def overload():
    return _overload_run()


def _simulated_log(tracer) -> list[dict]:
    """Every span and drift event in recording order, wall stamps
    removed."""
    return [{key: value for key, value in entry.items()
             if not key.startswith("wall_")} for entry in tracer.log]


class TestOverloadRun:
    def test_the_run_leaves_through_every_exit(self, overload):
        server, tracer, results = overload
        report = server.report()
        shed = report.shed
        assert any(r.start_ns == r.arrival_ns for r in shed), "refused"
        assert any(r.start_ns > r.arrival_ns for r in shed), "displaced"
        sizes = {b.size for b in report.batches}
        assert 1 in sizes and max(sizes) > 1, sizes
        assert any(span.category == "operator" for span in tracer.spans), \
            "a solo batch should take the measured path"
        assert [(r.kind, r.stage, r.error_type, r.error_message)
                for r in report.errored] == [
            ("boom", "kernel", "RuntimeError", "kernel exploded"),
            ("garbled", "compile", "QuerySyntaxError",
             "expected comma, found 'customers' (token 3)")]
        assert [r.qid for r in results] == list(range(len(_stream())))
        # errors leave a span too, and no admission series
        assert [span.attrs.get("stage") for span in tracer.spans
                if span.attrs.get("outcome") == "error"] == \
            ["kernel", "compile"]
        # the shed exits leave a span and both admission series
        assert any(span.attrs.get("outcome") == "shed"
                   for span in tracer.spans)
        admission = tracer.metrics.get("server_admission_total")
        decisions = {key[1] for key, _ in admission.series()}
        assert decisions == {"admitted", "queued", "shed", "displaced"}

    def test_every_submission_is_accounted(self, overload):
        server, _, results = overload
        report = server.report()
        errored = Counter(r.tenant for r in report.errored)
        assert sum(errored.values()) == 2
        for stats in report.tenants:
            assert stats["submitted"] == (stats["completed"]
                                          + stats["shed"]
                                          + errored[stats["name"]])
        assert results == report.responses

    def test_queries_total_sums_to_the_report(self, overload):
        server, tracer, _ = overload
        report = server.report()
        by_outcome = Counter()
        by_tenant = Counter()
        for (tenant, _, outcome), cell in tracer.metrics.get(
                "server_queries_total").series():
            by_outcome[outcome] += cell[0]
            by_tenant[tenant, outcome] += cell[0]
        assert by_outcome == {"ok": len(report.completed),
                              "shed": len(report.shed),
                              "error": len(report.errored)}
        for stats in report.tenants:
            assert by_tenant[stats["name"], "ok"] == stats["completed"]
            assert by_tenant[stats["name"], "shed"] == stats["shed"]
        latency = tracer.metrics.get("server_latency_ns")
        assert sum(hist.count for _, hist in latency.series()) == \
            len(report.completed)

    def test_report_render_metrics_and_log_match_golden(self, overload):
        server, tracer, _ = overload
        payload = {
            "report": simulated(server),
            "render": server.report().render().splitlines(),
            "metrics": tracer.metrics.expose().splitlines(),
            "log": _simulated_log(tracer),
        }
        check_golden("server_accounting",
                     json.dumps(payload, indent=1, sort_keys=True,
                                ensure_ascii=False))

    def test_served_and_shed_match_the_golden_slice(self, overload):
        """The ok and shed responses, the batches and each tenant's
        ``completed``/``shed`` equal the committed golden's, whatever
        else the golden holds about failed queries."""
        server, _, _ = overload
        golden = json.loads(
            (GOLDEN_DIR / "server_accounting.json").read_text())["report"]
        report = simulated(server)

        def served_or_shed(payload):
            return [r for r in payload["responses"]
                    if r["outcome"] in ("ok", "shed")]

        def counts(payload):
            return [(t["name"], t["completed"], t["shed"])
                    for t in payload["tenants"]]

        assert served_or_shed(report) == served_or_shed(golden)
        assert report["batches"] == golden["batches"]
        assert counts(report) == counts(golden)

    def test_the_run_repeats_exactly(self, overload):
        server, tracer, _ = overload
        again, tracer_again, _ = _overload_run()
        assert simulated(again) == simulated(server)
        assert tracer_again.metrics.expose() == tracer.metrics.expose()
        assert _simulated_log(tracer_again) == _simulated_log(tracer)


class TestClosedLoopReport:
    def test_workload_report_matches_golden(self):
        session = Session()
        generator = WorkloadGenerator(session, scale=SCALE, seed=7)
        report = ServiceExecutor(session).run(
            generator.generate(13, clients=3))
        sizes = {b.size for b in report.batches}
        assert 1 in sizes and max(sizes) > 1, \
            "the stream should hold co-run and solo batches"
        check_golden("workload_report", json.dumps(
            {"report": report.to_json(),
             "render": report.render().splitlines()},
            indent=1, sort_keys=True, ensure_ascii=False))
