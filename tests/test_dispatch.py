"""The dispatcher's contract: what a serving run decides is a function
of the workload on the simulated clock, never of how compile threads
and the dispatcher race on the wall clock.

Queries are staged in whatever order their compiles finish and
admitted in ``(arrival_ns, qid)`` order; the same stamped stream
yields the same report for every pool width; with a tracer attached
the span order and the point where an online recalibration swaps the
profile repeat exactly.  (These first three classes passed unchanged
on the per-batch dispatcher they were written against.)  Then the
run-until-blocked dispatcher's own guarantees: a raising batch or
compile fails its members and nothing else, responses reach clients
while the run goes on and a closed-loop client at once, the thread
boundary is crossed per run and not per query, ``stop()`` ends a run at
a batch boundary and a compile run at a query boundary.
"""

import asyncio
import json
import random
import sys
import time
from dataclasses import replace

import pytest

from repro.hardware import parametric_profile
from repro.server import PoissonArrivals, QueryServer, TenantQuota
from repro.service import WorkloadGenerator

from test_autotune import _recalibrating_run
from test_trace_golden import check_golden

TENANTS = ("acme", "globex")


def _queries(n, scale=64, mix=None):
    """``n`` generator queries (deterministic) over a throwaway
    catalog; every server below populates the same one."""
    server = QueryServer()
    tenant = server.add_tenant("probe")
    generator = WorkloadGenerator(tenant.session, scale=scale, seed=7,
                                  **({"mix": mix} if mix else {}))
    return generator.generate(n, clients=4)


def _serve(queries, *, delays=None, scale=64, quota=None,
           tenant_for=None, **server_kw):
    """Serve the stamped ``queries`` on a fresh two-tenant server
    (clients dealt round-robin over tenants unless ``tenant_for`` maps
    a query to its tenant) and drain.  ``delays`` (qid -> seconds)
    holds each compile back on the wall clock, so completions reach
    the dispatcher in a chosen order.  Returns the server, the
    responses, every ``(arrival_ns, qid)`` offered to the admission
    controller, in offer order, and — beside it — the same pairs in the
    order their compiles finished (the order they were staged in)."""
    offers, compiled = [], []

    async def main():
        server = QueryServer(**server_kw)
        for name in TENANTS:
            tenant = server.add_tenant(name, quota)
            WorkloadGenerator(tenant.session, scale=scale, seed=7)
        offer = server.admission.offer

        def logged_offer(task, task_quota):
            offers.append((task.arrival_ns, task.qid))
            return offer(task, task_quota)

        server.admission.offer = logged_offer
        compile_ = server._compile

        def logged_compile(tenant, query):
            if delays is not None:
                time.sleep(delays[query.qid])
            task = compile_(tenant, query)
            compiled.append((query.arrival_ns, query.qid))
            return task

        server._compile = logged_compile
        async with server:
            responses = await server.serve(queries, tenant_for)
            await server.drain()
        return server, responses

    server, responses = asyncio.run(main())
    return server, responses, offers, compiled


def simulated(server) -> dict:
    """The report with what legitimately depends on thread timing
    removed — the rule ``benchmarks/perf`` hashes ``sim_digest`` by:
    compile wall time, and which of two racing compiles of one
    template found the other's plan."""
    payload = server.report().to_json()
    for response in payload["responses"]:
        del response["compile_ns"], response["cache_hit"]
    return payload


class TestStagedOutOfArrivalOrder:
    #: Three queries share every arrival stamp and three in four are
    #: acme's; the queue holds four, so a burst refuses acme's excess
    #: on arrival and globex displaces acme's newest.
    N = 24
    KW = dict(mode="fifo-serial", max_workers=4, max_queue=4,
              quota=TenantQuota(max_queued=4),
              tenant_for=lambda query: TENANTS[query.qid % 4 == 3])

    #: What the stream's overload costs, by qid.
    REFUSED = [16, 17, 22]
    DISPLACED = [21]

    def _stream(self):
        return [replace(query, arrival_ns=(query.qid // 3) * 30_000.0)
                for query in _queries(self.N)]

    def test_shuffled_compile_completions_change_nothing(self):
        stream = self._stream()
        rng = random.Random(5)
        # later arrivals compile first, earlier ones trickle in
        delays = {q.qid: 0.002 * (self.N - q.qid) / self.N
                  + rng.uniform(0.0, 0.004) for q in stream}
        calm, _, calm_offers, _ = _serve(stream, **self.KW)
        shuffled, _, offers, compiled = _serve(stream, delays=delays,
                                               **self.KW)
        # the compiles really overtook each other (one compile at a
        # time, in submission order, would pass the rest vacuously) ...
        assert sorted(compiled) == sorted(offers)
        assert compiled != sorted(compiled)
        # ... and were admitted in (arrival, qid) order all the same
        assert offers == sorted(offers)
        assert offers == calm_offers
        assert len(offers) == self.N
        assert simulated(shuffled) == simulated(calm)

    def test_shed_and_displaced_exactly(self):
        """The shed set of the stream above, and who was refused on
        arrival versus displaced later — fifo-serial, so it depends on
        the queue rules and the simulator only, not on ⊙ pricing."""
        server, responses, _, _ = _serve(self._stream(), **self.KW)
        shed = [r for r in responses if not r.ok]
        refused = sorted(r.qid for r in shed
                         if r.start_ns == r.arrival_ns)
        displaced = sorted(r.qid for r in shed
                           if r.start_ns > r.arrival_ns)
        assert (refused, displaced) == (self.REFUSED, self.DISPLACED)
        for r in shed:
            assert r.latency_ns == r.start_ns - r.arrival_ns
        stats = {t["name"]: t for t in server.report().tenants}
        for name in TENANTS:
            assert stats[name]["submitted"] == \
                stats[name]["completed"] + stats[name]["shed"]

    def test_live_submit_older_than_the_clock(self):
        """An arrival stamp in the machine's past is served at the
        clock, ahead of a later arrival, whichever compiles first."""

        async def main(delay_late):
            server = QueryServer(mode="fifo-serial", max_workers=2)
            tenant = server.add_tenant("solo")
            tenant.session.create_table("t", list(range(64)))
            tenant.session.predicate("small", lambda v: v < 10)
            compile_ = server._compile

            def held_back(tenant, query):
                if query.qid == delay_late:
                    time.sleep(0.01)
                return compile_(tenant, query)

            server._compile = held_back
            text = "filter(t, small, sel=0.2)"
            async with server:
                first = await server.submit("solo", text, arrival_ns=0.0)
                clock = server.clock_ns
                assert clock == first.finish_ns > 0.0
                late = server.submit_nowait(
                    "solo", text, arrival_ns=clock / 2)
                later = server.submit_nowait(
                    "solo", text, arrival_ns=clock + 1.0)
                late, later = await asyncio.gather(late, later)
                await server.drain()
            assert late.start_ns == first.finish_ns
            assert late.wait_ns == clock / 2
            assert (late.batch_index, later.batch_index) == (1, 2)
            assert later.start_ns == late.finish_ns
            return [r.to_json() | {"compile_ns": None}
                    for r in (first, late, later)]

        # the stale arrival compiles last / the later arrival does
        assert asyncio.run(main(1)) == asyncio.run(main(2))


class TestPoolWidthIsInvisible:
    def test_same_report_for_every_max_workers_and_twice(self):
        stream = PoissonArrivals(60000.0, seed=3).stamp(
            _queries(24, scale=128))
        reports = [simulated(_serve(stream, scale=128,
                                    max_workers=workers)[0])
                   for workers in (1, 2, 4, 2)]
        assert any(b["size"] > 1 for b in reports[0]["batches"]), \
            "the stream should be dense enough to co-run"
        assert reports[0]["completed"] == 24
        for other in reports[1:]:
            assert other == reports[0]


class TestTracedRecalibrationOrder:
    def test_span_order_and_swap_point_match_golden(self):
        """Every span of the recalibrating run in recording order —
        the profile swap lands while the third batch is accounted,
        before the fourth is formed."""
        _, tracer, _, responses, _ = _recalibrating_run()
        index = {span.sid: i for i, span in enumerate(tracer.spans)}
        rows = [[span.name, span.track, span.qid,
                 None if span.parent is None else index[span.parent]]
                for span in tracer.spans]
        check_golden("recalibration_spans", "[\n" + ",\n".join(
            json.dumps(row) for row in rows) + "\n]")
        names = [row[0] for row in rows]
        swap = names.index("recalibrate")
        batches = [i for i, name in enumerate(names) if name == "batch"]
        assert batches[2] < swap < batches[3]
        assert [r.batch_index for r in responses] == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------
# the run-until-blocked dispatcher's own guarantees
# ---------------------------------------------------------------------

def _solo_server(**server_kw):
    """One tenant, fifo-serial, queue and quota wide enough that
    nothing is shed."""
    server = QueryServer(mode="fifo-serial", max_queue=1024, **server_kw)
    tenant = server.add_tenant("solo", TenantQuota(max_queued=1024))
    tenant.session.create_table("t", list(range(64)))
    tenant.session.predicate("small", lambda v: v < 10)

    def boom(value):
        raise RuntimeError("kernel exploded")

    tenant.session.predicate("boom", boom)
    return server


GOOD, BAD = "filter(t, small, sel=0.2)", "filter(t, boom, sel=0.2)"
GARBLED = "filter(t small"


class TestFailingBatch:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_a_raising_kernel_fails_only_its_own_batch(self, max_workers):
        texts = [GOOD, GOOD, BAD, GOOD, BAD, GOOD]

        async def main():
            server = _solo_server(max_workers=max_workers)
            async with server:
                results = await asyncio.wait_for(asyncio.gather(*(
                    server.submit_nowait("solo", text,
                                         arrival_ns=1000.0 * i)
                    for i, text in enumerate(texts)),
                    return_exceptions=True), timeout=30)
                await asyncio.wait_for(server.drain(), timeout=30)
                # the server still serves after the failures
                after = await asyncio.wait_for(
                    server.submit("solo", GOOD), timeout=30)
            return server, results, after

        server, results, after = asyncio.run(main())
        for text, result in zip(texts, results):
            if text is BAD:
                assert isinstance(result, RuntimeError)
                assert "kernel exploded" in str(result)
            else:
                assert result.ok and result.rows == 10
        served = [r for r in results if not isinstance(r, Exception)]
        # a failed batch takes no batch index and no simulated time:
        # the machine goes straight on to the next query
        assert [r.batch_index for r in served] == [0, 1, 2, 3]
        for earlier, later in zip(served, served[1:]):
            assert later.start_ns == max(earlier.finish_ns,
                                         later.arrival_ns)
        assert after.batch_index == 4
        assert after.start_ns == served[-1].finish_ns
        assert len(server.report().responses) == 5


    def test_a_swapped_machine_is_not_replayed_stale(self):
        """The run replays every batch on one machine built for
        ``server.hierarchy``; were that ever replaced, the batch fails
        instead of being measured on the machine that is gone."""

        async def main():
            async with _solo_server(max_workers=1) as server:
                before = await asyncio.wait_for(
                    server.submit("solo", GOOD), timeout=30)
                server.hierarchy = parametric_profile(mem_ns=800.0)
                with pytest.raises(AssertionError):
                    await asyncio.wait_for(server.submit("solo", GOOD),
                                           timeout=30)
            return before

        assert asyncio.run(main()).ok


class TestRunUntilBlocked:
    N = 400

    def _submit_all(self, server):
        return [server.submit_nowait("solo", GOOD, arrival_ns=100.0 * i)
                for i in range(self.N)]

    def test_responses_arrive_batch_by_batch(self):
        """The whole stream is one run; its first client wakes while
        later batches are still outstanding."""

        async def main():
            async with _solo_server(max_workers=2) as server:
                futures = self._submit_all(server)
                first = await futures[0]
                pending = sum(not future.done() for future in futures)
                responses = await asyncio.gather(*futures)
                await server.drain()
            return first, pending, responses

        first, pending, responses = asyncio.run(main())
        assert first.batch_index == 0
        assert pending > 0
        assert [r.batch_index for r in responses] == list(range(self.N))

    def test_one_worker_starves_neither_side(self):
        """Compile runs and the dispatch run share the one worker: a
        client submitting without pause — faster than queries compile,
        so the accepted queue never empties — is still answered while
        it goes on submitting."""
        limit = 20_000

        async def main():
            async with _solo_server(max_workers=1) as server:
                # (stamped apart: a decision waits for every compile
                # whose query has arrived, on any pool)
                futures = [server.submit_nowait("solo", GOOD,
                                                arrival_ns=0.0)]
                while not futures[0].done() and len(futures) < limit:
                    futures.append(server.submit_nowait(
                        "solo", GOOD, arrival_ns=100.0 * len(futures)))
                    await asyncio.sleep(0)
                submitted = len(futures)
                responses = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=60)
                await asyncio.wait_for(server.drain(), timeout=60)
            return submitted, responses

        submitted, responses = asyncio.run(main())
        assert submitted < limit, "no answer while submissions went on"
        assert sorted(r.batch_index for r in responses) \
            == list(range(submitted))

    def test_the_thread_boundary_is_crossed_in_runs(self):
        """Compiles go in as runs and responses come out in slices:
        the whole stream costs fewer hand-offs to the loop thread than
        it has queries (a hop per compile and a post per batch made it
        two per query; a few dozen now, the bound leaves a slow host
        room)."""
        crossings = []

        async def main():
            loop = asyncio.get_running_loop()
            threadsafe = loop.call_soon_threadsafe

            def counted(callback, *args, **kwargs):
                crossings.append(callback)
                return threadsafe(callback, *args, **kwargs)

            loop.call_soon_threadsafe = counted
            async with _solo_server(max_workers=2) as server:
                responses = await asyncio.wait_for(
                    asyncio.gather(*self._submit_all(server)), timeout=60)
                await asyncio.wait_for(server.drain(), timeout=60)
            return responses

        responses = asyncio.run(main())
        assert [r.batch_index for r in responses] == list(range(self.N))
        assert 0 < len(crossings) < self.N

    def test_stress_more_workers_than_cores(self):
        """Compile callbacks, the run and the loop thread interleave
        as finely as the interpreter allows: every future still
        resolves exactly once and nothing is left staged, compiling or
        outstanding (a lost update to the shared heaps would hang
        ``drain`` or drop a query)."""

        async def main():
            async with _solo_server(max_workers=8) as server:
                futures = self._submit_all(server)
                responses = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=60)
                await asyncio.wait_for(server.drain(), timeout=60)
                assert server._outstanding == 0
                assert not server._staged and not server._compiling
            return server, responses

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            server, responses = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        assert sorted(r.qid for r in responses) == list(range(self.N))
        assert [r.batch_index for r in responses] == list(range(self.N))
        assert len(server.report().responses) == self.N

    def test_stop_returns_at_the_next_batch_boundary(self):
        async def main():
            server = _solo_server(max_workers=2)
            await server.start()
            futures = self._submit_all(server)
            await futures[0]
            await asyncio.wait_for(server.stop(), timeout=30)
            served = len(server.report().responses)
            await asyncio.sleep(0)  # posted responses land
            resolved = sum(future.done() for future in futures)
            for future in futures:
                future.cancel()
            return served, resolved

        served, resolved = asyncio.run(main())
        assert 1 <= served < self.N
        assert resolved == served

    def test_stop_leaves_uncompiled_queries_unresolved(self):
        """``stop()`` with accepted queries still waiting for a compile
        returns without compiling its way through them, and — as its
        docstring says — leaves their futures unresolved."""
        compiled = []

        async def main():
            server = _solo_server(max_workers=2)
            compile_ = server._compile

            def slow(tenant, query):
                time.sleep(0.005)
                compiled.append(query.qid)
                return compile_(tenant, query)

            server._compile = slow
            await server.start()
            futures = self._submit_all(server)
            await asyncio.wait_for(server.stop(), timeout=30)
            await asyncio.sleep(0)
            resolved = sum(future.done() for future in futures)
            for future in futures:
                future.cancel()
            return resolved

        assert asyncio.run(main()) == 0
        # (the per-query compile hops this replaced were all queued in
        # the pool already, and stop() sat through every one of them)
        assert len(compiled) < self.N

    def test_a_closed_loop_client_is_answered_run_by_run(self):
        """Each response is handed over when its run ends, not a slice
        later: a client that submits only after its previous answer
        gets through 200 queries, one batch each."""

        async def main():
            async with _solo_server(max_workers=2) as server:
                responses = [
                    await asyncio.wait_for(server.submit("solo", GOOD),
                                           timeout=30)
                    for _ in range(200)]
                await asyncio.wait_for(server.drain(), timeout=30)
                assert server._outstanding == 0
                assert not server._staged and not server._compiling
            return responses

        responses = asyncio.run(main())
        assert [r.batch_index for r in responses] == list(range(200))
        for earlier, later in zip(responses, responses[1:]):
            assert later.arrival_ns == later.start_ns == earlier.finish_ns

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_a_raising_compile_fails_only_its_own_query(self, max_workers):
        """One unparsable query in a stream: its future raises, every
        other query is served, ``drain()`` returns."""
        texts = [GOOD] * 25 + [GARBLED] + [GOOD] * 25

        async def main():
            async with _solo_server(max_workers=max_workers) as server:
                results = await asyncio.wait_for(asyncio.gather(*(
                    server.submit_nowait("solo", text,
                                         arrival_ns=100.0 * i)
                    for i, text in enumerate(texts)),
                    return_exceptions=True), timeout=30)
                await asyncio.wait_for(server.drain(), timeout=30)
                assert not server._staged and not server._compiling
            return server, results

        server, results = asyncio.run(main())
        assert isinstance(results[25], Exception)
        served = results[:25] + results[26:]
        assert all(r.ok and r.rows == 10 for r in served)
        assert [r.batch_index for r in served] == list(range(50))
        assert len(server.report().responses) == 50


class TestComputedOnce:
    def test_cache_hits_share_one_signature_string(self):
        async def main():
            async with _solo_server(max_workers=2) as server:
                responses = await asyncio.gather(*(
                    server.submit_nowait("solo", GOOD, arrival_ns=0.0)
                    for _ in range(4)))
                await server.drain()
            return server, responses

        server, responses = asyncio.run(main())
        first = responses[0].signature
        assert first == "σ(t)"
        assert all(r.signature is first for r in responses)

    def test_report_rows_carry_no_instance_dict(self):
        server, _, _, _ = _serve(_queries(4), mode="fifo-serial")
        report = server.report()
        for row in report.responses + report.batches:
            assert not hasattr(row, "__dict__")
