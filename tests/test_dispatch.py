"""The dispatcher's contract, then the hand-off's.

What a serving run decides is a function of the workload on the
simulated clock, never of how compile threads and the dispatch run
race on the wall clock.  The first part holds the
:class:`~repro.server.Dispatcher` to that with no thread at all: tasks
are handed to :meth:`~repro.server.Dispatcher.step` in any chosen
compile-completion order, each step told the earliest arrival still
"compiling" — exactly what ``QueryServer._run`` passes — and must be
admitted in ``(arrival_ns, qid)`` order, shed and displaced exactly,
and served at the clock when stamped in its past.

The second part is about the thread hand-off itself, the part of
:class:`~repro.server.QueryServer` that is not the dispatcher: the
same stream yields the same report for every pool width and the
dispatcher's own, a compile held back inside a running server keeps
every decision waiting for it (the run computes ``blocked_from``
itself), span order and the recalibration point repeat, a
raising batch or compile fails its members and nothing else, responses
reach clients while the run goes on and a closed-loop client at once,
the thread boundary is crossed per run and not per query, ``stop()``
ends a run at a batch boundary and a compile run at a query boundary.
Where an assertion would depend on how far a worker got on the wall
clock, a gate (a :class:`threading.Event` a kernel or compile waits
on) holds the worker at a known point instead.
"""

import asyncio
import json
import random
import sys
import threading
from dataclasses import replace

import pytest

from repro.hardware import parametric_profile
from repro.server import (
    Dispatcher,
    PoissonArrivals,
    QueryServer,
    TenantQuota,
)
from repro.service import WorkloadGenerator

from test_autotune import _recalibrating_run
from test_trace_golden import check_golden

TENANTS = ("acme", "globex")


def _queries(n, scale=64, mix=None):
    """``n`` generator queries (deterministic) over a throwaway
    catalog; every server below populates the same one."""
    server = Dispatcher()
    tenant = server.add_tenant("probe")
    generator = WorkloadGenerator(tenant.session, scale=scale, seed=7,
                                  **({"mix": mix} if mix else {}))
    return generator.generate(n, clients=4)


def _populate(server, *, scale=64, quota=None):
    for name in TENANTS:
        tenant = server.add_tenant(name, quota)
        WorkloadGenerator(tenant.session, scale=scale, seed=7)
    return server


def _round_robin(query):
    return TENANTS[query.client % len(TENANTS)]


def _step_through(queries, *, order=None, scale=64, quota=None,
                  tenant_for=_round_robin, **dispatcher_kw):
    """Serve the stamped ``queries`` on a fresh two-tenant
    :class:`Dispatcher`, no threads: accept every query, compile it,
    and hand the tasks over one at a time in ``order`` (qids, the
    order compiles "finish"; default: submission order), stepping as
    far as the clock can advance after each — blocked from the
    earliest arrival not handed over yet.  Returns the dispatcher and
    every ``(arrival_ns, qid)`` offered to the admission controller,
    in offer order."""
    dispatcher = _populate(Dispatcher(**dispatcher_kw), scale=scale,
                           quota=quota)
    offers = []
    offer = dispatcher.admission.offer

    def logged_offer(task, task_quota):
        offers.append((task.arrival_ns, task.qid))
        return offer(task, task_quota)

    dispatcher.admission.offer = logged_offer
    tasks = {}
    for query in queries:
        owner, accepted = dispatcher.accept(
            tenant_for(query), query.text, query.kind, query.arrival_ns)
        tasks[accepted.qid] = dispatcher._compile(owner, accepted)
    order = list(tasks) if order is None else order
    for i, qid in enumerate(order):
        blocked_from = min((tasks[later].arrival_ns
                            for later in order[i + 1:]), default=None)
        compiled = [tasks[qid]]
        while dispatcher.step(compiled, blocked_from) is not None:
            compiled = ()
    return dispatcher, offers


def _serve(queries, *, scale=64, quota=None, tenant_for=None,
           **server_kw):
    """Serve the stamped ``queries`` on a fresh two-tenant
    :class:`QueryServer` (clients dealt round-robin over tenants unless
    ``tenant_for`` maps a query to its tenant) and drain.  Returns the
    server and the responses."""

    async def main():
        server = _populate(QueryServer(**server_kw), scale=scale,
                           quota=quota)
        async with server:
            responses = await server.serve(queries, tenant_for)
            await server.drain()
        return server, responses

    return asyncio.run(main())


def simulated(server) -> dict:
    """The report with what legitimately depends on thread timing
    removed — the rule ``benchmarks/perf`` hashes ``sim_digest`` by:
    compile wall time, and which of two racing compiles of one
    template found the other's plan."""
    payload = server.report().to_json()
    for response in payload["responses"]:
        del response["compile_ns"], response["cache_hit"]
    return payload


# ---------------------------------------------------------------------
# the dispatcher: every decision, on the simulated clock only
# ---------------------------------------------------------------------

class TestStagedOutOfArrivalOrder:
    #: Three queries share every arrival stamp and three in four are
    #: acme's; the queue holds four, so a burst refuses acme's excess
    #: on arrival and globex displaces acme's newest.
    N = 24
    KW = dict(mode="fifo-serial", max_queue=4,
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
        finish = {q.qid: 0.002 * (self.N - q.qid) / self.N
                  + rng.uniform(0.0, 0.004) for q in stream}
        order = sorted(finish, key=finish.get)
        calm, calm_offers = _step_through(stream, **self.KW)
        shuffled, offers = _step_through(stream, order=order, **self.KW)
        # the compiles really overtook each other ...
        assert order != sorted(order)
        # ... and were admitted in (arrival, qid) order all the same
        assert offers == sorted(offers)
        assert offers == calm_offers
        assert len(offers) == self.N
        assert simulated(shuffled) == simulated(calm)

    def test_shed_and_displaced_exactly(self):
        """The shed set of the stream above, and who was refused on
        arrival versus displaced later — fifo-serial, so it depends on
        the queue rules and the simulator only, not on ⊙ pricing."""
        dispatcher, _ = _step_through(self._stream(), **self.KW)
        report = dispatcher.report()
        refused = sorted(r.qid for r in report.shed
                         if r.start_ns == r.arrival_ns)
        displaced = sorted(r.qid for r in report.shed
                           if r.start_ns > r.arrival_ns)
        assert (refused, displaced) == (self.REFUSED, self.DISPLACED)
        for r in report.shed:
            assert r.latency_ns == r.start_ns - r.arrival_ns
        for stats in report.tenants:
            assert stats["submitted"] == \
                stats["completed"] + stats["shed"]

    def test_live_submit_older_than_the_clock(self):
        """An arrival stamp in the machine's past is served at the
        clock, ahead of a later arrival, whichever compiles first."""
        assert self._stale_and_later(stale_first=True) \
            == self._stale_and_later(stale_first=False)

    @staticmethod
    def _stale_and_later(stale_first):
        dispatcher = Dispatcher(mode="fifo-serial")
        tenant = dispatcher.add_tenant("solo")
        tenant.session.create_table("t", list(range(64)))
        tenant.session.predicate("small", lambda v: v < 10)
        text = "filter(t, small, sel=0.2)"

        def submit(arrival_ns):
            return dispatcher._compile(
                *dispatcher.accept("solo", text, arrival_ns=arrival_ns))

        [(_, first)] = dispatcher.step([submit(0.0)])
        assert dispatcher.step() is None
        clock = dispatcher.clock_ns
        assert clock == first.finish_ns > 0.0
        late, later = submit(clock / 2), submit(clock + 1.0)
        if stale_first:
            [(_, served_late)] = dispatcher.step([late], later.arrival_ns)
            assert dispatcher.step() is None  # later is not staged yet
            [(_, served_later)] = dispatcher.step([later])
        else:
            # nothing is decided while the stale arrival compiles
            assert dispatcher.step([later], late.arrival_ns) is None
            [(_, served_late)] = dispatcher.step([late])
            [(_, served_later)] = dispatcher.step()
        assert served_late.start_ns == first.finish_ns
        assert served_late.wait_ns == clock / 2
        assert (served_late.batch_index, served_later.batch_index) \
            == (1, 2)
        assert served_later.start_ns == served_late.finish_ns
        assert dispatcher.step() is None
        return [r.to_json() | {"compile_ns": None}
                for r in (first, served_late, served_later)]


# ---------------------------------------------------------------------
# the hand-off: threads move work and results, never a decision
# ---------------------------------------------------------------------

class TestPoolWidthIsInvisible:
    def _stream(self):
        return PoissonArrivals(60000.0, seed=3).stamp(
            _queries(24, scale=128))

    def test_same_report_for_every_max_workers_and_twice(self):
        stream = self._stream()
        reports = [simulated(_serve(stream, scale=128,
                                    max_workers=workers)[0])
                   for workers in (1, 2, 4, 2)]
        assert any(b["size"] > 1 for b in reports[0]["batches"]), \
            "the stream should be dense enough to co-run"
        assert reports[0]["completed"] == 24
        for other in reports[1:]:
            assert other == reports[0]

    def test_the_server_decides_what_the_dispatcher_decides(self):
        """The threaded server and the dispatcher stepped by hand, in
        the reverse of submission order, produce one report."""
        stream = self._stream()
        served = simulated(_serve(stream, scale=128, max_workers=4)[0])
        stepped, _ = _step_through(stream, scale=128,
                                   order=[q.qid for q in stream][::-1])
        assert simulated(stepped) == served


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


def _solo_server(max_queue=1024, **server_kw):
    """One tenant, fifo-serial, queue and quota wide enough that
    nothing is shed; ``gate`` is a predicate whose kernel waits for
    ``server.gate`` to be set."""
    server = QueryServer(mode="fifo-serial", max_queue=max_queue,
                         **server_kw)
    tenant = server.add_tenant("solo", TenantQuota(max_queued=max_queue))
    tenant.session.create_table("t", list(range(64)))
    tenant.session.predicate("small", lambda v: v < 10)

    def boom(value):
        raise RuntimeError("kernel exploded")

    gate = server.gate = threading.Event()

    def gated(value):
        assert gate.wait(timeout=30), "the test never opened the gate"
        return value < 10

    tenant.session.predicate("boom", boom)
    tenant.session.predicate("gate", gated)
    return server


GOOD, BAD = "filter(t, small, sel=0.2)", "filter(t, boom, sel=0.2)"
GATED = "filter(t, gate, sel=0.2)"
GARBLED = "filter(t small"


async def _stop_with_the_gate_open(server):
    """Call ``stop()`` and only then open the gate: a worker held at
    it sees ``_stopping`` set as soon as it goes on."""
    stopping = asyncio.ensure_future(server.stop())
    while not server._stopping:
        await asyncio.sleep(0)
    server.gate.set()
    await asyncio.wait_for(stopping, timeout=30)
    await asyncio.sleep(0)  # posted responses land


def _settled(server) -> bool:
    """Nothing accepted, compiling, staged or queued is left."""
    return (server._outstanding == 0 and not server._accepted
            and not server._compiling and not server._inbox
            and not server.stepper._staged and not server.admission.queue)


def _hold_compile(server, qid):
    """Hold query ``qid``'s compile at ``server.gate``."""
    compile_ = server._compile

    def held(tenant, query):
        if query.qid == qid:
            assert server.gate.wait(timeout=30), "the gate never opened"
        return compile_(tenant, query)

    server._compile = held


def _log_steps(server):
    """Record every dispatcher step the server's runs take, once it
    has returned: how many compiled tasks it staged, and what it
    returned."""
    steps = []
    step = server.step

    def logged(compiled=(), blocked_from=None):
        compiled = list(compiled)
        resolved = step(compiled, blocked_from)
        steps.append((len(compiled), resolved))
        return resolved

    server.step = logged
    return steps


async def _until(condition, timeout=30):
    """Yield to the loop until ``condition()`` holds."""
    async def poll():
        while not condition():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout)


class TestHeldCompile:
    """A compile held at the gate inside a running server, while later
    arrivals compile and reach the dispatcher: the run passes the
    earliest arrival still compiling as ``blocked_from``, so it decides
    nothing until that compile is in, and then exactly what the
    dispatcher stepped by hand decides."""

    def test_an_earlier_arrival_holds_every_decision(self):
        case = TestStagedOutOfArrivalOrder
        stream = case()._stream()
        knobs = dict(case.KW)
        quota, tenant_for = knobs.pop("quota"), knobs.pop("tenant_for")
        offers = []

        async def main():
            server = _populate(QueryServer(max_workers=2, **knobs),
                               quota=quota)
            server.gate = threading.Event()
            _hold_compile(server, 0)
            steps = _log_steps(server)
            offer = server.admission.offer

            def logged_offer(task, task_quota):
                offers.append((task.arrival_ns, task.qid))
                return offer(task, task_quota)

            server.admission.offer = logged_offer
            async with server:
                futures = [server.submit_nowait(tenant_for(q), q.text,
                                                q.kind, q.arrival_ns)
                           for q in stream]
                # every later arrival compiled and staged by a run
                await _until(lambda: sum(n for n, _ in steps)
                             == len(stream) - 1)
                undecided = [resolved for _, resolved in steps]
                pending = sum(not future.done() for future in futures)
                server.gate.set()
                await asyncio.wait_for(asyncio.gather(*futures),
                                       timeout=30)
                await asyncio.wait_for(server.drain(), timeout=30)
            return server, undecided, pending

        server, undecided, pending = asyncio.run(main())
        assert undecided and all(r is None for r in undecided)
        assert pending == len(stream)
        stepped, stepped_offers = _step_through(stream, **case.KW)
        assert offers == sorted(offers) == stepped_offers
        assert simulated(server) == simulated(stepped)

    def test_a_stale_arrival_holds_a_later_one(self):
        """The stale arrival's compile is held until the later arrival
        has compiled and reached the dispatcher; the run serves neither
        until it is in, and then the stale one first, at the clock."""

        async def main():
            server = _solo_server(max_workers=2)
            steps = _log_steps(server)
            async with server:
                first = await asyncio.wait_for(
                    server.submit("solo", GOOD, arrival_ns=0.0), timeout=30)
                clock = server.clock_ns
                assert clock == first.finish_ns > 0.0
                mark = len(steps)
                _hold_compile(server, 1)
                late = server.submit_nowait("solo", GOOD,
                                            arrival_ns=clock / 2)
                later = server.submit_nowait("solo", GOOD,
                                             arrival_ns=clock + 1.0)
                await _until(lambda: sum(n for n, _ in steps[mark:]) == 1)
                undecided = [resolved for _, resolved in steps[mark:]]
                server.gate.set()
                late, later = await asyncio.wait_for(
                    asyncio.gather(late, later), timeout=30)
                await asyncio.wait_for(server.drain(), timeout=30)
            return first, late, later, undecided

        first, late, later, undecided = asyncio.run(main())
        assert all(r is None for r in undecided)
        assert [r.to_json() | {"compile_ns": None}
                for r in (first, late, later)] \
            == TestStagedOutOfArrivalOrder._stale_and_later(stale_first=False)


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

    def _submit_all(self, server, texts=()):
        """``N`` queries 100 ns apart; ``texts`` replaces the first
        few texts."""
        texts = list(texts) + [GOOD] * (self.N - len(texts))
        return [server.submit_nowait("solo", text, arrival_ns=100.0 * i)
                for i, text in enumerate(texts)]

    def test_responses_arrive_batch_by_batch(self):
        """The first client wakes while the run is still going: the
        run is held in the second batch's kernel until the first
        response has arrived."""

        async def main():
            async with _solo_server(max_workers=2) as server:
                futures = self._submit_all(server, [GOOD, GATED])
                first = await asyncio.wait_for(futures[0], timeout=30)
                pending = sum(not future.done() for future in futures)
                server.gate.set()
                responses = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=60)
                await server.drain()
            return first, pending, responses

        first, pending, responses = asyncio.run(main())
        assert first.batch_index == 0
        assert pending == self.N - 1
        assert [r.batch_index for r in responses] == list(range(self.N))

    def test_one_worker_starves_neither_side(self):
        """Compile runs and the dispatch run share the one worker: a
        client that keeps the accepted queue from ever emptying — so
        every compile run ends with a successor queued — is still
        answered while it goes on submitting.  (It tops the queue up
        rather than submitting flat out, so how many queries it has
        submitted by its first answer counts compiles, not how fast
        the host runs the event loop.)"""
        limit = 20_000

        async def main():
            async with _solo_server(max_queue=limit,
                                    max_workers=1) as server:
                # (stamped apart: a decision waits for every compile
                # whose query has arrived, on any pool)
                futures = [server.submit_nowait("solo", GOOD,
                                                arrival_ns=0.0)]
                while not futures[0].done() and len(futures) < limit:
                    if len(server._accepted) < 50:
                        futures.append(server.submit_nowait(
                            "solo", GOOD,
                            arrival_ns=100.0 * len(futures)))
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
        resolves exactly once and nothing is left accepted, compiling,
        staged or outstanding (a lost update to the shared state would
        hang ``drain`` or drop a query)."""

        async def main():
            async with _solo_server(max_workers=8) as server:
                futures = self._submit_all(server)
                responses = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=60)
                await asyncio.wait_for(server.drain(), timeout=60)
                assert _settled(server)
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
        """``stop()`` while the run is held in the second batch's
        kernel: the run finishes that batch and returns, whatever is
        still queued behind it."""

        async def main():
            server = _solo_server(max_workers=2)
            await server.start()
            futures = self._submit_all(server, [GOOD, GATED])
            await asyncio.wait_for(futures[0], timeout=30)
            await _stop_with_the_gate_open(server)
            served = len(server.report().responses)
            resolved = sum(future.done() for future in futures)
            for future in futures:
                future.cancel()
            return served, resolved

        served, resolved = asyncio.run(main())
        # (1 when the run had returned, blocked on the gated query's
        # compile, before stop() was called)
        assert served in (1, 2)
        assert resolved == served

    def test_stop_leaves_uncompiled_queries_unresolved(self):
        """``stop()`` with accepted queries still waiting for a compile
        returns without compiling its way through them, and — as its
        docstring says — leaves their futures unresolved.  Every
        compile is held at the gate until ``stop()`` has begun."""
        compiled = []

        async def main():
            server = _solo_server(max_workers=2)
            compile_ = server._compile

            def held(tenant, query):
                assert server.gate.wait(timeout=30)
                compiled.append(query.qid)
                return compile_(tenant, query)

            server._compile = held
            await server.start()
            futures = self._submit_all(server)
            await _stop_with_the_gate_open(server)
            resolved = sum(future.done() for future in futures)
            for future in futures:
                future.cancel()
            return resolved

        assert asyncio.run(main()) == 0
        # one compile per compile run, the one each was held in
        assert 1 <= len(compiled) <= 2

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
                assert _settled(server)
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
                assert _settled(server)
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
        dispatcher, _ = _step_through(_queries(4), mode="fifo-serial")
        report = dispatcher.report()
        assert len(report.responses) == 4
        for row in report.responses + report.batches:
            assert not hasattr(row, "__dict__")
