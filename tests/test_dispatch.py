"""The dispatcher's contract, then the hand-off's.

What a serving run decides is a function of the workload on the
simulated clock, never of when queries reach the worker on the wall
clock.  The first part holds the :class:`~repro.server.Dispatcher` to
that with no thread at all: tasks are handed to
:meth:`~repro.server.Dispatcher.step` in any chosen compile-completion
order, each step told the earliest arrival not handed over yet —
exactly what ``QueryServer._run`` passes for the queries still
accepted — and must be admitted in ``(arrival_ns, qid)`` order, shed
and displaced exactly, and served at the clock when stamped in its
past; a fault injected into any stage of a step fails that step's
queries, as ``outcome="error"`` responses, and nothing else.

The second part is about the thread hand-off itself, the part of
:class:`~repro.server.QueryServer` that is not the dispatcher: the
same stream yields the same report twice and the dispatcher's own,
every compile and every step runs on the one worker thread, a query
accepted while the worker is inside a batch is compiled before any
decision that passes its arrival (the run computes ``blocked_from``
itself), span order and the recalibration point repeat, a raising
batch, compile or settle resolves its members as errors and nothing
else, responses reach clients while the run goes on and a closed-loop
client at once, the thread boundary is crossed per run and not per
query, ``stop()`` ends a run at a batch or compile boundary and
resolves everything still pending.  Where an assertion would depend on
how far the worker got on the wall clock, a gate (a
:class:`threading.Event` a kernel or compile waits on) holds it at a
known point instead.
"""

import asyncio
import itertools
import json
import random
import sys
import threading
from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import pytest

from repro.hardware import parametric_profile
from repro.obs import Tracer
from repro.server import (
    Dispatcher,
    PoissonArrivals,
    QueryServer,
    TenantQuota,
)
from repro.server.dispatcher import settle
from repro.service import ServiceExecutor, WorkloadGenerator, WorkloadQuery
from repro.service.admission import AdmissionController
from repro.session import Session
from repro.simulator import MemorySystem

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


def _log_offers(dispatcher):
    """Record every ``(arrival_ns, qid)`` offered to ``dispatcher``'s
    admission controller, in offer order."""
    offers = []
    offer = dispatcher.admission.offer

    def logged_offer(task, task_quota):
        offers.append((task.arrival_ns, task.qid))
        return offer(task, task_quota)

    dispatcher.admission.offer = logged_offer
    return offers


def _step_through(queries, *, order=None, scale=64, quota=None,
                  tenant_for=_round_robin, populate=None, **dispatcher_kw):
    """Serve the stamped ``queries`` on a fresh :class:`Dispatcher`
    (two tenants, or whatever ``populate(dispatcher)`` registers), no
    threads: accept every query, compile it, and hand the tasks over
    one at a time in ``order`` (qids, the order compiles "finish";
    default: submission order), stepping as far as the clock can
    advance after each — blocked from the earliest arrival not handed
    over yet.  Returns the dispatcher and every ``(arrival_ns, qid)``
    offered to the admission controller, in offer order."""
    dispatcher = Dispatcher(**dispatcher_kw)
    if populate is None:
        _populate(dispatcher, scale=scale, quota=quota)
    else:
        populate(dispatcher)
    offers = _log_offers(dispatcher)
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
# failures: every query leaves through the one door, by hand
# ---------------------------------------------------------------------

def _populate_solo(tenant):
    """Table ``t`` and the predicates every solo stream below uses."""
    tenant.session.create_table("t", list(range(64)))
    tenant.session.predicate("small", lambda v: v < 10)
    tenant.session.predicate("big", lambda v: v > 10)

    def boom(value):
        raise RuntimeError("kernel exploded")

    tenant.session.predicate("boom", boom)


def _failing_once(real, n=3):
    """``real``, except that its ``n``-th call raises."""
    calls = itertools.count(1)

    def flaky(*args, **kwargs):
        if next(calls) == n:
            raise RuntimeError("injected fault")
        return real(*args, **kwargs)

    return flaky


def _without_identity(response) -> dict:
    """A response's JSON without its qid and what thread timing moves."""
    payload = response.to_json()
    del payload["qid"], payload["compile_ns"], payload["cache_hit"]
    return payload


class TestFaultsStepByHand:
    """A fault injected into a dispatcher stepped by hand, no threads:
    every query resolves exactly once, the failed ones with the stage
    that failed, the clock never goes back, ``submitted == completed +
    shed + errored``, and every survivor's response is what a run
    without the failed queries gives it — a failed batch takes no
    batch index, no simulated time and no address space."""

    STREAM = ["filter(t, small, sel=0.2)", "filter(t, big, sel=0.8)"] * 5

    @staticmethod
    def _run(texts, *, traced=False, drop=(), fault=None):
        """Serve ``texts`` 1 µs apart on a fresh fifo-serial dispatcher
        (the queue builds up: batches start at the clock), leaving out
        the indices in ``drop``; ``fault(dispatcher)`` is a context the
        run steps inside.  Returns the dispatcher, every resolution and
        the clock after each step."""
        dispatcher = Dispatcher(mode="fifo-serial",
                                tracer=Tracer() if traced else None)
        _populate_solo(dispatcher.add_tenant("solo",
                                             TenantQuota(max_queued=64)))
        tasks = [dispatcher._compile(*dispatcher.accept(
                     "solo", text, arrival_ns=1000.0 * i))
                 for i, text in enumerate(texts) if i not in drop]
        resolved, clocks = [], [dispatcher.clock_ns]
        with nullcontext() if fault is None else fault(dispatcher):
            while (out := dispatcher.step(tasks)) is not None:
                tasks = ()
                resolved += out
                clocks.append(dispatcher.clock_ns)
        return dispatcher, resolved, clocks

    def _check(self, stage, texts=STREAM, traced=False, fault=None):
        """Run ``texts`` under ``fault`` and hold the run to the class
        docstring; returns the failed responses."""
        dispatcher, resolved, clocks = self._run(texts, traced=traced,
                                                 fault=fault)
        assert sorted(task.qid for task, _ in resolved) == \
            list(range(len(texts)))
        assert all(task.qid == response.qid for task, response in resolved)
        failed = [r for _, r in resolved if r.outcome == "error"]
        assert failed and {r.stage for r in failed} == {stage}
        assert clocks == sorted(clocks)
        report = dispatcher.report()
        assert report.responses == sorted((r for _, r in resolved),
                                          key=lambda r: r.qid)
        [stats] = report.tenants
        assert stats["submitted"] == len(texts) == \
            stats["completed"] + stats["shed"] + len(report.errored)
        twin, _, _ = self._run(texts, traced=traced,
                               drop={r.qid for r in failed})
        assert [_without_identity(r) for r in report.responses
                if not r.stage] == \
            [_without_identity(r) for r in twin.report().responses]
        return failed

    def test_a_raising_kernel(self):
        texts = list(self.STREAM)
        texts[3] = texts[7] = "filter(t, boom, sel=0.2)"
        failed = self._check("kernel", texts)
        assert [(r.qid, r.error_type, r.error_message) for r in failed] \
            == [(3, "RuntimeError", "kernel exploded"),
                (7, "RuntimeError", "kernel exploded")]

    def test_a_replay_that_raises_once(self):
        def fault(_):
            return mock.patch.object(
                MemorySystem, "replay_interleaved",
                _failing_once(MemorySystem.replay_interleaved))

        [failed] = self._check("replay", fault=fault)
        assert failed.error_message == "injected fault"

    def test_a_raising_settle(self):
        self._check("settle", fault=lambda _: mock.patch(
            "repro.server.dispatcher.settle", _failing_once(settle)))

    def test_a_raising_trace_batch(self):
        def fault(dispatcher):
            return mock.patch.object(dispatcher, "_trace_batch",
                                     _failing_once(dispatcher._trace_batch))

        self._check("settle", traced=True, fault=fault)

    def test_an_unparsable_text(self):
        texts = list(self.STREAM)
        texts[4] = "filter(t small"
        [failed] = self._check("compile", texts)
        assert (failed.qid, failed.error_type, failed.signature) == \
            (4, "QuerySyntaxError", "")
        assert failed.start_ns == failed.finish_ns == failed.arrival_ns

    def test_a_raising_offer(self):
        def fault(dispatcher):
            admission = dispatcher.admission
            return mock.patch.object(admission, "offer",
                                     _failing_once(admission.offer))

        [failed] = self._check("admit", fault=fault)
        assert failed.qid == 2

    def test_a_batch_that_cannot_be_formed(self):
        """Forming a batch raises: every query due then fails, and the
        next decision goes on without them."""
        def fault(dispatcher):
            admission = dispatcher.admission
            return mock.patch.object(admission, "form",
                                     _failing_once(admission.form))

        failed = self._check("admit", fault=fault)
        assert len(failed) > 1
        assert len({r.start_ns for r in failed}) == 1

    def test_a_closed_loop_still_raises(self):
        """The stepper hands a batch that cannot be formed back with
        its error; iterating a closed loop raises it, as before."""
        session = Session()
        queries = WorkloadGenerator(session, scale=64,
                                    seed=7).generate(4, clients=2)
        with mock.patch.object(AdmissionController, "form",
                               side_effect=RuntimeError("injected fault")):
            with pytest.raises(RuntimeError, match="injected fault"):
                ServiceExecutor(session).run(queries)


# ---------------------------------------------------------------------
# the hand-off: threads move work and results, never a decision
# ---------------------------------------------------------------------

class TestServingIsRepeatable:
    def _stream(self):
        return PoissonArrivals(60000.0, seed=3).stamp(
            _queries(24, scale=128))

    def test_the_same_stream_served_twice_gives_one_report(self):
        """The same stream served twice gives one report."""
        stream = self._stream()
        first, second = (simulated(_serve(stream, scale=128)[0])
                         for _ in range(2))
        assert any(b["size"] > 1 for b in first["batches"]), \
            "the stream should be dense enough to co-run"
        assert first["completed"] == 24
        assert second == first

    def test_the_server_decides_what_the_dispatcher_decides(self):
        """The threaded server and the dispatcher stepped by hand, in
        the reverse of submission order, produce one report."""
        stream = self._stream()
        served = simulated(_serve(stream, scale=128)[0])
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
    nothing is shed; ``gate`` is a predicate whose kernel sets
    ``server.held`` and waits for ``server.gate`` to be set."""
    return _solo(QueryServer(mode="fifo-serial", max_queue=max_queue,
                             **server_kw),
                 max_queue)


def _solo(server, max_queue=1024):
    """Register :func:`_solo_server`'s tenant on ``server`` (a
    :class:`QueryServer` or a hand-stepped :class:`Dispatcher`)."""
    tenant = server.add_tenant("solo", TenantQuota(max_queued=max_queue))
    tenant.session.create_table("t", list(range(64)))
    tenant.session.predicate("small", lambda v: v < 10)

    def boom(value):
        raise RuntimeError("kernel exploded")

    gate = server.gate = threading.Event()
    held = server.held = threading.Event()

    def gated(value):
        held.set()
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
    """Nothing accepted, staged or queued is left."""
    return (server._outstanding == 0 and not server._accepted
            and not server.stepper._staged and not server.admission.queue)


def _hold_compile(server, qid):
    """Hold query ``qid``'s compile at ``server.gate``, setting
    ``server.held`` once it is there."""
    compile_ = server._compile

    def held(tenant, query):
        if query.qid == qid:
            server.held.set()
            assert server.gate.wait(timeout=30), "the gate never opened"
        return compile_(tenant, query)

    server._compile = held


def _log_steps(server):
    """Record every dispatcher step the server's runs take, once it
    has returned: the ``blocked_from`` it was passed, and what it
    returned."""
    steps = []
    step = server.step

    def logged(compiled=(), blocked_from=None):
        resolved = step(compiled, blocked_from)
        steps.append((blocked_from, resolved))
        return resolved

    server.step = logged
    return steps


async def _until(condition, timeout=30):
    """Yield to the loop until ``condition()`` holds."""
    async def poll():
        while not condition():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout)


class TestOneWorker:
    """The server has one worker thread: it compiles and steps, and
    the loop thread does neither."""

    def test_every_compile_and_step_runs_on_the_worker(self):
        stream = TestServingIsRepeatable()._stream()
        threads = {"compile": set(), "step": set()}

        async def main():
            server = _populate(QueryServer(), scale=128)
            compile_, step = server._compile, server.step

            def compiled(tenant, query):
                threads["compile"].add(threading.get_ident())
                return compile_(tenant, query)

            def stepped(*args):
                threads["step"].add(threading.get_ident())
                return step(*args)

            server._compile, server.step = compiled, stepped
            async with server:
                responses = await server.serve(stream)
                await server.drain()
            return threading.get_ident(), responses

        loop_thread, responses = asyncio.run(main())
        assert len(responses) == len(stream)
        [worker] = threads["compile"]
        assert threads["step"] == {worker}
        assert worker != loop_thread



class TestHeldCompile:
    """A compile held back inside a running server while a later
    arrival is already staged — the one worker busy in a batch, or
    held at a gate in the compile itself: the run passes the earliest
    arrival still accepted as ``blocked_from``, so it decides nothing
    until that compile is in, and then exactly what the dispatcher
    stepped by hand decides."""

    def test_an_earlier_arrival_holds_every_decision(self):
        """The worker is held in the first batch's kernel while the
        loop submits a stale arrival (before that batch ends) and one
        due before the far arrival already staged.  Every step taken
        while either is still accepted decides nothing; the run
        compiles both before it decides anything after the held batch,
        and every offer and the report are those of the dispatcher
        stepped by hand."""
        far = 1e12
        early = [(GATED, 0.0), (GOOD, far)]
        late = [(GOOD, 1.0), (GOOD, far / 2)]
        stream = [WorkloadQuery(qid=qid, client=0, kind="adhoc",
                                text=text, arrival_ns=arrival)
                  for qid, (text, arrival) in enumerate(early + late)]

        async def main():
            server = _solo_server()
            offers = _log_offers(server)
            steps = _log_steps(server)
            async with server:
                futures = [server.submit_nowait("solo", text,
                                                arrival_ns=arrival)
                           for text, arrival in early]
                await _until(server.held.is_set)
                mark = len(steps)
                futures += [server.submit_nowait("solo", text,
                                                 arrival_ns=arrival)
                            for text, arrival in late]
                pending = sum(not future.done() for future in futures)
                server.gate.set()
                responses = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=30)
                await asyncio.wait_for(server.drain(), timeout=30)
            return server, offers, pending, responses, steps[mark:]

        server, offers, pending, responses, steps = asyncio.run(main())
        assert pending == len(stream)
        held = [resolved for blocked_from, resolved in steps
                if blocked_from is not None]
        assert held and all(resolved is None for resolved in held)
        assert offers == sorted(offers)
        assert [r.batch_index for r in responses] == [0, 3, 1, 2]
        assert responses[2].start_ns == responses[0].finish_ns

        def open_gate(dispatcher):
            _solo(dispatcher).gate.set()

        stepped, stepped_offers = _step_through(
            stream, populate=open_gate, tenant_for=lambda query: "solo",
            mode="fifo-serial", max_queue=1024)
        assert offers == stepped_offers
        assert simulated(server) == simulated(stepped)

    def test_a_stale_arrival_holds_a_later_one(self):
        """The later arrival's compile is held at the gate while the
        stale one (stamped before the clock) is accepted; the run
        stages the later one, decides nothing while the stale one is
        still accepted, then serves the stale one first, at the clock
        — what the dispatcher stepped by hand serves."""

        async def main():
            server = _solo_server()
            steps = _log_steps(server)
            async with server:
                first = await asyncio.wait_for(
                    server.submit("solo", GOOD, arrival_ns=0.0), timeout=30)
                clock = server.clock_ns
                assert clock == first.finish_ns > 0.0
                mark = len(steps)
                _hold_compile(server, first.qid + 1)
                later = server.submit_nowait("solo", GOOD,
                                             arrival_ns=clock + 1.0)
                await _until(server.held.is_set)
                late = server.submit_nowait("solo", GOOD,
                                            arrival_ns=clock / 2)
                server.gate.set()
                late, later = await asyncio.wait_for(
                    asyncio.gather(late, later), timeout=30)
                await asyncio.wait_for(server.drain(), timeout=30)
            return first, late, later, clock, steps[mark:]

        first, late, later, clock, steps = asyncio.run(main())
        held = [resolved for blocked_from, resolved in steps
                if blocked_from == clock / 2]
        assert held and all(resolved is None for resolved in held)
        assert late.batch_index < later.batch_index
        assert [_without_identity(r) for r in (first, late, later)] \
            == [{k: v for k, v in payload.items()
                 if k not in ("qid", "compile_ns", "cache_hit")}
                for payload in TestStagedOutOfArrivalOrder
                ._stale_and_later(stale_first=False)]


class TestFailingBatch:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_a_raising_kernel_fails_only_its_own_batch(self, max_workers):
        """(``max_workers`` has no effect: one worker serves either
        way.)"""
        texts = [GOOD, GOOD, BAD, GOOD, BAD, GOOD]

        async def main():
            server = _solo_server(max_workers=max_workers)
            async with server:
                results = await asyncio.wait_for(asyncio.gather(*(
                    server.submit_nowait("solo", text,
                                         arrival_ns=1000.0 * i)
                    for i, text in enumerate(texts))), timeout=30)
                await asyncio.wait_for(server.drain(), timeout=30)
                # the server still serves after the failures
                after = await asyncio.wait_for(
                    server.submit("solo", GOOD), timeout=30)
            return server, results, after

        server, results, after = asyncio.run(main())
        for text, result in zip(texts, results):
            if text is BAD:
                assert (result.outcome, result.stage, result.error_type,
                        result.error_message) == (
                    "error", "kernel", "RuntimeError", "kernel exploded")
                assert result.start_ns == result.finish_ns
                assert result.batch_index is None
            else:
                assert result.ok and result.rows == 10
        served = [r for r in results if r.ok]
        # a failed batch takes no batch index and no simulated time:
        # the machine goes straight on to the next query
        assert [r.batch_index for r in served] == [0, 1, 2, 3]
        for earlier, later in zip(served, served[1:]):
            assert later.start_ns == max(earlier.finish_ns,
                                         later.arrival_ns)
        assert after.batch_index == 4
        assert after.start_ns == served[-1].finish_ns
        report = server.report()
        assert len(report.responses) == 7
        assert [r.qid for r in report.errored] == [2, 4]
        [stats] = report.tenants
        assert stats["submitted"] == 7 == \
            stats["completed"] + stats["shed"] + len(report.errored)

    def test_a_swapped_machine_is_not_replayed_stale(self):
        """The run replays every batch on one machine built for
        ``server.hierarchy``; were that ever replaced, the batch fails
        instead of being measured on the machine that is gone."""

        async def main():
            async with _solo_server() as server:
                before = await asyncio.wait_for(
                    server.submit("solo", GOOD), timeout=30)
                server.hierarchy = parametric_profile(mem_ns=800.0)
                after = await asyncio.wait_for(
                    server.submit("solo", GOOD), timeout=30)
            return before, after

        before, after = asyncio.run(main())
        assert before.ok
        assert (after.outcome, after.stage, after.error_type) == \
            ("error", "replay", "AssertionError")


class TestFaultsThreaded:
    def test_a_settle_raising_on_its_third_call(self):
        """The threaded twin of the hand-stepped faults: a ``settle``
        that raises once fails one query, the dispatch run lives on,
        every future holds a response and ``drain()`` returns."""

        async def main():
            async with _solo_server() as server:
                futures = [server.submit_nowait("solo", GOOD,
                                                arrival_ns=1000.0 * i)
                           for i in range(8)]
                await asyncio.wait_for(server.drain(), timeout=30)
                assert _settled(server)
            return server, [future.result() for future in futures]

        with mock.patch("repro.server.dispatcher.settle",
                        _failing_once(settle)):
            server, responses = asyncio.run(main())
        assert [r.qid for r in responses] == list(range(8))
        [failed] = [r for r in responses if not r.ok]
        assert (failed.qid, failed.stage) == (2, "settle")
        report = server.report()
        assert report.responses == responses
        assert [r.batch_index for r in report.completed] == list(range(7))
        [stats] = report.tenants
        assert stats["submitted"] == 8 == \
            stats["completed"] + stats["shed"] + len(report.errored)


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
            async with _solo_server() as server:
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
        """The worker compiles what it took and then steps, so a client
        that keeps the accepted heap from ever emptying is still
        answered while it goes on submitting.  (It tops the heap up
        rather than submitting flat out, so how many queries it has
        submitted by its first answer counts compiles, not how fast
        the host runs the event loop.)"""
        limit = 20_000

        async def main():
            async with _solo_server(max_queue=limit) as server:
                # (stamped apart: a decision waits for every accepted
                # query that has arrived by then)
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
        """Queries go in without a crossing and responses come out in
        slices: the whole stream costs fewer hand-offs to the loop
        thread than it has queries (a hop per compile and a post per
        batch made it two per query; a few now, the bound leaves a slow
        host room)."""
        crossings = []

        async def main():
            loop = asyncio.get_running_loop()
            threadsafe = loop.call_soon_threadsafe

            def counted(callback, *args, **kwargs):
                crossings.append(callback)
                return threadsafe(callback, *args, **kwargs)

            loop.call_soon_threadsafe = counted
            async with _solo_server() as server:
                responses = await asyncio.wait_for(
                    asyncio.gather(*self._submit_all(server)), timeout=60)
                await asyncio.wait_for(server.drain(), timeout=60)
            return responses

        responses = asyncio.run(main())
        assert [r.batch_index for r in responses] == list(range(self.N))
        assert 0 < len(crossings) < self.N

    def test_stress_the_finest_thread_interleaving(self):
        """The worker and the loop thread interleave as finely as the
        interpreter allows: every future still resolves exactly once
        and nothing is left accepted, staged or outstanding (a lost
        update to the accepted heap would hang ``drain`` or drop a
        query)."""

        async def main():
            async with _solo_server() as server:
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
            server = _solo_server()
            await server.start()
            futures = self._submit_all(server, [GOOD, GATED])
            await asyncio.wait_for(futures[0], timeout=30)
            await _stop_with_the_gate_open(server)
            await asyncio.wait_for(server.drain(), timeout=30)
            assert _settled(server)
            return [future.result() for future in futures]

        responses = asyncio.run(main())
        served = [r for r in responses if r.ok]
        # (1 when stop() came before the run began the second batch)
        assert len(served) in (1, 2)
        assert responses[:len(served)] == served
        assert {(r.outcome, r.stage) for r in responses[len(served):]} \
            == {("error", "stopped")}

    def test_stop_fails_uncompiled_queries_as_stopped(self):
        """``stop()`` with accepted queries still waiting for a compile
        returns without compiling its way through them, and resolves
        every one — compiled or not — as stopped; then ``drain()``
        returns.  Every compile waits at the gate until ``stop()``
        has begun, and only the first gets there."""
        compiled = []

        async def main():
            server = _solo_server()
            compile_ = server._compile

            def held(tenant, query):
                assert server.gate.wait(timeout=30)
                compiled.append(query.qid)
                return compile_(tenant, query)

            server._compile = held
            await server.start()
            futures = self._submit_all(server)
            await _stop_with_the_gate_open(server)
            await asyncio.wait_for(server.drain(), timeout=30)
            assert _settled(server)
            return server, [future.result() for future in futures]

        server, responses = asyncio.run(main())
        assert [r.qid for r in responses] == list(range(self.N))
        assert {(r.outcome, r.stage, r.start_ns - r.arrival_ns)
                for r in responses} == {("error", "stopped", 0.0)}
        assert len(server.report().errored) == self.N
        # only the compile the worker was held in
        assert compiled == [0]

    def test_a_closed_loop_client_is_answered_run_by_run(self):
        """Each response is handed over when its run ends, not a slice
        later: a client that submits only after its previous answer
        gets through 200 queries, one batch each."""

        async def main():
            async with _solo_server() as server:
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
        """One unparsable query in a stream: its response is a compile
        error at its arrival, every other query is served,
        ``drain()`` returns — whatever ``max_workers`` says (it has no
        effect: one worker serves either way)."""
        texts = [GOOD] * 25 + [GARBLED] + [GOOD] * 25

        async def main():
            async with _solo_server(max_workers=max_workers) as server:
                results = await asyncio.wait_for(asyncio.gather(*(
                    server.submit_nowait("solo", text,
                                         arrival_ns=100.0 * i)
                    for i, text in enumerate(texts))), timeout=30)
                await asyncio.wait_for(server.drain(), timeout=30)
                assert _settled(server)
            return server, results

        server, results = asyncio.run(main())
        garbled = results[25]
        assert (garbled.outcome, garbled.stage, garbled.error_type) == \
            ("error", "compile", "QuerySyntaxError")
        assert garbled.start_ns == garbled.finish_ns == garbled.arrival_ns
        served = results[:25] + results[26:]
        assert all(r.ok and r.rows == 10 for r in served)
        assert [r.batch_index for r in served] == list(range(50))
        assert len(server.report().responses) == 51


class TestComputedOnce:
    def test_cache_hits_share_one_signature_string(self):
        async def main():
            async with _solo_server() as server:
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
