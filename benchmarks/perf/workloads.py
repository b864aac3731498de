"""The four benchmark workloads, driven through public ``repro`` exports.

Each workload builds its inputs from the seed once (tables, a query
stream, the scalar-engine oracle), then hands out *fresh program
state* per rep — a new :class:`~repro.server.QueryServer` with new
tenants, a new :class:`~repro.Session`, a new
:class:`~repro.whatif.WhatIfSweep` — so every rep is the same program
run on the same inputs, plan caches cold.

Streams are **stratified**: the template mix is fixed by the
generator's weights (largest-remainder counts per template) and the
seed only picks the table contents, the order of the stream and the
arrival gaps.  A sampled mix would make the amount of work per rep a
function of the seed, and runs on different seeds could then not be
compared within a bound.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
import zlib
from dataclasses import dataclass

from repro import Session
from repro.hardware.profiles import disk_extended_scaled
from repro.obs.schema import validate_whatif_report
from repro.server import PoissonArrivals, QueryServer, TenantQuota
from repro.service import WorkloadGenerator, WorkloadQuery, percentile
from repro.whatif import CapturedWorkload, ProfileSpace, WhatIfSweep

TENANTS = ("acme", "globex")

#: Memory budget of the out-of-core part of ``session_mixed`` (the
#: generator's default: every join and aggregate spills).
SPILL_BUDGET = 2 * 1024


@dataclass
class Rep:
    """What one rep of a workload produced."""

    #: Host seconds spent inside the program (checking the results and
    #: hashing them happens outside this interval).
    wall_s: float
    #: The simulated clock's verdict: ``sim_makespan_ms``,
    #: ``sim_latency_ms_p50``, ``sim_latency_ms_p95``, ``model_error``
    #: (``None`` where the workload has no such number).
    sim: dict
    #: SHA-256 over every simulated result of the rep.
    digest: str
    #: Ops that were shed, errored or disagreed with the oracle.
    failed: int
    #: Per-op host latency in ms (closed-loop workloads only).
    op_ms: list | None = None
    #: The program's own report object, for the traced pass.
    report: object = None


def checksum(values) -> int:
    """Order-sensitive CRC of a result column (the engines are
    byte-exact with each other, so order is part of the contract)."""
    return zlib.crc32(repr(list(values)).encode())


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def stratified_stream(generator: WorkloadGenerator, n_queries: int,
                      clients: int, seed: int) -> list[WorkloadQuery]:
    """``n_queries`` queries over ``generator``'s catalog with a fixed
    template composition and a seeded order.

    The templates are read off a long sampled stream (the generator's
    public face), each kind's weight is split evenly over its
    templates, and counts are rounded by largest remainder."""
    templates: dict[str, set[str]] = {}
    for query in generator.generate(1024, clients=clients):
        templates.setdefault(query.kind, set()).add(query.text)
    weights = {kind: w for kind, w in generator.mix.items() if w > 0}
    if set(weights) != set(templates):
        raise RuntimeError(
            f"sampled stream shows kinds {sorted(templates)}, the mix "
            f"has {sorted(weights)}")
    total = sum(weights.values())
    shares = [(kind, text,
               n_queries * weights[kind] / total / len(templates[kind]))
              for kind in sorted(templates)
              for text in sorted(templates[kind])]
    counts = [int(share) for _, _, share in shares]
    by_remainder = sorted(range(len(shares)),
                          key=lambda i: counts[i] - shares[i][2])
    for i in by_remainder[:n_queries - sum(counts)]:
        counts[i] += 1
    picks = [(kind, text) for (kind, text, _), count in zip(shares, counts)
             for _ in range(count)]
    random.Random(seed).shuffle(picks)
    return [WorkloadQuery(qid=qid, client=qid % clients, kind=kind,
                          text=text)
            for qid, (kind, text) in enumerate(picks)]


def observe(result) -> tuple:
    """``(rows, checksum, simulated elapsed ns)`` of a measured run."""
    return (len(result.column.values), checksum(result.column.values),
            result.counters.elapsed_ns)


class ServeWorkload:
    """Open loop on the simulated clock: a Poisson-stamped stream is
    handed to a two-tenant ``QueryServer`` all at once on the wall
    clock, served, and drained."""

    def __init__(self, name: str, populate, *, seed: int, scale: int,
                 n_queries: int, rate_qps: float) -> None:
        self.name = name
        #: ``populate(session)`` registers the catalog on a session and
        #: returns its ``WorkloadGenerator``.
        self._populate = populate
        self.ops = n_queries
        reference = Session(execution="scalar")
        stream = stratified_stream(populate(reference), n_queries,
                                   clients=4, seed=seed)
        self.stream = PoissonArrivals(rate_qps, seed=seed + 1).stamp(stream)
        #: text -> rows, from the scalar reference engine.
        self.oracle = {
            text: len(reference.execute(text, restore=True).values)
            for text in sorted({query.text for query in stream})}
        self.sizes = {"scale": scale, "queries": n_queries, "clients": 4,
                      "rate_qps": rate_qps, "tenants": len(TENANTS),
                      "max_workers": 2, "max_batch": 4,
                      "distinct_templates": len(self.oracle)}

    def build(self, tracer=None) -> QueryServer:
        server = QueryServer(mode="interference-aware", max_workers=2,
                             max_batch=4, max_queue=100000, tracer=tracer)
        for name in TENANTS:
            tenant = server.add_tenant(name, TenantQuota(max_queued=100000))
            self._populate(tenant.session)
        return server

    def run(self, server: QueryServer) -> Rep:
        async def serve():
            async with server:
                await server.serve(self.stream)
                await server.drain()

        start = time.perf_counter()
        asyncio.run(serve())
        wall_s = time.perf_counter() - start
        report = server.report()
        failed = self.ops - len(report.responses)
        for response in report.responses:
            if not response.ok \
                    or response.rows != self.oracle[response.text]:
                failed += 1
        payload = report.to_json()
        for response in payload["responses"]:
            # wall time of the compile, and which of two racing
            # compiles of one template found the other's plan: both
            # depend on thread timing, nothing simulated does
            del response["compile_ns"], response["cache_hit"]
        return Rep(
            wall_s=wall_s,
            sim={"sim_makespan_ms": server.clock_ns / 1e6,
                 "sim_latency_ms_p50": report.p50_latency_ns / 1e6,
                 "sim_latency_ms_p95": report.p95_latency_ns / 1e6,
                 "model_error": report.mean_contention_error},
            digest=digest(payload), failed=failed, report=report)


class SessionWorkload:
    """Closed loop, one client, a bare ``Session``: an in-memory part
    on the scaled Origin2000 and a spilling part on the disk-extended
    profile, every query executed directly against the simulator."""

    name = "session_mixed"

    def __init__(self, seed: int, *, scale: int, n_inmem: int,
                 spill_scale: int, n_spill: int) -> None:
        self.seed = seed
        self.scale = scale
        self.spill_scale = spill_scale
        self.ops = n_inmem + n_spill
        reference = self._sessions(execution="scalar")
        streams = {
            "inmem": stratified_stream(
                self._inmem_generator(reference["inmem"]), n_inmem, 1, seed),
            "spill": stratified_stream(
                self._spill_generator(reference["spill"]), n_spill, 1, seed),
        }
        #: ``(class, text)`` in execution order.
        self.stream = [(cls, query.text) for cls in ("inmem", "spill")
                       for query in streams[cls]]
        # Simulated time depends on where earlier queries left the
        # allocator, so the scalar reference engine runs the whole
        # stream in order, not each template once.
        self.oracle = [
            observe(reference[cls].execute_measured(text, cold=True,
                                                    restore=True))
            for cls, text in self.stream]
        self.sizes = {"scale": scale, "queries_inmem": n_inmem,
                      "spill_scale": spill_scale, "queries_spill": n_spill,
                      "memory_budget": SPILL_BUDGET, "clients": 1,
                      "distinct_templates": len(set(self.stream))}

    def _sessions(self, execution=None) -> dict[str, Session]:
        return {"inmem": Session(execution=execution),
                "spill": Session(hierarchy=disk_extended_scaled(),
                                 memory_budget=SPILL_BUDGET,
                                 execution=execution)}

    def _inmem_generator(self, session: Session) -> WorkloadGenerator:
        return WorkloadGenerator(session=session, seed=self.seed,
                                 scale=self.scale)

    def _spill_generator(self, session: Session) -> WorkloadGenerator:
        return WorkloadGenerator.out_of_core(session=session,
                                             seed=self.seed,
                                             scale=self.spill_scale)

    def build(self) -> dict[str, Session]:
        sessions = self._sessions()
        self._inmem_generator(sessions["inmem"])
        self._spill_generator(sessions["spill"])
        return sessions

    def run(self, sessions: dict[str, Session]) -> Rep:
        results, op_ms, errors = [], [], []
        for cls, text in self.stream:
            start = time.perf_counter()
            result = sessions[cls].execute_measured(text, cold=True,
                                                    restore=True)
            op_ms.append((time.perf_counter() - start) * 1e3)
            results.append(observe(result))
            errors.append(result.error)
        failed = sum(got != expected
                     for got, expected in zip(results, self.oracle))
        elapsed = [elapsed_ns for _, _, elapsed_ns in results]
        return Rep(
            wall_s=sum(op_ms) / 1e3,
            sim={"sim_makespan_ms": sum(elapsed) / 1e6,
                 "sim_latency_ms_p50": percentile(elapsed, 50.0) / 1e6,
                 "sim_latency_ms_p95": percentile(elapsed, 95.0) / 1e6,
                 "model_error": sum(errors) / len(errors)},
            digest=digest(results), failed=failed, op_ms=op_ms)


class WhatIfWorkload:
    """Nothing executes: a stratified contention-heavy stream is priced
    on every candidate of a memory-latency × cores grid."""

    name = "plan_whatif"
    SLO_P95_NS = 5e6

    def __init__(self, seed: int, *, scale: int, n_queries: int,
                 mem_ns, cores) -> None:
        self.axes = {"mem_ns": list(mem_ns), "cores": list(cores)}
        session = Session()
        generator = WorkloadGenerator.contention_heavy(
            session=session, seed=seed, scale=scale)
        self.workload = CapturedWorkload.from_session(
            session, stratified_stream(generator, n_queries, 8, seed),
            clients=8)
        self.candidates = len(mem_ns) * len(cores)
        self.n_queries = n_queries
        self.ops = n_queries * self.candidates
        self.sizes = {"scale": scale, "queries": n_queries, "clients": 8,
                      "candidates": self.candidates, **self.axes}

    def build(self) -> WhatIfSweep:
        return WhatIfSweep(ProfileSpace(self.axes), self.workload)

    def run(self, sweep: WhatIfSweep) -> Rep:
        start = time.perf_counter()
        report = sweep.run(slo_p95_ns=self.SLO_P95_NS)
        wall_s = time.perf_counter() - start
        payload = report.to_json()
        outcomes = report.outcomes()
        # an op fails when its candidate was skipped or priced to
        # something that is not a positive time, or the report as a
        # whole does not validate
        priced = sum(1 for o in outcomes
                     if 0 < o.makespan_ns < float("inf")
                     and 0 < o.p50_ns <= o.p95_ns <= o.makespan_ns)
        failed = (self.candidates - priced) * self.n_queries
        if validate_whatif_report(payload):
            failed = self.ops
        baseline = report.baseline
        return Rep(
            wall_s=wall_s,
            sim={"sim_makespan_ms": baseline.makespan_ns / 1e6,
                 "sim_latency_ms_p50": baseline.p50_ns / 1e6,
                 "sim_latency_ms_p95": baseline.p95_ns / 1e6,
                 "model_error": None},
            digest=digest(payload), failed=failed, report=report)


def make(name: str, seed: int, smoke: bool = False):
    """The named workload at full size, or at about 1/20 of it."""
    if name == "serve_contention":
        scale = 256 if smoke else 2048
        return ServeWorkload(
            name, lambda session: WorkloadGenerator.contention_heavy(
                session=session, seed=seed, scale=scale),
            seed=seed, scale=scale, n_queries=10 if smoke else 48,
            rate_qps=16000.0)
    if name == "serve_small_hot":
        return ServeWorkload(
            name, lambda session: WorkloadGenerator(
                session=session, seed=seed, scale=64,
                mix={"point": 0.6, "scan": 0.4}),
            seed=seed, scale=64, n_queries=150 if smoke else 3000,
            # half the simulated service rate: at the balanced rate
            # (200k q/s) a rep's wall time flips between 1.9 s and
            # 3.0 s with how the compile threads race the dispatcher
            rate_qps=100000.0)
    if name == "session_mixed":
        return SessionWorkload(
            seed, scale=256 if smoke else 2048,
            n_inmem=10 if smoke else 80,
            spill_scale=128 if smoke else 1024,
            n_spill=4 if smoke else 16)
    if name == "plan_whatif":
        return WhatIfWorkload(
            seed, scale=256 if smoke else 2048,
            n_queries=16 if smoke else 64,
            mem_ns=(100, 400) if smoke else (100, 200, 400, 800),
            cores=(2,) if smoke else (2, 4))
    raise ValueError(f"unknown workload {name!r}")
