"""Extension: the profile-keyed plan cache and prepared statements.

The optimizer makes plan choice deterministic per (profile, logical
tree), which is what makes compiled plans cacheable.  This bench
compiles a three-relation aggregate query through a
:class:`repro.session.Session` and measures

* the **cold compile** (parse + enumeration + whole-plan costing of
  every candidate) against the **cached re-compile** (parse + key
  derivation + cache hit) — the hit must skip enumeration entirely and
  be at least 5x cheaper, and
* that a **profile switch** retires the cached plan (the first compile
  on the new profile misses again).
"""

import time

import pytest

from repro.db import random_permutation
from repro.hardware import origin2000_scaled, tiny_test_machine
from repro.session import Session

N = 4096
GROUPS = N // 2

QUERY = ("aggregate(join(join(filter(orders, even, sel=0.5), customers), "
         f"nations), groups={GROUPS})")


def _session():
    s = Session(origin2000_scaled())
    s.create_table("orders", random_permutation(N, seed=1))
    s.create_table("customers", random_permutation(N, seed=2))
    s.create_table("nations", list(range(N // 8)))
    s.predicate("even", lambda v: v % 2 == 0)
    return s


def _time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_plan_cache_hit_skips_enumeration(benchmark, save_result):
    s = _session()

    start = time.perf_counter()
    first = s.prepare(QUERY)
    cold_s = time.perf_counter() - start
    assert s.plan_cache.stats() == {"entries": 1, "hits": 0, "misses": 1}

    # cached re-compiles: same parse, but enumeration is skipped
    warm = benchmark.pedantic(lambda: s.prepare(QUERY), rounds=5,
                              iterations=1)
    assert warm.planned is first.planned
    stats = s.plan_cache.stats()
    assert stats["misses"] == 1 and stats["hits"] >= 5

    warm_s = _time(lambda: s.prepare(QUERY))

    lines = [f"== Extension: profile-keyed plan cache (n = {N}, "
             f"{len(first.planned)} candidates) ==",
             f"  chosen: {first.planned.best.signature}",
             f"  cold compile (parse + enumerate + cost) "
             f"{cold_s * 1e3:>10.2f} ms",
             f"  cached compile (parse + cache hit)      "
             f"{warm_s * 1e3:>10.2f} ms",
             f"  speedup                                 "
             f"{cold_s / warm_s:>10.1f} x",
             f"  cache stats: {s.plan_cache.stats()}"]
    text = "\n".join(lines)
    save_result("ext_plan_cache", text)

    # the acceptance bar: a hit is measurably cheaper than a compile
    assert warm_s < cold_s / 5


def test_prepared_reexecution_reuses_plan(save_result):
    s = _session()
    stmt = s.prepare("aggregate(join(orders, customers), groups=%d)" % N)
    cold = stmt.execute_measured()
    assert len(cold.column.values) == N
    cold_snap = cold.counters
    planned_before = stmt.planned
    warm_snap = stmt.execute_measured(cold=False).counters
    # re-execution reuses the compiled plan (no second compilation)
    assert stmt.planned is planned_before
    assert s.plan_cache.stats()["misses"] == 1
    save_result(
        "ext_plan_cache_reexec",
        "== Prepared re-execution (no recompilation) ==\n"
        f"  cold run  {cold_snap.elapsed_ns / 1e3:>10.1f} us\n"
        f"  warm run  {warm_snap.elapsed_ns / 1e3:>10.1f} us")


def test_profile_switch_retires_cached_plans():
    s = _session()
    s.prepare(QUERY)
    s.set_hierarchy(tiny_test_machine())
    s.prepare(QUERY)
    stats = s.plan_cache.stats()
    assert stats["misses"] == 2 and stats["entries"] == 2
    # returning to the original profile hits the surviving entry
    s.set_hierarchy(origin2000_scaled())
    s.prepare(QUERY)
    assert s.plan_cache.stats()["hits"] == 1
