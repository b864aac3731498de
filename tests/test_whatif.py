"""Unit tests for the what-if capacity-planning layer
(:mod:`repro.whatif`): parametric profiles, space expansion, the
pricing sweep, the report/recommender, the schema, the CLI, and the
live-server hook."""

import asyncio
import json

import pytest

from repro.hardware import (
    disk_extended_scaled,
    origin2000,
    origin2000_scaled,
    parametric_profile,
    tiny_test_machine,
)
from repro.obs import validate_whatif_report, validate_whatif_report_file
from repro.whatif import (
    CONFIG_AXES,
    PROFILE_AXES,
    TINY_POOL_BASE,
    CapturedWorkload,
    GeneratedWorkload,
    ProfileSpace,
    WhatIfSweep,
    capacity_plan,
    cost_proxy,
    derive_admission_slack,
)
from test_trace_golden import check_golden


def small_workload(**overrides):
    kwargs = dict(seed=7, scale=128, mix="contention-heavy",
                  n_queries=8, clients=4)
    kwargs.update(overrides)
    return GeneratedWorkload(**kwargs)


# ----------------------------------------------------------------------
# parametric profiles (hardware/profiles.py)
# ----------------------------------------------------------------------

class TestParametricProfile:
    def test_defaults_reproduce_origin2000_scaled(self):
        assert parametric_profile().fingerprint() == \
            origin2000_scaled().fingerprint()

    def test_paper_scale_knobs_reproduce_origin2000(self):
        machine = parametric_profile(l1_kb=32, l2_kb=4096, tlb_entries=64,
                                     page_kb=16)
        assert machine.fingerprint() == origin2000().fingerprint()

    def test_tiny_pool_base_reproduces_the_tiny_machines(self):
        assert parametric_profile(**TINY_POOL_BASE).fingerprint() == \
            disk_extended_scaled().fingerprint()
        without_pool = {knob: value for knob, value in TINY_POOL_BASE.items()
                        if knob != "pool_pages"}
        assert parametric_profile(**without_pool).fingerprint() == \
            tiny_test_machine().fingerprint()

    def test_pool_level_appended(self):
        machine = parametric_profile(**TINY_POOL_BASE)
        pool = machine.levels[-1]
        assert pool.is_pool
        assert pool.capacity == 32 * 128

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="l1_kb"):
            parametric_profile(l1_kb=-2.0)

    def test_sub_line_capacity_rejected(self):
        with pytest.raises(ValueError, match="smaller than one"):
            parametric_profile(l1_kb=0.001)

    def test_l1_above_l2_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            parametric_profile(l1_kb=256.0, l2_kb=64.0)

    def test_rand_below_seq_rejected(self):
        with pytest.raises(ValueError, match="random miss latency"):
            parametric_profile(l1_seq_ns=24.0, l1_rand_ns=8.0)

    def test_pool_below_l2_rejected(self):
        # a 4 KB pool under a 64 KB L2 breaks the inclusive ordering
        with pytest.raises(ValueError):
            parametric_profile(pool_pages=32)

    def test_custom_name(self):
        assert parametric_profile(name="mine").name == "mine"

    def test_deterministic_fingerprint(self):
        a = parametric_profile(l2_kb=128.0, mem_ns=300.0)
        b = parametric_profile(l2_kb=128.0, mem_ns=300.0)
        assert a.fingerprint() == b.fingerprint()


# ----------------------------------------------------------------------
# spaces
# ----------------------------------------------------------------------

class TestProfileSpace:
    def test_axis_names_exported(self):
        assert "l2_kb" in PROFILE_AXES
        assert "name" not in PROFILE_AXES
        assert CONFIG_AXES == ("memory_budget", "cores")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            ProfileSpace({"l3_kb": [1, 2]})

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            ProfileSpace({})

    def test_empty_axis_values_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ProfileSpace({"l2_kb": []})

    def test_unknown_base_kwarg_rejected(self):
        with pytest.raises(ValueError, match="base"):
            ProfileSpace({"l2_kb": [32.0]}, base={"cores": [2]})

    def test_cross_product_order(self):
        space = ProfileSpace({"l2_kb": [32.0, 64.0],
                              "cores": [2, 4]})
        labels = [c.label for c in space.expand()]
        assert labels == ["l2_kb=32.0,cores=2", "l2_kb=32.0,cores=4",
                          "l2_kb=64.0,cores=2", "l2_kb=64.0,cores=4"]

    def test_invalid_corners_skipped_with_reason(self):
        space = ProfileSpace({"l1_kb": [-1.0, 2.0]})
        expansion = space.expand()
        assert len(expansion) == 1
        assert len(expansion.skipped) == 1
        assert "l1_kb" in expansion.skipped[0]["reason"]
        assert expansion.skipped[0]["params"] == {"l1_kb": -1.0}

    def test_all_rejected_raises(self):
        with pytest.raises(ValueError, match="every candidate"):
            ProfileSpace({"l1_kb": [-1.0, -2.0]}).expand()

    def test_baseline_uses_defaults(self):
        space = ProfileSpace({"l2_kb": [32.0]}, cores=3,
                             memory_budget=4096)
        baseline = space.expand().baseline
        assert baseline.label == "baseline"
        assert baseline.cores == 3
        assert baseline.memory_budget == 4096
        assert baseline.fingerprint == \
            origin2000_scaled().fingerprint()

    def test_config_axes_do_not_touch_hardware(self):
        space = ProfileSpace({"cores": [1, 2], "memory_budget": [1024]})
        for candidate in space.expand():
            assert candidate.fingerprint == \
                origin2000_scaled().fingerprint()

    def test_cost_proxy_monotone_in_capacity_and_cores(self):
        small = parametric_profile(l2_kb=32.0)
        big = parametric_profile(l2_kb=128.0)
        assert cost_proxy(big) > cost_proxy(small)
        assert cost_proxy(small, cores=4) > cost_proxy(small, cores=2)

    def test_expansion_deterministic(self):
        make = lambda: ProfileSpace({"mem_ns": [200.0, 800.0]}).expand()
        first, second = make(), make()
        assert [c.fingerprint for c in first] == \
            [c.fingerprint for c in second]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

class TestSweep:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            WhatIfSweep(ProfileSpace({"cores": [2]}), small_workload(),
                        mode="greedy").run()

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            GeneratedWorkload(mix="adversarial")

    def test_run_prices_every_candidate(self):
        space = ProfileSpace({"mem_ns": [200.0, 800.0]})
        report = WhatIfSweep(space, small_workload()).run()
        assert len(report.outcomes()) == 2
        for outcome in report.outcomes():
            assert outcome.makespan_ns > 0
            assert outcome.p50_ns <= outcome.p95_ns <= outcome.makespan_ns
            assert outcome.spot_check is None

    def test_slower_memory_prices_slower(self):
        space = ProfileSpace({"mem_ns": [200.0, 800.0]})
        report = WhatIfSweep(space, small_workload()).run()
        fast, slow = report.outcomes()
        assert fast.makespan_ns < slow.makespan_ns
        assert report.delta(slow)["makespan"] > 0

    def test_byte_deterministic(self):
        def payload():
            space = ProfileSpace({"mem_ns": [200.0, 800.0],
                                  "cores": [2, 4]})
            report = WhatIfSweep(space, small_workload()).run(
                slo_p95_ns=5e6)
            return json.dumps(report.to_json(), sort_keys=True)

        assert payload() == payload()

    def test_spot_check_frontier_attaches_checks(self):
        space = ProfileSpace({"mem_ns": [200.0, 800.0]})
        report = WhatIfSweep(space, small_workload()).run(
            spot_check="frontier")
        checked = [o for o in [report.baseline, *report.outcomes()]
                   if o.spot_check is not None]
        assert checked
        for outcome in checked:
            assert outcome.spot_check.measured_makespan_ns > 0

    def test_spot_check_all_includes_baseline(self):
        space = ProfileSpace({"mem_ns": [800.0]})
        report = WhatIfSweep(space, small_workload()).run(
            spot_check="all")
        assert report.baseline.spot_check is not None
        assert all(o.spot_check is not None for o in report.outcomes())

    def test_invalid_spot_check_mode_rejected(self):
        sweep = WhatIfSweep(ProfileSpace({"cores": [2]}),
                            small_workload())
        with pytest.raises(ValueError, match="spot_check"):
            sweep.run(spot_check="some")

    def test_fifo_serial_never_co_runs(self):
        space = ProfileSpace({"cores": [4]})
        report = WhatIfSweep(space, small_workload(),
                             mode="fifo-serial").run()
        assert all(o.co_run_batches == 0 for o in report.outcomes())
        assert all(o.max_admission_inflation == 0.0
                   for o in report.outcomes())


# ----------------------------------------------------------------------
# captured workloads
# ----------------------------------------------------------------------

class TestCapturedWorkload:
    def test_roundtrip_matches_generated(self):
        # capturing a generated workload's session + stream must price
        # identically to the generated workload itself
        generated = small_workload()
        space = ProfileSpace({"mem_ns": [200.0, 800.0]})
        baseline = space.expand().baseline
        session, queries = generated.realize(baseline)
        captured = CapturedWorkload.from_session(
            session, queries, clients=generated.clients)
        priced_g = WhatIfSweep(space, generated).run()
        priced_c = WhatIfSweep(space, captured).run()
        for g, c in zip([priced_g.baseline, *priced_g.outcomes()],
                        [priced_c.baseline, *priced_c.outcomes()]):
            assert g.makespan_ns == pytest.approx(c.makespan_ns)
            assert g.p95_ns == pytest.approx(c.p95_ns)

    def test_accepts_bare_pairs(self):
        generated = small_workload()
        baseline = ProfileSpace({"cores": [2]}).expand().baseline
        session, queries = generated.realize(baseline)
        captured = CapturedWorkload.from_session(
            session, [(q.kind, q.text) for q in queries], clients=2)
        assert len(captured.queries) == len(queries)
        assert {q.client for q in captured.queries} == {0, 1}

    def test_empty_stream_rejected(self):
        generated = small_workload()
        baseline = ProfileSpace({"cores": [2]}).expand().baseline
        session, _ = generated.realize(baseline)
        with pytest.raises(ValueError, match="at least one"):
            CapturedWorkload.from_session(session, [])


class TestGoldenSweep:
    """Every priced number of every candidate of one small sweep, byte
    for byte (``tests/golden/whatif_report.json``, generated on commit
    240e5f0 — before miss evaluation was memoized).  To prove an
    evaluator change moved nothing, copy this test and the golden into
    a clone of the parent and run it there too; regenerate with
    ``REPRO_UPDATE_GOLDEN=1`` only for a change that means to re-price.
    """

    def test_captured_sweep_report_is_pinned(self):
        from repro.service import WorkloadGenerator
        from repro.session import Session

        session = Session()
        generator = WorkloadGenerator.contention_heavy(
            session=session, seed=7, scale=256)
        workload = CapturedWorkload.from_session(
            session, generator.generate(16, clients=8), clients=8)
        space = ProfileSpace({"mem_ns": [100, 400], "cores": [2, 4]})
        report = WhatIfSweep(space, workload).run(slo_p95_ns=5e6)
        check_golden("whatif_report", json.dumps(
            report.to_json(), indent=1, sort_keys=True))


# ----------------------------------------------------------------------
# report: frontier, deltas, recommender, schema
# ----------------------------------------------------------------------

class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        space = ProfileSpace({"mem_ns": [200.0, 400.0, 800.0],
                              "cores": [2, 4]})
        return WhatIfSweep(space, small_workload()).run()

    def test_frontier_is_undominated(self, report):
        frontier = report.frontier_outcomes()
        assert frontier
        everyone = [report.baseline, *report.outcomes()]
        for chosen in frontier:
            dominators = [o for o in everyone
                          if o.cost_proxy <= chosen.cost_proxy
                          and o.makespan_ns < chosen.makespan_ns]
            assert not dominators

    def test_frontier_sorted_cheapest_first(self, report):
        costs = [o.cost_proxy for o in report.frontier_outcomes()]
        assert costs == sorted(costs)

    def test_baseline_delta_is_zero(self, report):
        delta = report.delta(report.baseline)
        assert delta == {"makespan": 0.0, "p95": 0.0,
                         "throughput": 0.0, "cost": 0.0}

    def test_recommender_picks_cheapest_meeting(self, report):
        # a target every config meets → the recommender must return
        # the overall cheapest
        loose = max(o.p95_ns
                    for o in [report.baseline, *report.outcomes()])
        rec = report.recommend(p95_ns=loose)
        cheapest = min([report.baseline, *report.outcomes()],
                       key=lambda o: o.cost_proxy)
        assert rec.label == cheapest.label
        assert rec.candidates_meeting == 7

    def test_recommender_excludes_missing(self, report):
        # a target only the fastest config meets
        tight = min(o.p95_ns
                    for o in [report.baseline, *report.outcomes()])
        rec = report.recommend(p95_ns=tight)
        assert rec is not None
        assert rec.predicted_p95_ns <= tight
        assert rec.candidates_meeting < rec.candidates_considered

    def test_recommender_none_when_impossible(self, report):
        assert report.recommend(p95_ns=1.0) is None
        assert report.to_json()["recommendation"] is None

    def test_recommender_rejects_bad_target(self, report):
        with pytest.raises(ValueError, match="positive"):
            report.recommend(p95_ns=0.0)

    def test_unknown_label_raises(self, report):
        with pytest.raises(KeyError):
            report.outcome("mem_ns=999.0")

    def test_render_mentions_frontier(self, report):
        text = report.render()
        assert "frontier:" in text
        assert "baseline" in text

    def test_schema_valid(self, report):
        report.recommend(
            p95_ns=max(o.p95_ns
                       for o in [report.baseline, *report.outcomes()]))
        assert validate_whatif_report(report.to_json()) == []

    def test_schema_file_roundtrip(self, report, tmp_path):
        path = tmp_path / "whatif.json"
        path.write_text(json.dumps(report.to_json(), sort_keys=True))
        assert validate_whatif_report_file(path) == []
        assert validate_whatif_report_file(tmp_path / "gone.json")


class TestDeriveSlack:
    def test_no_co_run_means_neutral(self):
        assert derive_admission_slack(0.0) == 1.0

    def test_headroom_applied(self):
        assert derive_admission_slack(1.0) == pytest.approx(1.05)

    def test_clamped(self):
        assert derive_admission_slack(0.01) == 0.25
        assert derive_admission_slack(100.0) == 4.0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_requires_an_axis(self, capsys):
        from repro.whatif.cli import main
        with pytest.raises(SystemExit):
            main(["--mix", "default"])

    def test_sweep_writes_valid_report(self, tmp_path, capsys):
        from repro.whatif.cli import main
        out = tmp_path / "report.json"
        code = main(["--mix", "default", "--scale", "128",
                     "--queries", "6", "--clients", "2",
                     "--mem-ns", "200", "800",
                     "--output", str(out)])
        assert code == 0
        assert validate_whatif_report_file(out) == []
        stdout = capsys.readouterr().out
        assert "what-if sweep" in stdout
        assert f"wrote {out}" in stdout

    def test_unmeetable_slo_exit_code(self, tmp_path, capsys):
        from repro.whatif.cli import main
        code = main(["--mix", "default", "--scale", "128",
                     "--queries", "6", "--clients", "2",
                     "--mem-ns", "400", "--slo-p95-ms", "0.000001"])
        assert code == 2


# ----------------------------------------------------------------------
# server hook + fingerprint plumbing
# ----------------------------------------------------------------------

class TestServerCapacityPlan:
    def _served_server(self):
        from repro.server import PoissonArrivals, QueryServer, TenantQuota
        from repro.service import WorkloadGenerator

        async def main():
            server = QueryServer(mode="interference-aware",
                                 max_workers=4, max_batch=4,
                                 max_queue=256)
            tenant = server.add_tenant("acme",
                                       TenantQuota(max_queued=128))
            gen = WorkloadGenerator.contention_heavy(
                session=tenant.session, seed=7, scale=128)
            queries = gen.generate(8, clients=4)
            stream = PoissonArrivals(8000.0, seed=3).stamp(queries)
            async with server:
                await server.serve(stream)
                await server.drain()
            return server

        return asyncio.run(main())

    def test_plan_from_recorded_mix(self):
        server = self._served_server()
        space = ProfileSpace({"mem_ns": [200.0, 800.0]})
        report = capacity_plan(server, space, clients=4)
        assert report.workload["source"] == "captured"
        assert report.workload["queries"] == 8
        assert len(report.outcomes()) == 2
        assert validate_whatif_report(report.to_json()) == []

    def test_plan_applies_recommended_slack(self):
        server = self._served_server()
        before = server.admission.slack
        space = ProfileSpace({"mem_ns": [200.0, 800.0]})
        report = capacity_plan(server, space, slo_p95_ns=1e9,
                               apply_slack=True)
        assert report.recommendation is not None
        assert server.admission.slack == \
            report.recommendation.admission_slack
        assert before == 1.0  # the ctor default we started from

    def test_plan_needs_served_queries(self):
        from repro.server import QueryServer, TenantQuota
        server = QueryServer()
        server.add_tenant("acme", TenantQuota())
        with pytest.raises(RuntimeError, match="nothing served"):
            capacity_plan(server, ProfileSpace({"cores": [2]}))

    def test_serving_report_carries_fingerprint(self):
        server = self._served_server()
        report = server.report()
        assert report.fingerprint == server.hierarchy.fingerprint()
        assert report.to_json()["fingerprint"] == report.fingerprint

    def test_workload_report_carries_fingerprint(self):
        from repro.service import ServiceExecutor, WorkloadGenerator
        from repro.session import Session

        session = Session()
        gen = WorkloadGenerator.contention_heavy(session=session,
                                                 seed=7, scale=128)
        queries = gen.generate(4, clients=2)
        report = ServiceExecutor(session, mode="fifo-serial").run(queries)
        assert report.fingerprint == session.fingerprint
        assert report.to_json()["fingerprint"] == session.fingerprint

    def test_whatif_fingerprints_join_serving_reports(self):
        # the join the satellite exists for: a what-if row about the
        # server's own machine carries the serving report's fingerprint
        server = self._served_server()
        space = ProfileSpace({"mem_ns": [200.0, 800.0]})
        plan = capacity_plan(server, space, clients=4)
        assert plan.baseline.fingerprint == server.report().fingerprint
