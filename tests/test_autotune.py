"""The online self-calibration loop (``repro.calibrator.autotune``).

Three layers, mirroring the module's structure:

* the **scorer and search** — hypothesis properties on the linear
  reweighting identity: the coordinate descent never returns a profile
  that scores worse than the incumbent, is deterministic given
  ``(samples, grid)``, and its sidecar manifest round-trips through
  the schema validator byte-identically,
* the **Recalibrator** — sample bookkeeping, drift gating, publication
  through :meth:`Session.set_hierarchy` with explicit plan-cache
  retirement, and the on-disk profile + manifest sidecar,
* the **served loop** — a :class:`~repro.server.QueryServer` with
  recalibration enabled drives drift → response end to end: one drift
  event, one recalibration, plans retired, and post-swap responses
  carrying the new profile fingerprint (provenance via
  ``ServerResponse.to_json()``), deterministically across runs.
"""

import asyncio
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.calibrator import (  # noqa: E402
    CalibrationSample,
    LatencyGrid,
    Recalibrator,
    build_manifest,
    manifest_dumps,
    mean_error,
    predicted_time_ns,
    replayed_time_ns,
    sample_error,
    search_latencies,
    write_manifest,
)
from repro.db.datagen import random_permutation  # noqa: E402
from repro.hardware import tiny_test_machine  # noqa: E402
from repro.hardware.serialization import (  # noqa: E402
    load_hierarchy,
    profile_fingerprint,
)
from repro.obs import (  # noqa: E402
    DriftEvent,
    Tracer,
    validate_manifest,
    validate_manifest_file,
)
from repro.server import QueryServer  # noqa: E402
from repro.session import Session  # noqa: E402

_TINY = tiny_test_machine()
_NAMES = tuple(lvl.name for lvl in _TINY.all_levels)


# ----------------------------------------------------------------------
# Strategies: synthetic latency-invariant samples over the tiny machine.
# ----------------------------------------------------------------------

_count_st = st.floats(min_value=0.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False)


@st.composite
def sample_st(draw, label="q"):
    counts = lambda: tuple(  # noqa: E731
        (name, draw(_count_st), draw(_count_st)) for name in _NAMES)
    return CalibrationSample(label=label, predicted=counts(),
                             measured=counts())


samples_st = st.lists(sample_st(), min_size=1, max_size=4)

grid_st = st.sampled_from([
    LatencyGrid(),
    LatencyGrid(multipliers=(0.5, 1.0, 2.0), max_passes=2),
    LatencyGrid(multipliers=(1.0,), max_passes=1),
])


# ----------------------------------------------------------------------
# the scorer
# ----------------------------------------------------------------------

class TestScorer:
    def test_linear_in_latencies(self):
        """Doubling every latency doubles both sides of the score —
        the identity that makes candidate scoring pure arithmetic."""
        sample = CalibrationSample(
            label="q",
            predicted=tuple((name, 10.0, 5.0) for name in _NAMES),
            measured=tuple((name, 8.0, 7.0) for name in _NAMES))
        doubled = _TINY.scaled_latencies(
            {name: (2.0, 2.0) for name in _NAMES})
        assert predicted_time_ns(doubled, sample) == \
            pytest.approx(2 * predicted_time_ns(_TINY, sample))
        assert replayed_time_ns(doubled, sample) == \
            pytest.approx(2 * replayed_time_ns(_TINY, sample))
        # ...so the *relative* error is scale-invariant
        assert sample_error(doubled, sample) == \
            pytest.approx(sample_error(_TINY, sample))

    def test_tlb_misses_pay_the_random_latency(self):
        """The one asymmetry: TLB misses are charged the random latency
        regardless of the seq/rand split (the simulator's accounting)."""
        tlb = _TINY.tlbs[0]
        split = CalibrationSample(
            label="q", predicted=(),
            measured=((tlb.name, 3.0, 1.0),))
        merged = CalibrationSample(
            label="q", predicted=(),
            measured=((tlb.name, 0.0, 4.0),))
        assert replayed_time_ns(_TINY, split) == \
            pytest.approx(replayed_time_ns(_TINY, merged)) == \
            pytest.approx(4 * tlb.rand_miss_latency_ns)

    def test_zero_measured_time_scores_zero(self):
        empty = CalibrationSample(label="q", predicted=(), measured=())
        assert sample_error(_TINY, empty) == 0.0

    def test_mean_error_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            mean_error(_TINY, [])

    def test_unknown_levels_contribute_nothing(self):
        ghost = CalibrationSample(
            label="q", predicted=(("L9", 10.0, 10.0),),
            measured=(("L9", 10.0, 10.0),))
        assert predicted_time_ns(_TINY, ghost) == 0.0
        assert replayed_time_ns(_TINY, ghost) == 0.0


class TestScaledLatencies:
    def test_identity_multipliers_keep_latencies(self):
        scaled = _TINY.scaled_latencies({"L1": (1.0, 1.0)})
        for before, after in zip(_TINY.all_levels, scaled.all_levels):
            assert after.seq_miss_latency_ns == before.seq_miss_latency_ns
            assert after.rand_miss_latency_ns == before.rand_miss_latency_ns
            assert after.capacity == before.capacity  # capacities fixed

    def test_unknown_level_rejected(self):
        with pytest.raises(KeyError, match="L9"):
            _TINY.scaled_latencies({"L9": (2.0, 2.0)})

    def test_non_positive_multiplier_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            _TINY.scaled_latencies({"L1": (0.0, 1.0)})

    def test_rand_below_seq_rejected(self):
        # tiny L1 is 2ns seq / 6ns rand: shrinking rand 4x breaks the
        # CacheLevel invariant — exactly what the search skips over
        with pytest.raises(ValueError):
            _TINY.scaled_latencies({"L1": (1.0, 0.25)})


# ----------------------------------------------------------------------
# the search: hypothesis properties (pinned "repro" profile, see
# conftest.py)
# ----------------------------------------------------------------------

class TestSearchProperties:
    @given(samples=samples_st, grid=grid_st)
    def test_never_worse_than_incumbent(self, samples, grid):
        """Property (a): descent starts from the incumbent and moves
        only on strict improvement, so the outcome never scores worse —
        and a non-improved outcome returns the incumbent untouched."""
        outcome = search_latencies(_TINY, samples, grid)
        assert outcome.error_after <= outcome.error_before
        # the reported score is the published hierarchy's actual score
        assert mean_error(outcome.hierarchy, samples) == \
            pytest.approx(outcome.error_after)
        if outcome.improved:
            assert outcome.error_after < outcome.error_before
        else:
            assert outcome.hierarchy is _TINY  # incumbent, not a copy

    @given(samples=samples_st, grid=grid_st)
    def test_deterministic_given_samples_and_grid(self, samples, grid):
        """Property (b): same (samples, grid) in, same profile out —
        multipliers, scores, evaluation counts, and fingerprint."""
        first = search_latencies(_TINY, samples, grid)
        second = search_latencies(_TINY, samples, grid)
        assert first.multipliers == second.multipliers
        assert first.error_after == second.error_after
        assert (first.evaluations, first.passes) == \
            (second.evaluations, second.passes)
        assert profile_fingerprint(first.hierarchy) == \
            profile_fingerprint(second.hierarchy)

    @given(samples=samples_st, grid=grid_st)
    def test_manifest_round_trips_byte_identically(self, samples, grid):
        """Property (c): the sidecar's canonical byte form survives a
        loads/dumps cycle unchanged and passes the schema validator."""
        outcome = search_latencies(_TINY, samples, grid)
        manifest = build_manifest(_TINY, outcome.hierarchy, grid,
                                  outcome, samples=samples)
        text = manifest_dumps(manifest)
        decoded = json.loads(text)
        assert manifest_dumps(decoded) == text
        assert validate_manifest(decoded) == []

    def test_singleton_grid_cannot_move(self):
        sample = CalibrationSample(
            label="q",
            predicted=(("L1", 100.0, 0.0),),
            measured=(("L1", 50.0, 0.0),))
        outcome = search_latencies(_TINY, [sample],
                                   LatencyGrid(multipliers=(1.0,)))
        assert not outcome.improved and outcome.evaluations == 0

    def test_invalid_candidates_are_skipped_not_fatal(self):
        """Multipliers that would push a level's random latency below
        its sequential one (tiny L1: 6ns rand vs 2ns seq, so any rand
        factor < 1/3 with seq at 1.0) are skipped, and the search still
        lands on a valid improved profile."""
        sample = CalibrationSample(
            label="q",
            predicted=(("L1", 0.0, 100.0),),   # 600ns of L1 rand misses
            measured=(("L2", 10.0, 0.0),))     # 200ns of L2 seq misses
        # the ideal L1 rand factor is ~1/3; the grid's 0.25 is invalid
        # (rand would drop below seq) and must be stepped over, not die
        outcome = search_latencies(_TINY, [sample])
        assert outcome.improved
        multipliers = dict((name, (seq, rand))
                           for name, seq, rand in outcome.multipliers)
        assert multipliers["L1"][1] > 0.25
        for level in outcome.hierarchy.all_levels:  # invariant held
            assert level.rand_miss_latency_ns >= level.seq_miss_latency_ns


class TestLatencyGrid:
    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError, match="at least one"):
            LatencyGrid(multipliers=())
        with pytest.raises(ValueError, match="positive"):
            LatencyGrid(multipliers=(1.0, -2.0))

    def test_requires_the_incumbent_anchor(self):
        with pytest.raises(ValueError, match="must contain 1.0"):
            LatencyGrid(multipliers=(0.5, 2.0))

    def test_requires_positive_passes(self):
        with pytest.raises(ValueError, match="max_passes"):
            LatencyGrid(max_passes=0)

    def test_to_json_shape(self):
        grid = LatencyGrid(multipliers=(0.5, 1.0), max_passes=3)
        assert grid.to_json() == {"multipliers": [0.5, 1.0],
                                  "max_passes": 3}


# ----------------------------------------------------------------------
# the manifest validator's rejections
# ----------------------------------------------------------------------

def _valid_manifest():
    sample = CalibrationSample(
        label="q",
        predicted=(("L1", 100.0, 10.0),),
        measured=(("L1", 60.0, 10.0),))
    outcome = search_latencies(_TINY, [sample])
    return build_manifest(_TINY, outcome.hierarchy, LatencyGrid(),
                          outcome, samples=[sample])


class TestManifestValidator:
    def test_accepts_a_real_manifest(self):
        assert validate_manifest(_valid_manifest()) == []

    @pytest.mark.parametrize("mutate, needle", [
        (lambda m: m.update(kind="bench"), "kind"),
        (lambda m: m.update(schema_version=2), "schema_version"),
        (lambda m: m.update(published="yes"), "published"),
        (lambda m: m["profile"].pop("after"), "profile.after"),
        (lambda m: m["fingerprint"].update(after=""), "fingerprint"),
        (lambda m: m["search"].update(grid=[]), "search.grid"),
        (lambda m: m["search"].update(evaluations=True),
         "search.evaluations"),
        (lambda m: m["error"].update(before=-1.0), "error.before"),
        (lambda m: m["error"]["samples"].append({"label": "x"}),
         "error.samples"),
        (lambda m: m["events"].append({"kind": "span"}), "events"),
    ])
    def test_rejects_mutations(self, mutate, needle):
        manifest = json.loads(manifest_dumps(_valid_manifest()))
        mutate(manifest)
        problems = validate_manifest(manifest)
        assert problems and any(needle in p for p in problems), problems

    def test_published_swap_must_change_the_fingerprint(self):
        manifest = json.loads(manifest_dumps(_valid_manifest()))
        assert manifest["published"]
        manifest["fingerprint"]["after"] = \
            manifest["fingerprint"]["before"]
        assert any("fingerprint" in p
                   for p in validate_manifest(manifest))

    def test_published_run_must_not_worsen_the_error(self):
        manifest = json.loads(manifest_dumps(_valid_manifest()))
        manifest["error"]["after"] = manifest["error"]["before"] + 1.0
        assert any("error" in p for p in validate_manifest(manifest))

    def test_validate_manifest_file(self, tmp_path):
        path = write_manifest(_valid_manifest(), tmp_path / "p.json")
        assert path.name == "p.json.manifest.json"
        assert validate_manifest_file(path) == []
        assert validate_manifest_file(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# the Recalibrator over a live session
# ----------------------------------------------------------------------

def _gap_session(n=1024):
    from repro.hardware import origin2000_scaled
    session = Session(origin2000_scaled())
    session.create_table("orders", random_permutation(n, seed=1))
    session.create_table("customers", random_permutation(n, seed=2))
    return session


def _measure_join(session):
    return session.execute_measured("join(orders, customers)",
                                    restore=True)


class TestRecalibrator:
    def test_knob_validation(self):
        session = Session(_TINY)
        with pytest.raises(ValueError, match="min_samples"):
            Recalibrator(session, min_samples=0)
        with pytest.raises(ValueError, match="max_samples"):
            Recalibrator(session, min_samples=4, max_samples=2)

    def test_sample_bookkeeping_newest_wins(self):
        session = _gap_session(256)
        recalibrator = Recalibrator(session, max_samples=2)
        first = _measure_join(session)
        recalibrator.observe(first, label="a")
        recalibrator.observe(first, label="a")  # same key: replaced
        assert len(recalibrator.samples) == 1
        recalibrator.observe(first, label="b")
        recalibrator.observe(first, label="c")  # bound: "a" evicted
        assert [s.label for s in recalibrator.samples] == ["b", "c"]

    def test_not_due_without_drift(self):
        session = _gap_session(256)  # small n: inside the band
        recalibrator = Recalibrator(session)
        for _ in range(3):
            recalibrator.observe(_measure_join(session))
        assert recalibrator.pending_events == ()
        assert not recalibrator.due()
        assert recalibrator.recalibrate() is None
        assert recalibrator.history == []

    def test_force_requires_a_sample(self):
        recalibrator = Recalibrator(Session(_TINY))
        with pytest.raises(ValueError, match="no samples"):
            recalibrator.recalibrate(force=True)

    def test_drift_triggers_publication_and_retirement(self, tmp_path):
        session = _gap_session()
        session.prepare("join(orders, customers)")
        assert len(session.plan_cache) == 1
        retired = []
        session.plan_cache.attach_observer(
            lambda event, count: event == "retire"
            and retired.append(count))
        recalibrator = Recalibrator(session, manifest_dir=tmp_path)
        fingerprint_before = session.fingerprint
        for _ in range(3):
            recalibrator.observe(_measure_join(session))
        assert len(recalibrator.pending_events) == 1
        recalibration = recalibrator.recalibrate()
        assert recalibration.published
        assert recalibrator.history == [recalibration]
        assert recalibrator.pending_events == ()  # consumed
        # the publication swapped the session profile...
        assert session.fingerprint == recalibration.fingerprint_after
        assert session.fingerprint != fingerprint_before
        # ...retired the cached plan, observably...
        assert retired == [1] and recalibration.retired_plans == 1
        assert len(session.plan_cache) == 0
        # ...and left a loadable profile with a schema-valid sidecar
        assert validate_manifest_file(recalibration.manifest_path) == []
        reloaded = load_hierarchy(recalibration.profile_path)
        assert profile_fingerprint(reloaded) == \
            recalibration.fingerprint_after
        # the consumed drift event rode into the manifest
        assert len(recalibration.manifest["events"]) == 1
        assert recalibration.manifest["events"][0]["kind"] == "drift"

    def test_ingest_takes_external_events(self):
        session = _gap_session(256)
        recalibrator = Recalibrator(session)
        event = DriftEvent(at_ns=1.0, operator="join",
                           fingerprint=session.fingerprint, ewma=0.5,
                           sample_error=0.5, count=3, band=0.35)
        recalibrator.ingest(_measure_join(session), events=[event])
        assert recalibrator.due()
        recalibration = recalibrator.recalibrate()
        assert recalibration.events == (event,)

    def test_session_observer_feeds_the_loop(self):
        session = _gap_session(256)
        recalibrator = Recalibrator(session)
        session.attach_measurement_observer(recalibrator.observe)
        _measure_join(session)
        assert len(recalibrator.samples) == 1


# ----------------------------------------------------------------------
# drift → response through the served loop
# ----------------------------------------------------------------------

def _recalibrating_run(n=1024, queries=5, traced=True):
    """A one-tenant fifo-serial server over the known-gap join
    workload with online recalibration enabled (``traced=False``: the
    same stream with no tracer, hence no recalibration); returns
    everything the assertions need."""

    async def main():
        tracer = Tracer() if traced else None
        server = QueryServer(mode="fifo-serial", tracer=tracer,
                             recalibration=traced)
        tenant = server.add_tenant("acme")
        tenant.session.create_table("orders",
                                    random_permutation(n, seed=1))
        tenant.session.create_table("customers",
                                    random_permutation(n, seed=2))
        retired = []
        tenant.plan_cache.attach_observer(
            lambda event, count: event == "retire"
            and retired.append(count))
        async with server:
            responses = []
            for _ in range(queries):
                responses.append(await server.submit(
                    "acme", "join(orders, customers)"))
            await server.drain()
        return server, tracer, tenant, responses, retired

    return asyncio.run(main())


class TestServedRecalibration:
    def test_drift_to_response_end_to_end(self):
        server, tracer, tenant, responses, retired = _recalibrating_run()
        # exactly one excursion was detected, and answered exactly once
        drift = [e for e in tracer.drift.events]
        assert len(drift) == 1
        assert len(server.recalibrations) == 1
        recalibration = server.recalibrations[0]
        assert recalibration.published
        assert recalibration.events == tuple(drift)
        # the tenant's cache was explicitly retired by the swap
        assert retired and sum(retired) >= 1
        assert tenant.stats()["recalibrations"] == 1
        assert tracer.metrics.get("server_recalibrations_total") \
            .value(tenant="acme") == 1.0
        # responses carry compile-time profile provenance: the first
        # three priced on the old profile, the rest on the published one
        fingerprints = [r.fingerprint for r in responses]
        assert fingerprints == \
            [recalibration.fingerprint_before] * 3 + \
            [recalibration.fingerprint_after] * 2
        assert tenant.session.fingerprint == \
            recalibration.fingerprint_after
        for response in responses:
            assert response.ok
            assert response.to_json()["fingerprint"] == \
                response.fingerprint
        # the swap is visible on the trace timeline too
        instants = [s for s in tracer.spans if s.name == "recalibrate"]
        assert len(instants) == 1
        assert instants[0].attrs["fingerprint"] == \
            recalibration.fingerprint_after

    def test_recalibrating_server_is_deterministic(self):
        """Same workload, same drift, same published profile, same
        manifest bytes — the loop rides the simulated clock only."""
        first = _recalibrating_run()
        second = _recalibrating_run()
        assert [r.fingerprint for r in first[3]] == \
            [r.fingerprint for r in second[3]]
        assert manifest_dumps(first[0].recalibrations[0].manifest) == \
            manifest_dumps(second[0].recalibrations[0].manifest)

    def test_a_published_profile_does_not_change_the_measuring_machine(
            self):
        """Recalibration swaps the tenant's *model* profile; batches
        are still measured on the server's machine, traced (typed solo
        path) or not (record + replay)."""
        traced, _, _, traced_responses, _ = _recalibrating_run()
        plain, _, _, plain_responses, _ = _recalibrating_run(traced=False)
        assert len(traced.recalibrations) == 1
        assert traced.recalibrations[0].published
        assert [b.measured_memory_ns for b in traced.report().batches] \
            == [b.measured_memory_ns for b in plain.report().batches]
        assert [r.finish_ns for r in traced_responses] \
            == [r.finish_ns for r in plain_responses]

    def test_recalibration_requires_a_tracer(self):
        with pytest.raises(ValueError, match="tracer"):
            QueryServer(recalibration=True)
