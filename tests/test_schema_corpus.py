"""The verdict-preservation corpus of the artifact schemas.

One mutation table per shape (bench payload, Chrome trace, metrics
scrape, span/drift event, recalibration manifest, what-if report).
Every table starts from a valid payload produced by the *real* emitter
and applies one mutation per schema rule; each row asserts "rejected,
and some problem names the mutated field".  The tables were written
against the hand-rolled validators that preceded the declarative
checker (:func:`repro.obs.schema.check`) and cover every line of them,
so they pin the accept/reject verdicts across that rewrite — and across
the next one.  (The engine's own vocabulary is tested in
``test_schema_engine.py``.)
"""

import copy
import functools
import json

import pytest

from repro import Session
from repro.calibrator import (
    CalibrationSample,
    LatencyGrid,
    build_manifest,
    manifest_dumps,
    search_latencies,
    write_manifest,
)
from repro.db.datagen import random_permutation
from repro.hardware import origin2000_scaled, tiny_test_machine
from repro.obs import (
    DriftMonitor,
    MetricsRegistry,
    Tracer,
    validate_chrome_trace,
    validate_event,
    validate_events_file,
    validate_manifest,
    validate_manifest_file,
    validate_metrics_json,
    validate_trace_file,
    validate_whatif_report,
    validate_whatif_report_file,
)
from repro.validation import (
    payload_from_results,
    validate_bench_file,
    validate_bench_payload,
    validate_results_dir,
)
from repro.whatif import GeneratedWorkload, ProfileSpace, WhatIfSweep


# ----------------------------------------------------------------------
# valid payloads, from the real emitters
# ----------------------------------------------------------------------

def _drift_event():
    monitor = DriftMonitor(band=0.35, alpha=1.0, min_samples=1)
    return monitor.observe("join", "fp", 10.0, 100.0, at_ns=5.0)


def _tracer():
    tracer = Tracer()
    tracer.span("query", track="tenant:acme", category="query", qid=0,
                sim_start_ns=0.0, sim_end_ns=2000.0,
                wall_start_ns=100, wall_end_ns=900)
    tracer.instant("recalibrate", track="server", at_ns=2000.0)
    return tracer


@functools.cache
def _emitted(shape: str):
    if shape == "bench":
        session = Session(origin2000_scaled())
        session.create_table("orders", random_permutation(256, seed=1))
        measured = session.execute_measured("sort(orders)", restore=True)
        return payload_from_results(
            "unit", [(256, measured)], tolerance=0.5,
            known_gaps={256: "declared for the corpus"})
    if shape == "chrome":
        return _tracer().chrome_trace("both")
    if shape == "metrics":
        registry = MetricsRegistry()
        registry.counter("hits", "Hits.", ("tenant",)).inc(tenant="a")
        registry.gauge("depth").set(2)
        registry.histogram("lat", "Latency.", ("tenant",)) \
            .observe(5.0, tenant="a")
        return registry.to_json()
    if shape == "span":
        return _tracer().log[0]
    if shape == "drift":
        return _drift_event().to_json()
    if shape == "manifest":
        tiny = tiny_test_machine()
        sample = CalibrationSample(
            label="q", predicted=(("L1", 100.0, 10.0),),
            measured=(("L1", 60.0, 10.0),))
        outcome = search_latencies(tiny, [sample])
        return build_manifest(tiny, outcome.hierarchy, LatencyGrid(),
                              outcome, events=[_drift_event()],
                              samples=[sample])
    if shape == "whatif":
        space = ProfileSpace({"l1_kb": [-1.0, 2.0],
                              "mem_ns": [200.0, 800.0]})
        workload = GeneratedWorkload(seed=7, scale=128,
                                     mix="contention-heavy",
                                     n_queries=8, clients=4)
        return WhatIfSweep(space, workload).run(
            slo_p95_ns=1e12, spot_check="frontier").to_json()
    raise KeyError(shape)


def emitted(shape: str):
    """A fresh JSON-round-tripped copy of the shape's valid payload."""
    return json.loads(json.dumps(_emitted(shape)))


VALIDATORS = {
    "bench": validate_bench_payload,
    "chrome": validate_chrome_trace,
    "metrics": validate_metrics_json,
    "span": validate_event,
    "drift": validate_event,
    "manifest": validate_manifest,
    "whatif": validate_whatif_report,
}


# ----------------------------------------------------------------------
# mutation helpers
# ----------------------------------------------------------------------

def at(payload, *path):
    for step in path:
        payload = payload[step]
    return payload


def put(*path_and_value):
    """Mutation: set ``payload[path...] = value``."""
    *path, key, value = path_and_value

    def mutate(payload):
        at(payload, *path)[key] = value
        return payload
    return mutate


def drop(*path):
    """Mutation: delete ``payload[path...]``."""
    *path, key = path

    def mutate(payload):
        del at(payload, *path)[key]
        return payload
    return mutate


def replace_with(value):
    """Mutation: the whole payload becomes ``value``."""
    return lambda payload: value


def chrome_event(ph, name=None):
    """Index of the first emitted trace event of phase ``ph`` (and
    metadata name ``name``)."""
    events = _emitted("chrome")["traceEvents"]
    return next(i for i, e in enumerate(events)
                if e["ph"] == ph and name in (None, e["name"]))


def metrics_family(kind):
    families = _emitted("metrics")["families"]
    return next(i for i, f in enumerate(families) if f["type"] == kind)


def _chrome(ph, key, value, name=None):
    def mutate(payload):
        payload["traceEvents"][chrome_event(ph, name)][key] = value
        return payload
    return mutate


def _declarations_last(payload):
    events = payload["traceEvents"]
    events.sort(key=lambda e: e["ph"] == "M")
    return payload


def _series(kind, key, value):
    def mutate(payload):
        family = payload["families"][metrics_family(kind)]
        family["series"][0][key] = value
        return payload
    return mutate


def _same_fingerprint(manifest):
    assert manifest["published"]
    manifest["fingerprint"]["after"] = manifest["fingerprint"]["before"]
    return manifest


def _worse_error(manifest):
    manifest["error"]["after"] = manifest["error"]["before"] + 1.0
    return manifest


def _spot_checked(payload):
    """Index of an emitted candidate row carrying a spot check."""
    return next(i for i, row in enumerate(payload["candidates"])
                if row["spot_check"] is not None)


def _spot(*path_and_value):
    """Mutation inside the first candidate row carrying a spot check."""
    return lambda payload: put(
        "candidates", _spot_checked(payload), *path_and_value)(payload)


def _p95_below_p50(payload):
    predicted = payload["candidates"][0]["predicted"]
    predicted["p95_ns"] = predicted["p50_ns"] / 2
    return payload


def _duplicate_label(payload):
    payload["candidates"][1]["label"] = payload["candidates"][0]["label"]
    return payload


def _baseline_label_reused(payload):
    payload["candidates"][0]["label"] = payload["baseline"]["label"]
    return payload


# ----------------------------------------------------------------------
# the tables: shape -> [(row id, mutation, needle(s) one problem carries)]
# ----------------------------------------------------------------------

BENCH = [
    ("not-an-object", replace_with([]), "object"),
    ("kind", drop("kind"), "kind"),
    ("kind-other", put("kind", "metrics"), "kind"),
    ("bench-empty", put("bench", ""), "bench"),
    ("bench-not-a-string", put("bench", 7), "bench"),
    ("sizes-empty", put("sizes", []), "sizes"),
    ("sizes-not-a-list", put("sizes", 256), "sizes"),
    ("sizes-entry", put("sizes", [None]), "sizes"),
    ("series-empty", put("series", []), "series"),
    ("series-entry-not-an-object", put("series", 0, "point"), "series[0]"),
    ("series-size", drop("series", 0, "size"), ("series[0]", "size")),
    ("series-error-negative", put("series", 0, "error", -1.0),
     "series[0].error"),
    ("series-measured-not-a-number",
     put("series", 0, "measured_ns", "fast"), "series[0].measured_ns"),
    ("series-predicted-bool", put("series", 0, "predicted_ns", True),
     "series[0].predicted_ns"),
    ("series-per-size", put("sizes", [1, 2]), "entries for"),
    ("band-not-an-object", put("band", 0.5), "band"),
    ("band-tolerance-missing", put("band", {}), "band.tolerance"),
    ("band-tolerance-zero", put("band", "tolerance", 0), "band.tolerance"),
    ("band-max-error", put("band", "max_error", "big"), "band.max_error"),
    ("gaps-not-a-list", put("known_gaps", "all"), "known_gaps"),
    ("gap-not-an-object", put("known_gaps", 0, 256), "known_gaps[0]"),
    ("gap-size", drop("known_gaps", 0, "size"),
     ("known_gaps[0]", "size")),
    ("gap-error", put("known_gaps", 0, "error", -0.1),
     "known_gaps[0].error"),
    ("gap-reason", put("known_gaps", 0, "reason", ""),
     "known_gaps[0].reason"),
]

CHROME = [
    ("not-an-object", replace_with("trace"), "object"),
    ("events-empty", put("traceEvents", []), "traceEvents"),
    ("events-not-a-list", put("traceEvents", {}), "traceEvents"),
    ("event-not-an-object", put("traceEvents", 0, "M"), "traceEvents[0]"),
    ("phase", _chrome("X", "ph", "B"), ".ph"),
    ("pid", _chrome("X", "pid", "one"), ".pid"),
    ("metadata-name", _chrome("M", "name", "process_labels"),
     "'process_labels'"),
    ("metadata-args", _chrome("M", "args", None), ".args"),
    ("name", _chrome("X", "name", ""), ".name"),
    ("timestamp", _chrome("i", "ts", "noon"), ".ts"),
    ("duration-negative", _chrome("X", "dur", -1.0), ".dur"),
    ("duration-missing", lambda p: drop(
        "traceEvents", chrome_event("X"), "dur")(p), ".dur"),
    ("instant-scope", _chrome("i", "s", "x"), ".s must"),
    ("pid-undeclared", _chrome("X", "pid", 99), "no process_name"),
    ("tid-undeclared", _chrome("i", "tid", 99), "undeclared"),
    ("declared-after-use", _declarations_last, "undeclared"),
]

METRICS = [
    ("not-an-object", replace_with([]), "object"),
    ("kind", put("kind", "bench"), "kind"),
    ("families-not-a-list", put("families", {}), "families"),
    ("family-not-an-object", put("families", 0, "hits"), "families[0]"),
    ("family-empty", put("families", 0, {}), "families[0]"),
    ("family-name", put("families", 0, "name", ""), "families[0].name"),
    ("family-type", put("families", 0, "type", "summary"),
     "families[0].type"),
    ("series-not-a-list", put("families", 0, "series", None),
     "families[0].series"),
    ("series-entry-not-an-object", put("families", 0, "series", ["a"]),
     "families[0].series[0]"),
    ("labels-not-strings", _series("counter", "labels", {"tenant": 1}),
     "labels"),
    ("labels-not-a-map", _series("gauge", "labels", []), "labels"),
    ("value", _series("counter", "value", "no"), "value"),
    ("value-bool", _series("gauge", "value", True), "value"),
    ("histogram-count", _series("histogram", "count", -1), "count"),
    ("histogram-sum", _series("histogram", "sum", "much"), "sum"),
    ("histogram-bucket-count",
     _series("histogram", "buckets", [["1.0", "many"]]), "buckets"),
    ("histogram-bucket-arity",
     _series("histogram", "buckets", [["1.0"]]), "buckets"),
    ("histogram-buckets-not-a-list",
     _series("histogram", "buckets", None), "buckets"),
]

SPAN = [
    ("not-an-object", replace_with("span"), "object"),
    ("kind", put("kind", "reason"), "kind"),
    ("sid-negative", put("sid", -1), "span.sid"),
    ("sid-not-an-int", put("sid", 1.5), "span.sid"),
    ("name", put("name", ""), "span.name"),
    ("track", drop("track"), "span.track"),
    ("clock-not-a-number", put("sim_end_ns", "late"), "span.sim_end_ns"),
    ("wall-clock-not-a-number", put("wall_start_ns", []),
     "span.wall_start_ns"),
    ("no-clock", lambda p: put("sim_start_ns", None)(
        put("wall_start_ns", None)(p)), "clock"),
    ("ends-before-start", put("sim_end_ns", -1.0), "ends before start"),
    ("attrs", put("attrs", []), "span.attrs"),
]

DRIFT = [
    ("operator", put("operator", 7), "drift.operator"),
    ("fingerprint", drop("fingerprint"), "drift.fingerprint"),
    ("at", put("at_ns", "now"), "drift.at_ns"),
    ("ewma", put("ewma", None), "drift.ewma"),
    ("sample-error", put("sample_error", True), "drift.sample_error"),
    ("band", drop("band"), "drift.band"),
    ("count-zero", put("count", 0), "drift.count"),
    ("count-not-an-int", put("count", 1.5), "drift.count"),
]

MANIFEST = [
    ("not-an-object", replace_with(None), "object"),
    ("kind", put("kind", "bench"), "kind"),
    ("schema-version", put("schema_version", 2), "schema_version"),
    ("published", put("published", "yes"), "published"),
    ("profile-not-an-object", put("profile", "tiny"), "profile"),
    ("profile-side-missing", drop("profile", "after"), "profile.after"),
    ("profile-name", put("profile", "before", "name", ""),
     "profile.before.name"),
    ("profile-levels", put("profile", "before", "levels", []),
     "profile.before.levels"),
    ("fingerprint-not-an-object", put("fingerprint", "abc"),
     "fingerprint"),
    ("fingerprint-empty", put("fingerprint", "after", ""),
     "fingerprint.after"),
    ("published-same-fingerprint", _same_fingerprint,
     "must change the fingerprint"),
    ("search-not-an-object", put("search", []), "search"),
    ("grid-empty", put("search", "grid", []), "search.grid"),
    ("grid-not-positive", put("search", "grid", [1.0, 0.0]),
     "search.grid"),
    ("evaluations-bool", put("search", "evaluations", True),
     "search.evaluations"),
    ("passes-negative", put("search", "passes", -1), "search.passes"),
    ("multipliers-arity", put("search", "multipliers", {"L1": [1.0]}),
     "search.multipliers"),
    ("multipliers-not-a-map", put("search", "multipliers", []),
     "search.multipliers"),
    ("error-not-an-object", put("error", 0.1), "error"),
    ("error-band", put("error", "band", 0), "error.band"),
    ("error-before-negative", put("error", "before", -1.0),
     "error.before"),
    ("published-worse-error", _worse_error,
     "must not increase the error"),
    ("samples-not-a-list", put("error", "samples", "q"),
     "error.samples"),
    ("sample-not-an-object", put("error", "samples", 0, "q"),
     "error.samples[0]"),
    ("sample-label", put("error", "samples", 0, "label", ""),
     "error.samples[0].label"),
    ("sample-after-missing", drop("error", "samples", 0, "after"),
     "error.samples[0].after"),
    ("events-not-a-list", put("events", None), "events"),
    ("event-not-drift", put("events", 0, {"kind": "span"}), "events[0]"),
    ("event-not-an-object", put("events", 0, "drift"), "events[0]"),
    ("event-malformed", put("events", 0, "count", 0),
     ("events[0]", "count")),
]

_SPOT_KEYS = ("measured_makespan_ns", "measured_p50_ns",
              "measured_p95_ns", "measured_throughput_qps",
              "makespan_error", "p95_error", "mean_contention_error")

WHATIF = [
    ("not-an-object", replace_with([]), "object"),
    ("kind", put("kind", "whatnot"), "kind"),
    ("schema-version", drop("schema_version"), "schema_version"),
    ("space", put("space", ""), "space"),
    ("policy", put("policy", None), "policy"),
    ("workload-not-an-object", put("workload", "mix"), "workload"),
    ("workload-source", put("workload", "source", "replayed"),
     "workload.source"),
    ("workload-queries", put("workload", "queries", 0),
     "workload.queries"),
    ("workload-clients", put("workload", "clients", True),
     "workload.clients"),
    ("baseline-not-an-object", put("baseline", None), "baseline"),
    ("baseline-label", put("baseline", "label", ""), "baseline.label"),
    ("candidates-empty", put("candidates", []), "candidates"),
    ("candidate-not-an-object", put("candidates", 0, "row"),
     "candidates[0]"),
    ("params", put("candidates", 0, "params", []), "candidates[0].params"),
    ("fingerprint", put("candidates", 0, "fingerprint", ""),
     "candidates[0].fingerprint"),
    ("cost-proxy", put("candidates", 0, "cost_proxy", -1),
     "candidates[0].cost_proxy"),
    ("cores", put("candidates", 0, "cores", True), "candidates[0].cores"),
    ("memory-budget", put("candidates", 0, "memory_budget", 0),
     "candidates[0].memory_budget"),
    ("predicted-not-an-object", put("candidates", 0, "predicted", 1.0),
     "candidates[0].predicted"),
    ("predicted-makespan",
     put("candidates", 0, "predicted", "makespan_ns", -1.0),
     "candidates[0].predicted.makespan_ns"),
    ("p95-below-p50", _p95_below_p50, "p95 below p50"),
    ("batches", put("candidates", 0, "batches", -1),
     "candidates[0].batches"),
    ("co-run-batches", put("candidates", 0, "co_run_batches", 1.5),
     "candidates[0].co_run_batches"),
    ("admission-inflation",
     put("candidates", 0, "max_admission_inflation", -0.5),
     "candidates[0].max_admission_inflation"),
    ("spot-check-not-an-object", _spot("spot_check", "checked"),
     "spot_check"),
    *[(f"spot-check-{key}", _spot("spot_check", key, -1.0),
       f"spot_check.{key}") for key in _SPOT_KEYS],
    ("duplicate-label", _duplicate_label, "duplicate label"),
    ("baseline-label-reused", _baseline_label_reused, "duplicate label"),
    ("delta", drop("candidates", 0, "delta", "p95"),
     "candidates[0].delta"),
    ("delta-not-an-object", put("candidates", 0, "delta", None),
     "candidates[0].delta"),
    ("on-frontier", put("candidates", 0, "on_frontier", "yes"),
     "candidates[0].on_frontier"),
    ("skipped-not-a-list", put("skipped", None), "skipped"),
    ("skipped-reason", put("skipped", 0, "reason", ""), "skipped[0]"),
    ("skipped-params", drop("skipped", 0, "params"), "skipped[0]"),
    ("skipped-not-an-object", put("skipped", 0, "l1_kb"), "skipped[0]"),
    ("frontier-empty", put("frontier", []), "frontier"),
    ("frontier-unknown", put("frontier", ["nobody"]), "frontier[0]"),
    ("frontier-not-a-label", put("frontier", [7]), "frontier[0]"),
    ("recommendation-not-an-object", put("recommendation", "cheapest"),
     "recommendation"),
    ("question", put("recommendation", "question", {"p95_ns": 0}),
     "recommendation.question"),
    ("question-not-an-object", put("recommendation", "question", 5e6),
     "recommendation.question"),
    ("recommended-unknown", put("recommendation", "label", "nobody"),
     "recommendation.label"),
    ("recommended-cost", put("recommendation", "cost_proxy", 0),
     "recommendation.cost_proxy"),
    ("recommended-slack", drop("recommendation", "admission_slack"),
     "recommendation.admission_slack"),
    ("recommended-meeting",
     put("recommendation", "candidates_meeting", 0),
     "recommendation.candidates_meeting"),
    ("recommended-considered",
     put("recommendation", "candidates_considered", False),
     "recommendation.candidates_considered"),
]

TABLES = {"bench": BENCH, "chrome": CHROME, "metrics": METRICS,
          "span": SPAN, "drift": DRIFT, "manifest": MANIFEST,
          "whatif": WHATIF}

ROWS = [pytest.param(shape, mutate, needle, id=f"{shape}-{row}")
        for shape, table in TABLES.items()
        for row, mutate, needle in table]


@pytest.mark.parametrize("shape", TABLES)
def test_the_emitted_payload_is_accepted(shape):
    assert VALIDATORS[shape](emitted(shape)) == []


def test_the_emitted_payloads_exercise_the_optional_parts():
    """The corpus only pins a rule if the valid payload reaches it."""
    assert emitted("bench")["known_gaps"]
    phases = {e["ph"] for e in emitted("chrome")["traceEvents"]}
    assert phases == {"M", "X", "i"}
    assert {f["type"] for f in emitted("metrics")["families"]} \
        == {"counter", "gauge", "histogram"}
    assert emitted("manifest")["published"]
    assert emitted("manifest")["events"]
    report = emitted("whatif")
    assert report["skipped"] and report["recommendation"]
    assert len(report["candidates"]) >= 2
    assert any(row["spot_check"] for row in report["candidates"])


@pytest.mark.parametrize("shape, mutate, needle", ROWS)
def test_a_mutation_is_rejected_naming_the_field(shape, mutate, needle):
    needles = (needle,) if isinstance(needle, str) else needle
    problems = VALIDATORS[shape](mutate(emitted(shape)))
    assert any(all(n in problem for n in needles)
               for problem in problems), problems


def test_independent_corruptions_are_all_reported():
    payload = emitted("whatif")
    payload["kind"] = "whatnot"
    payload["candidates"][0]["cost_proxy"] = -1
    payload["frontier"] = ["nobody"]
    problems = validate_whatif_report(payload)
    for needle in ("kind", "candidates[0].cost_proxy", "frontier[0]"):
        assert any(needle in problem for problem in problems), problems


@pytest.mark.parametrize("shape, absent", [
    ("bench", ("band", "max_error")), ("bench", ("known_gaps",)),
    ("span", ("wall_start_ns",)), ("span", ("sim_end_ns",)),
    ("whatif", ("recommendation",)),
    ("whatif", ("baseline", "memory_budget")),
    ("whatif", ("baseline", "spot_check")),
])
def test_an_optional_field_may_be_absent_or_null(shape, absent):
    assert VALIDATORS[shape](put(*absent, None)(emitted(shape))) == []
    assert VALIDATORS[shape](drop(*absent)(emitted(shape))) == []


def test_unknown_fields_are_ignored():
    for shape, validate in VALIDATORS.items():
        payload = emitted(shape)
        payload["annotation"] = {"free": "form"}
        assert validate(payload) == []


# ----------------------------------------------------------------------
# the *_file entry points: read -> parse -> validate, or "unreadable"
# ----------------------------------------------------------------------

FILE_VALIDATORS = {
    "bench": validate_bench_file,
    "chrome": validate_trace_file,
    "manifest": validate_manifest_file,
    "whatif": validate_whatif_report_file,
}


@pytest.mark.parametrize("shape", FILE_VALIDATORS)
def test_file_validators(shape, tmp_path):
    validate_file = FILE_VALIDATORS[shape]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(emitted(shape)))
    assert validate_file(good) == []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(put("kind", "x")(emitted(shape)))
                   if shape != "chrome" else '{"traceEvents": []}')
    assert validate_file(bad)
    torn = tmp_path / "torn.json"
    torn.write_text('{"kind": ')
    for unreadable in (torn, tmp_path / "missing.json"):
        problems = validate_file(unreadable)
        assert len(problems) == 1 and problems[0].startswith("unreadable")


def test_manifest_sidecar_written_by_the_calibrator_validates(tmp_path):
    path = write_manifest(_emitted("manifest"), tmp_path / "p.json")
    assert path.name == "p.json.manifest.json"
    assert path.read_text() == manifest_dumps(_emitted("manifest"))
    assert validate_manifest_file(path) == []


def test_events_file(tmp_path):
    tracer = _tracer()
    tracer.observe_drift("join", "fp", 10.0, 100.0)
    path = tracer.write_events(tmp_path / "events.jsonl")
    assert validate_events_file(path) == []
    bad = copy.deepcopy(tracer.log[0])
    bad["sid"] = -1
    path.write_text("\n".join([json.dumps(tracer.log[0]), "",
                               "{not json", json.dumps(bad)]) + "\n")
    problems = validate_events_file(path)
    assert len(problems) == 3
    assert problems[0] == "line 2: empty"
    assert problems[1].startswith("line 3: not JSON")
    assert problems[2].startswith("line 4: ") and "sid" in problems[2]
    missing = validate_events_file(tmp_path / "missing.jsonl")
    assert len(missing) == 1 and missing[0].startswith("unreadable")


def test_results_dir(tmp_path):
    (tmp_path / "BENCH_good.json").write_text(
        json.dumps(emitted("bench")))
    (tmp_path / "BENCH_bad.json").write_text(
        json.dumps(put("bench", "")(emitted("bench"))))
    (tmp_path / "other.json").write_text("{}")
    reports = validate_results_dir(tmp_path)
    assert list(reports) == ["BENCH_bad.json", "BENCH_good.json"]
    assert reports["BENCH_good.json"] == []
    assert any("bench" in p for p in reports["BENCH_bad.json"])
