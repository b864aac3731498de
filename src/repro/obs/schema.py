"""One schema checker; every artifact shape is data.

The toolchain carries no ``jsonschema``, so the repo checks its own
JSON artifacts — in the paper's manner: a shape is *described* (as an
operator is by its access pattern) and one generic engine derives every
verdict.  :func:`check` walks a spec next to a payload and returns the
human-readable problems, each naming the offending field by path
(``candidates[0].cores``); empty when the payload conforms.  A spec is
plain data, rejected by :func:`spec` where it is defined if ill-formed:

``"number"``, ``"int"``, each also with ``>=0`` / ``>0`` / ``>=1``
    numbers with bounds (a ``bool`` is never a number or an int),
``"str"``, ``"str+"``, ``"number|str"``, ``"bool"``, ``"any"``
    a string, a non-empty one, a number or a label, a boolean, and
    anything at all (the key only has to be present),
``{"key": spec, "key?": spec}``
    an object: a plain key is required, a ``?`` key may be absent or
    null, keys the spec does not name are ignored,
``("object", {...}, rule, ...)``
    an object with cross-field hooks ``rule(data, where)`` yielding
    problems — the few checks that relate one field to another,
``("one_of", value, ...)``
    a constant or an enumeration,
``("list", spec)``, ``("list+", spec)``, ``("tuple", spec, ...)``
    a list, a non-empty list, a fixed-length list,
``("map", spec)``
    an object with arbitrary string keys,
``("union", {field: {tag: object spec}})``
    an object whose shape depends on the value of one field.

The bench payload is stated in :mod:`repro.validation.bench_schema`,
every other artifact below.
"""

from __future__ import annotations

import json
import pathlib

__all__ = [
    "validate_chrome_trace",
    "validate_trace_file",
    "validate_metrics_json",
    "validate_event",
    "validate_events_file",
    "validate_manifest",
    "validate_manifest_file",
    "validate_whatif_report",
    "validate_whatif_report_file",
]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return is_number(value) and isinstance(value, int)


#: Scalar token -> (accepts, how a problem words what it wanted).
_SCALARS = {
    "any": (lambda v: True, "anything"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str+": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "number": (is_number, "a number"),
    "number>=0": (lambda v: is_number(v) and v >= 0, "a non-negative number"),
    "number>0": (lambda v: is_number(v) and v > 0, "a positive number"),
    "number|str": (lambda v: is_number(v) or isinstance(v, str),
                   "a number or a label"),
    "int": (_is_int, "an int"),
    "int>=0": (lambda v: _is_int(v) and v >= 0, "a non-negative int"),
    "int>=1": (lambda v: _is_int(v) and v >= 1, "a positive int"),
}

#: How a problem words the list it wanted, per list kind.
_LISTS = {"list": "a list", "list+": "a non-empty list",
          "tuple": "a list of {} entries"}
_KINDS = {*_LISTS, "object", "one_of", "map", "union"}


def spec(node):
    """``node`` itself, once every token in it is known — a misspelt
    spec fails where it is defined, not on the first payload."""
    if isinstance(node, str) and node in _SCALARS:
        parts = ()
    elif isinstance(node, dict):
        parts = node.values()
    elif isinstance(node, tuple) and node and node[0] in _KINDS:
        # one_of carries values, not specs; an object's rules are code
        parts = () if node[0] == "one_of" else [
            part for part in node[1:] if not callable(part)]
    else:
        raise ValueError(f"unknown spec token {node!r}")
    for part in parts:
        spec(part)
    return node


def check(spec, data, where: str = "") -> list[str]:
    """All violations of ``spec`` by ``data`` (empty == conforms);
    ``where`` is the path prefix problems are reported under."""
    if isinstance(spec, str):
        accepts, wanted = _SCALARS[spec]
        return [] if accepts(data) else [f"{where} must be {wanted}"]
    kind, *args = ("object", spec) if isinstance(spec, dict) else spec
    if kind == "one_of":
        wanted = " or ".join(map(repr, args))
        return [] if data in args else [
            f"{where} must be {wanted}, got {data!r}"]
    if kind in _LISTS:
        if not isinstance(data, list) or (kind == "list+" and not data) \
                or (kind == "tuple" and len(data) != len(args)):
            return [f"{where} must be {_LISTS[kind].format(len(args))}"]
        items = args if kind == "tuple" else args * len(data)
        return [problem for index, pair in enumerate(zip(items, data))
                for problem in check(*pair, f"{where}[{index}]")]
    if not isinstance(data, dict):
        return [f"{where or 'payload'} must be an object"]
    prefix = f"{where}." if where else ""
    if kind == "map":
        return [problem for key, entry in data.items()
                for problem in check("str", key, f"{where} key {key!r}")
                + check(args[0], entry, f"{prefix}{key}")]
    if kind == "union":
        (field, variants), = args[0].items()
        tag = data.get(field)
        if not isinstance(tag, str) or tag not in variants:
            return check(("one_of", *variants), tag, prefix + field)
        # a top-level union reports under its tag ("span.sid must be ...")
        return check(variants[tag], data, where or tag)
    fields, *rules = args
    problems = []
    for key, field in fields.items():
        name = key.removesuffix("?")
        if data.get(name) is None and name != key:
            continue  # an optional key, absent or null
        if name in data:
            problems += check(field, data[name], prefix + name)
        else:
            problems.append(f"{prefix}{name} is missing")
    for rule in rules:
        problems += rule(data, where)
    return problems


def check_file(path, validate, parse=json.loads) -> list[str]:
    """Read ``path``, ``parse`` its text and ``validate`` the result —
    or report the file ``unreadable``."""
    try:
        data = parse(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    return validate(data)


def _entries(data, key):
    """``(path, entry)`` of each entry of the list under ``key`` — for
    rule hooks, which also see payloads the spec has rejected."""
    entries = data.get(key)
    return [(f"{key}[{index}]", entry) for index, entry in enumerate(
        entries if isinstance(entries, list) else ())]


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------

_TIMED_EVENT = {"pid": "number", "name": "str+", "ts": "number"}
_TRACE_EVENT = ("union", {"ph": {
    "M": {"pid": "number", "args": {}, "name": (
        "one_of", "process_name", "thread_name", "thread_sort_index")},
    "X": {**_TIMED_EVENT, "dur": "number>=0"},
    "i": {**_TIMED_EVENT, "s": ("one_of", "t", "p", "g")},
}})


def _tracks_are_declared(trace, where):
    """A complete or instant event may only use a pid that a metadata
    event named and a (pid, tid) that thread metadata declared,
    *earlier* in the list."""
    processes, threads = [], []
    for path, event in _entries(trace, "traceEvents"):
        if check(_TRACE_EVENT, event):
            continue  # malformed, and reported as such by the spec
        pid, tid = event["pid"], event.get("tid")
        if event["ph"] == "M":
            processes.append(pid)
            if event["name"] != "process_name":
                threads.append((pid, tid))
            continue
        if pid not in processes:
            yield f"{path}: pid {pid} has no process_name"
        if (pid, tid) not in threads:
            yield f"{path}: tid {tid!r} undeclared for pid {pid}"


CHROME_TRACE = spec(("object", {"traceEvents": ("list+", _TRACE_EVENT)},
                     _tracks_are_declared))


def validate_chrome_trace(data) -> list[str]:
    """All schema violations of one Chrome trace payload."""
    return check(CHROME_TRACE, data)


def validate_trace_file(path) -> list[str]:
    return check_file(path, validate_chrome_trace)


# ----------------------------------------------------------------------
# metrics scrape
# ----------------------------------------------------------------------

def _family(**series):
    return {"name": "str+",
            "series": ("list", {"labels": ("map", "str"), **series})}


_VALUE_FAMILY = _family(value="number")

METRICS = spec({
    "kind": ("one_of", "metrics"),
    "families": ("list", ("union", {"type": {
        "counter": _VALUE_FAMILY,
        "gauge": _VALUE_FAMILY,
        "histogram": _family(count="int>=0", sum="number",
                             buckets=("list", ("tuple", "str", "int"))),
    }})),
})


def validate_metrics_json(data) -> list[str]:
    """All schema violations of one metrics scrape
    (:meth:`~repro.obs.MetricsRegistry.to_json`)."""
    return check(METRICS, data)


# ----------------------------------------------------------------------
# event log
# ----------------------------------------------------------------------

def _span_has_a_clock(span, where):
    start, end = span.get("sim_start_ns"), span.get("sim_end_ns")
    if start is None and span.get("wall_start_ns") is None:
        yield f"{where} must carry at least one clock"
    if is_number(start) and is_number(end) and end < start:
        yield f"{where} simulated interval ends before start"


_DRIFT_EVENT = {
    "operator": "str", "fingerprint": "str", "count": "int>=1",
    "at_ns": "number", "ewma": "number", "sample_error": "number",
    "band": "number",
}

EVENT = spec(("union", {"kind": {
    "span": ("object", {
        "sid": "int>=0", "name": "str+", "track": "str+", "attrs": {},
        "sim_start_ns?": "number", "sim_end_ns?": "number",
        "wall_start_ns?": "number", "wall_end_ns?": "number",
    }, _span_has_a_clock),
    "drift": _DRIFT_EVENT,
}}))


def validate_event(data) -> list[str]:
    """All schema violations of one JSONL event-log entry (a span or a
    drift event)."""
    return check(EVENT, data)


def _validate_event_lines(lines) -> list[str]:
    problems: list[str] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            problems.append(f"line {number}: empty")
            continue
        try:
            data = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {number}: not JSON ({exc})")
            continue
        problems.extend(f"line {number}: {problem}"
                        for problem in validate_event(data))
    return problems


def validate_events_file(path) -> list[str]:
    """Validate every line of a JSONL event log."""
    return check_file(path, _validate_event_lines, parse=str.splitlines)


# ----------------------------------------------------------------------
# recalibration sidecar manifest
# ----------------------------------------------------------------------

_PROFILE = {"name": "str+", "levels": ("list+", "any")}
_FINGERPRINTS = {"before": "str+", "after": "str+"}
_ERRORS = {"before": "number>=0", "after": "number>=0"}


def _published_is_an_improvement(manifest, where):
    """A published recalibration swapped the profile for a better one."""
    if manifest.get("published") is not True:
        return
    fingerprint, error = manifest.get("fingerprint"), manifest.get("error")
    if not check(_FINGERPRINTS, fingerprint) \
            and fingerprint["before"] == fingerprint["after"]:
        yield "published manifest must change the fingerprint"
    if not check(_ERRORS, error) and error["after"] > error["before"]:
        yield "published manifest must not increase the error"


MANIFEST = spec(("object", {
    "kind": ("one_of", "recalibration_manifest"),
    "schema_version": ("one_of", 1),
    "published": "bool",
    "profile": {"before": _PROFILE, "after": _PROFILE},
    "fingerprint": _FINGERPRINTS,
    "search": {
        "grid": ("list+", "number>0"),
        "max_passes": "int>=0", "passes": "int>=0", "evaluations": "int>=0",
        # level name -> [sequential, random] latency multiplier
        "multipliers": ("map", ("tuple", "number>0", "number>0")),
    },
    "error": {"band": "number>0", **_ERRORS,
              "samples": ("list", {"label": "str+", **_ERRORS})},
    "events": ("list", ("union", {"kind": {"drift": _DRIFT_EVENT}})),
}, _published_is_an_improvement))


def validate_manifest(data) -> list[str]:
    """All schema violations of one recalibration sidecar manifest
    (:func:`repro.calibrator.build_manifest`)."""
    return check(MANIFEST, data)


def validate_manifest_file(path) -> list[str]:
    return check_file(path, validate_manifest)


# ----------------------------------------------------------------------
# what-if capacity-planning report
# ----------------------------------------------------------------------

def _p95_covers_p50(predicted, where):
    p50, p95 = predicted.get("p50_ns"), predicted.get("p95_ns")
    if is_number(p50) and is_number(p95) and p95 < p50:
        yield f"{where} p95 below p50"


def _labels_resolve(report, where):
    """Priced rows carry distinct labels; the frontier and the
    recommendation name priced rows."""
    labels = []
    for path, row in [("baseline", report.get("baseline")),
                      *_entries(report, "candidates")]:
        if not check({"label": "str"}, row):
            if row["label"] in labels:
                yield f"{path}: duplicate label {row['label']!r}"
            labels.append(row["label"])
    chosen = report.get("recommendation")
    for path, label in [*_entries(report, "frontier"),
                        ("recommendation.label", chosen.get("label")
                         if isinstance(chosen, dict) else None)]:
        if isinstance(label, str) and label not in labels:
            yield f"{path} must name a priced candidate, got {label!r}"


#: One priced row (:class:`repro.whatif.CandidateOutcome`).
_OUTCOME = {
    "label": "str+", "params": {}, "fingerprint": "str+",
    "cost_proxy": "number>0", "cores": "int>=1", "memory_budget?": "int>=1",
    "predicted": ("object", {
        "makespan_ns": "number>=0", "p50_ns": "number>=0",
        "p95_ns": "number>=0", "throughput_qps": "number>=0",
    }, _p95_covers_p50),
    "batches": "int>=0", "co_run_batches": "int>=0",
    "max_admission_inflation": "number>=0",
    "spot_check?": dict.fromkeys(
        ("measured_makespan_ns", "measured_p50_ns", "measured_p95_ns",
         "measured_throughput_qps", "makespan_error", "p95_error",
         "mean_contention_error"), "number>=0"),
}

WHATIF_REPORT = spec(("object", {
    "kind": ("one_of", "whatif_report"),
    "schema_version": ("one_of", 1),
    "space": "str+", "policy": "str+",
    "workload": {"source": ("one_of", "generated", "captured"),
                 "queries": "int>=1", "clients": "int>=1"},
    "baseline": _OUTCOME,
    "candidates": ("list+", {
        **_OUTCOME, "on_frontier": "bool",
        "delta": dict.fromkeys(("makespan", "p95", "throughput", "cost"),
                               "number"),
    }),
    "skipped": ("list", {"params": {}, "reason": "str+"}),
    "frontier": ("list+", "str"),
    "recommendation?": {
        "question": {"p95_ns": "number>0"}, "label": "str",
        "cost_proxy": "number>0", "predicted_p95_ns": "number>0",
        "predicted_makespan_ns": "number>0", "admission_slack": "number>0",
        "candidates_considered": "int>=1", "candidates_meeting": "int>=1",
    },
}, _labels_resolve))


def validate_whatif_report(data) -> list[str]:
    """All schema violations of one what-if report
    (:meth:`repro.whatif.WhatIfReport.to_json`)."""
    return check(WHATIF_REPORT, data)


def validate_whatif_report_file(path) -> list[str]:
    return check_file(path, validate_whatif_report)
