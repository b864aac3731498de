"""Schema for the machine-readable benchmark results (``BENCH_*.json``).

Every benchmark that reports model-vs-measured numbers can persist them
as ``benchmarks/results/BENCH_<name>.json`` via the shared payload
builders below — one flat, diffable shape for the whole perf
trajectory:

* ``bench`` — the benchmark name,
* ``sizes`` — the x-axis points the bench swept,
* ``series`` — per point: predicted vs measured memory time (ns) and
  their relative ``error``, optionally with the full typed result
  (:meth:`QueryResult.to_json <repro.query.QueryResult.to_json>`) or
  experiment (:meth:`ExperimentResult.to_json
  <repro.validation.ExperimentResult.to_json>`) attached as ``detail``,
* ``band`` — the tolerance the bench asserts and the worst observed
  error,
* ``known_gaps`` (optional) — rows the bench *declares* out of band on
  purpose, each with the pinned error and the reason (typically a
  pointer to ``tests/test_known_gaps.py`` or a ROADMAP item).
  Declared rows are excluded from ``band.max_error``, so a bench can
  band its healthy rows tightly instead of inflating the tolerance to
  cover a documented model gap.

The shape is stated as data (:data:`BENCH`) for the repo's one schema
checker, :func:`repro.obs.schema.check`; :func:`validate_bench_payload`
returns a list of human-readable problems, empty when the payload
conforms.  CI runs ``benchmarks/schema_check.py``, which applies it to
every emitted file.
"""

from __future__ import annotations

import pathlib

from ..obs.schema import check, check_file, spec

__all__ = [
    "validate_bench_payload",
    "validate_bench_file",
    "validate_results_dir",
    "payload_from_results",
    "payload_from_experiment",
    "payload_from_serving",
]


def _one_point_per_size(payload, where):
    series, sizes = payload.get("series"), payload.get("sizes")
    if isinstance(series, list) and isinstance(sizes, list) \
            and series and sizes and len(series) != len(sizes):
        yield f"series has {len(series)} entries for {len(sizes)} sizes"


_POINT = {"size": "any", "error": "number>=0"}

BENCH = spec(("object", {
    "kind": ("one_of", "bench"),
    "bench": "str+",
    "sizes": ("list+", "number|str"),
    "series": ("list+", {**_POINT, "predicted_ns": "number>=0",
                         "measured_ns": "number>=0"}),
    "band": {"tolerance": "number>0", "max_error?": "number"},
    "known_gaps?": ("list", {**_POINT, "reason": "str+"}),
}, _one_point_per_size))


def validate_bench_payload(data) -> list[str]:
    """All schema violations of one bench payload (empty == valid)."""
    return check(BENCH, data)


def validate_bench_file(path) -> list[str]:
    """Schema violations of one ``BENCH_*.json`` file."""
    return check_file(path, validate_bench_payload)


def validate_results_dir(directory) -> dict[str, list[str]]:
    """Validate every ``BENCH_*.json`` under ``directory``; returns
    ``{file name: problems}`` for each emitted file (all values empty
    when everything conforms)."""
    directory = pathlib.Path(directory)
    return {
        path.name: validate_bench_file(path)
        for path in sorted(directory.glob("BENCH_*.json"))
    }


# ----------------------------------------------------------------------
# payload builders
# ----------------------------------------------------------------------

def _payload(name: str, series: list, tolerance: float, banded=None,
             **extra) -> dict:
    """The shape every builder emits: one size per series point, and
    ``band.max_error`` the worst error among the ``banded`` points (all
    of them unless told otherwise)."""
    errors = [point["error"]
              for point in (series if banded is None else banded)]
    return {
        "kind": "bench",
        "bench": name,
        "sizes": [point["size"] for point in series],
        "series": series,
        "band": {"tolerance": tolerance,
                 "max_error": max(errors) if errors else None},
        **extra,
    }


def payload_from_results(name: str, entries, tolerance: float,
                         include_results: bool = True,
                         known_gaps=None) -> dict:
    """A bench payload from typed measured results.

    ``entries`` is a list of ``(size, MeasuredResult)`` pairs
    (:class:`repro.query.MeasuredResult`); each series point embeds the
    full result JSON (the same serialization path queries use) unless
    ``include_results`` is false.

    ``known_gaps`` maps sizes to reasons: rows whose size is declared
    there are recorded under the payload's ``known_gaps`` (with their
    observed error) and *excluded* from ``band.max_error`` — the
    declared, pinned way to keep a documented model gap out of the
    bench's accuracy band."""
    known_gaps = dict(known_gaps or {})
    series = []
    for size, measured in entries:
        point = {
            "size": size,
            "predicted_ns": measured.predicted_ns,
            "measured_ns": measured.measured_ns,
            "error": measured.error,
        }
        if include_results:
            point["result"] = measured.to_json()
        series.append(point)
    gaps = [{"size": point["size"], "error": point["error"],
             "reason": known_gaps[point["size"]]}
            for point in series if point["size"] in known_gaps]
    return _payload(
        name, series, tolerance,
        banded=[p for p in series if p["size"] not in known_gaps],
        **({"known_gaps": gaps} if gaps else {}))


def payload_from_serving(name: str, entries, tolerance: float) -> dict:
    """A bench payload from serving runs.

    ``entries`` is a list of ``(size, ServingReport)`` pairs
    (:class:`repro.server.ServingReport`) — ``size`` is whatever the
    bench swept (client count, arrival rate, policy label).  The series
    carries the ⊙-predicted vs replay-measured busy time (summed batch
    makespans) with the report's mean co-run contention error, plus the
    serving headline (sustained q/s, latency percentiles, shed count)
    per point.  Responses are bulky and left out; batches always ride
    along (they are the predicted-vs-measured evidence)."""
    series = []
    for size, report in entries:
        detail = report.to_json()
        detail.pop("responses")
        series.append({
            "size": size,
            "predicted_ns": report.predicted_makespan_ns,
            "measured_ns": report.measured_makespan_ns,
            "error": report.mean_contention_error,
            "sustained_qps": report.sustained_qps,
            "p50_latency_ns": report.p50_latency_ns,
            "p95_latency_ns": report.p95_latency_ns,
            "p99_latency_ns": report.p99_latency_ns,
            "completed": len(report.completed),
            "shed": len(report.shed),
            "detail": detail,
        })
    return _payload(name, series, tolerance)


def payload_from_experiment(name: str, result, tolerance: float) -> dict:
    """A bench payload from an
    :class:`~repro.validation.ExperimentResult` (one series point per
    row, timed via the rows' ``time_us`` keys; the full experiment —
    per-level misses included — rides along as ``detail``)."""
    series = []
    for row in result.rows:
        predicted = row.predicted.get("time_us", 0.0) * 1e3
        measured = row.measured.get("time_us", 0.0) * 1e3
        series.append({
            "size": row.x_label,
            "predicted_ns": predicted,
            "measured_ns": measured,
            "error": (abs(predicted - measured) / measured
                      if measured > 0 else 0.0),
        })
    return _payload(name, series, tolerance, detail=result.to_json())
