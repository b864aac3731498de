"""Online self-calibration: the *response* half of drift monitoring.

:class:`~repro.obs.DriftMonitor` (the detection half) says *when* the
model and the machine disagree; the :class:`Recalibrator` here says
*what to do about it*: search a parametric neighborhood of the current
:class:`~repro.hardware.MemoryHierarchy` for the latency assignment
that best explains recent measurements, publish the winner through
:meth:`Session.set_hierarchy <repro.session.Session.set_hierarchy>`,
and leave a sidecar manifest recording exactly what changed and why —
the paper's own Calibrator discipline (Section 2.3: parameters come
from measurement, not faith) run continuously instead of once.

The search is cheap because of a structural identity.  Both sides of
the relative error are **linear in the per-level miss latencies**: the
model's whole-plan prediction is Eq. 3.1's sum over
``Explanation.levels``

    predicted = Σ_levels  seq·l_seq + rand·l_rand

and the simulator's elapsed time decomposes identically over its
measured per-level miss counters — with one asymmetry mirrored here:
TLB misses always pay the *random* latency (address translation has no
sequential fast path in the simulator).  Capacities, line sizes and
associativities are held fixed, so **no miss count moves when
latencies do**: a candidate profile is scored by pure arithmetic
reweighting of counts sampled once (:class:`CalibrationSample`), no
simulator or model re-run.  Re-measuring on the published profile
reproduces the scorer's error exactly, as long as the plan choice is
unchanged.

The optimizer is a deterministic coordinate descent over per-level
multipliers from an interpretable grid (:class:`LatencyGrid`): data
levels get independent sequential/random factors, TLB levels one tied
factor (the simulator charges them a single latency).  Candidates that
violate a level's own constraints (random latency must stay >= the
sequential one) are skipped.  Descent starts from the incumbent
(all-ones) and only ever moves on strict improvement, so a published
profile can never score worse than the profile it replaces.
"""

from __future__ import annotations

import json
import pathlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..hardware.hierarchy import MemoryHierarchy
from ..hardware.serialization import (
    hierarchy_to_dict,
    profile_fingerprint,
    save_hierarchy,
)
from ..obs.drift import DEFAULT_BAND, DriftEvent, DriftMonitor

if TYPE_CHECKING:
    from ..query.observe import MeasuredResult
    from ..session.session import Session

__all__ = [
    "DEFAULT_MULTIPLIERS",
    "MANIFEST_KIND",
    "LatencyGrid",
    "CalibrationSample",
    "SearchOutcome",
    "Recalibration",
    "Recalibrator",
    "predicted_time_ns",
    "replayed_time_ns",
    "sample_error",
    "mean_error",
    "search_latencies",
    "build_manifest",
    "manifest_dumps",
    "write_manifest",
]

#: The default multiplier grid: symmetric around 1.0 (the incumbent,
#: which MUST be in the grid — it anchors the no-worse-than-incumbent
#: guarantee), spanning 4x in both directions in interpretable steps.
DEFAULT_MULTIPLIERS = (0.25, 0.4, 0.5, 0.7, 1.0, 1.4, 2.0, 3.0, 4.0)

#: ``kind`` tag of the sidecar manifest payload.
MANIFEST_KIND = "recalibration_manifest"

#: Strict-improvement epsilon: descent moves off a multiplier only for
#: a genuinely lower score, so ties keep the earlier (closer-to-1.0 in
#: the default grid ordering) value and the result is deterministic.
_EPS = 1e-12


@dataclass(frozen=True)
class LatencyGrid:
    """The interpretable search grid of the coordinate descent."""

    multipliers: tuple[float, ...] = DEFAULT_MULTIPLIERS
    #: Full sweeps over every (level, axis) dimension; descent stops
    #: early on the first pass with no improvement.
    max_passes: int = 4

    def __post_init__(self) -> None:
        if not self.multipliers:
            raise ValueError("grid needs at least one multiplier")
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("grid multipliers must be positive")
        if 1.0 not in self.multipliers:
            raise ValueError(
                "grid must contain 1.0 — the incumbent profile anchors "
                "the no-worse-than-incumbent guarantee")
        if self.max_passes < 1:
            raise ValueError("max_passes must be positive")

    def to_json(self) -> dict:
        return {"multipliers": list(self.multipliers),
                "max_passes": self.max_passes}


@dataclass(frozen=True)
class CalibrationSample:
    """One measured query frozen as latency-invariant miss counts.

    ``predicted`` holds the model's whole-plan per-level
    ``(name, seq, rand)`` miss counts (from
    :attr:`Explanation.levels <repro.query.Explanation.levels>`),
    ``measured`` the simulator's (from the run's counter delta).  With
    capacities fixed, both stay valid under any latency assignment —
    the sample is replayable by arithmetic alone.
    """

    label: str
    predicted: tuple[tuple[str, float, float], ...]
    measured: tuple[tuple[str, float, float], ...]

    @classmethod
    def from_measured(cls, measured: "MeasuredResult",
                      label: str | None = None) -> "CalibrationSample":
        return cls(
            label=label or measured.signature or "query",
            predicted=tuple((lp.name, float(lp.seq), float(lp.rand))
                            for lp in measured.explanation.levels),
            measured=tuple((lc.name, float(lc.seq_misses),
                            float(lc.rand_misses))
                           for lc in measured.counters.levels),
        )

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "predicted": [list(entry) for entry in self.predicted],
            "measured": [list(entry) for entry in self.measured],
        }


# ----------------------------------------------------------------------
# linear-reweighting scorer
# ----------------------------------------------------------------------

def _latencies(hierarchy: MemoryHierarchy
               ) -> dict[str, tuple[float, float, bool]]:
    return {lvl.name: (lvl.seq_miss_latency_ns, lvl.rand_miss_latency_ns,
                       lvl.is_tlb)
            for lvl in hierarchy.all_levels}


def predicted_time_ns(hierarchy: MemoryHierarchy,
                      sample: CalibrationSample) -> float:
    """The model's Eq. 3.1 prediction re-priced under ``hierarchy``'s
    latencies (levels the hierarchy lacks contribute nothing)."""
    latencies = _latencies(hierarchy)
    total = 0.0
    for name, seq, rand in sample.predicted:
        entry = latencies.get(name)
        if entry is not None:
            total += seq * entry[0] + rand * entry[1]
    return total


def replayed_time_ns(hierarchy: MemoryHierarchy,
                     sample: CalibrationSample) -> float:
    """The simulator's elapsed time re-priced under ``hierarchy``'s
    latencies — data misses pay their sequential/random latency per
    outcome, TLB misses always pay the random latency (the simulator's
    accounting, reproduced exactly)."""
    latencies = _latencies(hierarchy)
    total = 0.0
    for name, seq, rand in sample.measured:
        entry = latencies.get(name)
        if entry is None:
            continue
        seq_lat, rand_lat, is_tlb = entry
        if is_tlb:
            total += (seq + rand) * rand_lat
        else:
            total += seq * seq_lat + rand * rand_lat
    return total


def sample_error(hierarchy: MemoryHierarchy,
                 sample: CalibrationSample) -> float:
    """One sample's relative error under a candidate profile."""
    measured = replayed_time_ns(hierarchy, sample)
    if measured <= 0:
        return 0.0
    return abs(predicted_time_ns(hierarchy, sample) - measured) / measured


def mean_error(hierarchy: MemoryHierarchy,
               samples: Iterable[CalibrationSample]) -> float:
    """MAPE of predicted vs. (re-priced) measured over the samples."""
    samples = tuple(samples)
    if not samples:
        raise ValueError("no samples to score")
    return sum(sample_error(hierarchy, s) for s in samples) / len(samples)


# ----------------------------------------------------------------------
# coordinate-descent search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SearchOutcome:
    """The result of one :func:`search_latencies` run."""

    hierarchy: MemoryHierarchy
    #: ``(level name, seq multiplier, rand multiplier)`` per level, in
    #: hierarchy order (data levels first, then TLBs).
    multipliers: tuple[tuple[str, float, float], ...]
    error_before: float
    error_after: float
    #: Candidate profiles scored (invalid ones skipped, not counted).
    evaluations: int
    #: Full descent passes run before convergence or the cap.
    passes: int

    @property
    def improved(self) -> bool:
        """Whether descent found a strictly better profile — the only
        case a :class:`Recalibrator` publishes."""
        return self.error_after < self.error_before - _EPS

    def multipliers_json(self) -> dict[str, list[float]]:
        return {name: [seq, rand] for name, seq, rand in self.multipliers}


def search_latencies(hierarchy: MemoryHierarchy,
                     samples: Iterable[CalibrationSample],
                     grid: LatencyGrid | None = None,
                     name_suffix: str = " (autotuned)") -> SearchOutcome:
    """Deterministic coordinate descent over per-level latency
    multipliers, scored by :func:`mean_error` over ``samples``.

    Dimensions are swept in hierarchy order — sequential then random
    axis per data level, one tied axis per TLB level (the simulator
    charges TLB misses a single latency, so split factors would be
    unobservable) — and the grid in its given order, moving only on
    strict improvement.  The incumbent (all multipliers 1.0) is the
    starting point, so the outcome never scores worse than it.
    """
    grid = grid if grid is not None else LatencyGrid()
    samples = tuple(samples)
    error_before = mean_error(hierarchy, samples)
    best = {lvl.name: (1.0, 1.0) for lvl in hierarchy.all_levels}
    best_error = error_before
    evaluations = 0

    dims: list[tuple[str, int]] = []
    for lvl in hierarchy.levels:
        dims.append((lvl.name, 0))  # sequential axis
        dims.append((lvl.name, 1))  # random axis
    for tlb in hierarchy.tlbs:
        dims.append((tlb.name, 2))  # tied axis

    passes = 0
    for _ in range(grid.max_passes):
        passes += 1
        moved = False
        for name, axis in dims:
            for mult in grid.multipliers:
                seq_mult, rand_mult = best[name]
                trial = ((mult, rand_mult) if axis == 0 else
                         (seq_mult, mult) if axis == 1 else
                         (mult, mult))
                if trial == best[name]:
                    continue
                candidate = dict(best)
                candidate[name] = trial
                try:
                    priced = hierarchy.scaled_latencies(
                        candidate, name_suffix=name_suffix)
                except ValueError:
                    continue  # e.g. random latency dropping below seq
                evaluations += 1
                error = mean_error(priced, samples)
                if error < best_error - _EPS:
                    best, best_error = candidate, error
                    moved = True
        if not moved:
            break

    if all(m == (1.0, 1.0) for m in best.values()):
        final = hierarchy  # untouched incumbent, original name kept
    else:
        final = hierarchy.scaled_latencies(best, name_suffix=name_suffix)
    ordered = tuple((lvl.name,) + best[lvl.name]
                    for lvl in hierarchy.all_levels)
    return SearchOutcome(hierarchy=final, multipliers=ordered,
                         error_before=error_before,
                         error_after=best_error,
                         evaluations=evaluations, passes=passes)


# ----------------------------------------------------------------------
# sidecar manifest (Tracekit discipline: never overwrite silently —
# every published profile carries a record of what changed and why)
# ----------------------------------------------------------------------

def build_manifest(before: MemoryHierarchy, after: MemoryHierarchy,
                   grid: LatencyGrid, outcome: SearchOutcome,
                   events: Iterable[DriftEvent] = (),
                   samples: Iterable[CalibrationSample] = (),
                   band: float = DEFAULT_BAND) -> dict:
    """The sidecar payload for one recalibration: parameters before and
    after, the search grid and chosen multipliers, error before/after
    (whole-run MAPE plus per-sample), and the drift events that
    triggered the run.  Validated by
    :func:`repro.obs.validate_manifest`."""
    samples = tuple(samples)
    return {
        "kind": MANIFEST_KIND,
        "schema_version": 1,
        "published": outcome.improved,
        "profile": {
            "before": hierarchy_to_dict(before),
            "after": hierarchy_to_dict(after),
        },
        "fingerprint": {
            "before": profile_fingerprint(before),
            "after": profile_fingerprint(after),
        },
        "search": {
            "grid": list(grid.multipliers),
            "max_passes": grid.max_passes,
            "passes": outcome.passes,
            "evaluations": outcome.evaluations,
            "multipliers": outcome.multipliers_json(),
        },
        "error": {
            "band": band,
            "before": outcome.error_before,
            "after": outcome.error_after,
            "samples": [
                {"label": s.label,
                 "before": sample_error(before, s),
                 "after": sample_error(after, s)}
                for s in samples
            ],
        },
        "events": [event.to_json() for event in events],
    }


def manifest_dumps(manifest: dict) -> str:
    """The canonical byte form of a manifest (sorted keys, stable float
    reprs) — ``loads`` then ``manifest_dumps`` again is byte-identical."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_manifest(manifest: dict, profile_path: str | pathlib.Path
                   ) -> pathlib.Path:
    """Write the sidecar next to a published profile file
    (``<profile>.manifest.json``); returns the sidecar path."""
    path = pathlib.Path(str(profile_path) + ".manifest.json")
    path.write_text(manifest_dumps(manifest))
    return path


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Recalibration:
    """One recalibration run's full record."""

    published: bool
    outcome: SearchOutcome
    manifest: dict
    #: The drift events this run consumed (its trigger).
    events: tuple[DriftEvent, ...]
    #: Cached plans explicitly retired on publication.
    retired_plans: int
    profile_path: pathlib.Path | None = None
    manifest_path: pathlib.Path | None = None

    @property
    def fingerprint_before(self) -> str:
        return self.manifest["fingerprint"]["before"]

    @property
    def fingerprint_after(self) -> str:
        return self.manifest["fingerprint"]["after"]


class Recalibrator:
    """The drift→response loop over one
    :class:`~repro.session.Session`.

    Feed every measured execution to :meth:`observe` (or register it
    via :meth:`Session.attach_measurement_observer
    <repro.session.Session.attach_measurement_observer>`): the result's
    latency-invariant per-level counts join a bounded replay sample
    (keyed by plan signature, newest wins) and its per-operator errors
    stream into this loop's own :class:`~repro.obs.DriftMonitor`.  Once
    an excursion event is pending and the sample is deep enough,
    :meth:`recalibrate` searches the latency neighborhood of the
    session's current profile and, on strict improvement, publishes the
    winner via :meth:`Session.set_hierarchy
    <repro.session.Session.set_hierarchy>` — which changes the profile
    fingerprint, so every cached plan stops matching; the loop
    additionally retires them eagerly so the swap is observable through
    :meth:`PlanCache.attach_observer
    <repro.session.PlanCache.attach_observer>`.  With ``manifest_dir``
    set, each published profile is saved as JSON with its sidecar
    ``<profile>.json.manifest.json``.

    A server embedding the loop (the tracer already owns the drift
    monitor there) records samples and externally detected events via
    :meth:`ingest` instead, avoiding double detection.
    """

    def __init__(self, session: "Session", *,
                 grid: LatencyGrid | None = None,
                 band: float = DEFAULT_BAND,
                 monitor: DriftMonitor | None = None,
                 min_samples: int = 1, max_samples: int = 32,
                 manifest_dir: str | pathlib.Path | None = None) -> None:
        if min_samples < 1:
            raise ValueError("min_samples must be positive")
        if max_samples < min_samples:
            raise ValueError("max_samples must be >= min_samples")
        self.session = session
        self.grid = grid if grid is not None else LatencyGrid()
        self.band = band
        self.monitor = monitor if monitor is not None \
            else DriftMonitor(band=band)
        self.min_samples = min_samples
        self.max_samples = max_samples
        self.manifest_dir = (pathlib.Path(manifest_dir)
                             if manifest_dir is not None else None)
        self._samples: "OrderedDict[str, CalibrationSample]" = OrderedDict()
        self._pending: list[DriftEvent] = []
        self.history: list[Recalibration] = []

    # ------------------------------------------------------------------
    @property
    def samples(self) -> tuple[CalibrationSample, ...]:
        """The current replay sample, oldest first."""
        return tuple(self._samples.values())

    @property
    def pending_events(self) -> tuple[DriftEvent, ...]:
        """Drift events awaiting a response."""
        return tuple(self._pending)

    def _record(self, measured: "MeasuredResult",
                label: str | None) -> CalibrationSample:
        sample = CalibrationSample.from_measured(measured, label=label)
        self._samples.pop(sample.label, None)
        self._samples[sample.label] = sample
        while len(self._samples) > self.max_samples:
            self._samples.popitem(last=False)
        return sample

    def observe(self, measured: "MeasuredResult",
                label: str | None = None) -> list[DriftEvent]:
        """Fold one measured execution into the sample and the loop's
        drift monitor; returns (and queues) the events it caused."""
        self._record(measured, label)
        at_ns = getattr(self.session.db.mem, "elapsed_ns", 0.0)
        events = self.monitor.observe_result(
            measured, fingerprint=self.session.fingerprint, at_ns=at_ns)
        self._pending.extend(events)
        return events

    def ingest(self, measured: "MeasuredResult",
               events: Iterable[DriftEvent] = (),
               label: str | None = None) -> None:
        """Record a sample with *externally* detected drift events —
        the embedding path for hosts whose tracer already runs the
        drift monitor (:class:`~repro.server.QueryServer`)."""
        self._record(measured, label)
        self._pending.extend(events)

    def due(self) -> bool:
        """Whether a response is warranted: at least one pending drift
        event and a deep-enough replay sample."""
        return bool(self._pending) and len(self._samples) >= self.min_samples

    # ------------------------------------------------------------------
    def recalibrate(self, force: bool = False) -> Recalibration | None:
        """Run the search and publish on improvement.

        Returns ``None`` when nothing is due (no pending drift events,
        or the sample is too shallow) unless ``force`` is set.  The
        returned :class:`Recalibration` (also appended to
        :attr:`history`) carries the search outcome, the consumed
        events, and the schema-valid sidecar manifest — written to disk
        when ``manifest_dir`` is configured and the profile published.
        """
        if not force and not self.due():
            return None
        if not self._samples:
            raise ValueError(
                "no samples recorded — observe at least one measured "
                "execution before recalibrating")
        before = self.session.hierarchy
        samples = tuple(self._samples.values())
        outcome = search_latencies(before, samples, self.grid)
        events, self._pending = tuple(self._pending), []
        after = outcome.hierarchy if outcome.improved else before
        manifest = build_manifest(before, after, self.grid, outcome,
                                  events=events, samples=samples,
                                  band=self.band)
        retired = 0
        profile_path = manifest_path = None
        if outcome.improved:
            self.session.set_hierarchy(after)
            retired = self.session.plan_cache.clear()
            if self.manifest_dir is not None:
                self.manifest_dir.mkdir(parents=True, exist_ok=True)
                profile_path = self.manifest_dir / (
                    f"profile-{profile_fingerprint(after)}.json")
                save_hierarchy(after, profile_path)
                manifest_path = write_manifest(manifest, profile_path)
        recalibration = Recalibration(
            published=outcome.improved, outcome=outcome,
            manifest=manifest, events=events, retired_plans=retired,
            profile_path=profile_path, manifest_path=manifest_path)
        self.history.append(recalibration)
        return recalibration

    def __repr__(self) -> str:
        return (f"Recalibrator(samples={len(self._samples)}, "
                f"pending_events={len(self._pending)}, "
                f"published={sum(1 for r in self.history if r.published)})")
