"""Declarative parametric profile spaces for what-if sweeps.

A :class:`ProfileSpace` names the knobs of a capacity-planning
question — cache sizes and miss latencies per level, buffer-pool
pages, per-operator memory budget, core count for ⊙ co-run batches —
and expands their cross-product into concrete
:class:`~repro.hardware.MemoryHierarchy` candidates through
:func:`~repro.hardware.parametric_profile`.  Every hardware invariant
(capacity ordering, line multiples, ``rand >= seq`` latencies, TLB
separation) is re-checked by the :mod:`repro.hardware` constructors
during expansion: invalid corners of the grid are *skipped with a
recorded reason*, never silently built.

The point of the exercise is the paper's superpower — the calibrated
cost model prices an access pattern on any hierarchy you can describe,
so a candidate machine never has to exist (or be simulated) to be
compared.  Expansion is pure and deterministic: the same space always
yields the same candidates in the same order, which is what makes
what-if reports byte-reproducible.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..hardware.hierarchy import MemoryHierarchy
from ..hardware.profiles import TINY_MACHINE, parametric_profile

__all__ = ["Candidate", "SpaceExpansion", "ProfileSpace", "cost_proxy",
           "PROFILE_AXES", "CONFIG_AXES", "TINY_POOL_BASE"]

#: The :func:`~repro.hardware.parametric_profile` knobs a space may
#: sweep (everything but ``name``).
PROFILE_AXES: tuple[str, ...] = tuple(
    p for p in inspect.signature(parametric_profile).parameters
    if p != "name")

#: Software/config knobs a space may sweep alongside the hardware:
#: ``memory_budget`` (per-operator working memory, ``None`` = plan
#: purely in memory) and ``cores`` (logical cores = the co-run batch
#: cap the ⊙ scheduler packs to).
CONFIG_AXES: tuple[str, ...] = ("memory_budget", "cores")

#: Base kwargs reproducing :func:`~repro.hardware.tiny_test_machine`
#: with a 32-page buffer pool (:func:`~repro.hardware.disk_extended_scaled`)
#: — the starting point for pool/budget sweeps, where the data caches
#: must sit *below* the pool being swept.
TINY_POOL_BASE: Mapping[str, object] = {**TINY_MACHINE, "pool_pages": 32}


def cost_proxy(hierarchy: MemoryHierarchy, cores: int = 1) -> float:
    """A deterministic relative hardware-cost score for the Pareto
    frontier (not dollars): each data level contributes its capacity
    weighted by speed (``bytes / rand_miss_latency_ns`` — fast memory
    costs more per byte, a big slow pool less than a small fast cache),
    and cores multiply the whole machine.  Monotone in every resource a
    space sweeps, so "smallest config meeting the SLO" is well defined.
    """
    capacity = sum(level.capacity / level.rand_miss_latency_ns
                   for level in hierarchy.levels)
    return cores * capacity


@dataclass(frozen=True)
class Candidate:
    """One concrete point of a profile space: a buildable machine plus
    the software knobs a sweep prices it under."""

    index: int
    label: str
    #: The swept axis values, in axis-declaration order.
    params: tuple[tuple[str, object], ...]
    hierarchy: MemoryHierarchy
    memory_budget: int | None
    #: Logical cores = co-run batch cap for the ⊙ scheduler.
    cores: int

    @property
    def fingerprint(self) -> str:
        """The candidate profile's fingerprint (joins a what-if row to
        any serving/workload report produced on the same machine)."""
        return self.hierarchy.fingerprint()

    @property
    def cost_proxy(self) -> float:
        return cost_proxy(self.hierarchy, self.cores)


@dataclass(frozen=True)
class SpaceExpansion:
    """The deterministic result of expanding a space: the baseline
    candidate, every buildable grid point, and the invalid points with
    the constructor's reason for rejecting each."""

    baseline: Candidate
    candidates: tuple[Candidate, ...]
    skipped: tuple[dict, ...]

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)


class ProfileSpace:
    """A named cross-product of hardware and config axes.

    Parameters
    ----------
    axes:
        Axis name → candidate values.  Hardware axes are the
        :func:`~repro.hardware.parametric_profile` keywords
        (:data:`PROFILE_AXES`); config axes are ``memory_budget``
        (``None`` allowed, meaning unbudgeted) and ``cores``
        (:data:`CONFIG_AXES`).  Declaration order fixes expansion
        order.
    base:
        Fixed :func:`~repro.hardware.parametric_profile` kwargs every
        candidate shares (e.g. :data:`TINY_POOL_BASE` for pool
        sweeps).  Swept axes override base entries.
    cores / memory_budget:
        Defaults for candidates when the corresponding axis is not
        swept — also the baseline's values.
    name:
        Label for reports.
    """

    def __init__(self, axes: Mapping[str, Sequence], *,
                 base: Mapping[str, object] | None = None,
                 cores: int = 4, memory_budget: int | None = None,
                 name: str = "space") -> None:
        if not axes:
            raise ValueError("a profile space needs at least one axis")
        known = set(PROFILE_AXES) | set(CONFIG_AXES)
        for axis, values in axes.items():
            if axis not in known:
                raise ValueError(
                    f"unknown axis {axis!r} (hardware axes: "
                    f"{', '.join(PROFILE_AXES)}; config axes: "
                    f"{', '.join(CONFIG_AXES)})")
            if not isinstance(values, Sequence) or isinstance(values, str) \
                    or not values:
                raise ValueError(
                    f"axis {axis!r} needs a non-empty sequence of values")
        unknown_base = set(base or ()) - set(PROFILE_AXES)
        if unknown_base:
            raise ValueError(
                f"unknown base profile kwargs: {sorted(unknown_base)}")
        if cores < 1:
            raise ValueError("cores must be positive")
        if memory_budget is not None and memory_budget < 1:
            raise ValueError("memory_budget must be positive or None")
        self.axes = {axis: tuple(values) for axis, values in axes.items()}
        self.base = dict(base or {})
        self.cores = cores
        self.memory_budget = memory_budget
        self.name = name

    # ------------------------------------------------------------------
    def _build(self, index: int, label: str,
               params: Mapping[str, object]) -> Candidate:
        profile_kwargs = dict(self.base)
        cores = self.cores
        budget = self.memory_budget
        for axis, value in params.items():
            if axis == "cores":
                cores = value
            elif axis == "memory_budget":
                budget = value
            else:
                profile_kwargs[axis] = value
        if not isinstance(cores, int) or cores < 1:
            raise ValueError(f"cores must be a positive int, got {cores!r}")
        if budget is not None and (not isinstance(budget, int)
                                   or budget < 1):
            raise ValueError(
                f"memory_budget must be a positive int or None, "
                f"got {budget!r}")
        hierarchy = parametric_profile(**profile_kwargs)
        return Candidate(index=index, label=label,
                         params=tuple(params.items()),
                         hierarchy=hierarchy, memory_budget=budget,
                         cores=cores)

    def baseline(self) -> Candidate:
        """The reference candidate every report computes deltas
        against: the base profile under the default cores/budget."""
        return self._build(0, "baseline", {})

    def expand(self) -> SpaceExpansion:
        """Expand the cross-product.  Grid points the hardware
        constructors reject (their :class:`ValueError`) are recorded
        under ``skipped``, not raised — an infeasible corner is an
        answer, not a crash."""
        names = list(self.axes)
        candidates: list[Candidate] = []
        skipped: list[dict] = []
        for number, combo in enumerate(
                itertools.product(*self.axes.values()), start=1):
            params = dict(zip(names, combo))
            label = ",".join(f"{axis}={value}"
                             for axis, value in params.items())
            try:
                candidates.append(
                    self._build(len(candidates) + 1, label, params))
            except ValueError as exc:
                skipped.append({"params": {k: v for k, v in params.items()},
                                "reason": str(exc)})
        if not candidates:
            raise ValueError(
                f"every candidate of space {self.name!r} was rejected: "
                + "; ".join(s["reason"] for s in skipped))
        return SpaceExpansion(baseline=self.baseline(),
                              candidates=tuple(candidates),
                              skipped=tuple(skipped))

    def __repr__(self) -> str:
        axes = ", ".join(f"{axis}×{len(values)}"
                         for axis, values in self.axes.items())
        return f"ProfileSpace({self.name!r}, {axes})"
