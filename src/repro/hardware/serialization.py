"""Loading and saving machine profiles.

The paper's workflow instantiates the model per machine from calibrated
parameters; persisting profiles as JSON lets a calibration run on one
machine drive cost estimation anywhere.  The schema mirrors Table 1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from .cache_level import CacheLevel
from .hierarchy import MemoryHierarchy

__all__ = [
    "hierarchy_to_dict",
    "hierarchy_from_dict",
    "save_hierarchy",
    "load_hierarchy",
    "profile_fingerprint",
]

_SCHEMA_VERSION = 1


def _level_from_dict(data: dict) -> CacheLevel:
    try:
        return CacheLevel(
            name=data["name"],
            capacity=int(data["capacity"]),
            line_size=int(data["line_size"]),
            associativity=int(data.get("associativity", 0)),
            seq_miss_latency_ns=float(data["seq_miss_latency_ns"]),
            rand_miss_latency_ns=float(data["rand_miss_latency_ns"]),
            is_tlb=bool(data.get("is_tlb", False)),
            is_pool=bool(data.get("is_pool", False)),
        )
    except KeyError as missing:
        raise ValueError(f"cache level entry missing field {missing}") from None


def hierarchy_to_dict(hierarchy: MemoryHierarchy) -> dict:
    """A JSON-ready description of a machine profile."""
    return {
        "schema_version": _SCHEMA_VERSION,
        "name": hierarchy.name,
        "cpu_speed_mhz": hierarchy.cpu_speed_mhz,
        "levels": [asdict(l) for l in hierarchy.levels],
        "tlbs": [asdict(t) for t in hierarchy.tlbs],
    }


def hierarchy_from_dict(data: dict) -> MemoryHierarchy:
    """Rebuild a profile (validating all Table 1 constraints)."""
    version = data.get("schema_version", _SCHEMA_VERSION)
    if version != _SCHEMA_VERSION:
        raise ValueError(f"unsupported profile schema version {version}")
    if "levels" not in data or not data["levels"]:
        raise ValueError("profile has no cache levels")
    return MemoryHierarchy(
        name=data.get("name", "unnamed machine"),
        levels=tuple(_level_from_dict(l) for l in data["levels"]),
        tlbs=tuple(_level_from_dict(t) for t in data.get("tlbs", [])),
        cpu_speed_mhz=float(data.get("cpu_speed_mhz", 1000.0)),
    )


def profile_fingerprint(hierarchy: MemoryHierarchy) -> str:
    """A stable content fingerprint of a machine profile.

    Hashes the canonical JSON form of the profile (every Table 1
    parameter, the TLBs, and the clock speed), so two profiles have
    equal fingerprints exactly when the cost model would price every
    plan identically on them.  The display name is deliberately
    excluded: a :func:`~repro.hardware.parametric_profile` twin of a
    named stock profile prices identically, so it fingerprints
    identically — which is what lets what-if candidates join the
    serving reports they predict.  Plan caches use this as the profile
    component of their keys: recalibrating a machine changes the
    fingerprint, which silently retires every cached plan.
    """
    content = hierarchy_to_dict(hierarchy)
    del content["name"]
    payload = json.dumps(content, sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def save_hierarchy(hierarchy: MemoryHierarchy, path: str | Path) -> None:
    """Write a profile to a JSON file."""
    Path(path).write_text(
        json.dumps(hierarchy_to_dict(hierarchy), indent=2) + "\n"
    )


def load_hierarchy(path: str | Path) -> MemoryHierarchy:
    """Read a profile from a JSON file."""
    return hierarchy_from_dict(json.loads(Path(path).read_text()))
