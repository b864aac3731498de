"""Profile serialization and CPU-cost calibration (Eq. 6.1)."""

import json

import pytest

from repro.db import quick_sort, scan, uniform_ints
from repro.hardware import (
    hierarchy_from_dict,
    hierarchy_to_dict,
    load_hierarchy,
    save_hierarchy,
)
from repro.validation import calibrate_cpu_cost


class TestSerialization:
    def test_round_trip_equality(self, origin):
        rebuilt = hierarchy_from_dict(hierarchy_to_dict(origin))
        assert rebuilt == origin

    def test_file_round_trip(self, origin, tmp_path):
        path = tmp_path / "machine.json"
        save_hierarchy(origin, path)
        assert load_hierarchy(path) == origin

    def test_file_is_valid_json(self, origin, tmp_path):
        path = tmp_path / "machine.json"
        save_hierarchy(origin, path)
        data = json.loads(path.read_text())
        assert data["name"] == origin.name
        assert len(data["levels"]) == 2

    def test_missing_levels_rejected(self):
        with pytest.raises(ValueError, match="no cache levels"):
            hierarchy_from_dict({"name": "x", "levels": []})

    def test_unknown_schema_version_rejected(self, origin):
        data = hierarchy_to_dict(origin)
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            hierarchy_from_dict(data)

    def test_missing_field_reported(self):
        with pytest.raises(ValueError, match="missing field"):
            hierarchy_from_dict({"levels": [{"name": "L1"}]})

    def test_invalid_level_constraints_still_checked(self, origin):
        data = hierarchy_to_dict(origin)
        data["levels"][0]["capacity"] = 100  # not a line multiple
        with pytest.raises(ValueError):
            hierarchy_from_dict(data)


class TestCpuCalibration:
    def test_scan_costs_one_access_per_item(self, origin):
        cm = calibrate_cpu_cost(
            origin, "scan",
            lambda db, n: scan(db, db.create_column("x", [0] * n, width=8)),
        )
        assert cm.accesses_per_item == pytest.approx(1.0)

    def test_sort_costs_log_factor(self, origin):
        cm = calibrate_cpu_cost(
            origin, "quick_sort",
            lambda db, n: quick_sort(
                db, db.create_column("x", uniform_ints(n, seed=1), width=8)),
        )
        assert cm.accesses_per_item > 5.0  # ~ c * log2(n)

    def test_cpu_ns_scales_linearly(self, origin):
        cm = calibrate_cpu_cost(
            origin, "scan",
            lambda db, n: scan(db, db.create_column("x", [0] * n, width=8)),
        )
        assert cm.cpu_ns(2000) == pytest.approx(2 * cm.cpu_ns(1000))

    def test_empty_run_rejected(self, origin):
        with pytest.raises(ValueError, match="no accesses"):
            calibrate_cpu_cost(origin, "noop", lambda db, n: None)
