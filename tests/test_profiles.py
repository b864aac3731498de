"""The machine profiles, in particular the paper's Table 3 values."""

import json
import os
import pathlib

import pytest

from repro.hardware import (
    disk_extended,
    disk_extended_scaled,
    hierarchy_to_dict,
    modern_x86,
    origin2000,
    origin2000_scaled,
    parametric_profile,
    tiny_test_machine,
)
from repro.whatif import TINY_POOL_BASE


class TestOrigin2000Table3:
    """The exact characteristics of paper Table 3."""

    def test_l1_capacity_32kb(self):
        assert origin2000().level("L1").capacity == 32 * 1024

    def test_l1_line_32b(self):
        assert origin2000().level("L1").line_size == 32

    def test_l1_line_count_1024(self):
        assert origin2000().level("L1").num_lines == 1024

    def test_l2_capacity_4mb(self):
        assert origin2000().level("L2").capacity == 4 * 1024 * 1024

    def test_l2_line_128b(self):
        assert origin2000().level("L2").line_size == 128

    def test_l2_line_count_32768(self):
        assert origin2000().level("L2").num_lines == 32768

    def test_tlb_64_entries(self):
        assert origin2000().level("TLB").num_lines == 64

    def test_tlb_page_16kb(self):
        assert origin2000().level("TLB").line_size == 16 * 1024

    def test_tlb_capacity_1mb(self):
        assert origin2000().level("TLB").capacity == 1024 * 1024

    def test_tlb_miss_latency_228ns(self):
        tlb = origin2000().level("TLB")
        assert tlb.seq_miss_latency_ns == 228.0
        assert tlb.rand_miss_latency_ns == 228.0

    def test_l1_latencies(self):
        l1 = origin2000().level("L1")
        assert l1.seq_miss_latency_ns == 8.0
        assert l1.rand_miss_latency_ns == 24.0

    def test_l2_latencies(self):
        l2 = origin2000().level("L2")
        assert l2.seq_miss_latency_ns == 188.0
        assert l2.rand_miss_latency_ns == 400.0

    def test_cpu_speed_250mhz(self):
        assert origin2000().cpu_speed_mhz == 250.0

    def test_l1_seq_bandwidth_matches_table3(self):
        # Table 3: 3815 MB/s = 32 B / 8 ns within rounding.
        mb_per_s = origin2000().level("L1").seq_miss_bandwidth * 1e9 / (1024 * 1024)
        assert mb_per_s == pytest.approx(3815, rel=0.01)

    def test_l2_rand_bandwidth_matches_table3(self):
        # Table 3: 246 MB/s ~ 128 B / 400 ns minus rounding (305 exact);
        # check the latency-derived value.
        assert origin2000().level("L2").rand_miss_bandwidth == pytest.approx(0.32)


class TestScaledProfile:
    def test_capacity_ordering_preserved(self):
        hw = origin2000_scaled()
        caps = [hw.level(n).capacity for n in ("L1", "TLB", "L2")]
        assert caps == sorted(caps)

    def test_same_latencies_as_original(self):
        big, small = origin2000(), origin2000_scaled()
        for name in ("L1", "L2", "TLB"):
            assert (big.level(name).seq_miss_latency_ns
                    == small.level(name).seq_miss_latency_ns)

    def test_same_data_line_sizes(self):
        big, small = origin2000(), origin2000_scaled()
        for name in ("L1", "L2"):
            assert big.level(name).line_size == small.level(name).line_size

    def test_capacity_separation_preserved(self):
        # L1 and L2 stay well separated (>= 16x) so the experiments'
        # crossovers remain distinct, even though the scale factors per
        # level differ (the TLB keeps more entries than a uniform 1/64).
        small = origin2000_scaled()
        assert small.level("L2").capacity >= 16 * small.level("L1").capacity


class TestOtherProfiles:
    def test_modern_x86_has_three_data_levels(self):
        assert len(modern_x86().levels) == 3

    def test_disk_extended_appends_buffer_pool(self):
        hw = disk_extended()
        assert hw.levels[-1].name == "BufferPool"

    def test_disk_random_latency_is_seek_dominated(self):
        pool = disk_extended().level("BufferPool")
        assert pool.rand_miss_latency_ns > 100 * pool.seq_miss_latency_ns

    def test_disk_extended_keeps_base_levels(self):
        base = modern_x86()
        hw = disk_extended(base)
        assert [l.name for l in hw.levels[:-1]] == [l.name for l in base.levels]

    def test_tiny_machine_is_valid(self):
        hw = tiny_test_machine()
        assert hw.level("L1").num_lines == 16
        assert hw.level("L2").num_lines == 32
        assert hw.level("TLB").num_lines == 4


GOLDEN = pathlib.Path(__file__).parent / "golden" / "machine_profiles.json"

MACHINES = {
    "origin2000": origin2000,
    "origin2000_scaled": origin2000_scaled,
    "modern_x86": modern_x86,
    "disk_extended": disk_extended,
    "disk_extended_scaled": disk_extended_scaled,
    "tiny_test_machine": tiny_test_machine,
    "parametric_profile": parametric_profile,
    "parametric_tiny_pool": lambda: parametric_profile(**TINY_POOL_BASE),
}


def _pinned(machine) -> dict:
    return {"fingerprint": machine.fingerprint(),
            "profile": hierarchy_to_dict(machine)}


class TestPinnedMachines:
    """Every stock machine and the two parametric baselines, field by
    field (``tests/golden/machine_profiles.json``, generated before the
    stock profiles became calls of :func:`parametric_profile`).  A
    change here re-prices every plan and retires every cached one;
    regenerate with ``REPRO_UPDATE_GOLDEN=1`` only when that is meant.
    """

    def test_golden_is_complete(self):
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN.write_text(json.dumps(
                {name: _pinned(build()) for name, build in MACHINES.items()},
                indent=1, sort_keys=True) + "\n")
        assert sorted(json.loads(GOLDEN.read_text())) == sorted(MACHINES)

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_profile_and_fingerprint(self, name):
        assert _pinned(MACHINES[name]()) == json.loads(GOLDEN.read_text())[name]
