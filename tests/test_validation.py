"""Integration: the model's predictions track the simulator's
measurements across the paper's experiments (small configurations).

These are the scientific acceptance tests of the reproduction: for every
figure, the predicted series must stay within a bounded factor of the
measured series and reproduce the paper's qualitative crossovers.
"""

import math

import pytest

from repro.validation import (
    figure5,
    figure6,
    figure7a_quicksort,
    figure7b_mergejoin,
    figure7c_hashjoin,
    figure7d_partition,
    figure7e_partitioned_hashjoin,
    geometric_mean_ratio,
    measure_traversal,
)


class TestFigure5:
    @pytest.fixture(scope="class")
    def seq(self):
        return figure5(n=1024, u_values=(1, 4, 16, 64, 128, 256))

    def test_rows_cover_u_values(self, seq):
        assert [row.x_label for row in seq.rows] == ["1", "4", "16", "64", "128", "256"]

    def test_alignment_spread_brackets_prediction(self, seq):
        """align=0 <= prediction <= align=-1 in the sparse-gap range."""
        for row in seq.rows:
            u = int(row.x_label)
            if u > 128:   # gap < Z: alignment has no effect
                continue
            assert row.measured["L1 align0"] <= row.predicted["L1 avg"] * 1.05
            assert row.measured["L1 align-1"] >= row.predicted["L1 avg"] * 0.95

    def test_average_matches_prediction(self, seq):
        for row in seq.rows:
            assert row.measured["L1 avg"] == pytest.approx(
                row.predicted["L1 avg"], rel=0.15)

    def test_random_variant_average_matches(self):
        rand = figure5(n=512, u_values=(1, 16, 64, 256), randomized=True)
        for row in rand.rows:
            assert row.measured["L1 avg"] == pytest.approx(
                row.predicted["L1 avg"], rel=0.3)


class TestFigure6:
    def test_sequential_l1_matches_exactly_when_dense(self):
        result = figure6(level="L1", widths=(4, 8, 16, 32))
        for row in result.rows:
            for key in result.level_keys:
                assert row.measured[key] == pytest.approx(
                    row.predicted[key], rel=0.05)

    @pytest.mark.parametrize("level", ["L1", "L2"])
    def test_one_key_per_size(self, level):
        """Each of the five default sizes keeps its own column (1.5 kB
        and 2 kB once both printed as 2kB, and the first was lost)."""
        result = figure6(level=level, widths=(8,))
        for row in result.rows:
            assert len(row.measured) == len(row.predicted) == 5

    def test_random_l1_within_factor(self):
        result = figure6(level="L1", widths=(4, 16, 64), randomized=True)
        for key in result.rows[0].measured:
            gm = geometric_mean_ratio(result.rows, key)
            assert 0.5 < gm < 2.0

    def test_fitting_sizes_sequential_equals_random(self):
        seq = figure6(level="L1", widths=(8,))
        rnd = figure6(level="L1", widths=(8,), randomized=True)
        # Smallest size (half capacity): same measured misses.
        key = seq.rows[0] and list(seq.rows[0].measured)[0]
        assert seq.rows[0].measured[key] == pytest.approx(
            rnd.rows[0].measured[key], rel=0.05)


class TestMeasureTraversal:
    def test_alignment_shifts_misses(self, scaled):
        base = measure_traversal(scaled, n=256, w=48, u=8, align=0)
        worst = measure_traversal(scaled, n=256, w=48, u=8, align=-1)
        assert worst["L1"] > base["L1"]

    def test_random_not_cheaper_than_sequential(self, scaled):
        seq = measure_traversal(scaled, n=2048, w=8, u=8)
        rnd = measure_traversal(scaled, n=2048, w=8, u=8, randomized=True)
        assert rnd["time_us"] >= seq["time_us"]


class TestFigure7:
    """Each operator experiment must track the simulator within a
    bounded factor and show the paper's qualitative behaviour."""

    def test_quicksort_within_factor_two(self):
        result = figure7a_quicksort(sizes_kb=(4, 16, 64, 128))
        for key in ("L2", "TLB", "time_us"):
            assert result.max_ratio_error(key) <= 1.0, result.render()

    def test_quicksort_l2_step_beyond_capacity(self):
        result = figure7a_quicksort(sizes_kb=(16, 256))
        small, big = result.rows
        # 16 kB fits L2 (64 kB): compulsory only.  256 kB = 4x L2: the
        # per-byte miss cost must rise clearly (the Figure 7a step).
        small_per_byte = small.measured["L2"] / 16
        big_per_byte = big.measured["L2"] / 256
        assert big_per_byte > 1.5 * small_per_byte

    def test_mergejoin_tight_agreement(self):
        result = figure7b_mergejoin(sizes_kb=(4, 16, 64, 128))
        for key in ("L1", "L2", "TLB"):
            gm = geometric_mean_ratio(result.rows, key)
            assert 0.8 < gm < 1.25, result.render()

    def test_mergejoin_linear_in_size(self):
        result = figure7b_mergejoin(sizes_kb=(16, 128))
        small, big = result.rows
        assert big.measured["L1"] == pytest.approx(8 * small.measured["L1"],
                                                   rel=0.1)

    def test_hashjoin_within_factor(self):
        result = figure7c_hashjoin(sizes_kb=(4, 16, 64))
        for key in ("L2", "TLB"):
            gm = geometric_mean_ratio(result.rows, key)
            assert 0.3 < gm < 2.0, result.render()

    def test_hashjoin_random_penalty_appears_beyond_cache(self):
        result = figure7c_hashjoin(sizes_kb=(4, 64))
        small, big = result.rows
        # ||H|| growth 16x; beyond-cache random access must grow TLB
        # misses much faster than linearly.
        assert big.measured["TLB"] > 30 * small.measured["TLB"]
        assert big.predicted["TLB"] > 30 * small.predicted["TLB"]

    def test_partition_crossover_at_tlb_entries(self):
        result = figure7d_partition(total_kb=64, m_values=(4, 64))
        few, many = result.rows
        # 8 TLB entries: m=64 thrashes the TLB, m=4 does not.
        assert many.measured["TLB"] > 3 * few.measured["TLB"]
        assert many.predicted["TLB"] > 3 * few.predicted["TLB"]

    def test_partition_crossover_at_l1_lines(self):
        result = figure7d_partition(total_kb=64, m_values=(16, 512))
        few, many = result.rows
        # 64 L1 lines: m=512 thrashes L1.
        assert many.measured["L1"] > 1.5 * few.measured["L1"]
        assert many.predicted["L1"] > 1.5 * few.predicted["L1"]

    def test_partitioned_hashjoin_improves_once_fitting(self):
        result = figure7e_partitioned_hashjoin(total_kb=64,
                                               m_values=(1, 16))
        whole, fitting = result.rows
        # Partitions fitting the TLB/L2 slash both measured and
        # predicted join cost (Figure 7e).
        assert fitting.measured["time_us"] < 0.5 * whole.measured["time_us"]
        assert fitting.predicted["time_us"] < 0.5 * whole.predicted["time_us"]

    def test_renders_do_not_crash(self):
        result = figure7b_mergejoin(sizes_kb=(4,))
        text = result.render()
        assert "Merge-Join" in text and "L1 meas" in text
