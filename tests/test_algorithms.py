"""The Table 2 pattern library."""

import pytest

from repro.core import (
    Conc,
    DataRegion,
    Nest,
    QuickSort,
    RAcc,
    RSTrav,
    RTrav,
    Seq,
    STrav,
    TABLE2,
    duplicate_elimination_pattern,
    hash_aggregate_pattern,
    hash_build_pattern,
    hash_join_pattern,
    hash_probe_pattern,
    hash_table_region,
    merge_join_pattern,
    nested_loop_join_pattern,
    partition_pattern,
    partitioned_hash_join_pattern,
    project_pattern,
    quick_sort_pattern,
    scan_pattern,
    select_pattern,
    sort_aggregate_pattern,
)


@pytest.fixture
def regions():
    U = DataRegion("U", n=1000, w=8)
    V = DataRegion("V", n=800, w=8)
    W = DataRegion("W", n=1000, w=16)
    return U, V, W


class TestUnary:
    def test_scan_is_single_strav(self, regions):
        U, _, _ = regions
        pattern = scan_pattern(U)
        assert isinstance(pattern, STrav)
        assert pattern.seq_latency

    def test_select_concurrent_in_out(self, regions):
        U, _, W = regions
        pattern = select_pattern(U, W)
        assert isinstance(pattern, Conc)
        assert len(pattern.parts) == 2

    def test_project_reads_u_bytes(self, regions):
        U, _, W = regions
        pattern = project_pattern(U, W, u=4)
        assert pattern.parts[0].used_bytes == 4


class TestQuickSort:
    """The sort is one node; its passes are enumerated on demand."""

    def test_top_pass_two_concurrent_halves(self, regions):
        U, _, _ = regions
        pattern = quick_sort_pattern(U, stop_bytes=U.size)
        assert isinstance(pattern, Conc)  # no recursion: the pass itself
        left, right = pattern.parts
        assert left.region.n + right.region.n == U.n
        sort = quick_sort_pattern(U, stop_bytes=U.size // 4)
        assert isinstance(sort, QuickSort)
        assert next(sort.passes()) == pattern == sort.first_pass()

    def test_recursion_depth_bounded_by_log(self, regions):
        U, _, _ = regions
        pattern = quick_sort_pattern(U, stop_bytes=1)

        def depth(step):
            # the halves of a depth-d pass carry d + 1 "@" suffixes
            return step.parts[0].region.name.count("@")

        import math
        deepest = max(depth(step) for step in pattern.passes())
        assert deepest <= math.ceil(math.log2(U.n)) + 1

    def test_stop_bytes_prunes(self, regions):
        U, _, _ = regions
        deep = quick_sort_pattern(U, stop_bytes=U.size // 64)
        shallow = quick_sort_pattern(U, stop_bytes=U.size // 4)

        def count(sort):
            return sum(len(step.parts) for step in sort.passes())

        assert count(shallow) < count(deep)

    def test_subregions_parented_to_input(self, regions):
        U, _, _ = regions
        pattern = quick_sort_pattern(U, stop_bytes=U.size // 4)
        for region in pattern.regions():
            assert region.root() is U
        assert pattern.regions() == [
            cursor.region for step in pattern.passes() for cursor in step.parts]


class TestHashPatterns:
    def test_hash_table_region_width(self, regions):
        _, V, _ = regions
        H = hash_table_region(V)
        assert H.n == V.n and H.w == 16

    def test_build_sequential_input_random_table(self, regions):
        _, V, _ = regions
        H = hash_table_region(V)
        pattern = hash_build_pattern(V, H)
        assert isinstance(pattern.parts[0], STrav)
        assert isinstance(pattern.parts[1], RTrav)

    def test_probe_hits_once_per_outer_item(self, regions):
        U, V, W = regions
        H = hash_table_region(V)
        pattern = hash_probe_pattern(U, H, W)
        racc = [p for p in pattern.parts if isinstance(p, RAcc)][0]
        assert racc.r == U.n

    def test_hash_join_is_build_then_probe(self, regions):
        U, V, W = regions
        pattern = hash_join_pattern(U, V, W)
        assert isinstance(pattern, Seq)
        assert len(pattern.parts) == 2

    def test_hash_join_honours_explicit_h(self, regions):
        U, V, W = regions
        H = DataRegion("Hx", n=2048, w=16)
        pattern = hash_join_pattern(U, V, W, H=H)
        assert any(r.name == "Hx" for r in pattern.regions())


class TestJoins:
    def test_merge_join_three_sweeps(self, regions):
        U, V, W = regions
        pattern = merge_join_pattern(U, V, W)
        assert isinstance(pattern, Conc)
        assert all(isinstance(p, STrav) for p in pattern.parts)

    def test_nested_loop_inner_repeats(self, regions):
        U, V, W = regions
        pattern = nested_loop_join_pattern(U, V, W)
        inner = [p for p in pattern.parts if isinstance(p, RSTrav)][0]
        assert inner.r == U.n


class TestPartitioning:
    def test_partition_nest_parameters(self, regions):
        U, _, _ = regions
        H = DataRegion("H", n=U.n, w=U.w)
        pattern = partition_pattern(U, H, m=16)
        nest = [p for p in pattern.parts if isinstance(p, Nest)][0]
        assert nest.m == 16
        assert nest.local == "s_trav"

    def test_partitioned_hash_join_one_join_per_pair(self, regions):
        U, V, _ = regions
        m = 4
        W_parts = tuple(DataRegion(f"W{j}", 250, 16) for j in range(m))
        pattern = partitioned_hash_join_pattern(U.split(m), V.split(m), W_parts)
        assert isinstance(pattern, Seq)
        # Each pair contributes a build and a probe phase; ⊕ associativity
        # flattens the nested sequences.
        assert len(pattern.parts) == 2 * m

    def test_mismatched_partition_counts_rejected(self, regions):
        U, V, _ = regions
        with pytest.raises(ValueError):
            partitioned_hash_join_pattern(
                U.split(4), V.split(2),
                tuple(DataRegion(f"W{j}", 1, 16) for j in range(4)))

    def test_h_region_override_count_checked(self, regions):
        U, V, _ = regions
        W_parts = tuple(DataRegion(f"W{j}", 1, 16) for j in range(2))
        with pytest.raises(ValueError):
            partitioned_hash_join_pattern(
                U.split(2), V.split(2), W_parts,
                H_regions=(DataRegion("H", 1, 16),))


class TestAggregates:
    def test_sort_aggregate_sorts_then_scans(self, regions):
        U, _, W = regions
        pattern = sort_aggregate_pattern(U, W, stop_bytes=U.size)
        assert isinstance(pattern, Seq)

    def test_hash_aggregate_uses_group_table(self, regions):
        U, _, W = regions
        G = DataRegion("G", n=64, w=16)
        pattern = hash_aggregate_pattern(U, G, W)
        raccs = [p for part in pattern.parts for p in getattr(part, "parts", [part])
                 if isinstance(p, RAcc)]
        assert raccs and raccs[0].r == U.n

    def test_duplicate_elimination_shape(self, regions):
        U, _, W = regions
        H = hash_table_region(U)
        pattern = duplicate_elimination_pattern(U, H, W)
        assert isinstance(pattern, Conc)


class TestTable2Registry:
    def test_all_rows_render(self):
        for row in TABLE2:
            assert row.algorithm
            assert row.description
            pattern = row.example()
            assert pattern.notation()

    def test_registry_covers_core_operators(self):
        names = " ".join(row.algorithm for row in TABLE2)
        for op in ("scan", "select", "sort", "hash_join", "merge_join",
                   "nl_join", "partition"):
            assert op in names
