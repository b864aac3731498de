"""Joins, partitioning and aggregation vs naive references."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import tiny_test_machine
from repro.db import (
    Database,
    hash_aggregate,
    hash_distinct,
    hash_join,
    join_partitions,
    merge_join,
    nested_loop_join,
    partition,
    partition_key,
    random_permutation,
    sort_aggregate,
    sort_distinct,
    uniform_ints,
)


def reference_join(left, right):
    out = []
    for i, lv in enumerate(left):
        for j, rv in enumerate(right):
            if lv == rv:
                out.append((i, j))
    return sorted(out)


class TestMergeJoin:
    def test_one_to_one(self, tiny):
        db = Database(tiny)
        left = db.create_column("U", list(range(50)), width=8)
        right = db.create_column("V", list(range(50)), width=8)
        out = merge_join(db, left, right)
        assert out.values == [(i, i) for i in range(50)]

    def test_partial_overlap(self, tiny):
        db = Database(tiny)
        left = db.create_column("U", [1, 3, 5, 7], width=8)
        right = db.create_column("V", [3, 4, 5, 6], width=8)
        out = merge_join(db, left, right, output_capacity=8)
        assert sorted(out.values) == [(1, 0), (2, 2)]

    def test_duplicates_cross_product(self, tiny):
        db = Database(tiny)
        left = db.create_column("U", [1, 2, 2, 3], width=8)
        right = db.create_column("V", [2, 2], width=8)
        out = merge_join(db, left, right, output_capacity=16)
        assert sorted(out.values) == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_overflow_raises(self, tiny):
        db = Database(tiny)
        left = db.create_column("U", [1] * 4, width=8)
        right = db.create_column("V", [1] * 4, width=8)
        with pytest.raises(RuntimeError):
            merge_join(db, left, right, output_capacity=2)

    @settings(max_examples=25, deadline=None)
    @given(left=st.lists(st.integers(0, 30), min_size=1, max_size=40),
           right=st.lists(st.integers(0, 30), min_size=1, max_size=40))
    def test_property_matches_reference(self, left, right):
        left, right = sorted(left), sorted(right)
        db = Database(tiny_test_machine())
        cl = db.create_column("U", list(left), width=8)
        cr = db.create_column("V", list(right), width=8)
        out = merge_join(db, cl, cr, output_capacity=len(left) * len(right) + 1)
        assert sorted(out.values) == reference_join(left, right)


class TestHashAndNestedLoopJoin:
    def test_hash_join_one_to_one(self, tiny):
        db = Database(tiny)
        left = db.create_column("U", random_permutation(64, seed=1), width=8)
        right = db.create_column("V", random_permutation(64, seed=2), width=8)
        out, table = hash_join(db, left, right)
        pairs = {(left.peek(i), right.peek(j)) for i, j in out.values}
        assert pairs == {(k, k) for k in range(64)}

    def test_nested_loop_matches_reference(self, tiny):
        db = Database(tiny)
        left = db.create_column("U", [5, 1, 5], width=8)
        right = db.create_column("V", [5, 5, 2], width=8)
        out = nested_loop_join(db, left, right, output_capacity=10)
        assert sorted(out.values) == reference_join([5, 1, 5], [5, 5, 2])

    @settings(max_examples=20, deadline=None)
    @given(left=st.lists(st.integers(0, 20), min_size=1, max_size=30),
           right=st.lists(st.integers(0, 20), min_size=1, max_size=30))
    def test_property_hash_join_matches_reference(self, left, right):
        db = Database(tiny_test_machine())
        cl = db.create_column("U", list(left), width=8)
        cr = db.create_column("V", list(right), width=8)
        out, _ = hash_join(db, cl, cr,
                           output_capacity=len(left) * len(right) + 1)
        assert sorted(out.values) == reference_join(left, right)


class TestPartition:
    def test_partition_preserves_multiset(self, tiny):
        db = Database(tiny)
        values = uniform_ints(200, seed=5)
        col = db.create_column("U", list(values), width=8)
        parts = partition(db, col, m=8)
        collected = [v for cluster in parts for v in cluster.values]
        assert sorted(collected) == sorted(values)

    def test_partition_respects_key_function(self, tiny):
        db = Database(tiny)
        values = uniform_ints(100, seed=6)
        col = db.create_column("U", list(values), width=8)
        parts = partition(db, col, m=4)
        for j, cluster in enumerate(parts):
            assert all(partition_key(v, 4) == j for v in cluster.values)

    def test_single_partition(self, tiny):
        db = Database(tiny)
        col = db.create_column("U", [3, 1, 2], width=8)
        parts = partition(db, col, m=1)
        assert parts.clusters[0].values == [3, 1, 2]

    def test_too_many_partitions_rejected(self, tiny):
        db = Database(tiny)
        col = db.create_column("U", [1, 2], width=8)
        with pytest.raises(ValueError):
            partition(db, col, m=3)

    def test_partitioned_join_equals_plain_join(self, tiny):
        db = Database(tiny)
        n = 128
        left = db.create_column("U", random_permutation(n, seed=7), width=8)
        right = db.create_column("V", random_permutation(n, seed=8), width=8)
        lparts = partition(db, left, m=4)
        rparts = partition(db, right, m=4)
        outputs, tables = join_partitions(db, lparts, rparts)
        pairs = set()
        for j, out in enumerate(outputs):
            for i, k in out.values:
                pairs.add((lparts.clusters[j].peek(i), rparts.clusters[j].peek(k)))
        assert pairs == {(k, k) for k in range(n)}

    def test_mismatched_counts_rejected(self, tiny):
        db = Database(tiny)
        left = db.create_column("U", list(range(16)), width=8)
        right = db.create_column("V", list(range(16)), width=8)
        with pytest.raises(ValueError):
            join_partitions(db, partition(db, left, 2), partition(db, right, 4))


class TestAggregates:
    def test_hash_aggregate_counts(self, tiny):
        db = Database(tiny)
        col = db.create_column("U", [1, 2, 1, 3, 1, 2], width=8)
        out = hash_aggregate(db, col, groups_hint=4)
        assert dict(out.values) == {1: 3, 2: 2, 3: 1}

    def test_sort_aggregate_counts(self, tiny):
        db = Database(tiny)
        col = db.create_column("U", [1, 2, 1, 3, 1, 2], width=8)
        out = sort_aggregate(db, col)
        assert dict(out.values) == {1: 3, 2: 2, 3: 1}

    def test_aggregates_agree(self, tiny):
        values = uniform_ints(300, hi=17, seed=9)
        db1, db2 = Database(tiny), Database(tiny)
        c1 = db1.create_column("U", list(values), width=8)
        c2 = db2.create_column("U", list(values), width=8)
        h = dict(hash_aggregate(db1, c1, groups_hint=32).values)
        s = dict(sort_aggregate(db2, c2).values)
        assert h == s

    def test_hash_distinct(self, tiny):
        db = Database(tiny)
        col = db.create_column("U", [3, 1, 3, 2, 1], width=8)
        out = hash_distinct(db, col)
        assert sorted(out.values) == [1, 2, 3]

    def test_sort_distinct(self, tiny):
        db = Database(tiny)
        col = db.create_column("U", [3, 1, 3, 2, 1], width=8)
        out = sort_distinct(db, col)
        assert out.values == [1, 2, 3]

    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(st.integers(0, 50), min_size=1, max_size=100))
    def test_property_distinct_variants_agree(self, values):
        db1, db2 = Database(tiny_test_machine()), Database(tiny_test_machine())
        c1 = db1.create_column("U", list(values), width=8)
        c2 = db2.create_column("U", list(values), width=8)
        assert (sorted(hash_distinct(db1, c1).values)
                == sort_distinct(db2, c2).values == sorted(set(values)))
