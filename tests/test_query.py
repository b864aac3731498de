"""Whole-query plans: execution correctness and derived costs."""

import pytest

from repro.core import CostModel, Seq, hash_capacity
from repro.db import Database, random_permutation, sorted_ints
from repro.hardware import origin2000_scaled
from repro.query import (
    AggregateNode,
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PartitionedHashJoinNode,
    ProjectNode,
    QueryPlan,
    ScanNode,
    SelectNode,
    SortAggregateNode,
    SortNode,
)


@pytest.fixture
def db(scaled):
    return Database(scaled)


class TestExecution:
    def test_select_plan(self, db):
        col = db.create_column("U", list(range(100)), width=8)
        plan = QueryPlan(SelectNode(ScanNode(col), lambda v: v < 10,
                                    selectivity=0.1))
        out = plan.execute(db)
        assert out.values == list(range(10))

    def test_sort_plan(self, db):
        col = db.create_column("U", random_permutation(128, seed=1), width=8)
        plan = QueryPlan(SortNode(ScanNode(col)))
        out = plan.execute(db)
        assert out.values == list(range(128))

    def test_sort_then_merge_join(self, db):
        left = db.create_column("U", random_permutation(64, seed=2), width=8)
        right = db.create_column("V", sorted_ints(64), width=8)
        plan = QueryPlan(MergeJoinNode(SortNode(ScanNode(left)),
                                       ScanNode(right)))
        out = plan.execute(db)
        assert len(out.values) == 64

    def test_hash_join_plan(self, db):
        left = db.create_column("U", random_permutation(64, seed=3), width=8)
        right = db.create_column("V", random_permutation(64, seed=4), width=8)
        plan = QueryPlan(HashJoinNode(ScanNode(left), ScanNode(right)))
        out = plan.execute(db)
        assert len(out.values) == 64

    def test_select_join_aggregate_pipeline(self, db):
        left = db.create_column("U", random_permutation(256, seed=5), width=8)
        right = db.create_column("V", random_permutation(256, seed=6), width=8)
        plan = QueryPlan(AggregateNode(
            HashJoinNode(
                SelectNode(ScanNode(left), lambda v: v % 2 == 0,
                           selectivity=0.5),
                ScanNode(right),
            ),
            groups=16,
            key_of=lambda pair: pair[0] % 16,
        ))
        out = plan.execute(db)
        assert sum(count for _, count in out.values) == 128

    def test_bare_scan_has_no_pattern(self, db):
        col = db.create_column("U", [1], width=8)
        plan = QueryPlan(ScanNode(col))
        with pytest.raises(ValueError):
            plan.pattern()

    def test_nested_loop_join_plan(self, db):
        left = db.create_column("U", random_permutation(32, seed=9), width=8)
        right = db.create_column("V", random_permutation(32, seed=10), width=8)
        plan = QueryPlan(NestedLoopJoinNode(ScanNode(left), ScanNode(right)))
        out = plan.execute(db)
        assert len(out.values) == 32

    def test_partitioned_hash_join_plan(self, db):
        left = db.create_column("U", random_permutation(256, seed=11), width=8)
        right = db.create_column("V", random_permutation(256, seed=12), width=8)
        plan = QueryPlan(PartitionedHashJoinNode(ScanNode(left),
                                                 ScanNode(right),
                                                 partitions=4))
        out = plan.execute(db)
        assert len(out.values) == 256

    def test_project_recovers_join_keys(self, db):
        values = random_permutation(64, seed=13)
        left = db.create_column("U", values, width=8)
        right = db.create_column("V", random_permutation(64, seed=14), width=8)
        plan = QueryPlan(ProjectNode(HashJoinNode(ScanNode(left),
                                                  ScanNode(right))))
        out = plan.execute(db)
        assert sorted(out.values) == sorted(values)

    def test_project_recovers_partitioned_join_keys(self, db):
        values = random_permutation(128, seed=15)
        left = db.create_column("U", values, width=8)
        right = db.create_column("V", random_permutation(128, seed=16), width=8)
        plan = QueryPlan(ProjectNode(PartitionedHashJoinNode(
            ScanNode(left), ScanNode(right), partitions=4)))
        out = plan.execute(db)
        assert sorted(out.values) == sorted(values)

    def test_sort_aggregate_plan(self, db):
        col = db.create_column("U", [v % 8 for v in range(64)], width=8)
        plan = QueryPlan(SortAggregateNode(ScanNode(col), groups=8))
        out = plan.execute(db)
        assert len(out.values) == 8
        assert all(count == 8 for _, count in out.values)


class TestCostDerivation:
    def test_plan_pattern_is_operator_sequence(self, db):
        left = db.create_column("U", sorted_ints(64), width=8)
        right = db.create_column("V", sorted_ints(64), width=8)
        plan = QueryPlan(MergeJoinNode(ScanNode(left), ScanNode(right)))
        # Single operator: pattern is the operator's own.
        assert plan.pattern() is not None

    def test_multi_operator_plan_is_seq(self, db):
        col = db.create_column("U", sorted_ints(64), width=8)
        plan = QueryPlan(AggregateNode(SelectNode(ScanNode(col),
                                                  lambda v: True,
                                                  selectivity=1.0),
                                       groups=8))
        assert isinstance(plan.pattern(), Seq)

    def test_selectivity_shrinks_downstream_cost(self, db, scaled):
        model = CostModel(scaled)
        col = db.create_column("U", list(range(4096)), width=8)

        def plan_for(selectivity):
            return QueryPlan(AggregateNode(
                SelectNode(ScanNode(col), lambda v: True,
                           selectivity=selectivity),
                groups=8))

        narrow = plan_for(0.1).estimate(model).memory_ns
        wide = plan_for(1.0).estimate(model).memory_ns
        assert narrow < wide

    def test_estimate_tracks_execution(self, db, scaled):
        """End-to-end: whole-plan predicted memory time within 2x of
        the simulated execution."""
        model = CostModel(scaled)
        n = 2048
        left = db.create_column("U", random_permutation(n, seed=7), width=8)
        right = db.create_column("V", random_permutation(n, seed=8), width=8)
        plan = QueryPlan(AggregateNode(
            HashJoinNode(ScanNode(left), ScanNode(right)),
            groups=32,
            key_of=lambda pair: pair[0] % 32,
        ))
        predicted = plan.estimate(model).memory_ns
        db.reset()
        with db.measure() as res:
            plan.execute(db)
        measured = res[0].elapsed_ns
        assert 0.5 * measured <= predicted <= 2.0 * measured

    def test_explain_renders(self, db, scaled):
        model = CostModel(scaled)
        col = db.create_column("U", sorted_ints(64), width=8)
        plan = QueryPlan(SelectNode(ScanNode(col), lambda v: True,
                                    selectivity=1.0))
        text = plan.explain(model)
        assert "select" in text and "total" in text

    def test_explain_shows_pattern_notation(self, db, scaled):
        """Each operator line carries its pattern in the paper's
        notation, so plan diffs are reviewable."""
        model = CostModel(scaled)
        left = db.create_column("U", sorted_ints(64), width=8)
        right = db.create_column("V", sorted_ints(64), width=8)
        plan = QueryPlan(MergeJoinNode(ScanNode(left), ScanNode(right)))
        text = plan.explain(model)
        assert "s_trav+(U) ⊙ s_trav+(V)" in text
        select_plan = QueryPlan(SelectNode(ScanNode(left), lambda v: True,
                                           selectivity=1.0))
        assert "s_trav+(U) ⊙ s_trav+(σ(U))" in select_plan.explain(model)

    def test_explain_structure_and_clipping(self, db, scaled):
        """One line per operator (post-order, scans marked access-free
        with —), a whole-plan total broken down per cache level, and
        notation clipped to the requested width."""
        model = CostModel(scaled)
        left = db.create_column("U", sorted_ints(256), width=8)
        right = db.create_column("V", sorted_ints(256), width=8)
        plan = QueryPlan(AggregateNode(
            ProjectNode(HashJoinNode(ScanNode(left), ScanNode(right))),
            groups=16))
        text = plan.explain(model)
        lines = text.splitlines()
        assert lines[0] == "plan (post-order):"
        # 5 operator lines + header + total + one row per cache level
        n_levels = len(scaled.all_levels)
        assert len(lines) == 7 + n_levels
        total_index = 6
        assert lines[total_index].strip().startswith("total")
        assert "T_mem" in lines[total_index]
        # one per-level breakdown row per hierarchy level, after total
        for level, line in zip(scaled.all_levels, lines[total_index + 1:]):
            assert line.strip().startswith(level.name)
            assert "seq" in line and "rand" in line
        # bare scans perform no access of their own
        assert sum("—" in line for line in lines) == 2
        # every operator line carries a T_mem figure and the out
        # cardinality of its node
        for line in lines[1:total_index]:
            assert "T_mem" in line and "out n=" in line
        # aggressive clipping shortens every notation to the ellipsis
        clipped = plan.explain(model, notation_width=8)
        assert any(line.rstrip().endswith("…")
                   for line in clipped.splitlines())

    def test_invalid_selectivity_rejected(self, db):
        col = db.create_column("U", [1], width=8)
        with pytest.raises(ValueError):
            SelectNode(ScanNode(col), lambda v: True, selectivity=0.0)

    def test_hash_regions_follow_engine_capacity_policy(self, db):
        """The plan layer's hash regions match what the engine actually
        allocates (one shared capacity-rounding policy)."""
        left = db.create_column("U", random_permutation(100, seed=17), width=8)
        right = db.create_column("V", random_permutation(100, seed=18), width=8)
        join = HashJoinNode(ScanNode(left), ScanNode(right))
        assert join._hash_region().n == hash_capacity(100)
        agg = AggregateNode(ScanNode(left), groups=12)
        assert agg._group_region().n == hash_capacity(12)
        out, table = __import__("repro.db.join", fromlist=["hash_join"]) \
            .hash_join(db, left, right)
        assert table.capacity == join._hash_region().n
