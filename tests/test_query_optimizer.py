"""The cost-driven plan enumerator: logical algebra, join ordering,
implementation selection, and end-to-end validation on the simulator."""

import pytest

from repro.core import Conc, CostModel, DataRegion, Seq, seq
from repro.db import Database, random_permutation
from repro.query import (
    Aggregate,
    Filter,
    HashJoinNode,
    Join,
    Optimizer,
    PartitionedHashJoinNode,
    PlannerConfig,
    ProjectNode,
    QueryPlan,
    Relation,
    ScanNode,
    SelectNode,
    Sort,
    SortNode,
)


@pytest.fixture
def db(scaled):
    return Database(scaled)


def three_relation_workload(db, n=1024, small=256):
    """orders ⋈ customers ⋈ nations (shared key domain), grouped by key."""
    orders = db.create_column("orders", random_permutation(n, seed=1), width=8)
    customers = db.create_column("customers", random_permutation(n, seed=2),
                                 width=8)
    nations = db.create_column("nations", list(range(small)), width=8)
    logical = Aggregate(
        Join(Join(Relation.of_column(orders), Relation.of_column(customers)),
             Relation.of_column(nations)),
        groups=small,
    )
    return logical, (orders, customers, nations)


class TestLogicalAlgebra:
    def test_relation_needs_column_or_region(self):
        with pytest.raises(ValueError):
            Relation()
        with pytest.raises(ValueError):
            Relation(column=object(), region=DataRegion("R", 1, 8))

    def test_region_relation(self):
        rel = Relation.of_region(DataRegion("R", 100, 8))
        assert rel.output_region().n == 100

    def test_filter_shrinks_cardinality(self):
        rel = Relation.of_region(DataRegion("R", 1000, 8))
        filt = Filter(rel, lambda v: True, selectivity=0.25)
        assert filt.output_region().n == 250

    def test_join_cardinality_is_min_times_match(self):
        a = Relation.of_region(DataRegion("A", 1000, 8))
        b = Relation.of_region(DataRegion("B", 100, 8))
        join = Join(a, b, match_fraction=0.5)
        assert join.output_region().n == 50

    def test_invalid_hints_rejected(self):
        rel = Relation.of_region(DataRegion("R", 10, 8))
        with pytest.raises(ValueError):
            Filter(rel, lambda v: True, selectivity=0.0)
        with pytest.raises(ValueError):
            Join(rel, rel, match_fraction=1.5)
        with pytest.raises(ValueError):
            Aggregate(rel, groups=0)

    def test_describe_renders_tree(self):
        rel = Relation.of_region(DataRegion("R", 10, 8))
        text = Aggregate(Filter(rel, lambda v: True, 0.5), groups=4).describe()
        assert "aggregate" in text and "filter" in text and "relation" in text


class TestEnumeration:
    def test_implementation_selection_covers_algorithms(self, scaled):
        """Big operands: merge, hash and partitioned hash all enumerated."""
        a = Relation.of_region(DataRegion("A", 1_000_000, 8))
        b = Relation.of_region(DataRegion("B", 1_000_000, 8))
        opt = Optimizer(scaled)
        pq = opt.optimize(Join(a, b))
        signatures = {c.signature for c in pq}
        assert any(s.startswith("mj(") for s in signatures)
        assert any(s.startswith("hj(") for s in signatures)
        assert any(s.startswith("phj[") for s in signatures)

    def test_partition_count_injected_from_advisor(self, scaled):
        from repro.optimizer import JoinAdvisor
        a = Relation.of_region(DataRegion("A", 1_000_000, 8))
        b = Relation.of_region(DataRegion("B", 1_000_000, 8))
        pq = Optimizer(scaled).optimize(Join(a, b))
        phj = [c for c in pq if c.signature.startswith("phj[")]
        assert phj
        expected = JoinAdvisor(scaled).recommend_partitions(
            DataRegion("B", 1_000_000, 8))
        assert all(c.plan.root.partitions == expected for c in phj)

    def test_nested_loop_only_when_requested(self, scaled):
        a = Relation.of_region(DataRegion("A", 1000, 8))
        b = Relation.of_region(DataRegion("B", 1000, 8))
        without = Optimizer(scaled).optimize(Join(a, b))
        assert not any("nlj" in c.signature for c in without)
        with_nl = Optimizer(
            scaled, PlannerConfig(include_nested_loop=True)).optimize(Join(a, b))
        assert any("nlj" in c.signature for c in with_nl)

    def test_merge_join_inputs_sorted_via_sort_ahead(self, scaled):
        a = Relation.of_region(DataRegion("A", 10_000, 8))
        b = Relation.of_region(DataRegion("B", 10_000, 8), sorted=True)
        pq = Optimizer(scaled).optimize(Join(a, b))
        merges = [c for c in pq if c.signature.startswith("mj(")]
        assert merges
        for cand in merges:
            node = cand.plan.root
            assert node.left.produces_sorted_output
            assert node.right.produces_sorted_output
        # the pre-sorted side must not be re-sorted
        assert any("sort(B)" not in c.signature and "sort(A)" in c.signature
                   for c in merges)

    def test_reorder_enumerates_both_associations(self, scaled):
        a = Relation.of_region(DataRegion("A", 4096, 8))
        b = Relation.of_region(DataRegion("B", 4096, 8))
        c = Relation.of_region(DataRegion("C", 512, 8))
        pq = Optimizer(scaled).optimize(Join(Join(a, b), c))
        signatures = {cand.signature for cand in pq}
        # some plan joins C early, some joins it last
        assert any("hj(C" in s or "(C," in s for s in signatures)
        assert any(s.endswith("C)") for s in signatures)

    def test_sort_request_satisfied(self, scaled):
        a = Relation.of_region(DataRegion("A", 4096, 8))
        pq = Optimizer(scaled).optimize(Sort(Filter(a, lambda v: True, 0.5)))
        for cand in pq:
            assert cand.plan.root.produces_sorted_output

    def test_dp_matches_exhaustive_best(self, db, scaled):
        logical, _ = three_relation_workload(db)
        opt = Optimizer(scaled, PlannerConfig(include_nested_loop=True))
        exhaustive = opt.optimize(logical, method="exhaustive")
        dp = opt.optimize(logical, method="dp")
        assert dp.best.total_ns == pytest.approx(exhaustive.best.total_ns)
        assert len(dp) < len(exhaustive)

    def test_aggregate_implementation_choice(self, scaled):
        a = Relation.of_region(DataRegion("A", 65_536, 8))
        pq = Optimizer(scaled).optimize(Aggregate(a, groups=16))
        signatures = {c.signature for c in pq}
        assert any(s.startswith("agg(") for s in signatures)
        assert any(s.startswith("sort_agg(") for s in signatures)


def execute_restoring(db, candidate, base_columns, summarize):
    """Execute one candidate cold, then restore the base columns (plans
    sort shared base columns in place)."""
    saved = {col: list(col.values) for col in base_columns}
    out, snapshot = db.execute_measured(candidate.plan)
    result = summarize(out)
    for col, values in saved.items():
        col.values = values
    return snapshot.elapsed_ns, result


def spread_picks(candidates, chosen, separation=1.4, limit=4):
    """The chosen candidate plus candidates whose predicted memory cost
    is pairwise separated by ``separation`` — ties between near-equal
    plans say nothing about ranking fidelity."""
    picks = [chosen]
    for cand in sorted(candidates, key=lambda c: c.memory_ns):
        if cand.memory_ns >= separation * max(p.memory_ns for p in picks):
            picks.append(cand)
        if len(picks) >= limit:
            break
    return picks


class TestEndToEnd:
    """The acceptance workload: the chosen plan must beat the worst
    enumerated plan by >= 2x predicted, and the predicted ranking must
    match the simulator (best predicted == best simulated)."""

    def test_chosen_plan_beats_worst_and_matches_simulator(self, db, scaled):
        orders = db.create_column("orders", random_permutation(2048, seed=1),
                                  width=8)
        customers = db.create_column("customers",
                                     random_permutation(2048, seed=2), width=8)
        nations = db.create_column("nations", list(range(256)), width=8)
        columns = (orders, customers, nations)
        logical = Join(Join(Relation.of_column(orders),
                            Relation.of_column(customers)),
                       Relation.of_column(nations))
        opt = Optimizer(scaled, PlannerConfig(include_nested_loop=True))
        pq = opt.optimize(logical)

        # >= 2x predicted spread between chosen and worst enumerated plan
        assert pq.worst.total_ns >= 2.0 * pq.best.total_ns

        # Execute well-separated candidates and compare rankings.  The
        # simulator measures memory time, so the comparison uses the
        # predicted memory term; nested-loop plans are excluded from
        # execution (their cost is the pure-CPU comparison count, which
        # a memory trace cannot observe).
        chosen = pq.best
        assert "nlj" not in chosen.signature
        executable = [c for c in pq.candidates if "nlj" not in c.signature]
        picks = spread_picks(executable, chosen)
        assert len(picks) >= 3
        runs = [execute_restoring(db, cand, columns,
                                  lambda out: len(out.values))
                for cand in picks]

        # every plan computes the same join result
        assert {rows for _, rows in runs} == {256}

        # the predicted (memory) ranking is the measured ranking, so the
        # enumerator's chosen plan is also the best simulated plan
        times = [t for t, _ in runs]
        assert times == sorted(times)
        assert times[0] == min(times)
        # and the model's absolute prediction is in range for the winner
        assert 0.3 * picks[0].memory_ns <= times[0] <= 3.0 * picks[0].memory_ns

    def test_filter_above_join_executes(self, db, scaled):
        """A selection (and the sorts DP inserts) above a join still
        allows key recovery for the projection the next operator
        needs — recovery is value-based, not row-based."""
        a = db.create_column("A", random_permutation(128, seed=21), width=8)
        b = db.create_column("B", random_permutation(128, seed=22), width=8)
        logical = Aggregate(
            Filter(Join(Relation.of_column(a), Relation.of_column(b)),
                   lambda pair: pair[0] % 2 == 0, selectivity=0.5),
            groups=128)
        pq = Optimizer(scaled).optimize(logical)
        for cand in pq.candidates[:3]:
            out = db.execute(cand.plan)
            assert sum(count for _, count in out.values) == 64

    def test_sorted_pairs_recover_keys(self, db, scaled):
        """Sorting join pairs reorders rows; projection afterwards must
        still recover the right keys (value-based recovery)."""
        values = random_permutation(64, seed=23)
        a = db.create_column("A", values, width=8)
        b = db.create_column("B", random_permutation(64, seed=24), width=8)
        for join in (HashJoinNode(ScanNode(a), ScanNode(b)),
                     PartitionedHashJoinNode(ScanNode(a), ScanNode(b),
                                             partitions=4)):
            plan = QueryPlan(ProjectNode(SortNode(join)))
            out = plan.execute(db)
            assert sorted(out.values) == sorted(values)

    def test_pinned_nested_aggregate_projects_join_keys(self, db, scaled):
        """The canonical (pinned) plan normalizes a key_of-less
        aggregate over a join with a projection, like the enumerated
        path."""
        a = db.create_column("A", random_permutation(64, seed=25), width=8)
        b = db.create_column("B", random_permutation(64, seed=26), width=8)
        logical = Aggregate(
            Aggregate(Join(Relation.of_column(a), Relation.of_column(b)),
                      groups=64),
            groups=8, key_of=lambda pair: pair[0] % 8)
        pq = Optimizer(scaled).optimize(logical)
        assert len(pq) == 1
        out = db.execute(pq.best.plan)
        assert sum(count for _, count in out.values) == 64

    def test_aggregate_plans_agree_across_shapes(self, db, scaled):
        """Reordered + differently implemented aggregate plans all
        produce the same grouped result on the simulator."""
        logical, columns = three_relation_workload(db, n=512, small=128)
        pq = Optimizer(scaled).optimize(logical)
        picks = [pq.candidates[0], pq.candidates[len(pq) // 3],
                 pq.candidates[2 * len(pq) // 3]]
        runs = [execute_restoring(
                    db, cand, columns,
                    lambda out: (len(out.values),
                                 sum(count for _, count in out.values)))
                for cand in picks]
        assert {res for _, res in runs} == {(128, 128)}

    def test_fixed_association_when_match_fraction_hints(self, db, scaled):
        """Non-unit match fractions disable reordering but keep
        implementation selection."""
        logical, _ = three_relation_workload(db)
        join = logical.child
        join.match_fraction = 0.5
        pq = Optimizer(scaled).optimize(logical)
        # all candidates keep nations as the last join's right input
        assert all("nations)" in c.signature.replace(" ", "")
                   or "nations))" in c.signature.replace(" ", "")
                   for c in pq)


def materialized(plan):
    """``plan`` with every edge materialized (Eq. 5.2 over every edge):
    the post-order ``⊕`` of each node's own pattern."""
    return seq(*(n.pattern() for n in plan.root.walk()))


class TestPipelineAwareness:
    def test_pipelined_estimate_below_materialized(self, db, scaled):
        """Acceptance: select -> join pipeline costs less with ``⊙``
        edges than with all-``⊕`` materialization."""
        model = CostModel(scaled)
        n = 32_768
        left = db.create_column("U", random_permutation(n, seed=3), width=8)
        right = db.create_column("V", random_permutation(n, seed=4), width=8)
        plan = QueryPlan(HashJoinNode(
            SelectNode(ScanNode(left), lambda v: v % 2 == 0, selectivity=0.5),
            ScanNode(right),
        ))
        piped = plan.estimate(model, cpu_ns=0.0).memory_ns
        assert piped < model.estimate(materialized(plan), cpu_ns=0.0).memory_ns

    def test_pipelined_edge_uses_conc(self, db, scaled):
        """The probe phase ``⊙``-combines with the select's stream: one
        concurrent group contains the base input sweep, the intermediate
        sweep and the hash probes."""
        left = db.create_column("U", list(range(1024)), width=8)
        right = db.create_column("V", list(range(1024)), width=8)
        plan = QueryPlan(HashJoinNode(
            SelectNode(ScanNode(left), lambda v: True, selectivity=0.5),
            ScanNode(right),
        ))
        piped = plan.pattern()
        assert isinstance(piped, Seq)
        conc_groups = [p for p in piped.parts if isinstance(p, Conc)]
        merged = [
            g for g in conc_groups
            if {"U", "H(V)"} <= {r.name for r in g.regions()}
        ]
        assert merged, "probe phase should run concurrently with the select"
        # with materialization, no concurrent group spans select + probe
        for part in materialized(plan).parts:
            if isinstance(part, Conc):
                names = {r.name for r in part.regions()}
                assert not {"U", "H(V)"} <= names

    def test_blocking_edge_stays_sequential(self, db, scaled):
        """A sort child materializes: no ``⊙`` across the sort edge."""
        from repro.query import MergeJoinNode, SortNode
        left = db.create_column("U", random_permutation(256, seed=5), width=8)
        right = db.create_column("V", list(range(256)), width=8)
        plan = QueryPlan(MergeJoinNode(
            SortNode(ScanNode(left)),
            ScanNode(right, sorted=True),
        ))
        piped = plan.pattern()
        assert isinstance(piped, Seq)
        # the sort runs to completion before the merge's concurrent sweeps
        *prefix, merge = piped.parts
        assert prefix, "sort must appear as a sequential prefix"
        assert isinstance(merge, Conc)
