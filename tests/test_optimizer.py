"""Cost-based algorithm selection."""

import pytest
from hypothesis import given, strategies as st

from repro.core import CostModel, DataRegion
from repro.hardware import origin2000, origin2000_scaled
from repro.optimizer import AggregateAdvisor, JoinAdvisor, SortAdvisor
from repro.query import (
    AggregateNode,
    ExternalSortNode,
    GraceHashJoinNode,
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PartitionedHashJoinNode,
    QueryPlan,
    ScanNode,
    SortAggregateNode,
    SortNode,
    SpillingAggregateNode,
)


def regions(n, w=8, out_w=16):
    return (DataRegion("U", n=n, w=w),
            DataRegion("V", n=n, w=w),
            DataRegion("W", n=n, w=out_w))


class TestAdvisor:
    def test_rank_orders_by_cost(self, origin):
        advisor = JoinAdvisor(origin)
        ranked = advisor.rank(*regions(100_000))
        costs = [c.total_ns for c in ranked]
        assert costs == sorted(costs)

    def test_best_is_head_of_rank(self, origin):
        advisor = JoinAdvisor(origin)
        U, V, W = regions(50_000)
        assert advisor.best(U, V, W).algorithm == advisor.rank(U, V, W)[0].algorithm

    def test_sorted_inputs_favour_merge_join(self, origin):
        advisor = JoinAdvisor(origin, inputs_sorted=True)
        choice = advisor.best(*regions(1_000_000))
        assert choice.algorithm == "merge_join"

    def test_unsorted_large_inputs_avoid_pure_merge(self, origin):
        """With the sort charged, merge join loses against hash-based
        joins on large unsorted operands."""
        advisor = JoinAdvisor(origin, inputs_sorted=False)
        ranked = advisor.rank(*regions(4_000_000))
        assert ranked[0].algorithm in ("hash_join", "partitioned_hash_join")

    def test_cache_resident_tables_prefer_plain_hash_join(self, origin):
        """When the hash table fits L2, partitioning buys nothing."""
        advisor = JoinAdvisor(origin, inputs_sorted=False)
        U, V, W = regions(50_000)  # H = 800 KB < 4 MB L2
        hash_choice = advisor.hash_join_choice(U, V, W)
        part_choice = advisor.partitioned_hash_join_choice(U, V, W)
        assert hash_choice.total_ns <= part_choice.total_ns

    def test_oversized_tables_prefer_partitioned(self, origin):
        """Once the hash table vastly exceeds every cache, partitioning
        pays off (the paper's Section 6.2 motivation)."""
        advisor = JoinAdvisor(origin, inputs_sorted=False)
        U, V, W = regions(16_000_000)  # H = 256 MB >> 4 MB L2
        hash_choice = advisor.hash_join_choice(U, V, W)
        part_choice = advisor.partitioned_hash_join_choice(U, V, W)
        assert part_choice.total_ns < hash_choice.total_ns

    def test_nested_loop_only_when_requested(self, origin):
        advisor = JoinAdvisor(origin)
        U, V, W = regions(1000)
        names = [c.algorithm for c in advisor.rank(U, V, W)]
        assert "nested_loop_join" not in names
        names = [c.algorithm
                 for c in advisor.rank(U, V, W, include_nested_loop=True)]
        assert "nested_loop_join" in names

    def test_nested_loop_loses_at_scale(self, origin):
        advisor = JoinAdvisor(origin)
        ranked = advisor.rank(*regions(100_000), include_nested_loop=True)
        assert ranked[-1].algorithm == "nested_loop_join"


class TestPartitionRecommendation:
    def test_fitting_table_needs_no_partitioning(self, origin):
        advisor = JoinAdvisor(origin)
        V = DataRegion("V", n=1000, w=8)  # 16 KB hash table
        assert advisor.recommend_partitions(V) == 1

    def test_oversized_table_partitioned_to_cache(self, origin):
        advisor = JoinAdvisor(origin)
        V = DataRegion("V", n=4_000_000, w=8)  # 64 MB hash table
        m = advisor.recommend_partitions(V)
        H_per_part = 16 * V.n / m
        assert H_per_part <= origin.level("L2").capacity

    def test_partition_count_bounded_by_line_count(self, origin):
        advisor = JoinAdvisor(origin)
        V = DataRegion("V", n=10**9, w=8)
        m = advisor.recommend_partitions(V)
        assert m <= min(l.num_lines for l in origin.all_levels)

    def test_explicit_target_level(self, origin):
        advisor = JoinAdvisor(origin)
        V = DataRegion("V", n=100_000, w=8)  # 1.6 MB hash table
        m_l1 = advisor.recommend_partitions(V, target_level="L1")
        m_l2 = advisor.recommend_partitions(V, target_level="L2")
        assert m_l1 >= m_l2


class TestCandidateSpecs:
    def test_partitioning_offered_only_beyond_cache(self, origin):
        advisor = JoinAdvisor(origin)
        small = DataRegion("V", n=1000, w=8)  # hash table fits L2
        names = [s.algorithm for s in advisor.candidate_specs(small, small)]
        assert "partitioned_hash_join" not in names
        big = DataRegion("V", n=16_000_000, w=8)
        specs = {s.algorithm: s for s in advisor.candidate_specs(big, big)}
        assert "partitioned_hash_join" in specs
        assert (specs["partitioned_hash_join"].partitions
                == advisor.recommend_partitions(big))

    def test_nested_loop_spec_gated(self, origin):
        advisor = JoinAdvisor(origin)
        U = DataRegion("U", n=1000, w=8)
        names = [s.algorithm for s in advisor.candidate_specs(U, U)]
        assert "nested_loop_join" not in names
        names = [s.algorithm for s in
                 advisor.candidate_specs(U, U, include_nested_loop=True)]
        assert "nested_loop_join" in names


class TestRegistry:
    def test_optimizer_advisors_cover_operator_kinds(self, origin):
        """The enumerator builds one advisor per operator kind from its
        planner config, on the config's one memory budget."""
        from repro.query import Optimizer, PlannerConfig
        for budget in (None, 4096):
            opt = Optimizer(origin, PlannerConfig(memory_budget=budget))
            advisors = (opt.join_advisor, opt.sort_advisor,
                        opt.aggregate_advisor)
            assert [type(a) for a in advisors] == [
                JoinAdvisor, SortAdvisor, AggregateAdvisor]
            assert [a.operator for a in advisors] == [
                "join", "sort", "aggregate"]
            assert all(a.memory_budget == budget for a in advisors)

    def test_cpu_calibration_shared_with_core(self):
        from repro.core.cpu import CPU_CYCLES_PER_ITEM as core_table
        from repro.optimizer import CPU_CYCLES_PER_ITEM as advisor_table
        assert advisor_table is core_table


class TestSortAdvisor:
    def test_stop_bytes_is_smallest_cache(self, origin):
        advisor = SortAdvisor(origin)
        assert advisor.stop_bytes() == min(
            l.capacity for l in origin.all_levels)

    def test_choice_scales_with_input(self, origin):
        advisor = SortAdvisor(origin)
        small = advisor.best(DataRegion("U", n=10_000, w=8))
        big = advisor.best(DataRegion("U", n=1_000_000, w=8))
        assert big.total_ns > small.total_ns
        assert small.algorithm == "quick_sort"


class TestAggregateAdvisor:
    def test_rank_orders_by_cost(self, origin):
        advisor = AggregateAdvisor(origin)
        choices = advisor.rank(DataRegion("U", n=500_000, w=8), groups=64)
        costs = [c.total_ns for c in choices]
        assert costs == sorted(costs)
        assert {c.algorithm for c in choices} == {"hash_aggregate",
                                                  "sort_aggregate"}

    def test_composite_input_excludes_sort(self, origin):
        advisor = AggregateAdvisor(origin)
        choices = advisor.rank(DataRegion("U", n=1000, w=16), groups=8,
                               composite_input=True)
        assert [c.algorithm for c in choices] == ["hash_aggregate"]
        assert advisor.candidate_specs(composite_input=True) == \
            ["hash_aggregate"]

    def test_few_groups_favour_hash(self, origin):
        """A cache-resident group table beats sorting the whole input."""
        advisor = AggregateAdvisor(origin)
        best = advisor.best(DataRegion("U", n=4_000_000, w=8), groups=64)
        assert best.algorithm == "hash_aggregate"


# ----------------------------------------------------------------------
# One operator catalog: an advisor scoring an algorithm on bare regions
# and a plan node running it over region-only scans read the same
# repro.core.Algorithm entry, so their estimates are the same number.
# ----------------------------------------------------------------------

PROFILES = {"origin2000": origin2000(), "scaled": origin2000_scaled()}


def plan_estimate(hierarchy, node):
    """The node's cost over bare scans: the operator alone, which is
    what an advisor scores."""
    return QueryPlan(node).estimate(CostModel(hierarchy))


class TestAdvisorAndPlanNodesAgree:
    @given(profile=st.sampled_from(sorted(PROFILES)),
           n_u=st.integers(2, 1 << 16), n_v=st.integers(2, 1 << 16),
           w=st.sampled_from((4, 8, 16)),
           log_m=st.integers(1, 6), budget=st.integers(1 << 10, 1 << 22))
    def test_joins(self, profile, n_u, n_v, w, log_m, budget):
        h = PROFILES[profile]
        advisor = JoinAdvisor(h, memory_budget=budget)
        U, V = DataRegion("U", n=n_u, w=w), DataRegion("V", n=n_v, w=w)
        left, right = ScanNode(region=U), ScanNode(region=V)
        m = min(1 << log_m, n_u, n_v)
        for node, choice in (
                (HashJoinNode(left, right), advisor.hash_join_choice),
                (NestedLoopJoinNode(left, right),
                 advisor.nested_loop_join_choice),
                (PartitionedHashJoinNode(left, right, partitions=m),
                 lambda *uvw: advisor.partitioned_hash_join_choice(*uvw, m)),
                (GraceHashJoinNode(left, right, memory_budget=budget),
                 advisor.grace_hash_join_choice)):
            scored = choice(U, V, node.output_region())
            assert scored.estimate == plan_estimate(h, node), scored.algorithm

    @given(profile=st.sampled_from(sorted(PROFILES)),
           n=st.integers(2, 1 << 16), w=st.sampled_from((4, 8, 16)),
           groups=st.integers(1, 1 << 14),
           budget=st.integers(1 << 10, 1 << 22))
    def test_sorts_and_aggregates(self, profile, n, w, groups, budget):
        h = PROFILES[profile]
        sorts = SortAdvisor(h, memory_budget=budget)
        aggregates = AggregateAdvisor(h, memory_budget=budget)
        U = DataRegion("U", n=n, w=w)
        scan, stop = ScanNode(region=U), sorts.stop_bytes()
        for node, scored in (
                (SortNode(scan, stop_bytes=stop), sorts.quick_sort_choice(U)),
                (ExternalSortNode(scan, budget, stop_bytes=stop),
                 sorts.external_sort_choice(U)),
                (AggregateNode(scan, groups=groups),
                 aggregates.hash_choice(U, groups)),
                (SortAggregateNode(scan, groups=groups, stop_bytes=stop),
                 aggregates.sort_choice(U, groups)),
                (SpillingAggregateNode(scan, groups=groups,
                                       memory_budget=budget),
                 aggregates.spilling_choice(U, groups))):
            assert scored.estimate == plan_estimate(h, node), scored.algorithm

    @given(profile=st.sampled_from(sorted(PROFILES)),
           n_u=st.integers(2, 1 << 16), n_v=st.integers(2, 1 << 16))
    def test_merge_join_with_sort_ahead_agrees_on_cpu(self, profile,
                                                      n_u, n_v):
        """CPU only: the memory terms legitimately differ.  SortNode
        renames its output region ``sort(U)``, so the plan's merge phase
        starts cold on it, while the advisor's same-region ``⊕`` carries
        the cache state the sort left behind over to the merge.  (Not
        something to "fix" here — it would move the explain goldens.)"""
        h = PROFILES[profile]
        advisor = JoinAdvisor(h, inputs_sorted=False)
        U, V = DataRegion("U", n=n_u, w=8), DataRegion("V", n=n_v, w=8)
        stop = SortAdvisor(h).stop_bytes()
        node = MergeJoinNode(SortNode(ScanNode(region=U), stop_bytes=stop),
                             SortNode(ScanNode(region=V), stop_bytes=stop))
        scored = advisor.merge_join_choice(U, V, node.output_region())
        assert scored.estimate.cpu_ns == plan_estimate(h, node).cpu_ns

    def test_sort_ahead_charges_each_input_its_own_depth(self, origin):
        """1 000 rows sort 10 levels deep and 1 000 000 rows 20 — not
        both 20 (the advisor used to charge the larger input's depth
        for both sorts: 992 992 000 ns)."""
        U = DataRegion("U", n=1_000, w=8)
        V = DataRegion("V", n=1_000_000, w=8)
        W = DataRegion("W", n=1_000, w=16)
        choice = JoinAdvisor(origin).merge_join_choice(U, V, W)
        cycles = 12 * (1_000 * 10 + 1_000_000 * 20) + 8 * 1_001_000
        assert choice.estimate.cpu_ns == origin.nanoseconds(cycles) \
            == 992_512_000

    def test_partition_pass_is_charged_iff_the_aggregate_partitions(
            self, origin):
        """A one-row input clamps the spill fan-out to 1: nothing is
        partitioned, so neither the advisor nor the node charges the
        partition pass (the advisor used to: 120 ns instead of 96)."""
        advisor = AggregateAdvisor(origin, memory_budget=64)
        for n, cycles in ((1, 24 * 1), (4096, (24 + 6) * 4096)):
            U = DataRegion("U", n=n, w=8)
            node = SpillingAggregateNode(ScanNode(region=U), groups=64,
                                         memory_budget=64)
            assert node.spills == (n > 1)
            assert node.cpu_cycles() == cycles
            assert (advisor.spilling_choice(U, 64).estimate.cpu_ns
                    == origin.nanoseconds(cycles))
