"""Pattern-algebra laws (Section 3.3), property-style.

Random pattern trees are generated from fixed seeds; every law is
checked over many shapes rather than a few hand-picked examples:

* ``Seq.of`` / ``Conc.of`` flatten nested compounds of the same kind,
* ``regions()`` lists regions in left-to-right traversal order,
* Python's ``*`` binds tighter than ``+``, matching the paper's rule
  that ``⊙`` binds tighter than ``⊕``,
* co-moving-cursor coalescing drops exactly the duplicate concurrent
  sequential traversals and never changes a cost estimate's inputs
  otherwise.
"""

import random

import pytest

from repro.core import (
    Conc,
    CostModel,
    DataRegion,
    Nest,
    Pattern,
    QuickSort,
    RAcc,
    RRTrav,
    RSTrav,
    RTrav,
    Seq,
    STrav,
)

N_TREES = 60


def make_regions(rng):
    return [DataRegion(f"R{i}", n=rng.choice([16, 64, 256, 1024]),
                       w=rng.choice([4, 8, 16]))
            for i in range(rng.randint(2, 5))]


def random_basic(rng, regions):
    region = rng.choice(regions)
    kind = rng.randrange(5)
    if kind == 0:
        return STrav(region, seq_latency=rng.random() < 0.5)
    if kind == 1:
        return RTrav(region)
    if kind == 2:
        return RSTrav(region, r=rng.randint(1, 4),
                      direction=rng.choice(["uni", "bi"]))
    if kind == 3:
        return RRTrav(region, r=rng.randint(1, 4))
    return RAcc(region, r=rng.randint(1, 2 * region.n))


def random_tree(rng, regions, depth=3):
    if depth == 0 or rng.random() < 0.35:
        return random_basic(rng, regions)
    parts = [random_tree(rng, regions, depth - 1)
             for _ in range(rng.randint(2, 3))]
    cls = rng.choice([Seq, Conc])
    return cls.of(*parts)


def leaves_in_order(pattern):
    if isinstance(pattern, (Seq, Conc, QuickSort)):
        parts = (pattern.passes() if isinstance(pattern, QuickSort)
                 else pattern.parts)
        out = []
        for part in parts:
            out.extend(leaves_in_order(part))
        return out
    return [pattern]


class TestFlattening:
    @pytest.mark.parametrize("cls", [Seq, Conc])
    def test_of_flattens_same_kind(self, cls):
        rng = random.Random(7)
        for _ in range(N_TREES):
            regions = make_regions(rng)
            inner = cls.of(random_basic(rng, regions),
                           random_basic(rng, regions))
            outer = cls.of(random_basic(rng, regions), inner,
                           random_basic(rng, regions))
            # no direct child of the same compound kind survives
            assert all(type(p) is not cls for p in outer.parts)
            assert len(outer.parts) == 4

    @pytest.mark.parametrize("cls,other", [(Seq, Conc), (Conc, Seq)])
    def test_of_keeps_other_kind_nested(self, cls, other):
        rng = random.Random(11)
        for _ in range(N_TREES):
            regions = make_regions(rng)
            inner = other.of(random_basic(rng, regions),
                             random_basic(rng, regions))
            outer = cls.of(random_basic(rng, regions), inner)
            assert inner in outer.parts

    def test_flattening_preserves_leaf_order(self):
        rng = random.Random(13)
        for _ in range(N_TREES):
            regions = make_regions(rng)
            a, b, c, d = (random_basic(rng, regions) for _ in range(4))
            assert leaves_in_order(Seq.of(Seq.of(a, b), Seq.of(c, d))) == \
                [a, b, c, d]
            assert leaves_in_order(Conc.of(a, Conc.of(b, Conc.of(c, d)))) == \
                [a, b, c, d]

    def test_operator_chains_flatten(self):
        rng = random.Random(17)
        for _ in range(N_TREES):
            regions = make_regions(rng)
            a, b, c = (random_basic(rng, regions) for _ in range(3))
            assert len((a + b + c).parts) == 3
            assert len((a * b * c).parts) == 3


class TestIncrementalComposition:
    """Audit for the scheduler's incremental ⊙ composition: growing a
    compound one part at a time must stay flat (``Conc.of``'s one-level
    flattening suffices because inner compounds are themselves built
    flat), the direct constructor is the documented exception, and the
    evaluator's proportional division is associative, so even an
    un-flattened tree prices identically."""

    def test_incremental_conc_of_stays_flat(self):
        rng = random.Random(23)
        for _ in range(N_TREES):
            regions = make_regions(rng)
            parts = [random_basic(rng, regions) for _ in range(5)]
            grown = Conc.of(parts[0], parts[1])
            for part in parts[2:]:
                grown = Conc.of(grown, part)  # scheduler-style growth
            assert grown.parts == tuple(parts)
            folded = parts[0]
            for part in parts[1:]:
                folded = folded * part
            assert folded == grown

    def test_incremental_seq_of_stays_flat(self):
        rng = random.Random(29)
        for _ in range(N_TREES):
            regions = make_regions(rng)
            parts = [random_basic(rng, regions) for _ in range(4)]
            grown = Seq.of(parts[0], parts[1])
            for part in parts[2:]:
                grown = Seq.of(grown, part)
            assert grown.parts == tuple(parts)

    def test_direct_constructor_preserves_nesting(self):
        """``Conc(...)``/``Seq(...)`` are the raw constructors: no
        flattening — `.of` (or the operators) is the canonicalizing
        entry point."""
        r = DataRegion("R", n=64, w=8)
        a, b, c = STrav(r), RTrav(r), RAcc(r, r=8)
        nested = Conc([Conc([a, b]), c])
        assert nested.parts == (Conc([a, b]), c)
        assert nested != Conc.of(Conc.of(a, b), c)
        assert Seq([Seq([a, b]), c]).parts == (Seq([a, b]), c)

    def test_conc_division_is_associative(self, scaled):
        """Nested ``(a ⊙ b) ⊙ c`` receives the same per-part cache
        shares as flat ``a ⊙ b ⊙ c`` (proportional division composes),
        so the cost model predicts identical misses for both shapes."""
        model = CostModel(scaled)
        rng = random.Random(31)
        for _ in range(N_TREES // 3):
            regions = make_regions(rng)
            a, b, c = (random_basic(rng, regions) for _ in range(3))
            flat = Conc.of(a, b, c)
            nested = Conc([Conc([a, b]), c])
            for level in scaled.all_levels:
                flat_pair = model.level_misses(flat, level)
                nested_pair = model.level_misses(nested, level)
                assert flat_pair.total == pytest.approx(nested_pair.total)


class TestRegionsOrdering:
    def test_regions_are_leaf_regions_in_order(self):
        rng = random.Random(19)
        for _ in range(N_TREES):
            regions = make_regions(rng)
            tree = random_tree(rng, regions)
            expected = [leaf.region for leaf in leaves_in_order(tree)]
            assert tree.regions() == expected

    def test_nest_contributes_single_region(self):
        region = DataRegion("R", n=64, w=8)
        nest = Nest(region, m=4, local="s_trav", order="rand")
        assert Seq.of(nest, STrav(region)).regions() == [region, region]


class TestPrecedence:
    """``⊙`` binds tighter than ``⊕`` (paper Section 3.3): Python's
    ``*`` over ``+`` mirrors it."""

    def test_mixed_expression_groups_conc_first(self):
        rng = random.Random(23)
        for _ in range(N_TREES):
            regions = make_regions(rng)
            a, b, c = (random_basic(rng, regions) for _ in range(3))
            mixed = a + b * c
            assert isinstance(mixed, Seq)
            assert mixed.parts[0] == a
            assert mixed.parts[1] == Conc.of(b, c)

    def test_three_way_mixed(self):
        rng = random.Random(29)
        for _ in range(N_TREES):
            regions = make_regions(rng)
            a, b, c, d = (random_basic(rng, regions) for _ in range(4))
            mixed = a * b + c * d
            assert isinstance(mixed, Seq)
            assert mixed.parts == (Conc.of(a, b), Conc.of(c, d))

    def test_explicit_grouping_overrides(self):
        region = DataRegion("R", n=64, w=8)
        a, b, c = STrav(region), RTrav(region), RAcc(region, r=8)
        grouped = (a + b) * c
        assert isinstance(grouped, Conc)
        assert grouped.parts == (Seq.of(a, b), c)

    def test_notation_round_trip_via_parser(self):
        """The paper-notation rendering of random trees parses back to
        an equal tree (the repr is faithful)."""
        from repro.core import parse_pattern
        rng = random.Random(31)
        for _ in range(20):
            regions = make_regions(rng)
            tree = random_tree(rng, regions)
            text = tree.notation()
            reparsed = parse_pattern(
                text, {r.name: r for r in regions})
            assert reparsed.notation() == text


class TestComovingCoalescing:
    def test_evaluator_charges_equal_concurrent_cursors_independently(
            self, scaled):
        """The evaluator itself stays paper-faithful: two equal cursors
        in a hand-built ``⊙`` (a self-join) are independent competitors,
        not co-moving — coalescing happens only at the plan layer's
        pipelined composition site."""
        model = CostModel(scaled)
        big = DataRegion("big", n=65_536, w=8)
        other = DataRegion("other", n=65_536, w=8)
        single = model.estimate(Conc.of(STrav(big), STrav(other))).memory_ns
        self_join = model.estimate(
            Conc.of(STrav(big), STrav(big), STrav(other))).memory_ns
        assert self_join > single

    def test_pipelined_composition_coalesces_comoving_cursors(self, scaled):
        """The plan layer's pipelined ``⊙`` merge drops the duplicated
        intermediate cursor, so no concurrent group carries two equal
        sequential traversals."""
        from repro.db import Database
        from repro.query import HashJoinNode, QueryPlan, ScanNode, SelectNode
        db = Database(scaled)
        left = db.create_column("U", list(range(256)), width=8)
        right = db.create_column("V", list(range(256)), width=8)
        plan = QueryPlan(HashJoinNode(
            SelectNode(ScanNode(left), lambda v: True, selectivity=0.5),
            ScanNode(right),
        ))
        pattern = plan.pattern(pipeline=True)
        assert isinstance(pattern, Seq)
        for part in pattern.parts:
            if isinstance(part, Conc):
                stravs = [p for p in part.parts if isinstance(p, STrav)]
                assert len(stravs) == len(set(stravs))

    def test_bare_scan_self_join_keeps_both_cursors(self, scaled):
        """A self-join of one column via bare scans has no producer
        stream, so nothing may coalesce: the merge join's two
        independent input cursors both survive."""
        from repro.db import Database
        from repro.query import MergeJoinNode, QueryPlan, ScanNode
        db = Database(scaled)
        col = db.create_column("U", list(range(256)), width=8)
        plan = QueryPlan(MergeJoinNode(ScanNode(col, sorted=True),
                                       ScanNode(col, sorted=True)))
        names = [r.name for r in plan.pattern(pipeline=True).regions()]
        assert names.count("U") == 2

    def test_coalescing_is_per_edge_not_value_equality(self, scaled):
        """Two different selections of one base column feeding a merge
        join: the two base-column sweeps and both intermediate cursors
        beyond the per-edge producer/consumer pairs must survive —
        coalescing is not generic dedup of equal traversals."""
        from repro.db import Database
        from repro.query import MergeJoinNode, QueryPlan, ScanNode, SelectNode
        db = Database(scaled)
        base = db.create_column("A", list(range(512)), width=8)
        plan = QueryPlan(MergeJoinNode(
            SelectNode(ScanNode(base, sorted=True), lambda v: v % 2 == 0,
                       selectivity=0.5),
            SelectNode(ScanNode(base, sorted=True), lambda v: v % 3 == 0,
                       selectivity=0.5),
        ))
        merged = plan.pattern(pipeline=True)
        assert isinstance(merged, Conc)
        names = [r.name for r in merged.regions()]
        # both independent sweeps of the base column remain ...
        assert names.count("A") == 2
        # ... and each select's intermediate keeps one cursor (only the
        # per-edge producer/consumer duplicate is coalesced): two
        # selects + two merge inputs -> two surviving cursors
        assert names.count("σ(A)") == 2

    def test_seq_repetition_not_coalesced(self, scaled):
        """``⊕`` repetition is real work: only the cache-state rules may
        discount it, never the co-moving rule."""
        model = CostModel(scaled)
        big = DataRegion("big", n=65_536, w=8)  # far beyond every cache
        once = model.estimate(STrav(big)).memory_ns
        twice = model.estimate(Seq.of(STrav(big), STrav(big))).memory_ns
        assert twice == pytest.approx(2 * once)


class TestSpillPatternAlgebra:
    """The out-of-core patterns are compositions in the existing
    vocabulary — no new basic pattern kinds, only ⊕/⊙ over runs,
    partitions and pool-resident tables."""

    def _leaves(self, pattern):
        return leaves_in_order(pattern)

    def test_external_sort_degenerates_to_quick_sort(self):
        from repro.core import external_merge_sort_pattern, quick_sort_pattern
        U = DataRegion("U", n=256, w=8)
        W = DataRegion("sort(U)", n=256, w=8)
        fits = external_merge_sort_pattern(U, W, memory_budget=1 << 20,
                                           stop_bytes=64)
        assert fits == quick_sort_pattern(U, stop_bytes=64)

    def test_external_sort_merge_is_concurrent_sequential_cursors(self):
        from repro.core import external_merge_sort_phases, spill_run_count
        U = DataRegion("U", n=1024, w=8)
        W = DataRegion("sort(U)", n=1024, w=8)
        run_sorts, merge = external_merge_sort_phases(U, W, 2048)
        r = spill_run_count(U, 2048)
        assert len(run_sorts) == r > 1
        assert isinstance(merge, Conc)
        assert len(merge.parts) == r + 1          # r runs + the output
        assert all(isinstance(p, STrav) for p in merge.parts)
        # the run cursors sweep sub-regions of U, in order
        for part in merge.parts[:-1]:
            assert part.region.is_within(U) or part.region.parent is U

    def test_grace_join_degenerates_to_hash_join(self):
        from repro.core import grace_hash_join_pattern, hash_join_pattern, \
            hash_table_region, DEFAULT_HASH_MAX_LOAD
        U = DataRegion("U", n=64, w=8)
        V = DataRegion("V", n=64, w=8)
        W = DataRegion("W", n=64, w=16)
        H = hash_table_region(V, max_load=DEFAULT_HASH_MAX_LOAD)
        assert grace_hash_join_pattern(U, V, W, 1 << 20) == \
            hash_join_pattern(U, V, W, H=H)

    def test_spilling_aggregate_degenerates_to_hash_aggregate(self):
        from repro.core import (DEFAULT_HASH_MAX_LOAD,
                                hash_aggregate_pattern, hash_table_region,
                                spilling_hash_aggregate_pattern)
        U = DataRegion("U", n=256, w=8)
        W = DataRegion("agg", n=16, w=16)
        G = hash_table_region(DataRegion("G", n=16, w=16),
                              max_load=DEFAULT_HASH_MAX_LOAD, name="G")
        assert spilling_hash_aggregate_pattern(U, W, 16, 1 << 20) == \
            hash_aggregate_pattern(U, G, W)

    def test_spill_patterns_use_only_basic_vocabulary(self):
        from repro.core import (BasicPattern, external_merge_sort_pattern,
                                grace_hash_join_pattern,
                                spilling_hash_aggregate_pattern)
        U = DataRegion("U", n=1024, w=8)
        V = DataRegion("V", n=1024, w=8)
        W = DataRegion("W", n=1024, w=16)
        A = DataRegion("agg", n=256, w=16)
        for pattern in (
                external_merge_sort_pattern(U, DataRegion("s", 1024, 8), 1024),
                grace_hash_join_pattern(U, V, W, 2048),
                spilling_hash_aggregate_pattern(U, A, 256, 1024)):
            for leaf in self._leaves(pattern):
                assert isinstance(leaf, BasicPattern)

    def test_grace_partition_fanout_follows_budget(self):
        from repro.core import (DEFAULT_HASH_MAX_LOAD,
                                grace_hash_join_phases, hash_table_region,
                                spill_partition_count)
        U = DataRegion("U", n=1024, w=8)
        V = DataRegion("V", n=1024, w=8)
        W = DataRegion("W", n=1024, w=16)
        H = hash_table_region(V, max_load=DEFAULT_HASH_MAX_LOAD)
        for budget in (512, 1024, 4096):
            phases = grace_hash_join_phases(U, V, W, budget)
            assert phases is not None
            _, _, joins = phases
            m = spill_partition_count(H.size, budget)
            # one hash join (= one Seq of build ⊕ probe) per partition
            assert len(joins.parts) == 2 * m
