"""Quick-sort priced by recursion, not by node.

``quick_sort_pattern`` describes quick-sort (Section 6.2) as one node
that stores only the input region and ``stop_bytes``; the cost
evaluator folds its partitioning passes, in pre-order, into the running
total of the enclosing ``⊕``.  The flat tree the node replaced — one
uniquely named ``⊙`` pass per sub-table, ``⊕``-sequenced — is kept
here, verbatim, as the reference.  For every input, geometry,
``stop_bytes`` and incoming state the node must price the same misses
to the bit, leave the same cache state region for region along parent
chains, and render the same notation, regions and footprint.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import (  # noqa: E402
    CacheState,
    Conc,
    CostModel,
    DataRegion,
    LevelGeometry,
    RTrav,
    Seq,
    STrav,
    cost,
    footprint_lines,
    merge_join_pattern,
    miss_memo_clear,
    quick_sort_pattern,
)
from repro.hardware import (  # noqa: E402
    disk_extended,
    disk_extended_scaled,
    modern_x86,
    origin2000_scaled,
)


def flat_quick_sort(U: DataRegion, stop_bytes: int | None = None):
    """The reference: one ``⊙`` pass per sub-table, ``⊕``-sequenced
    depth first (``Seq.of`` flattens, so the result is one ``⊕`` of
    passes in pre-order, or a single pass)."""
    stop = 0 if stop_bytes is None else stop_bytes

    def recurse(sub: DataRegion, depth: int):
        left, right = sub.halves(suffix=f"@{depth}")
        pass_pattern = STrav(left) * STrav(right)
        if sub.n <= 2 or sub.size <= stop or left.n < 2 or right.n < 2:
            return pass_pattern
        return Seq.of(
            pass_pattern,
            recurse(left, depth + 1),
            recurse(right, depth + 1),
        )

    return recurse(U, 0)


def bits(pair) -> tuple[str, str]:
    return pair.seq.hex(), pair.rand.hex()


def chain(region: DataRegion) -> list[tuple[str, int, int]]:
    return [(r.name, r.n, r.w) for r in region.ancestors()]


def entries(state: CacheState) -> list:
    """A state region for region, each with its whole parent chain."""
    return [(chain(region), rho.hex()) for region, rho in state.entries]


@pytest.fixture(autouse=True)
def empty_memo():
    miss_memo_clear()
    yield
    miss_memo_clear()


# ----------------------------------------------------------------------
# The property: the evaluator's fold equals the flat tree's walk.
# ----------------------------------------------------------------------

@st.composite
def sort_case(draw):
    n = draw(st.integers(2, 6000))
    w = draw(st.sampled_from([4, 8, 16]))
    line = draw(st.sampled_from([16, 32, 64, 128]))
    lines = draw(st.sampled_from([2, 8, 32, 128, 512, 2048]))
    capacity = line * lines
    geo = LevelGeometry(line, float(capacity), float(lines))
    share = draw(st.sampled_from([1.0, 0.5, 2 / 3, 0.37]))
    if share < 1.0:  # the sort as one ⊙ part among others
        geo = geo.scaled(share)
    table = draw(st.sampled_from(["bare", "run", "run of a run"]))
    if table == "bare":
        U = DataRegion("U", n=n, w=w)
    else:
        k = draw(st.integers(1, 4))
        T = DataRegion("T", n=n * k * 2, w=w)
        if table == "run of a run":
            T = T.subregion("T[0]", n=n * k)
        U = T.subregion(f"{T.name}[1]", n=n)  # an external-sort run
    stop = draw(st.sampled_from(
        [None, 0, 64, capacity // 2, capacity, 2 * capacity, U.size // 4]))
    incoming = draw(st.sampled_from(
        ["empty", "U at 0.5", "U at 1.0", "parent resident", "sorted"]))
    if incoming == "U at 0.5":
        state = CacheState.of((U, 0.5))
    elif incoming == "U at 1.0":
        state = CacheState.of((U, 1.0))
    elif incoming == "parent resident" and U.parent is not None:
        state = CacheState.of((U.parent, 1.0))
    elif incoming == "sorted":
        # what an identical earlier sort of U leaves behind
        state = cost._walk(flat_quick_sort(U, stop), geo,
                           CacheState.empty())[1]
    else:
        state = CacheState.empty()
    around = draw(st.sampled_from(["alone", "after a pass", "in a ⊙"]))
    return U, stop, geo, state, around


def wrapped(sort, around: str):
    """The sort alone, ⊕-after a costly random pass (so the running
    total it folds into is not zero), or as one ⊙ part."""
    other = RTrav(DataRegion("X", n=777, w=8))
    if around == "after a pass":
        return Seq.of(other, sort, STrav(DataRegion("Y", n=300, w=16)))
    if around == "in a ⊙":
        return Conc.of(sort, other)
    return sort


class TestFoldEqualsFlatTree:
    @settings(max_examples=150)
    @given(case=sort_case())
    def test_misses_and_state_to_the_bit(self, case):
        U, stop, geo, state, around = case
        pair, left = cost._walk(wrapped(quick_sort_pattern(U, stop), around),
                                geo, state)
        ref_pair, ref_left = cost._walk(
            wrapped(flat_quick_sort(U, stop), around), geo, state)
        assert bits(pair) == bits(ref_pair)
        assert entries(left) == entries(ref_left)

    @settings(max_examples=40)
    @given(case=sort_case())
    def test_notation_regions_and_footprint(self, case):
        U, stop, _, _, around = case
        sort = wrapped(quick_sort_pattern(U, stop), around)
        ref = wrapped(flat_quick_sort(U, stop), around)
        assert sort.notation() == ref.notation()
        assert [chain(r) for r in sort.regions()] == \
            [chain(r) for r in ref.regions()]
        for line in (16, 64, 4096):
            assert footprint_lines(sort, line) == footprint_lines(ref, line)


# ----------------------------------------------------------------------
# Fixed cases on the stock machines, through CostModel.
# ----------------------------------------------------------------------

MACHINES = {
    "origin2000_scaled": (origin2000_scaled, 4096),
    "disk_extended_scaled": (disk_extended_scaled, 2048),
    "disk_extended(modern_x86())": (
        lambda: disk_extended(modern_x86()), 300_000),
}


def levels(estimate) -> list:
    return [(lc.name, bits(lc.misses)) for lc in estimate.levels]


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("stop", ["smallest capacity", None])
def test_sort_merge_plan(machine, stop):
    """``qs(U) ⊕ qs(V) ⊕ merge_join(U, V, W)``: the second sort enters
    in the state the first leaves, the join in the second's."""
    build, n = MACHINES[machine]
    hierarchy = build()
    if stop is None:
        n = min(n, 3000)  # the reference tree goes down to two items
    else:
        stop = min(level.capacity for level in hierarchy.all_levels)
    U = DataRegion("U", n=n, w=8)
    V = DataRegion("V", n=n, w=8)
    W = DataRegion("W", n=n, w=16)

    def plan(sort):
        return Seq.of(sort(U, stop), sort(V, stop),
                      merge_join_pattern(U, V, W))

    model = CostModel(hierarchy)
    priced = model.estimate(plan(quick_sort_pattern))
    reference = model.estimate(plan(flat_quick_sort))
    assert levels(priced) == levels(reference)
    assert priced.memory_ns.hex() == reference.memory_ns.hex()
    assert plan(quick_sort_pattern).notation() == \
        plan(flat_quick_sort).notation()


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_sort_as_one_concurrent_part(machine):
    """A sort co-running with a hash build: priced on its footprint's
    share of every level, exactly as the flat tree was."""
    build, n = MACHINES[machine]
    hierarchy = build()
    stop = min(level.capacity for level in hierarchy.all_levels)
    U = DataRegion("U", n=n, w=8)
    H = DataRegion("H", n=n, w=16)
    model = CostModel(hierarchy)
    priced = model.estimate(Conc.of(quick_sort_pattern(U, stop), RTrav(H)))
    reference = model.estimate(Conc.of(flat_quick_sort(U, stop), RTrav(H)))
    assert levels(priced) == levels(reference)
    parts = [quick_sort_pattern(U, stop), RTrav(H)]
    flat_parts = [flat_quick_sort(U, stop), RTrav(H)]
    assert [levels(e) for e in model.concurrent_estimates(parts)] == \
        [levels(e) for e in model.concurrent_estimates(flat_parts)]
    assert [levels(e) for e in model.sequential_estimates(parts)] == \
        [levels(e) for e in model.sequential_estimates(flat_parts)]
