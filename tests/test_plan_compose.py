"""Pinned ``(prefix, stream)`` composition of every physical operator.

One row per node class × child kind: the notation of ``compose()``'s
prefix and stream, of the node's own ``pattern()``, and its
``cpu_cycles()``.  The ``materialized`` column is the reference with
every edge materialized (Eq. 5.2 over every edge): the post-order
``⊕`` of each node's own pattern.  The expected table
(``tests/data/plan_compose.json``) was generated from the hand-written
per-node ``compose`` overrides before they were folded into the one
``PlanNode.compose``; the rows keep that rewrite (and the next one)
honest.  Child kinds:

* ``piped`` — a selection over a scan (pipelined: carries a stream),
* ``materialized`` — a sort over a scan (blocking: prefix only),
* ``scan`` — a bare region-only scan (pipelined, but access-free).

When a change is *intentional*, regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_plan_compose.py

and review the diff like any other code change.
"""

import json
import os
import pathlib

import pytest

from repro.core import DataRegion, seq
from repro.query import (
    AggregateNode,
    ExternalSortNode,
    GraceHashJoinNode,
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PartitionedHashJoinNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    SortAggregateNode,
    SortNode,
    SpillingAggregateNode,
)

TABLE = pathlib.Path(__file__).parent / "data" / "plan_compose.json"
BIG = 1 << 20


def _true(value) -> bool:
    return True


def _scan(name: str) -> ScanNode:
    return ScanNode(region=DataRegion(name, n=64, w=8))


CHILD_KINDS = {
    "piped": lambda name: SelectNode(_scan(name), _true, 0.5),
    "materialized": lambda name: SortNode(_scan(name), stop_bytes=BIG),
    "scan": _scan,
}

UNARY = {
    "select": lambda c: SelectNode(c, _true, 0.25),
    "project": lambda c: ProjectNode(c, width=4),
    "sort": lambda c: SortNode(c, stop_bytes=128),
    "external_sort": lambda c: ExternalSortNode(c, memory_budget=128,
                                                stop_bytes=BIG),
    "external_sort_fits": lambda c: ExternalSortNode(c, memory_budget=BIG,
                                                     stop_bytes=BIG),
    "aggregate": lambda c: AggregateNode(c, groups=8),
    "sort_aggregate": lambda c: SortAggregateNode(c, groups=8,
                                                  stop_bytes=BIG),
    "spilling_aggregate": lambda c: SpillingAggregateNode(
        c, groups=8, memory_budget=128),
    "spilling_aggregate_fits": lambda c: SpillingAggregateNode(
        c, groups=8, memory_budget=BIG),
}

BINARY = {
    "merge_join": lambda l, r: MergeJoinNode(l, r),
    "hash_join": lambda l, r: HashJoinNode(l, r, 0.5),
    "nested_loop_join": lambda l, r: NestedLoopJoinNode(l, r),
    "partitioned_hash_join": lambda l, r: PartitionedHashJoinNode(
        l, r, partitions=2),
    "grace_hash_join": lambda l, r: GraceHashJoinNode(l, r,
                                                      memory_budget=512),
    "grace_hash_join_fits": lambda l, r: GraceHashJoinNode(
        l, r, memory_budget=BIG),
}


def _cases() -> dict:
    cases = {"scan": _scan("A")}
    for kind, child in CHILD_KINDS.items():
        for name, build in UNARY.items():
            cases[f"{name}/{kind}"] = build(child("A"))
        for name, build in BINARY.items():
            cases[f"{name}/{kind}"] = build(child("A"), child("B"))
    # both inputs of one hash join carry a prefix *and* a stream: the
    # build side's prefix and build phase precede the probe side's prefix
    both = [SelectNode(SortNode(_scan(name), stop_bytes=BIG), _true, 0.5)
            for name in ("A", "B")]
    cases["hash_join/prefixed"] = HashJoinNode(*both)
    cases["nested_loop_join/prefixed"] = NestedLoopJoinNode(*both)
    cases["hash_join/self"] = HashJoinNode(*[_scan("A")] * 2)
    return cases


def _notation(pattern):
    return None if pattern is None else pattern.notation()


def materialized(node):
    """``node``'s sub-plan with every edge materialized: the post-order
    ``⊕`` of each node's own pattern."""
    return seq(*(n.pattern() for n in node.walk()))


def _row(node) -> dict:
    prefix, stream = node.compose()
    return {"pattern": _notation(node.pattern()),
            "cpu_cycles": node.cpu_cycles(),
            "pipelined": [_notation(prefix), _notation(stream)],
            "materialized": [_notation(materialized(node)), None]}


CASES = _cases()


def test_table_is_complete():
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        TABLE.parent.mkdir(exist_ok=True)
        TABLE.write_text(json.dumps(
            {name: _row(node) for name, node in CASES.items()},
            indent=1, ensure_ascii=False, sort_keys=True) + "\n")
    assert sorted(json.loads(TABLE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_compose_pattern_and_cpu(name):
    expected = json.loads(TABLE.read_text())[name]
    assert _row(CASES[name]) == expected
