"""Whole-query optimization and composition (paper Sections 1 and 6).

Three layers:

* :mod:`repro.query.logical` — what to compute (relational algebra with
  a cardinality oracle),
* :mod:`repro.query.physical` — how to compute it (operator nodes whose
  whole-plan cost function is the ``⊕``/``⊙`` combination of their
  access patterns, pipeline-aware per Section 3.3),
* :mod:`repro.query.optimizer` — which plan to pick (join ordering and
  per-operator implementation selection by derived cost),
* :mod:`repro.query.observe` — what happened (typed
  :class:`Explanation` / :class:`QueryResult` / :class:`MeasuredResult`
  with per-operator predicted-vs-measured attribution).
"""

from .logical import Aggregate, Filter, Join, LogicalOp, Relation, Sort
from .observe import (
    Explanation,
    ExplanationNode,
    LevelPrediction,
    MeasuredResult,
    OperatorMeasurement,
    QueryResult,
    capture_measured,
    measure_plan,
)
from .optimizer import (
    Optimizer,
    PlanCandidate,
    PlannedQuery,
    PlannerConfig,
)
from .physical import (
    AggregateNode,
    ExternalSortNode,
    GraceHashJoinNode,
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PartitionedHashJoinNode,
    PlanNode,
    ProjectNode,
    QueryPlan,
    ScanNode,
    SelectNode,
    SortAggregateNode,
    SortNode,
    SpillingAggregateNode,
    plan_signature,
)

__all__ = [
    # logical algebra
    "LogicalOp",
    "Relation",
    "Filter",
    "Join",
    "Sort",
    "Aggregate",
    # physical operators
    "PlanNode",
    "ScanNode",
    "SelectNode",
    "ProjectNode",
    "SortNode",
    "ExternalSortNode",
    "MergeJoinNode",
    "HashJoinNode",
    "NestedLoopJoinNode",
    "PartitionedHashJoinNode",
    "GraceHashJoinNode",
    "AggregateNode",
    "SortAggregateNode",
    "SpillingAggregateNode",
    "QueryPlan",
    # optimizer
    "Optimizer",
    "PlannerConfig",
    "PlanCandidate",
    "PlannedQuery",
    "plan_signature",
    # observability
    "Explanation",
    "ExplanationNode",
    "LevelPrediction",
    "QueryResult",
    "MeasuredResult",
    "OperatorMeasurement",
    "measure_plan",
    "capture_measured",
]
