"""Cost-based algorithm selection built on the derived cost functions."""

from .advisor import (
    CPU_CYCLES_PER_ITEM,
    AggregateAdvisor,
    JoinAdvisor,
    JoinSpec,
    OperatorAdvisor,
    OperatorChoice,
    SortAdvisor,
)

__all__ = [
    "OperatorAdvisor",
    "OperatorChoice",
    "JoinAdvisor",
    "JoinSpec",
    "SortAdvisor",
    "AggregateAdvisor",
    "CPU_CYCLES_PER_ITEM",
]
