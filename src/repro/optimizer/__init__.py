"""Cost-based algorithm selection built on the derived cost functions."""

from .advisor import (
    CPU_CYCLES_PER_ITEM,
    AdvisorRegistry,
    AggregateAdvisor,
    JoinAdvisor,
    JoinSpec,
    OperatorAdvisor,
    OperatorChoice,
    SortAdvisor,
    default_registry,
)

__all__ = [
    "OperatorAdvisor",
    "OperatorChoice",
    "JoinAdvisor",
    "JoinSpec",
    "SortAdvisor",
    "AggregateAdvisor",
    "AdvisorRegistry",
    "default_registry",
    "CPU_CYCLES_PER_ITEM",
]
