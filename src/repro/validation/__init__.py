"""Model-vs-measurement experiment harness (paper Section 6)."""

from .bench_schema import (
    payload_from_experiment,
    payload_from_results,
    payload_from_serving,
    validate_bench_file,
    validate_bench_payload,
    validate_results_dir,
)
from .cpu_cost import CpuCostModel, calibrate_cpu_cost
from .microbench import figure5, figure6, measure_traversal
from .operators import (
    figure7a_quicksort,
    figure7b_mergejoin,
    figure7c_hashjoin,
    figure7d_partition,
    figure7e_partitioned_hashjoin,
)
from .reporting import ExperimentResult, ExperimentRow, geometric_mean_ratio

__all__ = [
    "ExperimentResult",
    "ExperimentRow",
    "geometric_mean_ratio",
    "measure_traversal",
    "figure5",
    "figure6",
    "figure7a_quicksort",
    "figure7b_mergejoin",
    "figure7c_hashjoin",
    "figure7d_partition",
    "figure7e_partitioned_hashjoin",
    "CpuCostModel",
    "calibrate_cpu_cost",
    "validate_bench_payload",
    "validate_bench_file",
    "validate_results_dir",
    "payload_from_results",
    "payload_from_experiment",
    "payload_from_serving",
]
