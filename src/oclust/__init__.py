"""Interactive clustering with a pairwise same-cluster oracle and noisy side
information: instance synthesis, query-efficient solvers, lower-bound
calculators, and a benchmark harness."""

from .bounds import (
    LowerBoundInputs,
    fano_zero_query_hellinger,
    fano_zero_query_kl,
    lb_error_prob,
    lb_query_budget,
)
from .clustering import ClusteringState, InvariantError, misassigned_count, partition_equal
from .divergence import (
    Distribution,
    Support,
    bernoulli,
    from_text,
    hellinger,
    hellinger2,
    kl,
    symmetric_kl,
    to_text,
)
from .estimation import Constants, Estimates
from .harness import ExperimentConfig, emit, run_experiment
from .instance import (
    Balanced,
    ExplicitSizes,
    Instance,
    InstanceFormatError,
    Skewed,
    generate,
    load,
    save,
)
from .oracle import Oracle
from .report import RunReport
from .solver_lv import run_baseline, run_lv
from .solver_mc import run_mc

__all__ = [
    "Balanced",
    "ClusteringState",
    "Constants",
    "Distribution",
    "Estimates",
    "ExperimentConfig",
    "ExplicitSizes",
    "Instance",
    "InstanceFormatError",
    "InvariantError",
    "LowerBoundInputs",
    "Oracle",
    "RunReport",
    "Skewed",
    "Support",
    "bernoulli",
    "emit",
    "fano_zero_query_hellinger",
    "fano_zero_query_kl",
    "from_text",
    "generate",
    "hellinger",
    "hellinger2",
    "kl",
    "lb_error_prob",
    "lb_query_budget",
    "load",
    "misassigned_count",
    "partition_equal",
    "run_baseline",
    "run_experiment",
    "run_lv",
    "run_mc",
    "save",
    "symmetric_kl",
    "to_text",
]
