"""Deep echo state networks with structured reservoir topologies.

The package builds stacked untrained tanh reservoirs whose per-layer
recurrent matrices follow one of four structures (sparse, permutation,
ring, chain), trains a linear readout on the concatenated layer states by
pseudo-inversion, and ships a deterministic random-search harness that
compares deep stacks against equally sized single-layer reservoirs on
standard next-value prediction tasks.
"""

__version__ = "0.1.0"

from .topology import (
    Chain,
    DegenerateMatrixError,
    Permutation,
    Ring,
    ScalingSpec,
    Sparse,
    TopologyKind,
    operator_norm,
    parse_topology,
    random_stream,
    spectral_radius,
    topology_name,
)
from .reservoir import (
    INTERLAYER_FAN_IN,
    DeepReservoir,
    LayerWeights,
    ReservoirSpec,
    build_reservoir,
    run,
)
from .readout import DEFAULT_RCOND, mse, train_pseudo_inverse
from .datasets import (
    Dataset,
    DivergenceError,
    MGParams,
    generate_mackey_glass,
    generate_narma10,
    load_laser,
    save_series,
)
from .experiment import (
    FULL_BUDGET,
    REDUCED_BUDGET,
    BenchmarkEntry,
    ExperimentReport,
    SearchResult,
    SearchSpace,
    TrialResult,
    derive_seed,
    evaluate_trial,
    format_report,
    load_trial_log,
    run_benchmark_suite,
    sample_config,
    trial_log_table,
)

__all__ = [
    "__version__",
    # topology
    "Sparse", "Permutation", "Ring", "Chain", "TopologyKind", "ScalingSpec",
    "DegenerateMatrixError", "spectral_radius", "operator_norm", "random_stream",
    "topology_name", "parse_topology",
    # reservoir
    "ReservoirSpec", "DeepReservoir", "LayerWeights", "build_reservoir", "run",
    "INTERLAYER_FAN_IN",
    # readout
    "train_pseudo_inverse", "mse", "DEFAULT_RCOND",
    # datasets
    "Dataset", "MGParams", "DivergenceError", "generate_narma10",
    "generate_mackey_glass", "load_laser", "save_series",
    # experiment
    "SearchSpace", "TrialResult", "SearchResult", "BenchmarkEntry",
    "ExperimentReport", "FULL_BUDGET", "REDUCED_BUDGET", "sample_config",
    "derive_seed", "evaluate_trial", "run_benchmark_suite", "format_report",
    "trial_log_table", "load_trial_log",
]
