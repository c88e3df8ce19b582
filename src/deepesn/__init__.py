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
    make_chain_recurrent,
    make_input_matrix,
    make_interlayer_matrix,
    make_permutation_recurrent,
    make_ring_recurrent,
    make_sparse_recurrent,
    operator_norm,
    parse_topology,
    permutation_matrix,
    random_stream,
    spectral_radius,
    topology_name,
)
from .reservoir import (
    INTERLAYER_FAN_IN,
    DeepReservoir,
    LayerWeights,
    ReservoirSpec,
    StateTrajectory,
    build_reservoir,
    layer_sizes,
    run,
)
from .readout import (
    DEFAULT_RCOND,
    ReadoutWeights,
    RegressionProblem,
    mse,
    predict,
    train_pseudo_inverse,
)
from .datasets import (
    Dataset,
    DivergenceError,
    MGParams,
    generate_mackey_glass,
    generate_narma10,
    load_laser,
    mackey_glass_raw,
    narma10_targets,
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
    select_best,
    trial_log_table,
)

__all__ = [
    "__version__",
    # topology
    "Sparse", "Permutation", "Ring", "Chain", "TopologyKind", "ScalingSpec",
    "DegenerateMatrixError", "make_sparse_recurrent", "make_permutation_recurrent",
    "make_ring_recurrent", "make_chain_recurrent", "make_input_matrix",
    "make_interlayer_matrix", "permutation_matrix", "spectral_radius",
    "operator_norm", "random_stream", "topology_name", "parse_topology",
    # reservoir
    "ReservoirSpec", "DeepReservoir", "LayerWeights", "StateTrajectory",
    "layer_sizes", "build_reservoir", "run", "INTERLAYER_FAN_IN",
    # readout
    "ReadoutWeights", "RegressionProblem", "train_pseudo_inverse", "predict",
    "mse", "DEFAULT_RCOND",
    # datasets
    "Dataset", "MGParams", "DivergenceError", "generate_narma10",
    "narma10_targets", "generate_mackey_glass", "mackey_glass_raw", "load_laser",
    "save_series",
    # experiment
    "SearchSpace", "TrialResult", "SearchResult", "BenchmarkEntry",
    "ExperimentReport", "FULL_BUDGET", "REDUCED_BUDGET", "sample_config",
    "derive_seed", "evaluate_trial", "select_best", "run_benchmark_suite", "format_report", "trial_log_table", "load_trial_log",
]
