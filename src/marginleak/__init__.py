"""Margin-level privacy attacks on two-layer homogeneous ReLU networks.

Train a network toward a stationary direction of the max-margin problem,
quantify how close it got, and run the attacks that the margin structure
enables: univariate training-data reconstruction and membership inference
from output magnitude.
"""

from .distributions import (
    AssumptionReport,
    DistributionSpec,
    SampleBatch,
    check_assumption,
    label_by_component,
    read_dataset_csv,
    sample,
    two_gaussian_mixture,
    write_dataset_csv,
)
from .errors import (
    DegenerateNetworkError,
    DimensionMismatchError,
    FileFormatError,
    MarginLeakError,
    TrainingDivergedError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentRecord,
    MarginExperimentResult,
    ReconstructionReport,
    run_margin_experiment,
    run_reconstruction_pipeline,
    run_reconstruction_sweep,
)
from .kkt import (
    DiagnosticBounds,
    KktReport,
    analyze,
    diagnostic_bounds,
    estimate_lambdas,
    margin,
    write_report,
)
from .membership import (
    AttackEvaluation,
    evaluate_attack,
    membership_scores,
    membership_verdicts,
    write_evaluation_csv,
)
from .model import (
    LabeledDataset,
    NetworkParams,
    PiecewiseLinear,
    forward_batch,
    load_network,
    save_network,
    to_piecewise_linear,
)
from .reconstruct import (
    CandidateSet,
    IntervalAnalysis,
    analyze_intervals,
    build_candidate_set,
    interval_lemma_audit,
    recover_single,
    write_candidates_csv,
)
from .training import (
    Gradient,
    TrainConfig,
    TrainTrace,
    gradient,
    init_small,
    loss,
    train,
    train_non_degenerate,
    write_trace_csv,
)

__version__ = "0.1.0"
