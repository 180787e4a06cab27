"""Two-modality identification fusion: scoring, evaluation, and simulation."""

from .core import ConfidenceMatrix, PairedDataset, ValidationError
from .ecg import (
    DegenerateSignalError,
    EcgSignal,
    InsufficientDataError,
    PeakDetectionError,
    PeakDetectorConfig,
    find_first_r_peak,
    gate_signal,
    normalize_amplitude,
    preprocess,
    zero_mean,
)
from .evaluation import (
    EvalConfig,
    ExperimentReport,
    FoldAssignment,
    FoldResult,
    accuracy,
    make_folds,
    run_experiment,
    train_fusion_model,
)
from .fusion import (
    BaselineWeights,
    DifferenceVector,
    FusionModel,
    compute_baseline_weights,
    normalize_difference,
    predict_fused,
)
from .scoring import compute_subject_scores
from .simulator import (
    CalibrationError,
    DegradationScenario,
    GeneratorParams,
    SubjectRule,
    calibrate,
    calibrate_clean_regime,
    calibrate_degraded_regime,
    generate_dataset,
)

__version__ = "0.1.0"
