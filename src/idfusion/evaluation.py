"""Aligned k-fold evaluation of the individual and fused identifiers.

One stratified fold assignment is shared by both modalities, so fold i's
face model and fold i's ECG model are trained and tested on the same
physical samples and their results can be fused directly. Each fold
trains the subject scores and baseline weights on its training portion
only, then reports test accuracy for face, ECG, the proposed fusion, and
the weighted-sum baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ConfidenceMatrix, PairedDataset, ValidationError, as_label_vector
from .fusion import (
    DEFAULT_BOUND,
    FusionModel,
    compute_baseline_weights,
    normalize_difference,
    predict_fused_batch,
    predict_weighted_sum_batch,
)
from .scoring import DEFAULT_RANK_DEPTH, clamp_scores, rank_samples

__all__ = [
    "FoldAssignment",
    "EvalConfig",
    "FoldResult",
    "MeanStd",
    "ReportSummary",
    "RunConfig",
    "ExperimentReport",
    "make_folds",
    "accuracy",
    "train_fusion_model",
    "run_experiment",
]


@dataclass(frozen=True)
class FoldAssignment:
    """Sample-to-fold mapping shared by both modalities."""

    fold_of_sample: np.ndarray = field(repr=False)
    k: int

    def __post_init__(self):
        f = np.asarray(self.fold_of_sample, dtype=np.int64)
        if f.ndim != 1 or f.size == 0:
            raise ValidationError("fold assignment must be a nonempty 1-D array")
        if f.min() < 0 or f.max() >= self.k:
            raise ValidationError(f"fold ids must lie in [0, {self.k})")
        f.setflags(write=False)
        object.__setattr__(self, "fold_of_sample", f)

    def test_indices(self, fold_id: int) -> np.ndarray:
        return np.nonzero(self.fold_of_sample == fold_id)[0]

    def train_indices(self, fold_id: int) -> np.ndarray:
        return np.nonzero(self.fold_of_sample != fold_id)[0]


def make_folds(labels, k: int, seed: int) -> FoldAssignment:
    """Stratified, seeded fold assignment.

    Every class's samples are shuffled and dealt round-robin across folds,
    so per-class counts per fold differ by at most one; a rolling start
    offset keeps overall fold sizes balanced when classes don't divide
    evenly. Identical inputs and seed always give identical assignments.
    """
    y = as_label_vector(labels)
    if k < 2:
        raise ValidationError("need at least 2 folds")
    num_classes = int(y.max()) + 1
    rng = np.random.default_rng(seed)
    fold_of_sample = np.full(y.size, -1, dtype=np.int64)
    start = 0
    for cls in range(num_classes):
        idx = np.nonzero(y == cls)[0]
        if idx.size < k:
            raise ValidationError(
                f"class {cls} has only {idx.size} samples; {k}-fold needs at least {k}"
            )
        perm = rng.permutation(idx)
        folds = (start + np.arange(perm.size)) % k
        fold_of_sample[perm] = folds
        start = (start + perm.size) % k
    return FoldAssignment(fold_of_sample=fold_of_sample, k=k)


@dataclass(frozen=True)
class EvalConfig:
    """Experiment-level settings shared across folds."""

    bound: float = DEFAULT_BOUND
    rank_depth: int = DEFAULT_RANK_DEPTH
    scenario: str = "unspecified"


@dataclass(frozen=True)
class FoldResult:
    """Test accuracies of the four systems on one fold."""

    fold_id: int
    acc_face: float
    acc_ecg: float
    acc_fused: float
    acc_weighted_sum: float
    error_count_fused: int


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float


@dataclass(frozen=True)
class ReportSummary:
    face: MeanStd
    ecg: MeanStd
    fused: MeanStd
    weighted_sum: MeanStd


@dataclass(frozen=True)
class RunConfig:
    """Echo of the settings that produced a report."""

    seed: int
    folds: int
    bound: float
    rank_depth: int
    scenario: str
    n_samples: int
    n_classes: int


@dataclass(frozen=True)
class ExperimentReport:
    config: RunConfig
    folds: tuple[FoldResult, ...]
    summary: ReportSummary

    @classmethod
    def build(cls, config: RunConfig, folds: tuple[FoldResult, ...]) -> "ExperimentReport":
        """Assemble a report, computing the aggregate row from the fold rows."""

        def agg(name: str) -> MeanStd:
            vals = np.array([getattr(f, name) for f in folds], dtype=np.float64)
            return MeanStd(mean=float(vals.mean()), std=float(vals.std(ddof=1)))

        summary = ReportSummary(
            face=agg("acc_face"),
            ecg=agg("acc_ecg"),
            fused=agg("acc_fused"),
            weighted_sum=agg("acc_weighted_sum"),
        )
        return cls(config=config, folds=tuple(folds), summary=summary)


def accuracy(predictions, labels) -> float:
    """Fraction of predictions equal to the true labels."""
    p = np.asarray(predictions, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValidationError(f"prediction/label shapes differ: {p.shape} vs {y.shape}")
    if p.size == 0:
        raise ValidationError("cannot compute accuracy of an empty set")
    return float(np.mean(p == y))


def _ranked(dataset: PairedDataset, cfg: EvalConfig) -> list:
    """Each sample's confidence gap and top prediction per modality; no fold changes them."""
    return [rank_samples(data, dataset.labels, cfg.rank_depth) for data in (dataset.face, dataset.ecg)]


def _fit(face, ecg, y_train, ranks_train, cfg: EvalConfig) -> FusionModel:
    """Subject scores -> difference vector, from the training rows' gaps and top predictions."""
    s_face = clamp_scores(*ranks_train[0], y_train, face.num_classes)
    s_ecg = clamp_scores(*ranks_train[1], y_train, ecg.num_classes)
    return FusionModel(
        difference=normalize_difference(s_ecg - s_face, bound=cfg.bound),
        modality_order=(face.modality, ecg.modality),
    )


def _fold(face, ecg, y, ranks, assignment, fold_id: int, cfg: EvalConfig) -> FoldResult:
    """One fold from the experiment-wide ranks; its training rows keep the order the clamp needs."""
    train_idx = assignment.train_indices(fold_id)
    test_idx = assignment.test_indices(fold_id)
    (_, face_top), (_, ecg_top) = ranks

    y_train = y[train_idx]
    ranks_train = [(gaps[train_idx], top[train_idx]) for gaps, top in ranks]
    model = _fit(face, ecg, y_train, ranks_train, cfg)
    weights = compute_baseline_weights(
        accuracy(face_top[train_idx], y_train), accuracy(ecg_top[train_idx], y_train)
    )

    face_test = face.values[test_idx]
    ecg_test = ecg.values[test_idx]
    y_test = y[test_idx]

    pred_fused = predict_fused_batch(face_test, ecg_test, model)
    return FoldResult(
        fold_id=fold_id,
        acc_face=accuracy(face_top[test_idx], y_test),
        acc_ecg=accuracy(ecg_top[test_idx], y_test),
        acc_fused=accuracy(pred_fused, y_test),
        acc_weighted_sum=accuracy(
            predict_weighted_sum_batch(face_test, ecg_test, weights), y_test
        ),
        error_count_fused=int(np.sum(pred_fused != y_test)),
    )


def train_fusion_model(
    face: ConfidenceMatrix,
    ecg: ConfidenceMatrix,
    labels,
    cfg: EvalConfig = EvalConfig(),
) -> FusionModel:
    """Fit the fusion rule (subject scores -> difference vector) on face and ECG rows of the same samples."""
    dataset = PairedDataset(face, ecg, labels)
    return _fit(face, ecg, dataset.labels, _ranked(dataset, cfg), cfg)


def run_experiment(
    dataset: PairedDataset,
    k: int = 10,
    seed: int = 0,
    cfg: EvalConfig = EvalConfig(),
) -> ExperimentReport:
    """Full k-fold experiment over a paired dataset.

    Every sample is ranked once per modality; each fold then only runs the
    order-dependent clamp on its training rows and scores its test rows.
    """
    assignment = make_folds(dataset.labels, k=k, seed=seed)
    face, ecg, y = dataset.face, dataset.ecg, dataset.labels
    ranks = _ranked(dataset, cfg)
    folds = tuple(_fold(face, ecg, y, ranks, assignment, fold_id, cfg) for fold_id in range(k))

    config = RunConfig(
        seed=seed,
        folds=k,
        bound=cfg.bound,
        rank_depth=cfg.rank_depth,
        scenario=cfg.scenario,
        n_samples=dataset.num_samples,
        n_classes=dataset.num_classes,
    )
    return ExperimentReport.build(config=config, folds=folds)
