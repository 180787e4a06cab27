"""Per-subject reliability scores learned from training-set confidences.

For every enrolled subject the score accumulates, over the training
samples, how decisively the model identifies that subject:

* a sample whose true subject is ranked first earns the full 1.0 award;
* a true subject ranked 2..rank_depth earns 1.0 minus the confidence gap
  between the top prediction and the true one;
* a true subject outside the top rank_depth earns nothing;
* whichever subject the model (wrongly) put on top is penalized by that
  same gap, and its running score is clamped at zero immediately.

The final vector is divided by the per-class sample count so a perfectly
identified subject scores exactly 1.0 on a balanced training set.

The clamp makes the loop stateful: the running score of a frequently
confused subject saturates at zero instead of going arbitrarily
negative, so samples must be consumed in their given order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfidenceMatrix,
    ValidationError,
    as_confidence_vector,
    as_label_vector,
)

__all__ = ["ScoringConfig", "conf_diff", "compute_subject_scores"]


@dataclass(frozen=True)
class ScoringConfig:
    """Knobs for subject scoring.

    ``samples_per_class`` is the normalizer N/M of the training set; the
    caller supplies it (exact for balanced sets, a real-valued average
    otherwise). ``rank_depth`` is how deep the ranked predictions are
    searched for the true subject before the sample counts as a miss.
    """

    samples_per_class: float
    rank_depth: int = 5

    def __post_init__(self):
        if self.samples_per_class <= 0:
            raise ValidationError("samples_per_class must be positive")
        if self.rank_depth < 1:
            raise ValidationError("rank_depth must be >= 1")


def conf_diff(confidences, true_label: int, rank_depth: int = ScoringConfig.rank_depth) -> float:
    """Confidence gap between the top prediction and the true subject.

    Returns 0.0 when the true subject is ranked first, the top-minus-true
    score difference when it sits at rank 2..rank_depth, and 1.0 when it is
    absent from the top rank_depth entirely. Inputs must already be
    normalized to [0, 1] so the 1.0 miss penalty is commensurate with the
    score gaps.
    """
    c = as_confidence_vector(confidences)
    if not 0 <= true_label < c.size:
        raise ValidationError(f"true_label {true_label} out of range [0, {c.size})")
    if not 1 <= rank_depth <= c.size:
        raise ValidationError(f"rank_depth {rank_depth} out of range [1, {c.size}]")
    gaps, _ = _gaps_and_predictions(c[None, :], np.array([true_label], dtype=np.int64), rank_depth)
    return float(gaps[0])


def _gaps_and_predictions(
    values: np.ndarray, labels: np.ndarray, rank_depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-sample confidence gaps and top predictions.

    The gap of a sample depends only on its own row, so a k-fold experiment
    computes it once for all folds; only :func:`_clamped_scores` depends on order.
    """
    rows = np.arange(values.shape[0])
    top = np.argmax(values, axis=1)  # the first maximum: ties go to the lower index
    true = values[rows, labels][:, None]
    below = np.arange(values.shape[1]) < labels[:, None]
    # classes ranked above the true one: higher scores, and equal scores at lower indices
    true_rank = (values > true).sum(axis=1) + ((values == true) & below).sum(axis=1)
    gap = values[rows, top] - true[:, 0]
    gap = np.clip(gap, 0.0, 1.0)
    out = np.where(true_rank == 0, 0.0, np.where(true_rank < rank_depth, gap, 1.0))
    return out, top


def _training_set(confidences, labels, rank_depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated N x M confidences and length-N int64 labels for subject scoring."""
    if isinstance(confidences, ConfidenceMatrix):
        values = confidences.values
    else:
        values = as_confidence_vector(confidences, name="confidence matrix", ndim=2)
    if values.shape[0] == 0:
        raise ValidationError("cannot score an empty training set")
    n, m = values.shape
    y = as_label_vector(labels, m)
    if y.size != n:
        raise ValidationError(f"{y.size} labels for {n} samples")
    if rank_depth > m:
        raise ValidationError(f"rank_depth {rank_depth} exceeds class count {m}")
    return values, y


def _clamped_scores(gaps, top, labels, num_classes: int, cfg: ScoringConfig) -> np.ndarray:
    """The order-dependent half of scoring: award, punish and clamp the rows in turn."""
    counts = np.bincount(labels, minlength=num_classes)
    if counts.min() != counts.max():
        warnings.warn(
            "unbalanced class counts: the samples_per_class normalizer is approximate",
            UserWarning,
            stacklevel=3,
        )

    scores = [0.0] * num_classes
    # Input order is part of the contract: the clamp couples consecutive
    # updates to the same subject, so this loop must not be reordered.
    for i in range(labels.size):
        d = float(gaps[i])
        scores[labels[i]] += 1.0 - d
        p = top[i]
        scores[p] -= d
        if scores[p] < 0.0:
            scores[p] = 0.0
    return np.asarray(scores, dtype=np.float64) / cfg.samples_per_class


def compute_subject_scores(confidences, labels, cfg: ScoringConfig) -> np.ndarray:
    """Run the award/punish scoring loop over a training set.

    ``confidences`` may be a :class:`ConfidenceMatrix` or a plain N x M
    array with values in [0, 1]; ``labels`` gives the true class per row.
    Returns the length-M subject score vector.
    """
    values, y = _training_set(confidences, labels, cfg.rank_depth)
    gaps, top = _gaps_and_predictions(values, y, cfg.rank_depth)
    return _clamped_scores(gaps, top, y, values.shape[1], cfg)
