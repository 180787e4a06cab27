"""Per-subject reliability scores learned from training-set confidences.

For every enrolled subject the score accumulates, over the training
samples, how decisively the model identifies that subject:

* a sample whose true subject is ranked first earns the full 1.0 award;
* a true subject ranked 2..rank_depth earns 1.0 minus the confidence gap
  between the top prediction and the true one;
* a true subject outside the top rank_depth earns nothing;
* whichever subject the model (wrongly) put on top is penalized by that
  same gap, and its running score is clamped at zero immediately.

The final vector is divided by the training set's samples per class, N/M,
so a perfectly identified subject scores exactly 1.0 on a balanced
training set.

The clamp makes the loop stateful: the running score of a frequently
confused subject saturates at zero instead of going arbitrarily
negative, so samples must be consumed in their given order. Ranking
(:func:`rank_samples`) needs no order; the clamp (:func:`clamp_scores`) does.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (
    ConfidenceMatrix,
    ValidationError,
    as_confidence_vector,
    as_label_vector,
)

__all__ = ["rank_samples", "clamp_scores", "compute_subject_scores"]

DEFAULT_RANK_DEPTH = 5


def rank_samples(confidences, labels, rank_depth: int = DEFAULT_RANK_DEPTH) -> tuple[np.ndarray, np.ndarray]:
    """The order-free half of scoring: each sample's confidence gap and top prediction.

    ``confidences`` is a :class:`ConfidenceMatrix` or an N x M array in [0, 1].
    A sample's gap depends only on its own row, so a k-fold experiment ranks
    every sample once for all folds.
    """
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
    if rank_depth < 1:
        raise ValidationError(f"rank_depth must be >= 1, got {rank_depth}")
    if rank_depth > m:
        raise ValidationError(f"rank_depth {rank_depth} exceeds class count {m}")

    rows = np.arange(n)
    peak = values.max(axis=1)
    # argmax of a read-only matrix copies it whole; argmax of a bool mask does not.
    # The first True is the first maximum: ties go to the lower index
    top = np.argmax(values == peak[:, None], axis=1)
    true = values[rows, y][:, None]
    below = np.arange(m) < y[:, None]
    # classes ranked above the true one: higher scores, and equal scores at lower indices
    true_rank = (values > true).sum(axis=1) + ((values == true) & below).sum(axis=1)
    gap = np.clip(peak - true[:, 0], 0.0, 1.0)
    gaps = np.where(true_rank == 0, 0.0, np.where(true_rank < rank_depth, gap, 1.0))
    return gaps, top


def clamp_scores(gaps, top, labels, num_classes: int) -> np.ndarray:
    """The order-dependent half of scoring: award, punish and clamp the ranked rows in turn."""
    y = as_label_vector(labels, num_classes)
    top = as_label_vector(top, num_classes, name="top predictions")
    gaps = np.ascontiguousarray(gaps, dtype=np.float64)
    if not gaps.shape == top.shape == y.shape:
        raise ValidationError(f"gaps, top predictions and labels differ in shape: {gaps.shape}, {top.shape}, {y.shape}")
    if not 0.0 <= gaps.min() <= gaps.max() <= 1.0:  # also false for a NaN gap
        raise ValidationError(f"gaps must lie in [0, 1], got min={gaps.min()}, max={gaps.max()}")
    counts = np.bincount(y, minlength=num_classes)
    if counts.min() != counts.max():
        warnings.warn(
            "unbalanced class counts: the N/M normalizer is approximate",
            UserWarning,
            stacklevel=3,
        )

    scores = [0.0] * num_classes
    # Input order is part of the contract: the clamp couples consecutive
    # updates to the same subject, so this loop must not be reordered.
    # the memoryview yields the gaps one Python float at a time; a list of all N
    # of them (gaps.tolist()) raised evaluate's peak memory by 4-10 MB
    for d, label, p in zip(memoryview(gaps), y.tolist(), top.tolist()):
        scores[label] += 1.0 - d
        scores[p] -= d
        if scores[p] < 0.0:
            scores[p] = 0.0
    return np.asarray(scores, dtype=np.float64) / (y.size / num_classes)


def compute_subject_scores(confidences, labels, rank_depth: int = DEFAULT_RANK_DEPTH) -> np.ndarray:
    """Run the award/punish scoring loop over a training set: :func:`rank_samples`, then :func:`clamp_scores`.

    ``confidences`` may be a :class:`ConfidenceMatrix` or a plain N x M
    array with values in [0, 1]; ``labels`` gives the true class per row.
    ``rank_depth`` is how deep the ranked predictions are searched for the
    true subject before the sample counts as a miss. Returns the length-M
    subject score vector.
    """
    gaps, top = rank_samples(confidences, labels, rank_depth)
    num_classes = np.shape(getattr(confidences, "values", confidences))[1]
    return clamp_scores(gaps, top, labels, num_classes)
