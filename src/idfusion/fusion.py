"""Combining two modalities' confidences into one identification decision.

The subject-score gap between the modalities becomes a per-subject
difference vector, rescaled so its largest magnitude sits at a fixed
bound (0.20 by default). Each modality's confidences are then reweighted
elementwise by (0.5 - diff) or (0.5 + diff) — whichever side favors it —
and the two reweighted vectors are summed; the argmax of that sum is the
fused prediction. A conventional weighted-sum combiner with global,
accuracy-proportional weights is included as the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ValidationError, as_confidence_vector

__all__ = [
    "DifferenceVector",
    "FusionModel",
    "BaselineWeights",
    "normalize_difference",
    "predict_fused",
    "predict_fused_batch",
    "compute_baseline_weights",
    "predict_weighted_sum_batch",
]

DEFAULT_BOUND = 0.20


@dataclass(frozen=True)
class DifferenceVector:
    """Per-subject modality advantage, normalized to a symmetric bound.

    A positive entry means the second (plus-side) modality is the more
    reliable one for that subject. Unless the vector is identically zero,
    its largest magnitude equals ``bound`` exactly.
    """

    values: np.ndarray = field(repr=False)
    bound: float = DEFAULT_BOUND

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValidationError(f"difference vector must be 1-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("difference vector contains NaN or infinite entries")
        if not 0.0 < self.bound < 0.5:
            raise ValidationError("bound must lie in (0, 0.5) to keep all weights positive")
        peak = np.abs(v).max() if v.size else 0.0
        if peak > self.bound:
            raise ValidationError(f"entries exceed the bound: max |d| = {peak} > {self.bound}")
        if peak != 0.0 and abs(peak - self.bound) > 1e-9:
            raise ValidationError(
                f"a nonzero difference vector must peak at the bound (got {peak})"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def normalize_difference(raw, bound: float = DEFAULT_BOUND) -> DifferenceVector:
    """Rescale a raw difference vector so its peak magnitude equals ``bound``.

    Rescaling (rather than clipping) preserves the relative ordering of all
    entries. An all-zero input stays all zeros.
    """
    v = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValidationError("difference vector contains NaN or infinite entries")
    peak = np.abs(v).max() if v.size else 0.0
    if peak == 0.0 or not 0.0 < bound < 0.5:  # DifferenceVector rejects a bad bound before anything is scaled by it
        return DifferenceVector(values=v.copy(), bound=bound)
    # divide by the peak first: no overflow for tiny vectors, and the peak
    # entry maps to exactly +-1 and hence exactly +-bound
    scaled = (v / peak) * bound
    return DifferenceVector(values=scaled, bound=bound)


@dataclass(frozen=True)
class FusionModel:
    """A trained fusion rule: the difference vector plus the modality order.

    ``modality_order`` records the tags of the training files, as
    (minus_tag, plus_tag). The decision kernels take face first: face
    confidences are weighted by (0.5 - d), ECG confidences by (0.5 + d),
    so a model with ``ecg`` on the minus side or ``face`` on the plus side
    is rejected. The weight pair is computed once, here; it is read-only
    and left out of equality and the repr.
    """

    difference: DifferenceVector
    modality_order: tuple[str, str] = ("face", "ecg")
    _weights: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.modality_order) != 2 or self.modality_order[0] == self.modality_order[1]:
            raise ValidationError("modality_order must be two distinct tags")
        if self.modality_order[0] == "ecg" or self.modality_order[1] == "face":
            raise ValidationError(
                f"modality_order {list(self.modality_order)} puts ecg on the face (minus) side "
                "or face on the ecg (plus) side"
            )
        d = self.difference.values
        weights = (0.5 - d, 0.5 + d)
        for w in weights:
            w.setflags(write=False)
        object.__setattr__(self, "_weights", weights)


def _check_aligned(face_values: np.ndarray, ecg_values: np.ndarray) -> None:
    """The shape check shared by both batch decision kernels."""
    if face_values.shape != ecg_values.shape:
        raise ValidationError(
            f"modality shapes differ: {face_values.shape} vs {ecg_values.shape}"
        )


def _reweighted_argmax(face_values, ecg_values, face_weight, ecg_weight) -> np.ndarray:
    """Both combiners' decisions: the row-wise argmax of the weighted sum, ties to the lower index."""
    return np.argmax(face_values * face_weight + ecg_values * ecg_weight, axis=1)


def predict_fused(c_face, c_ecg, model: FusionModel) -> int:
    """Fused class decision for one sample; ties go to the lower index."""
    a = as_confidence_vector(c_face)
    b = as_confidence_vector(c_ecg)
    return int(predict_fused_batch(a[None, :], b[None, :], model)[0])


def predict_fused_batch(face_values: np.ndarray, ecg_values: np.ndarray, model: FusionModel) -> np.ndarray:
    """Row-wise fused decisions over aligned N x M confidence matrices."""
    _check_aligned(face_values, ecg_values)
    d = model.difference.values
    if face_values.shape[1] != d.size:
        raise ValidationError(
            f"model has {d.size} classes but matrices have {face_values.shape[1]}"
        )
    return _reweighted_argmax(face_values, ecg_values, *model._weights)


@dataclass(frozen=True)
class BaselineWeights:
    """Global convex weights for the weighted-sum baseline."""

    w_face: float
    w_ecg: float

    def __post_init__(self):
        if not (0.0 <= self.w_face <= 1.0 and 0.0 <= self.w_ecg <= 1.0):
            raise ValidationError("weights must lie in [0, 1]")
        if abs(self.w_face + self.w_ecg - 1.0) > 1e-9:
            raise ValidationError(f"weights must sum to 1, got {self.w_face + self.w_ecg}")


def compute_baseline_weights(train_acc_face: float, train_acc_ecg: float) -> BaselineWeights:
    """Accuracy-proportional weights, normalized to sum to 1."""
    if not (0.0 <= train_acc_face <= 1.0 and 0.0 <= train_acc_ecg <= 1.0):
        raise ValidationError("accuracies must lie in [0, 1]")
    total = train_acc_face + train_acc_ecg
    if total == 0.0:
        raise ValidationError("cannot derive weights when both accuracies are zero")
    return BaselineWeights(w_face=train_acc_face / total, w_ecg=train_acc_ecg / total)


def predict_weighted_sum_batch(
    face_values: np.ndarray, ecg_values: np.ndarray, weights: BaselineWeights
) -> np.ndarray:
    """Row-wise weighted-sum decisions over aligned N x M confidence matrices."""
    _check_aligned(face_values, ecg_values)
    return _reweighted_argmax(face_values, ecg_values, weights.w_face, weights.w_ecg)
