"""Synthetic confidence-score generator with accuracy calibration.

Stands in for the two trained classifiers. Instead of synthesizing raw
images or waveforms, it models the *effect* a classifier's input quality
has on its output: each sample's score vector is a true-class logit
offset plus i.i.d. Gaussian noise, min-max normalized per sample. Larger
noise means a less reliable classifier, and per-subject degradation rules
raise the noise for selected subjects only. Noise levels are not chosen
directly but calibrated by bisection until the simulated rank-1 accuracy
hits a requested target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ConfidenceMatrix, PairedDataset, ValidationError, minmax_normalize_rows

__all__ = [
    "GeneratorParams",
    "SubjectRule",
    "DegradationScenario",
    "CalibrationError",
    "CalibrationResult",
    "RegimeCalibration",
    "generate_sample",
    "generate_dataset",
    "calibrate",
    "degraded_subpopulation_target",
    "calibrate_clean_regime",
    "calibrate_degraded_regime",
    "DESK_PRESET",
    "FULL_PRESET",
    "DEFAULT_CLEAN_TARGETS",
    "DEFAULT_DEGRADED_TARGETS",
]

# (num_subjects, samples_per_subject)
DESK_PRESET = (20, 20)
FULL_PRESET = (87, 100)

# default rank-1 accuracy targets per regime, as (face, ecg)
DEFAULT_CLEAN_TARGETS = (0.98839, 0.96138)
DEFAULT_DEGRADED_TARGETS = (0.66586, 0.76276)


class CalibrationError(RuntimeError):
    """The requested accuracy target cannot be reached in the search range."""


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass(frozen=True)
class GeneratorParams:
    """Score-generation settings for one modality."""

    num_classes: int
    samples_per_class: int
    true_class_mean: float = 1.0
    noise_sigma_clean: float = 0.1
    noise_sigma_degraded: float = 0.5

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.samples_per_class < 1:
            raise ValidationError("need at least 1 sample per class")
        if self.noise_sigma_clean <= 0 or self.noise_sigma_degraded <= 0:
            raise ValidationError("noise sigmas must be positive")
        if self.noise_sigma_degraded <= self.noise_sigma_clean:
            raise ValidationError("degraded noise sigma must exceed the clean sigma")

    def sigma(self, degraded: bool) -> float:
        return self.noise_sigma_degraded if degraded else self.noise_sigma_clean


@dataclass(frozen=True)
class SubjectRule:
    """Divisibility predicate over 1-based subject ids.

    A subject is degraded when its id is divisible by any listed divisor;
    an empty divisor list degrades nobody.
    """

    divisors: tuple[int, ...] = ()

    def __post_init__(self):
        if any(d < 2 for d in self.divisors):
            raise ValidationError("divisors must be >= 2")

    def degraded(self, subject_id: int) -> bool:
        if subject_id < 1:
            raise ValidationError("subject ids are 1-based")
        return any(subject_id % d == 0 for d in self.divisors)

    def degraded_fraction(self, num_subjects: int) -> float:
        return sum(self.degraded(i) for i in range(1, num_subjects + 1)) / num_subjects


@dataclass(frozen=True)
class DegradationScenario:
    """Which subjects get the higher noise level, per modality."""

    face_rule: SubjectRule = SubjectRule()
    ecg_rule: SubjectRule = SubjectRule()
    name: str = "clean"

    @classmethod
    def clean(cls) -> "DegradationScenario":
        return cls()

    @classmethod
    def default_degraded(cls) -> "DegradationScenario":
        """Face degraded for ids divisible by 2 or 3, ECG for ids divisible by 7."""
        return cls(
            face_rule=SubjectRule(divisors=(2, 3)),
            ecg_rule=SubjectRule(divisors=(7,)),
            name="degraded",
        )


def generate_sample(
    true_label: int,
    degraded: bool,
    params: GeneratorParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one normalized confidence vector for a sample of ``true_label``."""
    if not 0 <= true_label < params.num_classes:
        raise ValidationError(f"true_label {true_label} out of range")
    return _draw_rows(1, true_label, degraded, params, rng)[0]


def _draw_rows(
    n: int,
    true_label: int,
    degraded: bool,
    params: GeneratorParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """``n`` normalized rows for ``true_label``; one (n, M) draw reads ``rng`` like n (M,) draws."""
    logits = rng.normal(0.0, params.sigma(degraded), (n, params.num_classes))
    logits[:, true_label] += params.true_class_mean
    return minmax_normalize_rows(logits)


def generate_dataset(
    face_params: GeneratorParams,
    ecg_params: GeneratorParams,
    scenario: DegradationScenario,
    seed: int | np.random.SeedSequence,
) -> PairedDataset:
    """Aligned face/ECG confidence matrices plus labels.

    Every (modality, subject) pair draws from its own seeded substream, so
    the dataset is fully determined by (params, scenario, seed) no matter
    how generation is scheduled.
    """
    if (face_params.num_classes, face_params.samples_per_class) != (
        ecg_params.num_classes,
        ecg_params.samples_per_class,
    ):
        raise ValidationError("modality params must agree on dataset shape")
    m = face_params.num_classes
    spc = face_params.samples_per_class

    face_ss, ecg_ss = _as_seedseq(seed).spawn(2)
    blocks = {}
    for tag, params, rule, ss in (
        ("face", face_params, scenario.face_rule, face_ss),
        ("ecg", ecg_params, scenario.ecg_rule, ecg_ss),
    ):
        children = ss.spawn(m)
        rows = [
            _draw_rows(
                spc,
                subject,
                rule.degraded(subject + 1),  # rules speak 1-based subject ids
                params,
                np.random.default_rng(children[subject]),
            )
            for subject in range(m)
        ]
        blocks[tag] = np.vstack(rows)

    labels = np.repeat(np.arange(m), spc)
    ids = tuple(f"s{i:06d}" for i in range(m * spc))
    return PairedDataset(
        face=ConfidenceMatrix(values=blocks["face"], sample_ids=ids, modality="face"),
        ecg=ConfidenceMatrix(values=blocks["ecg"], sample_ids=ids, modality="ecg"),
        labels=labels,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one noise-level search."""

    params: GeneratorParams
    sigma: float
    achieved: float
    target: float
    trials: int
    slot: str


def calibrate(
    target_accuracy: float,
    params_template: GeneratorParams,
    trials: int = 100_000,
    seed: int | np.random.SeedSequence = 0,
    *,
    slot: str = "clean",
    tolerance: float = 0.005,
    sigma_range: tuple[float, float] = (1e-4, 1e4),
    max_iter: int = 200,
) -> CalibrationResult:
    """Bisect the noise sigma until simulated rank-1 accuracy hits the target.

    The Monte-Carlo draw is fixed up front and shared across all sigma
    evaluations, which makes the estimated accuracy exactly monotone in
    sigma and the bisection well behaved. ``slot`` selects whether the
    fitted sigma lands in the clean or the degraded field of the returned
    params. Raises :class:`CalibrationError` when the target is not
    bracketed by the search range or the accuracy landscape is flat
    (e.g. a zero true-class offset, where every sigma gives chance level).
    """
    if not 0.0 < target_accuracy < 1.0:
        raise ValidationError("target accuracy must lie strictly between 0 and 1")
    if slot not in ("clean", "degraded"):
        raise ValidationError("slot must be 'clean' or 'degraded'")
    if trials < 1000:
        raise ValidationError("need at least 1000 trials for a usable estimate")
    lo, hi = sigma_range
    if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 < lo < hi):
        raise ValidationError(f"sigma_range must be finite with 0 < lo < hi, got {sigma_range}")

    mu = params_template.true_class_mean
    m = params_template.num_classes
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((trials, m))
    # the sample is correct iff mu/sigma exceeds the margin by which the
    # best competitor's noise beats the true class's noise
    margin = np.sort(z[:, 1:].max(axis=1) - z[:, 0])

    def acc(sigma: float) -> float:
        return float(np.searchsorted(margin, mu / sigma, side="left") / trials)

    acc_lo, acc_hi = acc(lo), acc(hi)
    if acc_lo - acc_hi < 0.02:
        raise CalibrationError(
            f"flat accuracy landscape ({acc_lo:.4f} to {acc_hi:.4f}); "
            "the true-class offset cannot move accuracy in this range"
        )
    if not acc_hi <= target_accuracy <= acc_lo:
        raise CalibrationError(
            f"target {target_accuracy} not bracketed: accuracy spans "
            f"[{acc_hi:.4f}, {acc_lo:.4f}] over sigma range {sigma_range}"
        )

    log_lo, log_hi = np.log(lo), np.log(hi)
    for _ in range(max_iter):
        log_mid = 0.5 * (log_lo + log_hi)
        sigma = float(np.exp(log_mid))
        a = acc(sigma)
        if abs(a - target_accuracy) <= tolerance:
            fitted = _with_sigma(params_template, sigma, slot)
            return CalibrationResult(
                params=fitted,
                sigma=sigma,
                achieved=a,
                target=target_accuracy,
                trials=trials,
                slot=slot,
            )
        if a > target_accuracy:
            log_lo = log_mid
        else:
            log_hi = log_mid
    raise CalibrationError(
        f"bisection did not reach the target within {max_iter} iterations; "
        "increase trials or loosen the tolerance"
    )


def _with_sigma(template: GeneratorParams, sigma: float, slot: str) -> GeneratorParams:
    if slot == "clean":
        degraded = max(template.noise_sigma_degraded, sigma * 2)
        return replace(template, noise_sigma_clean=sigma, noise_sigma_degraded=degraded)
    return replace(template, noise_sigma_degraded=sigma)


def degraded_subpopulation_target(
    overall_target: float,
    clean_accuracy: float,
    degraded_fraction: float,
    num_classes: int,
) -> tuple[float, bool]:
    """Accuracy the degraded subjects must hit for the population mixture.

    Solves ``overall = (1 - f) * clean + f * x`` for x. When even a
    chance-level degraded subpopulation cannot pull the mixture down to the
    overall target (the clean majority is too accurate), the overall value
    itself is assigned to the degraded subpopulation and the second return
    value is False to flag that the mixture was infeasible.
    """
    if not 0.0 < degraded_fraction <= 1.0:
        raise ValidationError("degraded fraction must lie in (0, 1]")
    required = (overall_target - (1.0 - degraded_fraction) * clean_accuracy) / degraded_fraction
    chance = 1.0 / num_classes
    if required <= chance + 1e-3:
        return overall_target, False
    if required >= clean_accuracy:
        raise CalibrationError(
            "mixture would require the degraded subjects to outperform the clean ones"
        )
    return required, True


@dataclass(frozen=True)
class RegimeCalibration:
    """Per-modality fitted params plus the calibration audit trail."""

    face: GeneratorParams
    ecg: GeneratorParams
    scenario: DegradationScenario
    details: dict


def calibrate_clean_regime(
    num_classes: int,
    samples_per_class: int,
    face_target: float = DEFAULT_CLEAN_TARGETS[0],
    ecg_target: float = DEFAULT_CLEAN_TARGETS[1],
    trials: int = 100_000,
    seed: int | np.random.SeedSequence = 0,
    true_class_mean: float = 1.0,
) -> RegimeCalibration:
    """Fit clean-noise levels so each modality hits its accuracy target."""
    template = GeneratorParams(
        num_classes=num_classes,
        samples_per_class=samples_per_class,
        true_class_mean=true_class_mean,
    )
    face_ss, ecg_ss = _as_seedseq(seed).spawn(2)
    face_cal = calibrate(face_target, template, trials=trials, seed=face_ss, slot="clean")
    ecg_cal = calibrate(ecg_target, template, trials=trials, seed=ecg_ss, slot="clean")
    return RegimeCalibration(
        face=face_cal.params,
        ecg=ecg_cal.params,
        scenario=DegradationScenario.clean(),
        details={"face_clean": face_cal, "ecg_clean": ecg_cal},
    )


def calibrate_degraded_regime(
    clean: RegimeCalibration,
    face_overall_target: float = DEFAULT_DEGRADED_TARGETS[0],
    ecg_overall_target: float = DEFAULT_DEGRADED_TARGETS[1],
    scenario: DegradationScenario | None = None,
    trials: int = 100_000,
    seed: int | np.random.SeedSequence = 1,
) -> RegimeCalibration:
    """Fit degraded-noise levels on top of an already-calibrated clean regime.

    The clean sigma per modality is kept fixed; the degraded sigma is
    searched so the population mixture (clean and degraded subjects per the
    scenario rules) hits the overall target. Infeasible mixtures fall back
    to assigning the overall target to the degraded subpopulation directly;
    the details record which interpretation each modality got.
    """
    scenario = scenario if scenario is not None else DegradationScenario.default_degraded()
    m = clean.face.num_classes
    face_ss, ecg_ss = _as_seedseq(seed).spawn(2)
    details: dict = {}
    fitted = {}
    for tag, params, rule, ss, overall in (
        ("face", clean.face, scenario.face_rule, face_ss, face_overall_target),
        ("ecg", clean.ecg, scenario.ecg_rule, ecg_ss, ecg_overall_target),
    ):
        frac = rule.degraded_fraction(m)
        if frac == 0.0:
            raise ValidationError(f"{tag} rule degrades no subjects; nothing to calibrate")
        clean_achieved = clean.details[f"{tag}_clean"].achieved
        subpop_target, mixable = degraded_subpopulation_target(
            overall, clean_achieved, frac, m
        )
        cal = calibrate(subpop_target, params, trials=trials, seed=ss, slot="degraded")
        fitted[tag] = cal.params
        details[f"{tag}_degraded"] = cal
        details[f"{tag}_mixture_feasible"] = mixable
        details[f"{tag}_degraded_fraction"] = frac
        details[f"{tag}_overall_target"] = overall
        # overall accuracy the calibrated mixture is expected to produce
        details[f"{tag}_expected_overall"] = (1 - frac) * clean_achieved + frac * cal.achieved
    details.update(clean.details)
    return RegimeCalibration(
        face=fitted["face"], ecg=fitted["ecg"], scenario=scenario, details=details
    )
