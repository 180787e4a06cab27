"""Synthetic confidence-score generator with accuracy calibration.

Stands in for the two trained classifiers. Instead of synthesizing raw
images or waveforms, it models the *effect* a classifier's input quality
has on its output: each sample's score vector is a true-class logit
offset plus i.i.d. Gaussian noise, min-max normalized per sample. Larger
noise means a less reliable classifier, and per-subject degradation rules
raise the noise for selected subjects only. Noise levels are not chosen
directly but calibrated by bisection until the model's rank-1 accuracy
hits a requested target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ConfidenceMatrix, PairedDataset, ValidationError, as_confidence_vector

__all__ = [
    "GeneratorParams",
    "SubjectRule",
    "DegradationScenario",
    "CalibrationError",
    "CalibrationResult",
    "RegimeCalibration",
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

# calibration stops once the accuracy is this close to the target
CALIBRATION_TOLERANCE = 0.005
MAX_BISECTION_STEPS = 200
# trapezoidal rule for E[f(z)], z standard normal: step 0.1 over [-10, 10], pairs
# (z, step * normal pdf(z)); the weight left out beyond +-10 is below 1e-23
_QUADRATURE = tuple((i / 10, 0.1 * math.exp(-0.5 * (i / 10) ** 2) / math.sqrt(2 * math.pi))
                    for i in range(-100, 101))


class CalibrationError(RuntimeError):
    """The requested accuracy target cannot be reached in the search range."""


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
        if not math.isfinite(self.true_class_mean):
            raise ValidationError(f"true-class mean must be finite, got {self.true_class_mean}")
        if self.true_class_mean < 0:  # a negative offset inverts the accuracy landscape
            raise ValidationError(f"true-class mean must not be negative, got {self.true_class_mean}")
        for name in ("noise_sigma_clean", "noise_sigma_degraded"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
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
        """The share of ids 1..n a divisor divides, by inclusion-exclusion over the lcms <= n."""
        n = num_subjects
        terms = {1: 1}  # lcm of a set of divisors -> sum of (-1)^(set size)
        for d in self.divisors:
            for lcm, sign in list(terms.items()):
                if (m := math.lcm(lcm, d)) <= n:
                    terms[m] = terms.get(m, 0) - sign
        return (n - sum(c * (n // lcm) for lcm, c in terms.items())) / n


@dataclass(frozen=True)
class DegradationScenario:
    """Which subjects get the higher noise level, per modality."""

    face_rule: SubjectRule = SubjectRule()
    ecg_rule: SubjectRule = SubjectRule()

    @classmethod
    def clean(cls) -> "DegradationScenario":
        return cls()

    @classmethod
    def default_degraded(cls) -> "DegradationScenario":
        """Face degraded for ids divisible by 2 or 3, ECG for ids divisible by 7."""
        return cls(
            face_rule=SubjectRule(divisors=(2, 3)),
            ecg_rule=SubjectRule(divisors=(7,)),
        )


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
    return as_confidence_vector(logits, ndim=2, normalize=True)


def generate_dataset(
    face_params: GeneratorParams,
    ecg_params: GeneratorParams,
    scenario: DegradationScenario,
    seed: int | np.random.SeedSequence,
) -> PairedDataset:
    """Aligned face/ECG confidence matrices plus labels.

    Every (modality, subject) pair draws from its own seeded substream, so
    the dataset is fully determined by (params, scenario, seed) no matter
    how generation is scheduled. Both N x M matrices are views of one
    allocation, filled one subject's rows at a time, so generation holds
    the dataset once, plus one subject's rows.
    """
    if (face_params.num_classes, face_params.samples_per_class) != (
        ecg_params.num_classes,
        ecg_params.samples_per_class,
    ):
        raise ValidationError("modality params must agree on dataset shape")
    m = face_params.num_classes
    spc = face_params.samples_per_class
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)

    # one block, not one per modality: released, it leaves one contiguous free region
    # for a later large allocation, where two blocks can end up split by a small one
    values = np.empty((2, m * spc, m))
    for out, params, rule, ss in zip(
        values,
        (face_params, ecg_params),
        (scenario.face_rule, scenario.ecg_rule),
        seed.spawn(2),
    ):
        children = ss.spawn(m)
        for subject in range(m):
            out[subject * spc : (subject + 1) * spc] = _draw_rows(
                spc,
                subject,
                rule.degraded(subject + 1),  # rules speak 1-based subject ids
                params,
                np.random.default_rng(children[subject]),
            )

    labels = np.repeat(np.arange(m), spc)
    ids = tuple(f"s{i:06d}" for i in range(m * spc))
    return PairedDataset(
        face=ConfidenceMatrix(values=values[0], sample_ids=ids, modality="face"),
        ecg=ConfidenceMatrix(values=values[1], sample_ids=ids, modality="ecg"),
        labels=labels,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one noise-level search: the fitted sigma and the accuracy it reached."""

    sigma: float
    achieved: float
    target: float


def calibrate(
    target_accuracy: float,
    params_template: GeneratorParams,
    *,
    sigma_range: tuple[float, float] = (1e-4, 1e4),
    trials: int = 0,
) -> CalibrationResult:
    """Bisect the noise sigma until the rank-1 accuracy is within tolerance of the target.

    The accuracy at each sigma is the model's exact rank-1 accuracy,
    E[Phi(z + mean/sigma)^(M-1)], by a 201-node trapezoidal rule: no random
    draw and no seed, about 1 ms per fit at 87 classes. It is monotone in
    sigma, so the bisection is well behaved, and ``achieved`` is exact.
    Only the template's true-class mean and class count are read; the
    caller places the fitted sigma in its own params. ``trials`` must stay
    0: the benchmark's tracer reads it by name for
    ``simulator.calibrate.normals_drawn``, and it goes away when ROADMAP
    item 1 retires that metric.
    Raises :class:`CalibrationError` when the target is not bracketed by
    the search range or the accuracy landscape is flat (e.g. a zero
    true-class offset, where every sigma gives chance level).
    """
    if not 0.0 < target_accuracy < 1.0:
        raise ValidationError("target accuracy must lie strictly between 0 and 1")
    if trials != 0:
        raise ValidationError("calibrate draws no Monte-Carlo trials")
    lo, hi = sigma_range
    if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 < lo < hi):
        raise ValidationError(f"sigma_range must be finite with 0 < lo < hi, got {sigma_range}")

    mu = params_template.true_class_mean
    m = params_template.num_classes
    root2 = math.sqrt(2.0)

    def acc(sigma: float) -> float:
        # in noise sigmas the true class scores mu/sigma + z, each other class a
        # standard normal, so it wins with probability E[Phi(z + mu/sigma)^(M-1)]
        offset = mu / sigma
        return sum(w * (0.5 * math.erfc(-(z + offset) / root2)) ** (m - 1) for z, w in _QUADRATURE)

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

    # numpy's log and exp, not math's: they differ in the last bit at some midpoints,
    # and a sigma that moves by one bit moves every simulated score
    log_lo, log_hi = np.log(lo), np.log(hi)
    for _ in range(MAX_BISECTION_STEPS):
        log_mid = 0.5 * (log_lo + log_hi)
        sigma = float(np.exp(log_mid))
        a = acc(sigma)
        if abs(a - target_accuracy) <= CALIBRATION_TOLERANCE:
            return CalibrationResult(sigma=sigma, achieved=a, target=target_accuracy)
        if a > target_accuracy:
            log_lo = log_mid
        else:
            log_hi = log_mid
    raise CalibrationError(
        f"bisection did not come within {CALIBRATION_TOLERANCE} of the target in "
        f"{MAX_BISECTION_STEPS} steps"
    )


def _with_clean_sigma(template: GeneratorParams, sigma: float) -> GeneratorParams:
    """The template with a fitted clean sigma; the degraded sigma is raised to twice it if below."""
    degraded = max(template.noise_sigma_degraded, sigma * 2)
    return replace(template, noise_sigma_clean=sigma, noise_sigma_degraded=degraded)


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
) -> RegimeCalibration:
    """Fit clean-noise levels so each modality hits its accuracy target."""
    template = GeneratorParams(num_classes=num_classes, samples_per_class=samples_per_class)
    face_cal = calibrate(face_target, template)
    ecg_cal = calibrate(ecg_target, template)
    return RegimeCalibration(
        face=_with_clean_sigma(template, face_cal.sigma),
        ecg=_with_clean_sigma(template, ecg_cal.sigma),
        scenario=DegradationScenario.clean(),
        details={"face_clean": face_cal, "ecg_clean": ecg_cal},
    )


def calibrate_degraded_regime(
    clean: RegimeCalibration,
    face_overall_target: float = DEFAULT_DEGRADED_TARGETS[0],
    ecg_overall_target: float = DEFAULT_DEGRADED_TARGETS[1],
    scenario: DegradationScenario | None = None,
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
    details: dict = {}
    fitted = {}
    for tag, params, rule, overall in (
        ("face", clean.face, scenario.face_rule, face_overall_target),
        ("ecg", clean.ecg, scenario.ecg_rule, ecg_overall_target),
    ):
        frac = rule.degraded_fraction(m)
        if frac == 0.0:
            raise ValidationError(f"{tag} rule degrades no subjects; nothing to calibrate")
        clean_achieved = clean.details[f"{tag}_clean"].achieved
        subpop_target, mixable = degraded_subpopulation_target(
            overall, clean_achieved, frac, m
        )
        cal = calibrate(subpop_target, params)
        fitted[tag] = replace(params, noise_sigma_degraded=cal.sigma)
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
