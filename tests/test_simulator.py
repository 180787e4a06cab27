"""Score generator: determinism, degradation rules, and calibration."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion import simulator
from idfusion.core import ValidationError
from idfusion.simulator import (
    DEFAULT_DEGRADED_TARGETS,
    FULL_PRESET,
    CalibrationError,
    DegradationScenario,
    GeneratorParams,
    SubjectRule,
    calibrate,
    calibrate_clean_regime,
    calibrate_degraded_regime,
    degraded_subpopulation_target,
    generate_dataset,
)
from reference import rank1_accuracy_quadrature


def _params(m=10, spc=5, mean=1.0, clean=0.3, degraded=0.9):
    return GeneratorParams(
        num_classes=m,
        samples_per_class=spc,
        true_class_mean=mean,
        noise_sigma_clean=clean,
        noise_sigma_degraded=degraded,
    )


def _one_row(true_label, degraded, params, rng):
    """One normalized confidence vector for a sample of ``true_label``."""
    return simulator._draw_rows(1, true_label, degraded, params, rng)[0]


class TestGenerateSample:
    def test_near_noiseless_limit_is_one_hot(self):
        params = _params(clean=1e-9, degraded=1e-8)
        v = _one_row(3, False, params, np.random.default_rng(0))
        assert int(np.argmax(v)) == 3
        assert v[3] == 1.0
        assert np.all(np.delete(v, 3) < 1e-6)

    def test_fixed_seed_reproduces(self):
        params = _params()
        a = _one_row(2, True, params, np.random.default_rng(42))
        b = _one_row(2, True, params, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        # golden digest: the draw must not change when the sampling code is refactored
        assert hashlib.sha256(a.tobytes()).hexdigest() == (
            "66d6dec7fbb800493d45dd5b90cda284cbc93cd8c92e3b7b7842ab91aeadd471"
        )

    @pytest.mark.parametrize("mean", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValidationError, match="true-class mean must be finite"):
            _params(mean=mean)

    @pytest.mark.parametrize("field", ["noise_sigma_clean", "noise_sigma_degraded"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, field, value):
        # NaN fails every comparison and inf passes ``> 0``: only a finiteness check names the field
        with pytest.raises(ValidationError, match=rf"^{field} must be finite, got {value}$"):
            GeneratorParams(num_classes=5, samples_per_class=2, **{field: value})

    def test_output_is_normalized(self):
        params = _params()
        v = _one_row(0, False, params, np.random.default_rng(7))
        assert v.min() == 0.0 and v.max() == 1.0

    def test_calibrated_sigma_hits_target_on_fresh_draws(self):
        m = FULL_PRESET[0]
        target = 0.961
        template = _params(m=m)
        cal = calibrate(target, template)
        rng = np.random.default_rng(2024)  # the Monte-Carlo check of the quadrature's fit
        draws = 100_000
        noise = rng.normal(0.0, cal.sigma, (draws, m))
        noise[:, 0] += template.true_class_mean
        acc = float(np.mean(np.argmax(noise, axis=1) == 0))
        assert abs(acc - target) <= 0.01


class TestScenarioRules:
    def test_default_rules_follow_divisibility_for_all_subjects(self):
        sc = DegradationScenario.default_degraded()
        for sid in range(1, 88):
            assert sc.face_rule.degraded(sid) == (sid % 2 == 0 or sid % 3 == 0)
            assert sc.ecg_rule.degraded(sid) == (sid % 7 == 0)

    def test_quality_quadrants(self):
        sc = DegradationScenario.default_degraded()
        clean_both = [1, 5]
        ecg_only = [7, 35]
        face_only = [2, 3]
        both = [14, 21]
        for sid in clean_both:
            assert not sc.face_rule.degraded(sid) and not sc.ecg_rule.degraded(sid)
        for sid in ecg_only:
            assert not sc.face_rule.degraded(sid) and sc.ecg_rule.degraded(sid)
        for sid in face_only:
            assert sc.face_rule.degraded(sid) and not sc.ecg_rule.degraded(sid)
        for sid in both:
            assert sc.face_rule.degraded(sid) and sc.ecg_rule.degraded(sid)

    def test_clean_scenario_degrades_nobody(self):
        sc = DegradationScenario.clean()
        assert all(
            not sc.face_rule.degraded(i) and not sc.ecg_rule.degraded(i)
            for i in range(1, 88)
        )

    def test_rule_rejects_zero_based_ids(self):
        with pytest.raises(ValidationError):
            SubjectRule((2,)).degraded(0)


class TestGenerateDataset:
    def test_full_scale_shape(self):
        params = GeneratorParams(num_classes=87, samples_per_class=100)
        ds = generate_dataset(params, params, DegradationScenario.clean(), seed=0)
        assert ds.face.values.shape == (8700, 87)
        assert ds.ecg.values.shape == (8700, 87)
        assert ds.labels.size == 8700
        np.testing.assert_array_equal(np.bincount(ds.labels), np.full(87, 100))

    def test_reproducible(self):
        params = _params()
        a = generate_dataset(params, params, DegradationScenario.default_degraded(), 9)
        b = generate_dataset(params, params, DegradationScenario.default_degraded(), 9)
        np.testing.assert_array_equal(a.face.values, b.face.values)
        np.testing.assert_array_equal(a.ecg.values, b.ecg.values)

    def test_modalities_draw_independent_noise(self):
        params = _params()
        ds = generate_dataset(params, params, DegradationScenario.clean(), 1)
        assert not np.array_equal(ds.face.values, ds.ecg.values)

    def test_degradation_raises_error_rate_for_flagged_subjects(self):
        params = GeneratorParams(
            num_classes=21,
            samples_per_class=60,
            noise_sigma_clean=0.25,
            noise_sigma_degraded=1.2,
        )
        ds = generate_dataset(params, params, DegradationScenario.default_degraded(), 4)
        preds = np.argmax(ds.face.values, axis=1)
        correct = preds == ds.labels
        face_deg = np.array([(i + 1) % 2 == 0 or (i + 1) % 3 == 0 for i in ds.labels])
        assert correct[~face_deg].mean() - correct[face_deg].mean() > 0.2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            generate_dataset(
                _params(m=5), _params(m=6), DegradationScenario.clean(), 0
            )

    def test_memory_holds_each_matrix_once(self):
        params = _params(m=87, spc=100)
        tracemalloc.start()
        try:
            ds = generate_dataset(params, params, DegradationScenario.default_degraded(), 0)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the dataset is two 8700 x 87 matrices of 6.06 MB each; stacking per-subject
        # blocks into them would hold a modality twice, 6.8 MB above what the call returns
        assert current > ds.face.values.nbytes + ds.ecg.values.nbytes
        assert peak - current < 1e6


class TestCalibrate:
    def test_high_accuracy_target(self):
        cal = calibrate(0.988, _params(m=87))
        assert abs(cal.achieved - 0.988) <= 0.005
        assert 0.983 <= cal.achieved <= 0.993

    def test_monte_carlo_agrees_with_quadrature(self):
        cal = calibrate(0.9, _params(m=20))
        z = np.random.default_rng(5).standard_normal((200_000, 20))
        estimate = float(np.mean(z[:, 1:].max(axis=1) - z[:, 0] < 1.0 / cal.sigma))
        analytic = rank1_accuracy_quadrature(1.0, cal.sigma, 20)
        assert abs(analytic - estimate) <= 0.005

    def test_flat_landscape_is_an_error(self):
        with pytest.raises(CalibrationError, match="flat"):
            calibrate(0.5, _params(m=2, mean=0.0))

    def test_unbracketed_target_is_an_error(self):
        with pytest.raises(CalibrationError, match="bracket"):
            calibrate(0.999, _params(m=10), sigma_range=(1.0, 2.0))

    @pytest.mark.parametrize(
        "sigma_range",
        [(0.0, 1.0), (-1.0, 1e4), (5.0, 1.0), (1.0, 1.0), (1e-4, np.inf), (np.nan, 1.0)],
    )
    def test_invalid_sigma_range_rejected(self, sigma_range):
        with pytest.raises(ValidationError, match="sigma_range"):
            calibrate(0.9, _params(m=10), sigma_range=sigma_range)

    def test_step_limit_is_an_error(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_BISECTION_STEPS", 0)
        with pytest.raises(CalibrationError, match="in 0 steps$"):
            calibrate(0.9, _params(m=10))

    def test_degraded_slot_keeps_sigma_ordering(self):
        clean = calibrate_clean_regime(30, 5)
        reg = calibrate_degraded_regime(clean)
        for fitted, clean_params in ((reg.face, clean.face), (reg.ecg, clean.ecg)):
            assert fitted.noise_sigma_degraded > fitted.noise_sigma_clean
            assert fitted.noise_sigma_clean == clean_params.noise_sigma_clean

    @pytest.mark.parametrize("m", [2, 20, 87, 250])
    def test_achieved_is_the_exact_rank1_accuracy(self, m):
        for target in (0.6, 0.9, 0.961, 0.988):
            cal = calibrate(target, _params(m=m))
            assert abs(cal.achieved - target) <= simulator.CALIBRATION_TOLERANCE
            assert abs(cal.achieved - rank1_accuracy_quadrature(1.0, cal.sigma, m)) <= 1e-12

    def test_draws_no_random_numbers(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("calibrate drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        calibrate_degraded_regime(calibrate_clean_regime(87, 100))

    def test_trials_must_stay_zero(self):
        with pytest.raises(ValidationError, match="no Monte-Carlo trials"):
            calibrate(0.9, _params(m=10), trials=1000)

    @pytest.mark.parametrize("classes", [20_000, 100_000])
    def test_memory_does_not_grow_with_classes_times_trials(self, classes):
        params = _params(m=classes)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            calibrate(0.9, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the quadrature holds no array at any class count, where a Monte-Carlo
        # draw grows with classes x trials (one 4096-row block: 655 MB at 20,000)
        assert peak < 1e5

    def test_accuracy_declines_with_sigma(self):
        rng = np.random.default_rng(8)
        m, trials = 15, 50_000
        z = rng.standard_normal((trials, m))
        accs = []
        for sigma in [0.05, 0.15, 0.4, 1.0, 3.0]:
            scores = sigma * z
            scores[:, 0] += 1.0
            accs.append(float(np.mean(np.argmax(scores, axis=1) == 0)))
        for lo, hi in zip(accs[1:], accs[:-1]):
            assert lo <= hi + 0.01  # allow Monte-Carlo jitter only


class TestRegimeCalibration:
    def test_mixture_solve_when_feasible(self):
        target, feasible = degraded_subpopulation_target(0.66586, 0.98839, 58 / 87, 87)
        assert feasible
        assert target == pytest.approx((0.66586 - (29 / 87) * 0.98839) / (58 / 87))

    def test_mixture_falls_back_when_clean_majority_too_strong(self):
        target, feasible = degraded_subpopulation_target(0.76276, 0.96138, 12 / 87, 87)
        assert not feasible
        assert target == 0.76276

    def test_infeasible_inversion_rejected(self):
        with pytest.raises(CalibrationError):
            degraded_subpopulation_target(0.99, 0.90, 0.5, 10)

    def test_clean_regime_contract(self):
        reg = calibrate_clean_regime(30, 10)
        assert abs(reg.details["face_clean"].achieved - 0.98839) <= 0.005
        assert abs(reg.details["ecg_clean"].achieved - 0.96138) <= 0.005
        assert reg.scenario == DegradationScenario.clean()

    def test_degraded_regime_contract(self):
        reg = calibrate_degraded_regime(calibrate_clean_regime(87, 10))
        assert reg.details["face_mixture_feasible"]
        assert not reg.details["ecg_mixture_feasible"]
        face_cal = reg.details["face_degraded"]
        assert abs(face_cal.achieved - face_cal.target) <= 0.005
        ecg_cal = reg.details["ecg_degraded"]
        assert ecg_cal.target == DEFAULT_DEGRADED_TARGETS[1]
        assert abs(ecg_cal.achieved - ecg_cal.target) <= 0.005
        expected_face = reg.details["face_expected_overall"]
        assert abs(expected_face - DEFAULT_DEGRADED_TARGETS[0]) <= 0.01


class TestDegradedFraction:
    """The inclusion-exclusion count against the walk over every subject id."""

    @given(st.lists(st.integers(2, 60), max_size=6), st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_walk_over_all_ids(self, divisors, n):
        rule = SubjectRule(tuple(divisors))
        assert rule.degraded_fraction(n) == sum(rule.degraded(i) for i in range(1, n + 1)) / n

    def test_huge_population_is_counted_not_walked(self):
        n = 10**12
        assert SubjectRule((2, 3)).degraded_fraction(n) == (n // 2 + n // 3 - n // 6) / n

    def test_repeated_divisors_count_once(self):
        assert SubjectRule((2,) * 200).degraded_fraction(10**6) == 0.5


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _params(clean=0.0, degraded=0.9), "noise sigmas must be positive"),
        (lambda: _params(clean=-0.3, degraded=-0.1), "noise sigmas must be positive"),
        (lambda: _params(clean=0.5, degraded=0.5), "degraded noise sigma must exceed the clean sigma"),
        (lambda: degraded_subpopulation_target(0.7, 0.9, 0.0, 10), "degraded fraction must lie in (0, 1]"),
        (lambda: degraded_subpopulation_target(0.7, 0.9, 1.5, 10), "degraded fraction must lie in (0, 1]"),
    ],
    ids=["sigma-zero", "sigma-negative", "degraded-not-above-clean", "fraction-zero", "fraction-above-one"],
)
def test_error_messages(call, message):
    # the class and sample counts, the divisors and the calibrate target are reached
    # through the CLI, in tests/test_cli.py
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message
