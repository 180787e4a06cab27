"""Difference-vector construction, score reweighting, and both prediction rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion.core import ValidationError
from idfusion.fusion import (
    BaselineWeights,
    DifferenceVector,
    FusionModel,
    compute_baseline_weights,
    difference_vector,
    final_score,
    fused_scores,
    normalize_difference,
    predict_fused,
    predict_fused_batch,
    predict_weighted_sum,
    predict_weighted_sum_batch,
)

unit_vec = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=12
)


class TestDifferenceVector:
    def test_elementwise_subtraction(self):
        np.testing.assert_array_equal(
            difference_vector([1.0, 0.5], [0.5, 1.0]), [0.5, -0.5]
        )

    def test_identical_scores_give_zeros(self):
        s = np.array([0.3, 0.9, 0.6])
        np.testing.assert_array_equal(difference_vector(s, s), np.zeros(3))

    def test_hand_computed(self):
        np.testing.assert_allclose(
            difference_vector([0.9, 0.2, 0.7], [0.3, 0.8, 0.7]), [0.6, -0.6, 0.0]
        )

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            difference_vector([1.0], [1.0, 2.0])


class TestNormalizeDifference:
    def test_rescales_to_bound(self):
        d = normalize_difference([0.5, -0.5], bound=0.2)
        np.testing.assert_array_equal(d.values, [0.2, -0.2])

    def test_all_zeros_unchanged(self):
        d = normalize_difference([0.0, 0.0, 0.0], bound=0.2)
        np.testing.assert_array_equal(d.values, np.zeros(3))

    def test_scales_up_small_vectors(self):
        d = normalize_difference([0.1, -0.05], bound=0.2)
        np.testing.assert_array_equal(d.values, [0.2, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            normalize_difference([np.nan, 0.0])

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=20))
    @settings(max_examples=100)
    def test_peak_hits_bound_and_order_is_preserved(self, raw):
        v = np.asarray(raw)
        d = normalize_difference(v, bound=0.2)
        if np.all(v == 0.0):
            assert np.all(d.values == 0.0)
        else:
            assert abs(np.abs(d.values).max() - 0.2) <= 1e-12
            assert np.all(np.abs(d.values) <= 0.2)
            # rescaling must never invert a pair (ties may appear when
            # subnormal entries underflow, but order cannot flip)
            assert np.all(np.diff(d.values[np.argsort(v, kind="stable")]) >= 0.0)

    def test_direct_construction_requires_peak_at_bound(self):
        with pytest.raises(ValidationError):
            DifferenceVector(values=np.array([0.1, -0.05]), bound=0.2)


class TestFusedScores:
    def test_zero_difference_halves(self):
        d = normalize_difference([0.0, 0.0])
        np.testing.assert_array_equal(fused_scores([1.0, 1.0], d, +1), [0.5, 0.5])
        np.testing.assert_array_equal(fused_scores([1.0, 1.0], d, -1), [0.5, 0.5])

    def test_plus_side(self):
        d = normalize_difference([0.2, -0.2], bound=0.2)
        np.testing.assert_array_equal(
            fused_scores([0.8, 0.4], d, +1), [0.8 * 0.7, 0.4 * 0.3]
        )

    def test_minus_side(self):
        d = normalize_difference([0.2, -0.2], bound=0.2)
        np.testing.assert_array_equal(
            fused_scores([0.8, 0.4], d, -1), [0.8 * 0.3, 0.4 * 0.7]
        )

    def test_bad_sign_rejected(self):
        d = normalize_difference([0.0, 0.0])
        with pytest.raises(ValidationError):
            fused_scores([0.5, 0.5], d, 2)

    def test_length_mismatch(self):
        d = normalize_difference([0.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            fused_scores([0.5, 0.5], d, +1)


class TestFinalScore:
    def test_continues_running_example(self):
        np.testing.assert_array_equal(
            final_score([0.8 * 0.3, 0.4 * 0.7], [0.8 * 0.7, 0.4 * 0.3]),
            [0.8 * 0.3 + 0.8 * 0.7, 0.4 * 0.7 + 0.4 * 0.3],
        )

    def test_zeros(self):
        np.testing.assert_array_equal(final_score([0.0, 0.0], [0.0, 0.0]), [0.0, 0.0])

    def test_additive_inverse(self):
        a = np.array([0.4, -0.2, 0.1])
        np.testing.assert_array_equal(final_score(a, -a), np.zeros(3))


class TestPredictFused:
    def test_zero_difference_reduces_to_sum_rule(self):
        model = FusionModel(difference=normalize_difference([0.0, 0.0]))
        assert predict_fused([0.1, 0.9], [0.2, 0.8], model) == 1

    def test_running_example(self):
        model = FusionModel(difference=normalize_difference([0.2, -0.2], bound=0.2))
        assert predict_fused([0.8, 0.4], [0.8, 0.4], model) == 0

    def test_disagreeing_argmaxes(self):
        model = FusionModel(difference=normalize_difference([0.2, -0.2], bound=0.2))
        # both modalities rank class 0 first, yet the weights flip the decision
        assert predict_fused([1.0, 0.9], [0.5, 0.45], model) == 1

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        model = FusionModel(
            difference=normalize_difference(rng.normal(size=7), bound=0.2)
        )
        face = rng.random((40, 7))
        ecg = rng.random((40, 7))
        batch = predict_fused_batch(face, ecg, model)
        singles = [predict_fused(face[i], ecg[i], model) for i in range(40)]
        np.testing.assert_array_equal(batch, singles)
        weights = BaselineWeights(w_face=0.3, w_ecg=0.7)
        batch = predict_weighted_sum_batch(face, ecg, weights)
        singles = [predict_weighted_sum(face[i], ecg[i], weights) for i in range(40)]
        np.testing.assert_array_equal(batch, singles)

    @given(unit_vec, unit_vec)
    @settings(max_examples=100)
    def test_antisymmetry(self, a, b):
        n = min(len(a), len(b))
        if n < 2:
            return
        cf, ce = np.asarray(a[:n]), np.asarray(b[:n])
        rng = np.random.default_rng(n)
        d = normalize_difference(rng.normal(size=n), bound=0.2)
        neg = DifferenceVector(values=-d.values, bound=d.bound)
        forward = final_score(fused_scores(cf, d, -1), fused_scores(ce, d, +1))
        swapped = final_score(fused_scores(ce, neg, -1), fused_scores(cf, neg, +1))
        np.testing.assert_array_equal(forward, swapped)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            cf, ce = rng.random(m), rng.random(m)
            d = normalize_difference(rng.normal(size=m), bound=0.2)
            perm = rng.permutation(m)
            model = FusionModel(difference=d)
            base = final_score(fused_scores(cf, d, -1), fused_scores(ce, d, +1))
            d_p = DifferenceVector(values=d.values[perm], bound=d.bound)
            moved = final_score(
                fused_scores(cf[perm], d_p, -1), fused_scores(ce[perm], d_p, +1)
            )
            np.testing.assert_array_equal(moved, base[perm])
            if np.sum(base == base.max()) == 1:  # tie-free decisions must map through
                assert np.argmax(moved) == np.argmax(base[perm])
            assert predict_fused(cf, ce, model) == np.argmax(base)

    def test_flat_rows_tie_and_go_to_class_zero(self):
        # (0.5 - d) / 2 + (0.5 + d) / 2 rounds to 0.5 for every d, so the lower-index rule decides
        rng = np.random.default_rng(13)
        for m in (2, 7, 87):
            model = FusionModel(difference=normalize_difference(rng.normal(size=m), bound=0.2))
            assert predict_fused([0.5] * m, [0.5] * m, model) == 0

    def test_scale_sensitivity_is_real(self):
        # rescaling one modality's confidences can change the decision,
        # which is why ingestion normalization matters
        model = FusionModel(difference=normalize_difference([0.0, 0.0]))
        assert predict_fused([1.0, 0.0], [0.0, 1.0], model) == 0
        assert predict_fused([0.5, 0.0], [0.0, 1.0], model) == 1

    def test_weight_range_under_default_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = normalize_difference(rng.normal(size=10), bound=0.2)
            model = FusionModel(difference=d)
            for tag in ("face", "ecg"):
                w = model.weights(tag)
                assert np.all(w >= 0.3) and np.all(w <= 0.7)


class TestWeightedSumBaseline:
    def test_symmetric_weights(self):
        w = compute_baseline_weights(0.5, 0.5)
        assert (w.w_face, w.w_ecg) == (0.5, 0.5)

    def test_accuracy_proportional(self):
        w = compute_baseline_weights(0.9, 0.6)
        assert w.w_face == 0.9 / (0.9 + 0.6)
        assert w.w_ecg == 0.6 / (0.9 + 0.6)

    def test_degenerate_single_model(self):
        w = compute_baseline_weights(1.0, 0.0)
        assert (w.w_face, w.w_ecg) == (1.0, 0.0)

    def test_both_zero_rejected(self):
        with pytest.raises(ValidationError):
            compute_baseline_weights(0.0, 0.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            BaselineWeights(w_face=0.5, w_ecg=0.6)

    def test_tie_breaks_to_lower_index(self):
        w = BaselineWeights(w_face=0.5, w_ecg=0.5)
        assert predict_weighted_sum([0.9, 0.1], [0.1, 0.9], w) == 0

    def test_degenerate_weight_tracks_face(self):
        w = BaselineWeights(w_face=1.0, w_ecg=0.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            cf, ce = rng.random(5), rng.random(5)
            assert predict_weighted_sum(cf, ce, w) == int(np.argmax(cf))

    def test_hand_computed(self):
        w = BaselineWeights(w_face=0.6, w_ecg=0.4)
        assert predict_weighted_sum([0.2, 0.8], [0.9, 0.1], w) == 1
