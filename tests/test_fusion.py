"""Difference-vector construction, the fused decision kernel, and both prediction rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion.core import ConfidenceMatrix, ValidationError
from idfusion.evaluation import EvalConfig, train_fusion_model
from idfusion.fusion import (
    BaselineWeights,
    DifferenceVector,
    FusionModel,
    compute_baseline_weights,
    normalize_difference,
    predict_fused,
    predict_fused_batch,
    predict_weighted_sum_batch,
)
from idfusion.io import load_fusion_model, save_fusion_model
from idfusion.scoring import compute_subject_scores

unit_vec = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=12
)


def _trained_difference(face_rows, ecg_rows, labels):
    """The difference vector ``train_fusion_model`` fits, and the two subject-score vectors."""
    ids = tuple(f"s{i}" for i in range(len(labels)))
    face = ConfidenceMatrix(np.asarray(face_rows, dtype=np.float64), ids, "face")
    ecg = ConfidenceMatrix(np.asarray(ecg_rows, dtype=np.float64), ids, "ecg")
    cfg = EvalConfig(rank_depth=2)
    model = train_fusion_model(face, ecg, labels, cfg)
    s_face = compute_subject_scores(face, labels, rank_depth=2)
    s_ecg = compute_subject_scores(ecg, labels, rank_depth=2)
    return model.difference.values, s_face, s_ecg


def _fused_total(face, ecg, d):
    """The reweighted sum the decision kernel takes the argmax of, written out."""
    return np.asarray(face) * (0.5 - d) + np.asarray(ecg) * (0.5 + d)


class TestDifferenceVector:
    """The fit subtracts face subject scores from ECG ones before rescaling."""

    def test_elementwise_subtraction(self):
        # face misses both class-0 samples (class 1 is clamped at 0 until its own
        # hits), ECG misses one class-1 sample: s_face = [0, 1], s_ecg = [0.5, 0.5]
        face = [[0.0, 1.0], [0.0, 1.0], [0.1, 0.9], [0.2, 0.8]]
        ecg = [[0.9, 0.1], [0.8, 0.2], [1.0, 0.0], [0.1, 0.9]]
        d, s_face, s_ecg = _trained_difference(face, ecg, [0, 0, 1, 1])
        np.testing.assert_array_equal(s_face, [0.0, 1.0])
        np.testing.assert_array_equal(s_ecg, [0.5, 0.5])
        np.testing.assert_array_equal(s_ecg - s_face, [0.5, -0.5])
        np.testing.assert_array_equal(d, normalize_difference([0.5, -0.5]).values)

    def test_identical_scores_give_zeros(self):
        rows = [[0.3, 0.9, 0.6], [0.9, 0.2, 0.1], [0.6, 0.5, 0.4]]
        d, s_face, s_ecg = _trained_difference(rows, rows, [1, 0, 2])
        np.testing.assert_array_equal(s_face, s_ecg)
        np.testing.assert_array_equal(d, np.zeros(3))

    def test_hand_computed(self):
        # face: both samples rank 1, s_face = [1.0, 1.0]; ECG: sample 0 is a
        # rank-2 miss by 0.4 (class 1 punished and clamped at 0) and sample 1
        # a rank-1 hit, so s_ecg = [0.6, 1.0] and the raw difference is [-0.4, 0.0]
        face = [[0.9, 0.1], [0.2, 0.8]]
        ecg = [[0.3, 0.7], [0.1, 0.9]]
        d, s_face, s_ecg = _trained_difference(face, ecg, [0, 1])
        np.testing.assert_array_equal(s_face, [1.0, 1.0])
        np.testing.assert_allclose(s_ecg, [0.6, 1.0], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(d, [-0.2, 0.0], rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(d, normalize_difference(s_ecg - s_face).values)

    def test_length_mismatch(self):
        ids = ("a", "b")
        face = ConfidenceMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]), ids, "face")
        ecg = ConfidenceMatrix(np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]]), ids, "ecg")
        with pytest.raises(ValidationError, match=r"^modality shapes differ: \(2, 2\) vs \(2, 3\)$"):
            train_fusion_model(face, ecg, [0, 1], EvalConfig(rank_depth=2))


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
    """Each modality's reweighting inside the decision kernel."""

    def test_zero_difference_halves(self):
        # d = 0 weights both modalities by 0.5: the decision is the plain sum rule
        model = FusionModel(difference=normalize_difference([0.0, 0.0]))
        face = np.array([[1.0, 1.0], [0.2, 0.9], [0.9, 0.2], [0.6, 0.5]])
        ecg = np.array([[1.0, 1.0], [0.8, 0.2], [0.2, 0.8], [0.3, 0.5]])
        np.testing.assert_array_equal(
            _fused_total(face, ecg, model.difference.values), (face + ecg) * 0.5
        )
        np.testing.assert_array_equal(
            predict_fused_batch(face, ecg, model), np.argmax(face * 0.5 + ecg * 0.5, axis=1)
        )
        np.testing.assert_array_equal(predict_fused_batch(face, ecg, model), [0, 1, 0, 1])

    def test_plus_side(self):
        # ECG is the plus side: with face all zero the kernel sums [0.8 * 0.7, 0.4 * 0.3]
        d = normalize_difference([0.2, -0.2], bound=0.2)
        ecg = np.array([0.8, 0.4])
        np.testing.assert_array_equal(_fused_total([0.0, 0.0], ecg, d.values), [0.8 * 0.7, 0.4 * 0.3])
        model = FusionModel(difference=d)
        # face values on class 1 sweep past the tie at (0.8 * 0.7 - 0.4 * 0.3) / 0.7
        face = np.array([[0.0, f] for f in np.linspace(0.0, 1.0, 101)])
        want = np.argmax(face * [0.3, 0.7] + [0.8 * 0.7, 0.4 * 0.3], axis=1)
        np.testing.assert_array_equal(predict_fused_batch(face, np.tile(ecg, (101, 1)), model), want)
        assert 0 < want.sum() < 101

    def test_minus_side(self):
        # face is the minus side: with ECG all zero the kernel sums [0.8 * 0.3, 0.4 * 0.7]
        d = normalize_difference([0.2, -0.2], bound=0.2)
        face = np.array([0.8, 0.4])
        np.testing.assert_array_equal(_fused_total(face, [0.0, 0.0], d.values), [0.8 * 0.3, 0.4 * 0.7])
        model = FusionModel(difference=d)
        assert predict_fused_batch(face[None, :], np.zeros((1, 2)), model)[0] == 1
        ecg = np.array([[e, 0.0] for e in np.linspace(0.0, 1.0, 101)])
        want = np.argmax(ecg * 0.7 + [0.8 * 0.3, 0.4 * 0.7], axis=1)
        np.testing.assert_array_equal(predict_fused_batch(np.tile(face, (101, 1)), ecg, model), want)
        assert 0 < want.sum() < 101

    def test_length_mismatch(self):
        model = FusionModel(difference=normalize_difference([0.0, 0.0, 0.0]))
        with pytest.raises(ValidationError):
            predict_fused_batch(np.full((1, 2), 0.5), np.full((1, 2), 0.5), model)
        with pytest.raises(ValidationError):
            predict_fused([0.5, 0.5], [0.5, 0.5], model)


class TestFinalScore:
    """The sum of the two reweighted vectors, whose argmax is the decision."""

    def test_continues_running_example(self):
        d = normalize_difference([0.2, -0.2], bound=0.2)
        total = _fused_total([0.8, 0.4], [0.8, 0.4], d.values)
        np.testing.assert_array_equal(total, [0.8 * 0.3 + 0.8 * 0.7, 0.4 * 0.7 + 0.4 * 0.3])
        model = FusionModel(difference=d)
        assert predict_fused_batch(np.array([[0.8, 0.4]]), np.array([[0.8, 0.4]]), model)[0] == 0

    def test_zeros(self):
        # an all-zero sum ties everywhere and the lower index wins
        model = FusionModel(difference=normalize_difference([0.2, -0.2], bound=0.2))
        np.testing.assert_array_equal(_fused_total([0.0, 0.0], [0.0, 0.0], model.difference.values), [0.0, 0.0])
        assert predict_fused_batch(np.zeros((1, 2)), np.zeros((1, 2)), model)[0] == 0


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
        singles = [int(np.argmax(0.3 * face[i] + 0.7 * ecg[i])) for i in range(40)]
        np.testing.assert_array_equal(batch, singles)

    @given(unit_vec, unit_vec)
    @settings(max_examples=100)
    def test_antisymmetry(self, a, b):
        # swapping the modalities and negating d gives the same sum, hence the same decision
        n = min(len(a), len(b))
        if n < 2:
            return
        cf, ce = np.asarray(a[:n]), np.asarray(b[:n])
        rng = np.random.default_rng(n)
        d = normalize_difference(rng.normal(size=n), bound=0.2)
        neg = DifferenceVector(values=-d.values, bound=d.bound)
        forward = _fused_total(cf, ce, d.values)
        swapped = _fused_total(ce, cf, neg.values)
        np.testing.assert_array_equal(forward, swapped)
        rows = np.stack([cf, ce, cf[::-1]]), np.stack([ce, cf, ce[::-1]])
        np.testing.assert_array_equal(
            predict_fused_batch(*rows, FusionModel(difference=d)),
            predict_fused_batch(*rows[::-1], FusionModel(difference=neg)),
        )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            cf, ce = rng.random(m), rng.random(m)
            d = normalize_difference(rng.normal(size=m), bound=0.2)
            perm = rng.permutation(m)
            model = FusionModel(difference=d)
            base = _fused_total(cf, ce, d.values)
            d_p = DifferenceVector(values=d.values[perm], bound=d.bound)
            moved = _fused_total(cf[perm], ce[perm], d_p.values)
            np.testing.assert_array_equal(moved, base[perm])
            decision = predict_fused_batch(cf[perm][None, :], ce[perm][None, :], FusionModel(difference=d_p))[0]
            if np.sum(base == base.max()) == 1:  # tie-free decisions must map through
                assert decision == np.argmax(base[perm])
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
            for w in (0.5 - model.difference.values, 0.5 + model.difference.values):
                assert np.all(w >= 0.3) and np.all(w <= 0.7)


class TestFusionModel:
    """The model's weight pair is computed once, and is invisible to equality and repr."""

    def test_weights_are_read_only(self):
        model = FusionModel(difference=normalize_difference([0.3, -0.1, 0.2]))
        for w in model._weights:
            with pytest.raises(ValueError):
                w[0] = 0.0

    def test_models_on_one_difference_vector_compare_equal(self):
        d = normalize_difference([0.3, -0.1, 0.2])
        assert FusionModel(difference=d) == FusionModel(difference=d)
        assert "_weights" not in repr(FusionModel(difference=d))

    def test_reloaded_model_decides_like_the_original(self, tmp_path):
        rng = np.random.default_rng(17)
        m = 87
        model = FusionModel(difference=normalize_difference(rng.normal(size=m), bound=0.2))
        save_fusion_model(model, tmp_path / "model.json")
        back = load_fusion_model(tmp_path / "model.json")
        face, ecg = rng.random((200, m)), rng.random((200, m))
        face[::10] = 0.5  # flat in both modalities: the fused sum ties and the lower index wins
        ecg[::10] = 0.5
        decisions = predict_fused_batch(face, ecg, model)
        np.testing.assert_array_equal(predict_fused_batch(face, ecg, back), decisions)
        assert [predict_fused(face[i], ecg[i], back) for i in range(200)] == decisions.tolist()
        assert not decisions[::10].any()


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
        assert predict_weighted_sum_batch(np.array([[0.9, 0.1]]), np.array([[0.1, 0.9]]), w)[0] == 0

    def test_degenerate_weight_tracks_face(self):
        w = BaselineWeights(w_face=1.0, w_ecg=0.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            cf, ce = rng.random(5), rng.random(5)
            assert predict_weighted_sum_batch(cf[None, :], ce[None, :], w)[0] == int(np.argmax(cf))

    def test_hand_computed(self):
        w = BaselineWeights(w_face=0.6, w_ecg=0.4)
        assert predict_weighted_sum_batch(np.array([[0.2, 0.8]]), np.array([[0.9, 0.1]]), w)[0] == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DifferenceVector(np.zeros((2, 2))), "difference vector must be 1-D, got shape (2, 2)"),
        (lambda: compute_baseline_weights(1.5, 0.5), "accuracies must lie in [0, 1]"),
        (lambda: compute_baseline_weights(0.5, -0.1), "accuracies must lie in [0, 1]"),
        (lambda: BaselineWeights(w_face=1.2, w_ecg=-0.2), "weights must lie in [0, 1]"),
        (lambda: predict_fused_batch(np.eye(2), np.eye(3)[:2], FusionModel(normalize_difference([0.1, 0.0]))),
         "modality shapes differ: (2, 2) vs (2, 3)"),
        (lambda: predict_weighted_sum_batch(np.eye(2)[:1], np.eye(2), BaselineWeights(0.5, 0.5)),
         "modality shapes differ: (1, 2) vs (2, 2)"),
    ],
    ids=["difference-2d", "accuracy-high", "accuracy-negative", "weight-range", "fused-shapes",
         "weighted-sum-shapes"],
)
def test_error_messages(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message
