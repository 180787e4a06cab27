"""Fold construction, per-fold evaluation, and report aggregation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion.core import ConfidenceMatrix, PairedDataset, ValidationError
from idfusion.evaluation import (
    EvalConfig,
    ExperimentReport,
    FoldAssignment,
    FoldResult,
    accuracy,
    make_folds,
    run_experiment,
    train_fusion_model,
)
from idfusion.fusion import (
    compute_baseline_weights,
    normalize_difference,
    predict_fused_batch,
    predict_weighted_sum_batch,
)
from idfusion.io import format_report
from idfusion.scoring import compute_subject_scores
from idfusion.simulator import (
    DESK_PRESET,
    DegradationScenario,
    GeneratorParams,
    calibrate_clean_regime,
    calibrate_degraded_regime,
    generate_dataset,
)
from reference import experiment_reference


def _desk_dataset(seed=0, sigma=0.35):
    params = GeneratorParams(
        num_classes=12, samples_per_class=10, noise_sigma_clean=sigma
    )
    return generate_dataset(params, params, DegradationScenario.clean(), seed)


class TestMakeFolds:
    def test_balanced_full_scale_partition(self):
        labels = np.repeat(np.arange(87), 100)
        fa = make_folds(labels, k=10, seed=1)
        for fold in range(10):
            idx = fa.test_indices(fold)
            assert idx.size == 870
            counts = np.bincount(labels[idx], minlength=87)
            assert np.all(counts == 10)

    def test_minimal_stratification(self):
        fa = make_folds([0, 0, 1, 1], k=2, seed=3)
        for fold in range(2):
            test = fa.test_indices(fold)
            assert sorted(np.asarray([0, 0, 1, 1])[test]) == [0, 1]

    def test_determinism(self):
        labels = np.repeat(np.arange(5), 7)
        a = make_folds(labels, k=3, seed=9)
        b = make_folds(labels, k=3, seed=9)
        np.testing.assert_array_equal(a.fold_of_sample, b.fold_of_sample)

    def test_seed_changes_assignment(self):
        labels = np.repeat(np.arange(5), 20)
        a = make_folds(labels, k=5, seed=1)
        b = make_folds(labels, k=5, seed=2)
        assert not np.array_equal(a.fold_of_sample, b.fold_of_sample)

    def test_small_class_error_names_the_class(self):
        with pytest.raises(ValidationError, match="class 1"):
            make_folds([0, 0, 0, 1, 1], k=3, seed=0)

    @pytest.mark.parametrize(
        "labels, message",
        [([0.5, 0.7, 1.2, 1.9] * 3, "labels must contain integers"),
         ([0, 0, 1, 1, -1, -1], r"labels out of range \[0, inf\): min=-1")],
        ids=["fractional", "negative"],
    )
    def test_labels_must_be_non_negative_integers(self, labels, message):
        with pytest.raises(ValidationError, match=message):
            make_folds(labels, k=2, seed=0)

    def test_stratification_within_one_on_uneven_classes(self):
        rng = np.random.default_rng(4)
        labels = np.concatenate([np.full(n, c) for c, n in enumerate([11, 7, 23, 9])])
        labels = rng.permutation(labels)
        k = 3
        fa = make_folds(labels, k=k, seed=5)
        for fold in range(k):
            counts = np.bincount(labels[fa.test_indices(fold)], minlength=4)
            for c, n in enumerate([11, 7, 23, 9]):
                assert abs(counts[c] - n / k) < 1.0


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1], [0, 0]) == 0.0

    def test_fractional(self):
        labels = np.zeros(870, dtype=int)
        preds = labels.copy()
        preds[:87] = 1
        assert accuracy(preds, labels) == 0.9

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            accuracy([], [])


class TestEvaluateFold:
    """Per-fold results, read from ``run_experiment(...).folds``."""

    def test_perfect_classifiers_score_one_everywhere(self):
        m, spc = 6, 4
        labels = np.repeat(np.arange(m), spc)
        onehot = np.eye(m)[labels]
        ids = tuple(f"s{i}" for i in range(labels.size))
        face = ConfidenceMatrix(onehot, ids, "face")
        ecg = ConfidenceMatrix(onehot.copy(), ids, "ecg")
        report = run_experiment(PairedDataset(face, ecg, labels), k=2, seed=0, cfg=EvalConfig())
        for result in report.folds:
            assert result.acc_face == 1.0
            assert result.acc_ecg == 1.0
            assert result.acc_fused == 1.0
            assert result.acc_weighted_sum == 1.0
            assert result.error_count_fused == 0

    def test_fused_beats_weaker_modality_statistically(self):
        # not guaranteed per fold; asserted over many folds and seeds
        wins = total = 0
        for seed in range(3):
            ds = _desk_dataset(seed)
            for r in run_experiment(ds, k=5, seed=seed).folds:
                wins += r.acc_fused >= min(r.acc_face, r.acc_ecg)
                total += 1
        assert wins / total >= 0.9


class TestRunExperiment:
    def test_report_shape_and_aggregates(self):
        ds = _desk_dataset(1)
        report = run_experiment(ds, k=5, seed=1)
        assert len(report.folds) == 5
        assert [f.fold_id for f in report.folds] == list(range(5))
        face = np.array([f.acc_face for f in report.folds])
        assert report.summary.face.mean == pytest.approx(face.mean(), abs=0)
        assert report.summary.face.std == pytest.approx(face.std(ddof=1), abs=0)

    def test_pooled_accuracy_recomposes_from_folds(self):
        ds = _desk_dataset(2)
        k = 5
        fa = make_folds(ds.labels, k=k, seed=2)
        report = run_experiment(ds, k=k, seed=2)
        sizes = np.array([fa.test_indices(f).size for f in range(k)])
        pooled_from_folds = np.sum(
            sizes * np.array([f.acc_fused for f in report.folds])
        ) / sizes.sum()
        # recompute the pooled value directly from per-sample predictions
        correct = 0
        for fold in range(k):
            tr, te = fa.train_indices(fold), fa.test_indices(fold)
            model = train_fusion_model(
                ds.face.take(tr), ds.ecg.take(tr), ds.labels[tr]
            )
            preds = predict_fused_batch(ds.face.values[te], ds.ecg.values[te], model)
            correct += int(np.sum(preds == ds.labels[te]))
        assert abs(pooled_from_folds - correct / ds.num_samples) < 1e-12

    def test_every_sample_tested_exactly_once(self):
        ds = _desk_dataset(3)
        fa = make_folds(ds.labels, k=4, seed=3)
        seen = np.concatenate([fa.test_indices(f) for f in range(4)])
        assert sorted(seen.tolist()) == list(range(ds.num_samples))

    def test_deterministic_reports(self):
        ds = _desk_dataset(4)
        a = run_experiment(ds, k=5, seed=7)
        b = run_experiment(ds, k=5, seed=7)
        assert a == b

    @pytest.mark.filterwarnings("ignore:unbalanced")
    def test_folds_match_recomputation_from_copied_subsets(self):
        # unbalanced classes, tied scores within rows and a non-zero clamp floor:
        # each fold must equal a fit on its copied training rows, in their order
        rng = np.random.default_rng(1)  # a draw where floor and depth change the folds
        counts = [9, 5, 13, 6, 11, 7]
        labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        ids = tuple(f"s{i}" for i in range(labels.size))

        def tied_scores(hit):
            values = rng.integers(0, 5, size=(labels.size, len(counts))) / 4.0
            boost = rng.random(labels.size) < hit
            values[boost, labels[boost]] = 1.0
            return values

        ds = PairedDataset(
            ConfidenceMatrix(tied_scores(0.6), ids, "face"),
            ConfidenceMatrix(tied_scores(0.4), ids, "ecg"),
            labels,
        )
        cfg = EvalConfig(rank_depth=3)
        k, seed = 4, 3
        fa = make_folds(ds.labels, k=k, seed=seed)
        report = run_experiment(ds, k=k, seed=seed, cfg=cfg)
        for fold in range(k):
            tr, te = fa.train_indices(fold), fa.test_indices(fold)
            face_tr, ecg_tr, y_tr = ds.face.take(tr), ds.ecg.take(tr), ds.labels[tr]
            model = train_fusion_model(face_tr, ecg_tr, y_tr, cfg)
            # the fit itself matches compute_subject_scores, which is checked against the reference
            raw = compute_subject_scores(ecg_tr, y_tr, rank_depth=3) - compute_subject_scores(
                face_tr, y_tr, rank_depth=3
            )
            np.testing.assert_array_equal(
                model.difference.values, normalize_difference(raw, bound=cfg.bound).values
            )
            weights = compute_baseline_weights(
                accuracy(np.argmax(face_tr.values, axis=1), y_tr),
                accuracy(np.argmax(ecg_tr.values, axis=1), y_tr),
            )
            face_te, ecg_te, y_te = ds.face.values[te], ds.ecg.values[te], ds.labels[te]
            fused = predict_fused_batch(face_te, ecg_te, model)
            assert report.folds[fold] == FoldResult(
                fold_id=fold,
                acc_face=accuracy(np.argmax(face_te, axis=1), y_te),
                acc_ecg=accuracy(np.argmax(ecg_te, axis=1), y_te),
                acc_fused=accuracy(fused, y_te),
                acc_weighted_sum=accuracy(
                    predict_weighted_sum_batch(face_te, ecg_te, weights), y_te
                ),
                error_count_fused=int(np.sum(fused != y_te)),
            )
            # the fold row is read from the out-of-fold decisions over the fold's test samples
            accs = {f"acc_{name}": accuracy(v[te], y_te) for name, v in report.decisions.items()}
            errors = int(np.sum(report.decisions["fused"][te] != y_te))
            assert report.folds[fold] == FoldResult(fold_id=fold, **accs, error_count_fused=errors)
        assert list(report.decisions) == ["face", "ecg", "fused", "weighted_sum"]
        for v in report.decisions.values():
            assert v.dtype == np.int64 and v.shape == labels.shape and not v.flags.writeable
        # the decisions stay out of equality and of both report formats
        other = replace(report, decisions={name: np.zeros_like(v) for name, v in report.decisions.items()})
        assert other == report
        for fmt in ("text", "structured"):
            assert format_report(other, fmt) == format_report(report, fmt)

    def test_config_echo(self):
        ds = _desk_dataset(6)
        report = run_experiment(
            ds, k=5, seed=11, cfg=EvalConfig(bound=0.15, rank_depth=4, scenario="clean")
        )
        c = report.config
        assert (c.seed, c.folds, c.bound, c.rank_depth) == (11, 5, 0.15, 4)
        assert c.scenario == "clean"
        assert (c.n_samples, c.n_classes) == (ds.num_samples, ds.num_classes)


def _matches_reference(ds, k, seed, cfg):
    """``run_experiment`` equals the plain-loop oracle exactly: every fold row and every decision."""
    face, ecg = ds.face.values, ds.ecg.values
    try:
        rows, decisions = experiment_reference(face, ecg, ds.labels, k, seed, cfg.bound, cfg.rank_depth)
    except ZeroDivisionError:  # a fold where both modalities miss every training sample
        with pytest.raises(ValidationError, match="both accuracies are zero"):
            run_experiment(ds, k=k, seed=seed, cfg=cfg)
        return
    report = run_experiment(ds, k=k, seed=seed, cfg=cfg)
    assert report.folds == tuple(FoldResult(**row) for row in rows)
    assert {name: v.tolist() for name, v in report.decisions.items()} == decisions


@pytest.mark.filterwarnings("ignore:unbalanced")
class TestExperimentReference:
    """The whole k-fold harness against ``reference.experiment_reference``."""

    @given(
        m=st.integers(min_value=2, max_value=6),
        k=st.integers(min_value=2, max_value=4),
        extra=st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6),
        levels=st.sampled_from([0, 2, 3, 5]),  # scores on a grid of this many steps tie within rows; 0: no grid
        bound=st.one_of(
            st.floats(min_value=1e-12, max_value=0.01),
            st.floats(min_value=0.49, max_value=0.5, exclude_max=True),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_matches_reference(self, m, k, extra, levels, bound, seed, data):
        rank_depth = data.draw(st.integers(min_value=1, max_value=m), label="rank_depth")
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(m), k + np.array(extra[:m])))  # unbalanced, interleaved
        ids = tuple(f"s{i}" for i in range(labels.size))

        def scores(modality, hit):
            if levels:
                values = rng.integers(0, levels, size=(labels.size, m)) / (levels - 1)
            else:
                values = rng.random((labels.size, m))
            boost = rng.random(labels.size) < hit
            values[boost, labels[boost]] = 1.0
            return ConfidenceMatrix(values, ids, modality)

        ds = PairedDataset(scores("face", 0.6), scores("ecg", 0.4), labels)
        _matches_reference(ds, k, int(rng.integers(0, 1000)), EvalConfig(bound=bound, rank_depth=rank_depth))

    @pytest.mark.parametrize("scenario", ["clean", "degraded"])
    def test_desk_preset_matches_reference(self, scenario):
        clean = calibrate_clean_regime(*DESK_PRESET)
        regime = calibrate_degraded_regime(clean) if scenario == "degraded" else clean
        ds = generate_dataset(regime.face, regime.ecg, regime.scenario, 0)
        _matches_reference(ds, 10, 0, EvalConfig())


class TestTrainFusionModel:
    def test_rows_of_other_samples_are_rejected(self):
        # same shapes and labels, but ECG row i is another sample than face row i
        ds = _desk_dataset(5)
        order = np.arange(ds.num_samples)
        order[[0, 1]] = order[[1, 0]]  # two samples of class 0: the labels still agree
        ecg = ds.ecg.take(order)
        with pytest.raises(ValidationError) as exc:
            train_fusion_model(ds.face, ecg, ds.labels)
        assert str(exc.value) == "modalities must cover the same samples in the same order"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FoldAssignment(np.zeros((2, 2)), k=2), "fold assignment must be a nonempty 1-D array"),
        (lambda: FoldAssignment([], k=2), "fold assignment must be a nonempty 1-D array"),
        (lambda: FoldAssignment([0, 1, 2], k=2), "fold ids must lie in [0, 2)"),
        (lambda: FoldAssignment([0, -1], k=2), "fold ids must lie in [0, 2)"),
        (lambda: accuracy([0, 1], [0, 1, 1]), "prediction/label shapes differ: (2,) vs (3,)"),
        (lambda: accuracy([[0, 1]], [[0, 1]]), "prediction/label shapes differ: (1, 2) vs (1, 2)"),
    ],
    ids=["fold-2d", "fold-empty", "fold-id-high", "fold-id-negative", "accuracy-lengths", "accuracy-2d"],
)
def test_error_messages(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message
