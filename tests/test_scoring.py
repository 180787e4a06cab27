"""Subject scoring: the per-sample confidence gap and the award/punish loop."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion.core import ConfidenceMatrix, PairedDataset, ValidationError
from idfusion.evaluation import EvalConfig, run_experiment
from idfusion.scoring import clamp_scores, compute_subject_scores, rank_samples
from reference import rank_indices_reference, subject_scores_reference


def _one_sample(c, label, rank_depth):
    """Subject scores of a one-sample training set; its normalizer N/M is 1/M."""
    with pytest.warns(UserWarning, match="unbalanced"):
        return compute_subject_scores([c], [label], rank_depth=rank_depth)


class TestConfDiff:
    """The per-sample gap, seen through one-sample scoring runs.

    One sample awards its true subject 1 - gap and punishes a wrongly
    top-ranked subject by the gap, clamped at zero.
    """

    def test_rank_one_is_zero(self):
        s = _one_sample([0.9, 0.1, 0.0], 0, rank_depth=3)
        np.testing.assert_array_equal(s, [(1.0 - 0.0) / (1 / 3), 0.0, 0.0])

    def test_rank_two_gap(self):
        s = _one_sample([0.7, 0.6, 0.1], 1, rank_depth=3)
        np.testing.assert_array_equal(s, [0.0, (1.0 - (0.7 - 0.6)) / (1 / 3), 0.0])

    def test_missing_from_top_five(self):
        c = [0.9, 0.8, 0.7, 0.6, 0.5, 0.1]
        np.testing.assert_array_equal(_one_sample(c, 5, rank_depth=5), np.zeros(6))

    def test_rank_depth_window_boundary(self):
        c = [0.9, 0.8, 0.7, 0.6, 0.5, 0.1]
        # rank 5 is the last rank inside the default window
        s = _one_sample(c, 4, rank_depth=5)
        assert s[4] == (1.0 - (0.9 - 0.5)) / (1 / 6)
        assert s[4] > 0.0

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValidationError):
            compute_subject_scores([[1.2, 0.1]], [0], rank_depth=2)
        with pytest.raises(ValidationError):
            compute_subject_scores([[-0.1, 0.5]], [0], rank_depth=2)

    def test_label_and_depth_bounds(self):
        with pytest.raises(ValidationError):
            compute_subject_scores([[0.5, 0.5]], [2], rank_depth=2)
        with pytest.raises(ValidationError, match="rank_depth"):
            compute_subject_scores([[0.5, 0.5]], [0], rank_depth=3)
        with pytest.raises(ValidationError, match="rank_depth"):
            compute_subject_scores([[0.5, 0.5]], [0], rank_depth=0)

    @given(
        st.one_of(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=12
            ).map(lambda v: (v, min(5, len(v)))),
            # ties: the true rank must count equal scores at lower indices
            st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=2, max_size=12).flatmap(
                lambda v: st.tuples(st.just(v), st.integers(1, len(v)))
            ),
        )
    )
    @settings(max_examples=200)
    def test_result_always_in_unit_interval(self, drawn):
        values, depth = drawn
        c = np.asarray(values)
        order = rank_indices_reference(values, c.size)
        for label in range(c.size):
            s = _one_sample(c, label, depth)
            np.testing.assert_array_equal(s, subject_scores_reference([values], [label], 1 / c.size, depth))
            rank = order.index(label)
            if rank == 0:
                expected = 0.0
            elif rank < depth:
                expected = c[order[0]] - c[label]
            else:
                expected = 1.0
            assert 0.0 <= expected <= 1.0
            # the true subject keeps 1 - gap; the top one, if another, is clamped at zero
            assert s[label] == (1.0 - expected) / (1 / c.size)
            if rank > 0:
                assert s[order[0]] == 0.0


class TestComputeSubjectScores:
    def test_all_rank_one_correct(self):
        scores = compute_subject_scores(
            [[0.9, 0.1], [0.2, 0.8]], [0, 1], rank_depth=2
        )
        np.testing.assert_array_equal(scores, [1.0, 1.0])

    def test_three_sample_trace(self):
        # sample 1 is a rank-2 miss: award 1 - (0.7 - 0.6) to class 1, punish
        # class 0 by the gap and clamp it to zero; samples 2 and 3 then award
        # their classes in full, so class 0 recovers to exactly 1.0
        conf = [[0.7, 0.6, 0.1], [0.8, 0.1, 0.0], [0.1, 0.2, 0.9]]
        labels = [1, 0, 2]
        expected = subject_scores_reference(conf, labels, 1.0, rank_depth=3)
        assert expected == [1.0, 1.0 - (0.7 - 0.6), 1.0]
        scores = compute_subject_scores(conf, labels, rank_depth=3)
        np.testing.assert_array_equal(scores, expected)

    @pytest.mark.filterwarnings("ignore:unbalanced")
    def test_miss_and_full_punishment(self):
        conf = [[0.9, 0.8, 0.7, 0.6, 0.5, 0.1]]
        scores = compute_subject_scores(conf, [5])
        assert scores[5] == 0.0  # award 1 - 1.0
        assert scores[0] == 0.0  # punished by 1.0, clamped at the floor
        np.testing.assert_array_equal(scores, np.zeros(6))

    @pytest.mark.filterwarnings("ignore:unbalanced")
    def test_processing_follows_input_order(self):
        # the clamp couples the two samples: class 0 is punished below the
        # floor only if its award has not arrived yet
        sample_a = [1.0, 0.9, 0.0]
        sample_b = [0.9, 0.05, 0.0]
        ab = compute_subject_scores([sample_a, sample_b], [1, 0], rank_depth=3)
        ba = compute_subject_scores([sample_b, sample_a], [0, 1], rank_depth=3)
        np.testing.assert_array_equal(ab, subject_scores_reference([sample_a, sample_b], [1, 0], 2 / 3, 3))
        np.testing.assert_array_equal(ba, subject_scores_reference([sample_b, sample_a], [0, 1], 2 / 3, 3))
        assert not np.array_equal(ab, ba)

    def test_unbalanced_counts_warn(self):
        with pytest.warns(UserWarning, match="unbalanced"):
            compute_subject_scores(
                [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]], [0, 0, 1], rank_depth=2
            )

    def test_unbalanced_counts_warning_names_the_line_outside_the_package(self):
        # a direct kernel call, the composed kernel and the k-fold harness: each warning is
        # blamed on the line of the call in this file, however deep in idfusion it was raised
        rng = np.random.default_rng(0)
        y = np.repeat([0, 1, 2], [11, 10, 10])
        ids = tuple(f"s{i}" for i in range(y.size))
        face, ecg = (ConfidenceMatrix(rng.random((y.size, 3)), ids, name) for name in ("face", "ecg"))
        gaps, top = rank_samples(face, y, rank_depth=3)
        calls = [
            lambda: clamp_scores(gaps, top, y, 3),
            lambda: compute_subject_scores(face, y, rank_depth=3),
            lambda: run_experiment(PairedDataset(face, ecg, y), k=10, cfg=EvalConfig(rank_depth=3)),
        ]
        for call in calls:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                call()
            assert seen
            assert {(w.filename, w.lineno) for w in seen} == {(__file__, call.__code__.co_firstlineno)}

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValidationError):
            compute_subject_scores(np.empty((0, 3)), [])

    def test_rank_depth_exceeding_classes_rejected(self):
        with pytest.raises(ValidationError):
            compute_subject_scores([[0.9, 0.1]], [0], rank_depth=5)

    def test_read_only_matrix_is_not_copied(self):
        m, spc = 87, 100
        cm = ConfidenceMatrix(
            values=np.random.default_rng(0).random((m * spc, m)),
            sample_ids=[f"s{i}" for i in range(m * spc)],
            modality="face",
        )
        assert not cm.values.flags.writeable
        labels = np.repeat(np.arange(m), spc)
        tracemalloc.start()
        try:
            compute_subject_scores(cm, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix is 6.06 MB, and np.argmax copies a read-only one whole (6.3 MB peak);
        # the ranking's two 8700 x 87 bool masks and its length-N vectors are 2.1 MB
        assert peak < 2.5e6

    @pytest.mark.filterwarnings("ignore:unbalanced")
    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(42)
        for tied in (False, True):  # tied scores are drawn at every rank depth
            for _ in range(200):
                m = int(rng.integers(2, 11))
                n = int(rng.integers(m, 10 * m + 1))
                conf = rng.choice([0.0, 0.5, 1.0], size=(n, m)) if tied else rng.random((n, m))
                labels = rng.integers(0, m, n)
                spc = n / m
                depth = int(rng.integers(1, m + 1)) if tied else min(5, m)
                got = compute_subject_scores(conf, labels, rank_depth=depth)
                halves = clamp_scores(*rank_samples(conf, labels, depth), labels, m)
                want = subject_scores_reference(conf, labels, spc, depth)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
                np.testing.assert_array_equal(halves, got)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_balanced_scores_stay_in_unit_interval(self, m, spc, seed):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(m), spc)
        conf = rng.random((labels.size, m))
        scores = compute_subject_scores(conf, labels, rank_depth=min(5, m))
        assert np.all(scores >= 0.0)
        assert np.all(scores <= 1.0)


class TestKernelContracts:
    """The two public halves reject what their loops would silently misread."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: rank_samples([[0.9, 0.1], [0.2, 0.8]], [0, 1, 1], 2), "3 labels for 2 samples"),
            (lambda: clamp_scores([0.0, 0.5], [0, 0], [0, 1, 1], 2),
             "gaps, top predictions and labels differ in shape: (2,), (2,), (3,)"),
            (lambda: clamp_scores([0.0, 0.5, 0.0], [0, 0], [0, 1, 1], 2),
             "gaps, top predictions and labels differ in shape: (3,), (2,), (3,)"),
            (lambda: clamp_scores([0.0, 0.5], [0, 0], [0, 2], 2), "labels out of range [0, 2): min=0, max=2"),
            (lambda: clamp_scores([0.0, 0.5], [0, -1], [0, 1], 2),
             "top predictions out of range [0, 2): min=-1, max=0"),
            (lambda: clamp_scores([0.0, 1.5], [0, 0], [0, 1], 2), "gaps must lie in [0, 1], got min=0.0, max=1.5"),
            (lambda: clamp_scores([0.0, np.nan], [0, 0], [0, 1], 2),
             "gaps must lie in [0, 1], got min=nan, max=nan"),
        ],
        ids=["rank-label-count", "clamp-short-gaps-and-top", "clamp-short-top", "clamp-label-range",
             "clamp-top-range", "clamp-gap-above-one", "clamp-nan-gap"],
    )
    def test_rejects_with_message(self, call, message):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message
