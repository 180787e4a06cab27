"""Subject scoring: the confidence-gap primitive and the award/punish loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion.core import ValidationError
from idfusion.scoring import ScoringConfig, compute_subject_scores, conf_diff
from reference import rank_indices_reference, subject_scores_reference


class TestConfDiff:
    def test_rank_one_is_zero(self):
        assert conf_diff([0.9, 0.1, 0.0], 0, rank_depth=3) == 0.0

    def test_rank_two_gap(self):
        assert conf_diff([0.7, 0.6, 0.1], 1, rank_depth=3) == 0.7 - 0.6

    def test_missing_from_top_five(self):
        c = [0.9, 0.8, 0.7, 0.6, 0.5, 0.1]
        assert conf_diff(c, 5, rank_depth=5) == 1.0

    def test_rank_depth_window_boundary(self):
        c = [0.9, 0.8, 0.7, 0.6, 0.5, 0.1]
        # rank 5 is the last rank inside the default window
        assert conf_diff(c, 4, rank_depth=5) == 0.9 - 0.5

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValidationError):
            conf_diff([1.2, 0.1], 0, rank_depth=2)
        with pytest.raises(ValidationError):
            conf_diff([-0.1, 0.5], 0, rank_depth=2)

    def test_label_and_depth_bounds(self):
        with pytest.raises(ValidationError):
            conf_diff([0.5, 0.5], 2, rank_depth=2)
        with pytest.raises(ValidationError):
            conf_diff([0.5, 0.5], 0, rank_depth=3)

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
            gap = conf_diff(c, label, depth)
            assert 0.0 <= gap <= 1.0
            rank = order.index(label)
            if rank == 0:
                expected = 0.0
            elif rank < depth:
                expected = c[order[0]] - c[label]
            else:
                expected = 1.0
            assert gap == expected


def _cfg(spc, depth=5):
    return ScoringConfig(samples_per_class=spc, rank_depth=depth)


class TestComputeSubjectScores:
    def test_all_rank_one_correct(self):
        scores = compute_subject_scores(
            [[0.9, 0.1], [0.2, 0.8]], [0, 1], _cfg(1.0, depth=2)
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
        scores = compute_subject_scores(conf, labels, _cfg(1.0, depth=3))
        np.testing.assert_array_equal(scores, expected)

    @pytest.mark.filterwarnings("ignore:unbalanced")
    def test_miss_and_full_punishment(self):
        conf = [[0.9, 0.8, 0.7, 0.6, 0.5, 0.1]]
        scores = compute_subject_scores(conf, [5], _cfg(1.0))
        assert scores[5] == 0.0  # award 1 - 1.0
        assert scores[0] == 0.0  # punished by 1.0, clamped at the floor
        np.testing.assert_array_equal(scores, np.zeros(6))

    @pytest.mark.filterwarnings("ignore:unbalanced")
    def test_processing_follows_input_order(self):
        # the clamp couples the two samples: class 0 is punished below the
        # floor only if its award has not arrived yet
        sample_a = [1.0, 0.9, 0.0]
        sample_b = [0.9, 0.05, 0.0]
        ab = compute_subject_scores([sample_a, sample_b], [1, 0], _cfg(1.0, depth=3))
        ba = compute_subject_scores([sample_b, sample_a], [0, 1], _cfg(1.0, depth=3))
        np.testing.assert_array_equal(ab, subject_scores_reference([sample_a, sample_b], [1, 0], 1.0, 3))
        np.testing.assert_array_equal(ba, subject_scores_reference([sample_b, sample_a], [0, 1], 1.0, 3))
        assert not np.array_equal(ab, ba)

    def test_unbalanced_counts_warn(self):
        with pytest.warns(UserWarning, match="unbalanced"):
            compute_subject_scores(
                [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]], [0, 0, 1], _cfg(1.5, depth=2)
            )

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValidationError):
            compute_subject_scores(np.empty((0, 3)), [], _cfg(1.0))

    def test_rank_depth_exceeding_classes_rejected(self):
        with pytest.raises(ValidationError):
            compute_subject_scores([[0.9, 0.1]], [0], _cfg(1.0, depth=5))

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
                got = compute_subject_scores(conf, labels, _cfg(spc, depth))
                want = subject_scores_reference(conf, labels, spc, depth)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

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
        scores = compute_subject_scores(conf, labels, _cfg(float(spc), min(5, m)))
        assert np.all(scores >= 0.0)
        assert np.all(scores <= 1.0)
