"""Ranking and normalization primitives plus the shared container types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion.core import (
    ConfidenceMatrix,
    PairedDataset,
    ValidationError,
    as_confidence_vector,
    rank_top_n,
)
from reference import rank_indices_reference

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_vectors = st.lists(unit_floats, min_size=2, max_size=20).map(np.asarray)


class TestRankTopN:
    def test_direct_ordering(self):
        r = rank_top_n([0.1, 0.9, 0.5], 2)
        assert r.indices == (1, 2)
        assert r.values == (0.9, 0.5)

    def test_tie_goes_to_lower_index(self):
        r = rank_top_n([0.5, 0.5, 0.1], 1)
        assert r.indices == (0,)
        assert r.values == (0.5,)

    def test_five_of_six(self):
        v = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95]
        r = rank_top_n(v, 5)
        assert list(r.indices) == rank_indices_reference(v, 5)
        assert r.indices == (5, 4, 3, 2, 1)

    @pytest.mark.parametrize("n", [0, 4, -1])
    def test_depth_out_of_range(self, n):
        with pytest.raises(ValidationError):
            rank_top_n([0.1, 0.2, 0.3], n)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            rank_top_n([0.5, 1.5], 1)

    @given(unit_vectors)
    def test_full_ranking_matches_brute_force(self, v):
        r = rank_top_n(v, v.size)
        assert list(r.indices) == rank_indices_reference(v, v.size)
        assert sorted(r.indices) == list(range(v.size))
        assert list(r.values) == sorted(v.tolist(), reverse=True)

    @given(unit_vectors, st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_permutation_equivariance(self, v, rnd):
        # distinct values keep the ranking unambiguous under relabeling
        v = np.unique(v)
        if v.size < 2:
            v = np.array([0.25, 0.75])
        perm = list(range(v.size))
        rnd.shuffle(perm)
        perm = np.asarray(perm)
        permuted = np.empty_like(v)
        permuted[perm] = v  # class i moves to slot perm[i]
        base = rank_top_n(v, v.size)
        moved = rank_top_n(permuted, v.size)
        assert tuple(perm[i] for i in base.indices) == moved.indices


def rescale(values):
    return as_confidence_vector(values, normalize=True)


# no -0.0: which signed zero numpy's min returns for a row holding both is unspecified
raw_floats = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False).map(lambda x: x + 0.0)
raw_matrices = st.integers(min_value=2, max_value=12).flatmap(
    lambda m: st.lists(
        st.lists(raw_floats, min_size=m, max_size=m).filter(lambda row: min(row) < max(row)),
        min_size=1,
        max_size=8,
    )
)


class TestMinmaxNormalize:
    def test_affine_rescale(self):
        np.testing.assert_array_equal(rescale([2.0, 4.0, 3.0]), [0.0, 1.0, 0.5])

    def test_constant_row_is_rejected(self):
        with pytest.raises(ValidationError, match="constant row"):
            rescale([5.0, 5.0, 5.0])
        with pytest.raises(ValidationError, match="constant row"):
            as_confidence_vector([[0.1, 0.2], [3.0, 3.0]], ndim=2, normalize=True)
        # a flat row already inside [0, 1] is still a valid confidence vector
        np.testing.assert_array_equal(as_confidence_vector([0.5, 0.5, 0.5]), [0.5, 0.5, 0.5])

    def test_negative_span(self):
        np.testing.assert_array_equal(rescale([-1.0, 0.0, 3.0]), [0.0, 0.25, 1.0])

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            rescale(bad)

    def test_rejects_too_short(self):
        with pytest.raises(ValidationError):
            rescale([1.0])

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=15))
    @settings(max_examples=100)
    def test_idempotent_on_non_degenerate(self, raw):
        v = np.asarray(raw)
        if v.max() == v.min():
            v = v + np.linspace(0, 1, v.size)
        once = rescale(v)
        np.testing.assert_allclose(rescale(once), once, atol=1e-15)

    @given(raw_matrices)
    @settings(max_examples=200)
    def test_matches_plain_python_per_row(self, rows):
        want = np.array([[(x - min(row)) / (max(row) - min(row)) for x in row] for row in rows])
        assert as_confidence_vector(rows, ndim=2, normalize=True).tobytes() == want.tobytes()
        for row, expected in zip(rows, want):
            assert rescale(row).tobytes() == expected.tobytes()


class TestConfidenceMatrix:
    def test_basic_construction(self):
        cm = ConfidenceMatrix(
            values=np.array([[0.1, 0.9], [1.0, 0.0]]),
            sample_ids=("a", "b"),
            modality="face",
        )
        assert cm.num_samples == 2 and cm.num_classes == 2
        np.testing.assert_array_equal(cm.row(1), [1.0, 0.0])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            ConfidenceMatrix(np.zeros((2, 2)), ("a", "a"), "face")

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValidationError):
            ConfidenceMatrix(np.array([[0.0, 1.5]]), ("a",), "face")

    def test_values_are_immutable(self):
        cm = ConfidenceMatrix(np.zeros((1, 2)), ("a",), "ecg")
        with pytest.raises(ValueError):
            cm.values[0, 0] = 1.0

    def test_take_preserves_order(self):
        cm = ConfidenceMatrix(
            np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]), ("a", "b", "c"), "face"
        )
        sub = cm.take([2, 0])
        assert sub.sample_ids == ("c", "a")
        np.testing.assert_array_equal(sub.values[0], [1.0, 0.0])


class TestPairedDataset:
    def _matrix(self, ids, modality="face"):
        return ConfidenceMatrix(np.zeros((len(ids), 2)), ids, modality)

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValidationError):
            PairedDataset(
                face=self._matrix(("a", "b")),
                ecg=self._matrix(("a", "c"), "ecg"),
                labels=[0, 1],
            )

    def test_label_length_checked(self):
        with pytest.raises(ValidationError):
            PairedDataset(
                face=self._matrix(("a", "b")),
                ecg=self._matrix(("a", "b"), "ecg"),
                labels=[0],
            )
