"""The ingestion kernel, label checks, the float formatter and the shared container types.

Ranking is tested in test_scoring.py, where its one kernel lives.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion.core import (
    ConfidenceMatrix,
    PairedDataset,
    ValidationError,
    as_confidence_vector,
    as_label_vector,
    repr_rows,
)


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

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_span_overflow_is_rejected(self, ndim):
        # every entry is finite, but max - min is not: the row would divide to NaN
        message = "^confidence vector has a row whose span max - min overflows float64$"
        with pytest.raises(ValidationError, match=message):
            as_confidence_vector(_as_ndim([-1e308, 0.0, 1e308], ndim), ndim=ndim, normalize=True)


def _as_ndim(row, ndim):
    """``row`` as a 1-D vector, or as the second row of a 2-D matrix under an in-range first row."""
    return row if ndim == 1 else [[0.25] * (len(row) - 1) + [0.75], row]


class TestRangeCheck:
    """Without ``normalize`` the [0, 1] range check is also the finiteness check."""

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize(
        "row",
        [[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf], [np.nan, 2.0]],
        ids=["nan", "inf", "-inf", "nan-and-out-of-range"],
    )
    def test_non_finite_is_reported_first(self, row, ndim):
        with pytest.raises(ValidationError, match="^confidence vector contains NaN or infinite entries$"):
            as_confidence_vector(_as_ndim(row, ndim), ndim=ndim)

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("row", [[-0.1, 0.5], [0.5, 1.5]], ids=["below", "above"])
    def test_out_of_range_names_min_and_max(self, row, ndim):
        values = np.asarray(_as_ndim(row, ndim))
        message = (
            f"confidence vector has values outside [0, 1] (min={values.min()}, max={values.max()}); "
            "normalize before use"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            as_confidence_vector(values, ndim=ndim)

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_negative_zero_is_inside(self, ndim):
        v = as_confidence_vector(_as_ndim([-0.0, 1.0], ndim), ndim=ndim)
        assert np.signbit(v.reshape(-1, 2)[-1, 0])

    def test_empty_matrix_is_accepted(self):
        assert as_confidence_vector(np.zeros((0, 3)), ndim=2).shape == (0, 3)


class TestAsLabelVector:
    @pytest.mark.parametrize(
        "labels, num_classes, message",
        [([0, 0, 1e30, 1e30], 5, r"labels out of range \[0, 5\): min=0.0, max=1e\+30"),
         ([0, 0, np.inf, 1], 5, r"labels out of range \[0, 5\): min=0.0, max=inf"),
         ([0, 0, np.inf, 1], None, r"labels out of range \[0, inf\): min=0.0, max=inf"),
         ([0, 0, 1e30, 1e30], None, r"labels exceed the int64 range: max=1e\+30"),
         (np.array([0, 2**63], dtype=np.uint64), None, r"labels exceed the int64 range: max=9223372036854775808")],
        ids=["huge", "inf", "inf-unbounded", "huge-unbounded", "uint64-unbounded"],
    )
    def test_range_is_checked_before_the_cast(self, labels, num_classes, message):
        # the int64 cast of a huge float warns and wraps, and would name a label nobody gave
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                as_label_vector(labels, num_classes)


def _joined_reprs(rows):
    return [",".join(map(repr, row)) for row in rows]


# where orjson's layout and repr's part: 1e-4, 1e-5 and 1e16, each with its two float neighbours
_LAYOUT_EDGES = [
    float(x) * sign
    for edge in (1e-4, 1e-5, 1e16)
    for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
    for sign in (1.0, -1.0)
]
# every finite float, -0.0 and subnormals included
edge_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_LAYOUT_EDGES)
float_rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.lists(st.lists(edge_floats, min_size=m, max_size=m), min_size=1, max_size=8)
)


class TestReprRows:
    @given(float_rows)
    @settings(max_examples=500, deadline=None)
    def test_rows_are_joined_reprs(self, rows):
        assert repr_rows(np.array(rows)) == _joined_reprs(rows)

    def test_random_bit_patterns(self):
        # 10**5 float64 bit patterns, NaNs and infinities among them, 100 to a row
        bits = np.random.default_rng(25).integers(0, 2**64, size=(1000, 100), dtype=np.uint64)
        values = bits.view(np.float64)
        assert repr_rows(values) == _joined_reprs(values.tolist())

    def test_every_power_of_two_and_of_ten(self):
        powers = [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
        column = [[sign * v] for v in powers for sign in (1.0, -1.0)]
        assert repr_rows(np.array(column)) == _joined_reprs(column)

    def test_non_finite_values_are_their_repr(self):
        rows = [[np.nan, np.inf, -np.inf, 0.5], [0.25, 1.0, 2.0, 3.0]]
        assert repr_rows(rows) == ["nan,inf,-inf,0.5", "0.25,1.0,2.0,3.0"]

    @pytest.mark.parametrize("shape, want", [((0, 3), []), ((2, 0), ["", ""])])
    def test_empty_shapes(self, shape, want):
        assert repr_rows(np.zeros(shape)) == want

    def test_any_layout_and_dtype_is_formatted_as_float64(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        want = _joined_reprs(a.astype(np.float64).tolist())
        assert repr_rows(a) == want
        assert repr_rows(np.asfortranarray(a)) == want
        assert repr_rows(a.astype(">f8")) == want


class TestConfidenceMatrix:
    def test_basic_construction(self):
        cm = ConfidenceMatrix(
            values=np.array([[0.1, 0.9], [1.0, 0.0]]),
            sample_ids=("a", "b"),
            modality="face",
        )
        assert cm.num_samples == 2 and cm.num_classes == 2
        np.testing.assert_array_equal(cm.values[1], [1.0, 0.0])

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

    def test_take_copies_the_rows_once(self):
        rng = np.random.default_rng(0)
        cm = ConfidenceMatrix(rng.random((8700, 87)), tuple(f"s{i}" for i in range(8700)), "ecg")
        perm = rng.permutation(8700)
        tracemalloc.start()
        try:
            sub = cm.take(perm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # copying the gathered rows again would hold the 6.06 MB result twice
        assert peak < 1.5 * sub.values.nbytes


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_confidence_vector([[0.2, 0.8]]), "confidence vector must be 1-D, got shape (1, 2)"),
        (lambda: as_confidence_vector([0.2, 0.8], name="confidence matrix", ndim=2),
         "confidence matrix must be 2-D, got shape (2,)"),
        (lambda: as_label_vector([[0, 1]]), "labels must be 1-D, got shape (1, 2)"),
        (lambda: as_label_vector([]), "labels is empty"),
        (lambda: ConfidenceMatrix(np.zeros((3, 2)), ("a", "b"), "face"), "2 sample ids for 3 rows"),
        (lambda: repr_rows([0.5, 1.0]), "repr_rows needs a 2-D array, got shape (2,)"),
    ],
    ids=["vector-2d", "matrix-1d", "labels-2d", "labels-empty", "id-count", "repr-rows-1d"],
)
def test_error_messages(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message
