"""Score CSVs, report serialization, config files, and model persistence."""

import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion.core import ConfidenceMatrix, ValidationError, as_confidence_vector
from idfusion.ecg import read_signal
from idfusion.evaluation import EvalConfig, run_experiment, train_fusion_model
from idfusion.fusion import FusionModel, normalize_difference, predict_fused
from idfusion.io import (
    dump_dataset_scores,
    load_fusion_model,
    load_paired_dataset,
    load_score_matrix,
    parse_config_file,
    render_report_text,
    save_fusion_model,
    write_report,
    write_score_matrix,
)
from idfusion.simulator import DegradationScenario, GeneratorParams, generate_dataset


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def _fixture_csv(tmp_path, name="face.csv", modality="face"):
    return _write(
        tmp_path / name,
        [
            f"sample_id,true_label,{modality}_0,{modality}_1",
            "a,0,0.9,0.1",
            "b,1,0.2,0.8",
            "c,0,1.0,0.0",
        ],
    )


def _desk_dataset(seed=0):
    params = GeneratorParams(num_classes=8, samples_per_class=6, noise_sigma_clean=0.3)
    return generate_dataset(params, params, DegradationScenario.clean(), seed)


class TestScoreFiles:
    def test_fixture_round_trip(self, tmp_path):
        matrix, labels = load_score_matrix(_fixture_csv(tmp_path))
        assert matrix.values.shape == (3, 2)
        assert matrix.modality == "face"
        assert matrix.sample_ids == ("a", "b", "c")
        np.testing.assert_array_equal(labels, [0, 1, 0])

    def test_write_then_read_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.random((10, 5))
        values = (values - values.min(axis=1, keepdims=True)) / (
            values.max(axis=1, keepdims=True) - values.min(axis=1, keepdims=True)
        )
        matrix = ConfidenceMatrix(values, tuple(f"s{i}" for i in range(10)), "ecg")
        labels = rng.integers(0, 5, 10)
        path = tmp_path / "scores.csv"
        write_score_matrix(matrix, labels, path)
        back, y = load_score_matrix(path)
        np.testing.assert_array_equal(back.values, matrix.values)
        np.testing.assert_array_equal(y, labels)
        assert back.sample_ids == matrix.sample_ids

    def test_written_floats_are_their_repr(self, tmp_path):
        awkward = [5e-324, 0.1, 1 / 3, 1 - 2**-53, 0.0, 1.0]
        values = np.array([awkward, awkward[::-1]])
        matrix = ConfidenceMatrix(values, ("a", "b"), "face")
        path = tmp_path / "scores.csv"
        write_score_matrix(matrix, [3, 0], path)
        header = "sample_id,true_label," + ",".join(f"face_{j}" for j in range(6))
        rows = [f"{sid},{y}," + ",".join(repr(v) for v in row)
                for sid, y, row in (("a", 3, awkward), ("b", 0, awkward[::-1]))]
        assert path.read_text() == "\n".join([header] + rows) + "\n"

    def test_writer_memory_does_not_grow_with_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        matrix = ConfidenceMatrix(rng.random((2000, 87)), tuple(f"s{i}" for i in range(2000)), "ecg")
        labels = np.arange(2000) % 87
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            write_score_matrix(matrix, labels, tmp_path / "scores.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the file is about 3.3 MB of text

    def test_wrong_field_count_names_line(self, tmp_path):
        # the blank line counts: errors name the line in the file
        path = _write(
            tmp_path / "bad.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.9,0.1", "", "b,1,0.2"],
        )
        with pytest.raises(ValidationError, match="bad.csv:4: expected 4 fields"):
            load_score_matrix(path)

    def test_hash_sample_id_is_data(self, tmp_path):
        # score files have no comment lines
        path = _write(
            tmp_path / "hash.csv",
            ["sample_id,true_label,face_0,face_1", "#a,0,0.9,0.1", "b,1,0.2,0.8"],
        )
        matrix, labels = load_score_matrix(path)
        assert matrix.sample_ids == ("#a", "b")
        np.testing.assert_array_equal(labels, [0, 1])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read score file .*absent.csv"):
            load_score_matrix(tmp_path / "absent.csv")

    @pytest.mark.parametrize("normalize", [True, False])
    def test_constant_row_names_line(self, tmp_path, normalize):
        # a constant row's argmax would silently be class 0
        path = _write(
            tmp_path / "flat.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.9,0.1", "b,1,0.5,0.5"],
        )
        with pytest.raises(ValidationError, match="flat.csv:3"):
            load_score_matrix(path, normalize=normalize)

    def test_duplicate_sample_id(self, tmp_path):
        path = _write(
            tmp_path / "dup.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.9,0.1", "a,1,0.2,0.8"],
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_score_matrix(path)

    def test_label_out_of_range(self, tmp_path):
        path = _write(
            tmp_path / "range.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.9,0.1", "b,5,0.2,0.8"],
        )
        with pytest.raises(ValidationError, match="label out of range"):
            load_score_matrix(path)

    def test_label_beyond_int64_names_line(self, tmp_path):
        path = _write(
            tmp_path / "big.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.9,0.1", "b,99999999999999999999,0.2,0.8"],
        )
        with pytest.raises(ValidationError, match="big.csv:3: label out of range for 2 classes"):
            load_score_matrix(path)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("row", ["nan,nan", "0.9,nan", "inf,0.1", "0.2,-inf"])
    def test_non_finite_confidence_names_line(self, tmp_path, row, normalize):
        # a NaN row would pass the constant-row check: nan - nan is not 0
        path = _write(
            tmp_path / "nan.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.9,0.1", f"b,1,{row}", "c,0,0.5,0.5"],
        )
        with pytest.raises(ValidationError, match="nan.csv:3: NaN or infinite confidence"):
            load_score_matrix(path, normalize=normalize)

    @pytest.mark.parametrize("row", ["0.5,1.5", "-0.1,0.5"])
    def test_out_of_range_confidence_names_line_without_normalization(self, tmp_path, row):
        path = _write(
            tmp_path / "unit.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.9,0.1", f"b,1,{row}", "c,0,0.7,2.0"],
        )
        with pytest.raises(ValidationError, match=r"unit.csv:3: confidence outside \[0, 1\]"):
            load_score_matrix(path, normalize=False)
        load_score_matrix(path)  # normalizing rescales the same rows into [0, 1]

    @pytest.mark.parametrize(
        "labels, message",
        [
            # a 0-based split without class 0, or a 1-based one without class 3
            ((1, 2), r"ambiguous label base: labels 1\.\.2 fit 3 classes from any base in 0\.\.1"),
            ((-1, 0), "range.csv:2: label out of range for 3 classes"),
            ((0, 3), "range.csv:3: label out of range for 3 classes"),
        ],
        ids=["ambiguous", "negative", "too-wide"],
    )
    def test_label_base_must_be_unique(self, tmp_path, labels, message):
        lines = ["sample_id,true_label,face_0,face_1,face_2"]
        lines += [f"s{i},{y},0.9,0.1,0.0" for i, y in enumerate(labels)]
        with pytest.raises(ValidationError, match=message):
            load_score_matrix(_write(tmp_path / "range.csv", lines))

    def test_contiguous_external_labels_remap(self, tmp_path):
        path = _write(
            tmp_path / "one_based.csv",
            ["sample_id,true_label,face_0,face_1", "a,1,0.9,0.1", "b,2,0.2,0.8"],
        )
        _, labels = load_score_matrix(path)
        np.testing.assert_array_equal(labels, [0, 1])

    def test_header_must_declare_modality_columns(self, tmp_path):
        path = _write(
            tmp_path / "hdr.csv", ["sample_id,true_label,c0,c1x", "a,0,0.9,0.1"]
        )
        with pytest.raises(ValidationError, match="hdr.csv:1"):
            load_score_matrix(path)

    def test_normalization_flag(self, tmp_path):
        path = _write(
            tmp_path / "raw.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.4,0.2"],
        )
        normalized, _ = load_score_matrix(path, normalize=True)
        np.testing.assert_array_equal(normalized.values, [[1.0, 0.0]])
        raw, _ = load_score_matrix(path, normalize=False)
        np.testing.assert_array_equal(raw.values, [[0.4, 0.2]])

    def test_paired_loading_aligns_by_sample_id(self, tmp_path):
        face = _fixture_csv(tmp_path, "face.csv", "face")
        ecg = _write(
            tmp_path / "ecg.csv",
            [
                "sample_id,true_label,ecg_0,ecg_1",
                "c,0,0.7,0.3",
                "a,0,0.6,0.4",
                "b,1,0.1,0.9",
            ],
        )
        ds = load_paired_dataset(face, ecg)
        assert ds.face.sample_ids == ds.ecg.sample_ids == ("a", "b", "c")
        np.testing.assert_array_equal(ds.ecg.values[0], [1.0, 0.0])  # row "a"

    def test_paired_loading_rejects_mismatched_sets(self, tmp_path):
        face = _fixture_csv(tmp_path, "face.csv", "face")
        ecg = _write(
            tmp_path / "ecg.csv",
            ["sample_id,true_label,ecg_0,ecg_1", "a,0,0.7,0.3", "x,1,0.1,0.9"],
        )
        with pytest.raises(ValidationError, match="different samples"):
            load_paired_dataset(face, ecg)

    def test_paired_loading_rejects_label_disagreement(self, tmp_path):
        face = _write(
            tmp_path / "face.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.9,0.1", "b,1,0.1,0.9"],
        )
        ecg = _write(
            tmp_path / "ecg.csv",
            ["sample_id,true_label,ecg_0,ecg_1", "a,1,0.7,0.3", "b,0,0.1,0.9"],
        )
        with pytest.raises(ValidationError, match="disagree"):
            load_paired_dataset(face, ecg)

    def test_dataset_dump_and_reload_round_trip(self, tmp_path):
        ds = _desk_dataset()
        face_path, ecg_path = dump_dataset_scores(ds, tmp_path / "scores")
        back = load_paired_dataset(face_path, ecg_path)
        np.testing.assert_array_equal(back.face.values, ds.face.values)
        np.testing.assert_array_equal(back.ecg.values, ds.ecg.values)
        np.testing.assert_array_equal(back.labels, ds.labels)


_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


@st.composite
def _score_lines(draw):
    """A score CSV's lines: well-formed (ties, integer-looking values, spaced fields,
    ids starting with '#', a blank line), or with one defect in one row."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text("#ab0_", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    labels = [0] + draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
    token = st.sampled_from(["0", "1", "0.5", "0.0", "1.0"]) | st.floats(0.0, 1.0).map(repr)
    rows = []
    for sid, label in zip(ids, labels):
        values = draw(st.lists(token, min_size=m, max_size=m))
        if len({float(v) for v in values}) == 1:  # a constant row is a different error
            values[0] = "1" if float(values[0]) == 0.0 else "0"
        rows.append([sid, str(label)] + values)
    r = draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from([None, "missing", "extra", "empty-tail", "duplicate",
                                   "bad-label", "bad-value", "underscore", "full-width"]))
    if defect == "missing":
        rows[r].pop()
    elif defect == "extra":
        rows[r].append("0.5")
    elif defect == "empty-tail":
        rows[r][2:] = [""]
    elif defect == "duplicate":
        rows[r][0] = rows[(r + 1) % n][0]
    elif defect == "bad-label":
        rows[r][1] = "x"
    elif defect == "bad-value":
        rows[r][2] = "0.5.5"
    elif defect == "underscore":
        rows[r][2] = "1_0"
    elif defect == "full-width":
        rows[r][1:3] = [f.translate(_FULL_WIDTH) for f in rows[r][1:3]]
    pad = st.sampled_from(["{}", " {}", "{} ", " {} "])
    lines = ["sample_id,true_label," + ",".join(f"face_{j}" for j in range(m))]
    lines += [",".join(draw(pad).format(f) for f in row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return lines


def _plain_read(path):
    """Ids, labels and rows of a score CSV read with str.split, int() and float(),
    or the loader's ValidationError for a bad row."""
    lines = [(n, ln.strip()) for n, ln in enumerate(path.read_text().splitlines(), start=1)]
    lines = [(n, ln) for n, ln in lines if ln]
    width = len(lines[0][1].split(","))
    ids, labels, rows = [], [], []
    for n, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != width:
            raise ValidationError(f"{path}:{n}: expected {width} fields, got {len(fields)}")
        if fields[0].strip() in ids:
            raise ValidationError(f"{path}:{n}: duplicate sample_id {fields[0].strip()!r}")
        try:
            labels.append(int(fields[1]))
            rows.append([float(f) for f in fields[2:]])
        except ValueError:
            raise ValidationError(f"{path}:{n}: non-numeric field") from None
        ids.append(fields[0].strip())
    return tuple(ids), labels, np.asarray(rows, dtype=np.float64)


@given(_score_lines())
@settings(max_examples=300, deadline=None)
def test_loader_matches_plain_reader(lines):
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("error")  # the bulk parse must leak no numpy warning
        path = _write(Path(d) / "face.csv", lines)
        try:
            ids, labels, raw = _plain_read(path)
        except ValidationError as want:
            with pytest.raises(ValidationError) as got:
                load_score_matrix(path)
            assert str(got.value) == str(want)
            return
        matrix, y = load_score_matrix(path)
        assert matrix.sample_ids == ids
        assert y.tolist() == labels
        assert matrix.values.tobytes() == as_confidence_vector(raw, ndim=2, normalize=True).tobytes()
        if raw.max() <= 1.0:
            assert load_score_matrix(path, normalize=False)[0].values.tobytes() == raw.tobytes()


@pytest.mark.parametrize(
    "reader, what",
    [(load_score_matrix, "score file"), (parse_config_file, "config"), (read_signal, "signal file")],
    ids=["score-file", "config", "signal-file"],
)
def test_undecodable_file_is_a_data_error(tmp_path, reader, what):
    path = tmp_path / "bin.dat"
    path.write_bytes(b"sample_id,true_label\xff\n")
    with pytest.raises(ValidationError, match=f"cannot read {what} .*bin.dat: .*decode"):
        reader(path)


class TestReports:
    def test_text_table_has_fold_rows_plus_aggregate(self, tmp_path):
        k = 3
        report = run_experiment(_desk_dataset(2), k=k, seed=2)
        text = render_report_text(report)
        lines = text.strip().splitlines()
        # header line, column line, k fold rows, one aggregate row
        assert len(lines) == k + 3
        assert lines[-1].startswith("avg")
        assert lines[1].split() == ["fold", "face(%)", "ecg(%)", "fused(%)", "weighted_sum(%)"]

    def test_unknown_format_rejected(self, tmp_path):
        report = run_experiment(_desk_dataset(3), k=2, seed=3)
        with pytest.raises(ValidationError):
            write_report(report, tmp_path / "r.bin", fmt="binary")


class TestFusionModelFiles:
    def test_round_trip(self, tmp_path):
        model = FusionModel(
            difference=normalize_difference([0.4, -0.1, 0.0], bound=0.2),
            modality_order=("face", "ecg"),
        )
        path = tmp_path / "model.json"
        save_fusion_model(model, path)
        back = load_fusion_model(path)
        assert back.modality_order == model.modality_order
        assert back.difference.bound == model.difference.bound
        np.testing.assert_array_equal(back.difference.values, model.difference.values)

    def test_saved_model_predicts_identically(self, tmp_path):
        ds = _desk_dataset(4)
        model = train_fusion_model(ds.face, ds.ecg, ds.labels, EvalConfig())
        path = tmp_path / "model.json"
        save_fusion_model(model, path)
        back = load_fusion_model(path)
        for i in range(0, ds.num_samples, 7):
            assert predict_fused(ds.face.values[i], ds.ecg.values[i], back) == \
                predict_fused(ds.face.values[i], ds.ecg.values[i], model)

    @pytest.mark.parametrize(
        "content",
        [
            b"not json",
            b'{"modality_order": ["face", "ecg"], "bound": 0.1, "difference": ["x", 0.1]}',
            b'{"modality_order": ["face\xff", "ecg"], "bound": 0.1, "difference": [0.0, 0.1]}',
            b'{"modality_order": "fe", "bound": 0.1, "difference": [0.0, 0.1]}',
            b'{"modality_order": ["face", "ecg"], "bound": "0.1", "difference": [0.0, 0.1]}',
            b'{"modality_order": ["face", "ecg"], "bound": 0.1, "difference": ["0.0", 0.1]}',
            b'{"modality_order": ["face", "ecg"], "bound": 0.1, "difference": [false, 0.1]}',
            b'{"modality_order": ["face", "ecg"], "bound": 1' + b"0" * 400 + b', "difference": [0.1]}',
        ],
        ids=["not-json", "non-number", "not-utf8", "string-order", "string-bound",
             "numeric-string-entry", "boolean-entry", "huge-integer-bound"],
    )
    def test_garbage_file_rejected(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match="model.json: not a fusion model file"):
            load_fusion_model(path)


class TestConfigFiles:
    def test_parse(self, tmp_path):
        path = _write(
            tmp_path / "exp.cfg",
            ["# comment", "seed = 7", "folds = 5", "bound=0.15", "scenario = degraded"],
        )
        assert parse_config_file(path) == {
            "seed": "7",
            "folds": "5",
            "bound": "0.15",
            "scenario": "degraded",
        }

    def test_rejects_malformed_line(self, tmp_path):
        # the comment and the blank line count: errors name the line in the file
        path = _write(tmp_path / "exp.cfg", ["# comment", "", "seed 7"])
        with pytest.raises(ValidationError, match="exp.cfg:3: expected 'key = value'"):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read config .*absent.cfg"):
            parse_config_file(tmp_path / "absent.cfg")

    def test_rejects_duplicate_key(self, tmp_path):
        path = _write(tmp_path / "exp.cfg", ["seed = 1", "seed = 2"])
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config_file(path)
