"""Score CSVs, report serialization, config files, and model persistence."""

import errno
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfusion import core
from idfusion import io as idfusion_io
from idfusion.core import ConfidenceMatrix, ValidationError, as_confidence_vector
from idfusion.ecg import read_signal
from idfusion.evaluation import EvalConfig, run_experiment, train_fusion_model
from idfusion.fusion import FusionModel, normalize_difference, predict_fused
from idfusion.io import (
    dump_dataset_scores,
    format_report,
    load_fusion_model,
    load_paired_dataset,
    load_score_matrix,
    parse_config_file,
    render_report_text,
    save_fusion_model,
    write_score_matrix,
)
from idfusion.simulator import DegradationScenario, GeneratorParams, generate_dataset
from reference import child_env


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

    def test_blocks_write_the_per_row_repr_form(self, tmp_path):
        # two full blocks and a short one; every fifth row holds a value that repr writes with an exponent
        n = 2 * idfusion_io._WRITE_BLOCK_ROWS + 2
        values = np.random.default_rng(5).random((n, 7))
        values[::5, 3] = 1.5e-7
        matrix = ConfidenceMatrix(values, tuple(f"s{i}" for i in range(n)), "ecg")
        labels = np.arange(n) % 7
        path = tmp_path / "scores.csv"
        write_score_matrix(matrix, labels, path)
        header = "sample_id,true_label," + ",".join(f"ecg_{j}" for j in range(7))
        rows = [f"s{i},{i % 7}," + ",".join(map(repr, row)) for i, row in enumerate(values.tolist())]
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

    def test_loader_memory_does_not_hold_the_file(self, tmp_path):
        # an 8700 x 87 raw score file, as evaluate reads at the paper's scale
        raw = np.random.default_rng(0).normal(size=(8700, 87))
        path = tmp_path / "raw.csv"
        with open(path, "w") as f:
            f.write("sample_id,true_label," + ",".join(f"face_{j}" for j in range(87)) + "\n")
            for i, row in enumerate(raw.tolist()):
                f.write(f"r{i},{i % 87}," + ",".join(map(repr, row)) + "\n")
        tracemalloc.start()
        try:
            matrix, _ = load_score_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rows cut between blocks are joined again
        assert matrix.values.tobytes() == as_confidence_vector(raw, ndim=2, normalize=True).tobytes()
        # the file is about 15 MB of text and the matrix 6.1 MB: the peak is a few matrices,
        # not a few copies of the text
        assert peak < 30e6

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

    def test_span_overflow_names_line(self, tmp_path):
        # each entry is finite, but max - min overflows: the row cannot be min-max rescaled
        path = _write(
            tmp_path / "wide.csv",
            ["sample_id,true_label,face_0,face_1", "a,0,0.9,0.1", "b,1,-1e308,1e308", "c,0,0.2,0.7"],
        )
        with pytest.raises(ValidationError, match="^.*wide.csv:3: score row span overflows float64; it cannot be normalized$"):
            load_score_matrix(path)
        # without normalization the row is simply outside [0, 1]
        with pytest.raises(ValidationError, match=r"wide.csv:3: confidence outside \[0, 1\]"):
            load_score_matrix(path, normalize=False)


class TestForkedDump:
    """``dump_dataset_scores`` writes each file in its own forked child."""

    def test_ecg_error_is_the_direct_writers_and_face_file_is_whole(self, tmp_path):
        ds = _desk_dataset()
        (tmp_path / "scores" / "ecg_scores.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as direct:
            write_score_matrix(ds.ecg, ds.labels, tmp_path / "scores" / "ecg_scores.csv")
        with pytest.raises(IsADirectoryError) as dumped:
            dump_dataset_scores(ds, tmp_path / "scores")
        assert str(dumped.value) == str(direct.value)
        write_score_matrix(ds.face, ds.labels, tmp_path / "face.csv")
        assert (tmp_path / "scores" / "face_scores.csv").read_bytes() == (tmp_path / "face.csv").read_bytes()

    def test_face_error_wins_over_ecg_error(self, tmp_path):
        for name in ("face_scores.csv", "ecg_scores.csv"):
            (tmp_path / name).mkdir()
        with pytest.raises(IsADirectoryError, match="face_scores.csv"):
            dump_dataset_scores(_desk_dataset(), tmp_path)

    def test_without_fork_the_bytes_are_the_same(self, tmp_path, monkeypatch):
        ds = _desk_dataset()
        forked = dump_dataset_scores(ds, tmp_path / "forked")
        monkeypatch.delattr(os, "fork")
        in_turn = dump_dataset_scores(ds, tmp_path / "in_turn")
        for a, b in zip(forked, in_turn):
            assert a.read_bytes() == b.read_bytes()

    def test_child_that_dies_without_a_message_names_the_ecg_file(self, tmp_path, monkeypatch):
        real = write_score_matrix

        def die_on_ecg(matrix, labels, path):
            if Path(path).name == "ecg_scores.csv":
                os._exit(7)
            real(matrix, labels, path)

        monkeypatch.setattr(idfusion_io, "write_score_matrix", die_on_ecg)
        with pytest.raises(OSError, match=r"ecg_scores.csv: writer process ended with status 7$"):
            dump_dataset_scores(_desk_dataset(), tmp_path)

    def test_child_error_that_cannot_be_rebuilt_arrives_as_its_text(self, tmp_path, monkeypatch):
        real = write_score_matrix

        def fail_on_ecg(matrix, labels, path):
            if Path(path).name == "ecg_scores.csv":
                raise _TwoArgError("disk", "full")
            real(matrix, labels, path)

        monkeypatch.setattr(idfusion_io, "write_score_matrix", fail_on_ecg)
        with pytest.raises(RuntimeError, match="^disk is full$"):
            dump_dataset_scores(_desk_dataset(), tmp_path)

    def test_child_leaves_the_parents_streams_alone(self, tmp_path):
        _assert_child_leaves_streams_alone(tmp_path, "dump_dataset_scores(ds, sys.argv[1])\n", [])


class TestForkedLoad:
    """``load_paired_dataset`` parses each file in its own forked child."""

    def _files(self, tmp_path):
        return dump_dataset_scores(_desk_dataset(), tmp_path / "scores")

    def test_child_result_is_held_once(self):
        # an 8700 x 87 matrix, as evaluate's ECG file at the paper's scale, comes back without a second copy
        values = np.random.default_rng(0).random((8700, 87))
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            got = idfusion_io._fork_each((values.copy, "face"), (values.copy, "ecg"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [a.tobytes() for a in got] == [values.tobytes()] * 2
        assert peak < values.nbytes + 1.5 * values.nbytes  # the first matrix, then the second as before

    def test_failed_later_fork_reaps_the_children_already_started(self, monkeypatch):
        # the first child's matrix is larger than a pipe's buffer: unread, it would block forever
        values = np.random.default_rng(0).random((1000, 87))
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            if len(forks) > 1:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        open_fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OSError) as raised:
            idfusion_io._fork_each((values.copy, "first"), (values.copy, "second"))
        assert raised.value.errno == errno.EAGAIN
        with pytest.raises(ChildProcessError):  # no child is left, running or unreaped
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_main_process_never_parses_with_orjson(self, tmp_path, monkeypatch):
        # orjson reserves a fixed buffer on its first parse, which would stay in this process's heap
        import orjson

        params = GeneratorParams(num_classes=40, samples_per_class=30, noise_sigma_clean=0.3)
        face, ecg = dump_dataset_scores(generate_dataset(params, params, DegradationScenario.clean(), 4), tmp_path)
        log, real = tmp_path / "pids.txt", orjson.loads

        def loads(data):
            with open(log, "a") as f:  # a file, not a list: each child's memory is its own
                f.write(f"{os.getpid()}\n")
            return real(data)

        monkeypatch.setattr(orjson, "loads", loads)
        forked = load_paired_dataset(face, ecg)
        pids = set(log.read_text().split())
        assert pids and str(os.getpid()) not in pids
        log.unlink()
        monkeypatch.delattr(os, "fork")
        in_turn = load_paired_dataset(face, ecg)
        assert set(log.read_text().split()) == {str(os.getpid())}  # the fast path ran here
        for a, b in ((forked.face, in_turn.face), (forked.ecg, in_turn.ecg)):
            assert a.values.tobytes() == b.values.tobytes() and a.sample_ids == b.sample_ids
        assert forked.labels.tobytes() == in_turn.labels.tobytes()

    def test_signal_reader_never_parses_with_orjson(self, monkeypatch):
        import orjson

        monkeypatch.setattr(orjson, "loads", mock.Mock(side_effect=AssertionError("orjson.loads called")))
        for name in ("ecg_recording.txt", "ecg_recording.csv"):
            assert read_signal(Path(__file__).parent / "data" / name).samples.size

    def test_ecg_error_is_the_direct_loaders(self, tmp_path):
        face, ecg = self._files(tmp_path)
        lines = ecg.read_text().splitlines()
        lines[5] = lines[5].rpartition(",")[0]
        ecg.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as direct:
            load_score_matrix(ecg)
        with pytest.raises(ValidationError) as paired:
            load_paired_dataset(face, ecg)
        assert type(paired.value) is type(direct.value)
        assert str(paired.value) == str(direct.value) == f"{ecg}:6: expected 10 fields, got 9"

    def test_face_error_wins_over_ecg_error(self, tmp_path):
        face, ecg = self._files(tmp_path)
        face.write_text("sample_id,true_label,face_0,face_1\na,0,0.5\n")
        ecg.write_text("sample_id,true_label,ecg_0,ecg_1\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(face))}:2: expected 4 fields, got 3$"):
            load_paired_dataset(face, ecg)

    @pytest.mark.parametrize("reordered", [False, True], ids=["aligned", "reordered"])
    def test_without_fork_the_dataset_is_the_same(self, tmp_path, monkeypatch, reordered):
        # 1200 x 40 confidences: the child's matrix is larger than a pipe's buffer
        params = GeneratorParams(num_classes=40, samples_per_class=30, noise_sigma_clean=0.3)
        face, ecg = dump_dataset_scores(generate_dataset(params, params, DegradationScenario.clean(), 4), tmp_path)
        if reordered:
            lines = ecg.read_text().splitlines()
            ecg.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        forked = load_paired_dataset(face, ecg)
        monkeypatch.delattr(os, "fork")
        in_turn = load_paired_dataset(face, ecg)
        for a, b in ((forked.face, in_turn.face), (forked.ecg, in_turn.ecg)):
            assert a.values.tobytes() == b.values.tobytes() and a.values.shape == b.values.shape
            assert a.sample_ids == b.sample_ids and a.modality == b.modality
            assert not a.values.flags.writeable and not b.values.flags.writeable
        assert forked.labels.tobytes() == in_turn.labels.tobytes()

    def test_child_that_dies_without_a_message_names_the_ecg_file(self, tmp_path, monkeypatch):
        face, ecg = self._files(tmp_path)
        real = load_score_matrix

        def die_on_ecg(path, normalize=True):
            if Path(path) == ecg:
                os._exit(7)
            return real(path, normalize=normalize)

        monkeypatch.setattr(idfusion_io, "load_score_matrix", die_on_ecg)
        with pytest.raises(OSError, match=f"^{re.escape(str(ecg))}: reader process ended with status 7$"):
            load_paired_dataset(face, ecg)

    def test_child_leaves_the_parents_streams_alone(self, tmp_path):
        _assert_child_leaves_streams_alone(
            tmp_path,
            "face, ecg = dump_dataset_scores(ds, sys.argv[1])\n"
            "sys.stdout.write('written before the load\\n')\n"
            "load_paired_dataset(face, ecg)\n",
            ["written before the load"],
        )


def _assert_child_leaves_streams_alone(tmp_path, call, printed):
    """Run ``call`` where stdout is a pipe and an ``atexit`` handler is set.

    The text written before the dump, then the ``printed`` lines, sit
    unflushed in the stdout buffer; a forked child must neither print them
    again nor run the handler.
    """
    script = (
        "import atexit, sys\n"
        "from idfusion.io import dump_dataset_scores, load_paired_dataset\n"
        "from idfusion.simulator import DegradationScenario, GeneratorParams, generate_dataset\n"
        "params = GeneratorParams(num_classes=8, samples_per_class=6, noise_sigma_clean=0.3)\n"
        "ds = generate_dataset(params, params, DegradationScenario.clean(), 0)\n"
        "sys.stdout.write('written before the dump\\n')\n"
        "atexit.register(print, 'atexit handler ran')\n"
    ) + call
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)  # a pipe makes stdout block-buffered, unless this turns buffering off
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["written before the dump", *printed, "atexit handler ran"]


class _TwoArgError(Exception):
    """An exception that pickles but cannot be rebuilt from its pickle."""

    def __init__(self, what, state):
        super().__init__(f"{what} is {state}")


def _rows(n, m=2):
    """A score CSV's header and ``n`` valid rows; the row of id ``r{i}`` is line ``i + 2``."""
    lines = ["sample_id,true_label," + ",".join(f"face_{j}" for j in range(m))]
    lines += [f"r{i},{i % m}," + ",".join("0.9" if j == i % m else "0.1" for j in range(m)) for i in range(n)]
    return lines


class TestLineReader:
    """Score, config and signal files are read in blocks of lines; errors still name the file line."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_endings(self, tmp_path, newline):
        path = tmp_path / "face.csv"
        path.write_bytes(newline.join(_rows(3)).encode() + newline.encode())
        matrix, labels = load_score_matrix(path)
        assert matrix.sample_ids == ("r0", "r1", "r2")
        np.testing.assert_array_equal(labels, [0, 1, 0])

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["vt", "ff", "fs", "gs", "rs", "nel", "line-sep", "para-sep"],
    )
    def test_only_newline_and_carriage_return_end_a_line(self, tmp_path, sep):
        # str.splitlines would also break lines at these characters and shift every later line number
        lines = _rows(2)
        lines[1] = f"r{sep}0,0,0.9,0.1"
        path = _write(tmp_path / "sep.csv", lines[:2] + [sep] + lines[2:] + ["r2,0,0.9"])
        with pytest.raises(ValidationError, match="sep.csv:5: expected 4 fields, got 3"):
            load_score_matrix(path)
        path = _write(tmp_path / "sep.csv", lines[:2] + [sep] + lines[2:])
        assert load_score_matrix(path)[0].sample_ids == (f"r{sep}0", "r1")

    def test_undecodable_byte_in_a_late_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_READ_BLOCK_CHARS", 4096)  # the file is 19 KB: line 1101 is in block 5
        lines = _rows(1200)
        lines[1100] = "r1099,1,0.1,\xff0.9"
        path = tmp_path / "late.csv"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text()
        # the same message as when the file was decoded whole: the offset is the byte's in the file
        with pytest.raises(ValidationError, match=f"^cannot read score file {re.escape(str(path))}: ") as got:
            load_score_matrix(path)
        assert str(got.value) == f"cannot read score file {path}: {whole.value}"

    @pytest.mark.parametrize(
        "row, normalize, message",
        [
            ("r2,0,0.9", True, "expected 4 fields, got 3"),
            ("r2,0,0.5,0.5", True, "constant score row ranks no class"),
            ("r2,0,nan,0.1", True, "NaN or infinite confidence"),
            ("r2,7,0.9,0.1", True, "label out of range for 2 classes"),
            ("r2,-1,0.9,0.1", True, "label out of range for 2 classes"),
            (f"r2,{2**64},0.9,0.1", True, "label out of range for 2 classes"),
            ("r2,0,-1e308,1e308", True, "score row span overflows float64; it cannot be normalized"),
            ("r2,0,1.5,0.1", False, "confidence outside [0, 1] without normalization"),
        ],
        ids=["short-row", "constant", "nan", "label-7", "label-negative", "label-2**64", "span-overflow", "outside-unit"],
    )
    def test_first_fault_in_file_order_is_reported(self, tmp_path, monkeypatch, row, normalize, message):
        # the bad row is in block 1 and the undecodable byte in block 5, which is never read
        monkeypatch.setattr(core, "_READ_BLOCK_CHARS", 4096)
        lines = _rows(1200)
        lines[3] = row
        lines[1100] = "r1099,1,0.1,\xff0.9"
        path = tmp_path / "late.csv"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        with pytest.raises(ValidationError) as got:
            load_score_matrix(path, normalize=normalize)
        assert str(got.value) == f"{path}:4: {message}"

    def test_first_bad_row_wins_over_the_first_kind_of_check(self, tmp_path):
        # a NaN at line 900 and a constant row at line 3: the constant row comes first in the file
        lines = _rows(1200)
        lines[899] = "r898,0,nan,0.1"
        lines[2] = "r1,1,0.5,0.5"
        path = _write(tmp_path / "two.csv", lines)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: constant score row ranks no class$"):
            load_score_matrix(path)

    def test_a_falling_label_base_blames_the_first_label_it_leaves_out(self, tmp_path, monkeypatch):
        # labels 5 and 6 fit base 5 until label 0 at line 1002, four blocks on, lowers the base to 0:
        # then the label 5 at line 2 is the first that fits no base, not the first of line 1002's block
        monkeypatch.setattr(core, "_READ_BLOCK_CHARS", 4096)
        lines = _rows(1200)
        lines[1:] = [f"r{i},{5 + i % 2},0.9,0.1" for i in range(1200)]
        lines[1001] = "r1000,0,0.9,0.1"
        path = _write(tmp_path / "fall.csv", lines)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: label out of range for 2 classes$"):
            load_score_matrix(path)

    def test_a_consumer_that_raises_leaves_the_file_closed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_READ_BLOCK_CHARS", 4096)
        opened = []

        def spy(*args):
            opened.append(open(*args))
            return opened[-1]

        monkeypatch.setattr(core, "open", spy, raising=False)
        lines = _rows(1200)  # 19 KB: five blocks, and the loader rejects line 4 in the first
        lines[3] = "r2,0,0.9"
        path = _write(tmp_path / "big.csv", lines)
        try:
            load_score_matrix(path)
        except ValidationError:
            pass
        assert len(opened) == 1 and opened[0].closed

    def test_a_long_line_comes_back_in_one_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_READ_BLOCK_CHARS", 2)
        path = _write(tmp_path / "long.txt", ["x" * 1_000_000])
        assert list(core.read_lines(path, "text")) == [(["x" * 1_000_000], range(1, 2))]

    def test_duplicate_id_across_a_block_boundary_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_READ_BLOCK_CHARS", 4096)
        lines = _rows(1100)
        lines[1030] = "r3" + lines[1030][lines[1030].index(","):]
        path = _write(tmp_path / "dup.csv", lines)
        with pytest.raises(ValidationError, match="^.*dup.csv:1031: duplicate sample_id 'r3'$"):
            load_score_matrix(path)

    @pytest.mark.parametrize(
        "reader, name, lines, message",
        [
            (load_score_matrix, "s.csv", _rows(3)[:2] + ["", "r1,1,0.1,0.9", "r2,0,0.9"],
             "s.csv:5: expected 4 fields, got 3"),
            (load_score_matrix, "s.csv", _rows(3)[:2] + ["", "r1,1,0.1,0.9", "r0,0,0.9,0.1"],
             "s.csv:5: duplicate sample_id 'r0'"),
            (load_score_matrix, "s.csv", _rows(3)[:2] + ["", "r1,1,0.1,0.9", "r2,2,0.9,0.1"],
             "s.csv:5: label out of range for 2 classes"),
            (parse_config_file, "exp.cfg", ["# comment", "seed = 1", "", "folds = 2", "bound 0.1"],
             "exp.cfg:5: expected 'key = value'"),
            (read_signal, "sig.txt", ["# comment", "0.1", "", "0.2", "x"],
             "sig.txt:5: non-numeric line"),
            (read_signal, "sig.csv", ["0,0.1", "# comment", "0.1,0.2", "", "0.1,0.3"],
             "sig.csv:5: time column must be strictly increasing"),
        ],
        ids=["score-fields", "score-duplicate", "score-label", "config", "signal-text", "signal-csv"],
    )
    @pytest.mark.parametrize("block", [1, 5, 16])
    def test_small_blocks_keep_line_numbers(self, tmp_path, monkeypatch, block, reader, name, lines, message):
        # blocks of a few characters: lines are cut between blocks, and blocks hold no line or several
        monkeypatch.setattr(core, "_READ_BLOCK_CHARS", block)
        with pytest.raises(ValidationError, match=f"^.*{re.escape(message)}"):
            reader(_write(tmp_path / name, lines))

    @pytest.mark.parametrize(
        "reader, name, lines, message",
        [
            (load_score_matrix, "s.csv", ["x" * 1_000_000], "s.csv:1: header must be"),
            (parse_config_file, "exp.cfg", ["#" * 1_000_000, "bound 0.1"], "exp.cfg:2: expected 'key = value'"),
        ],
        ids=["score-header", "config-after-long-comment"],
    )
    def test_long_line_across_many_blocks(self, tmp_path, monkeypatch, reader, name, lines, message):
        # a 1 MB line is 16 thousand blocks long: the block that starts it reads to its end
        monkeypatch.setattr(core, "_READ_BLOCK_CHARS", 64)
        with pytest.raises(ValidationError, match=f"^.*{re.escape(message)}"):
            reader(_write(tmp_path / name, lines))


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
    _check_loader_matches_plain_reader(lines)


@given(_score_lines(), st.integers(1, 48))
@settings(max_examples=300, deadline=None)
def test_loader_matches_plain_reader_in_small_blocks(lines, block):
    # the same files, read in blocks of 1 to 48 characters, so that rows and defects straddle blocks
    with mock.patch.object(core, "_READ_BLOCK_CHARS", block):
        _check_loader_matches_plain_reader(lines)


def _check_loader_matches_plain_reader(lines):
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


_SUBNORMAL_MAX = 2.2250738585072014e-308


@st.composite
def _json_number(draw):
    """A JSON number token with 1 to 40 significant digits, written plainly or with an exponent
    from -330 to 310; or a subnormal's repr, a zero of either sign, or a float64 range edge."""
    sign = draw(st.sampled_from(["", "-"]))
    digits = draw(st.sampled_from("123456789")) + draw(st.text("0123456789", max_size=39))
    layout = draw(st.sampled_from(["exponent", "point", "fraction", "special"]))
    if layout == "exponent":
        exp = draw(st.integers(-330, 310))
        mark = draw(st.sampled_from(["e", "E"])) + ("" if exp < 0 else draw(st.sampled_from(["", "+"])))
        return f"{sign}{digits[0]}{'.' + digits[1:] if digits[1:] else ''}{mark}{exp}"
    if layout == "point":
        k = draw(st.integers(1, len(digits)))
        return f"{sign}{digits[:k]}.{digits[k:]}" if digits[k:] else f"{sign}{digits}"
    if layout == "fraction":
        return f"{sign}0.{'0' * draw(st.integers(0, 20))}{digits}"
    return draw(
        st.floats(-_SUBNORMAL_MAX, _SUBNORMAL_MAX).map(repr)
        | st.sampled_from([
            "0", "-0", "0.0", "-0.0", "0e0", "-0e-5", "-0.000",
            "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
            "2.4703282292062327e-324", "2.4703282292062328e-324", "4.9406564584124654e-324",
        ])
    )


_PAD = st.sampled_from(["", "", " ", "\t", "  ", " \t"])  # the spaces and tabs a separator may hold


@given(st.integers(1, 6).flatmap(lambda m: st.lists(st.lists(st.tuples(_PAD, _json_number(), _PAD),
                                                             min_size=m, max_size=m), min_size=1, max_size=6)))
@settings(max_examples=200, deadline=None)
def test_json_rows_match_loadtxt_bit_for_bit(rows):
    tails = [",".join("".join(padded) for padded in row) for row in rows]
    tokens = [[token for _, token, _ in row] for row in rows]
    want = np.loadtxt(tails, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    assert np.array([[float(t) for t in row] for row in tokens]).tobytes() == want.tobytes()
    got = idfusion_io._parse_json_rows(tails)
    if got is None:  # only a bare -0 or a value past float64's range go the slow way
        assert "-0" in sum(tokens, []) or not np.isfinite(want).all()
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _bulk_parse(tails):
    """The confidences ``io._parse_block`` reads from one two-column data line per tail."""
    lines = [f"s{i},0,{tail}" for i, tail in enumerate(tails)]
    return idfusion_io._parse_block(Path("face.csv"), lines, range(2, 2 + len(lines)), {}, 2)[1]


@pytest.mark.parametrize(
    "token",
    ["9007199254740993", "9223372036854775808", "-9223372036854775808", "18446744073709551615",
     "18446744073709551617", "1e+16", "1E5", "1.2e-05"],
)
def test_json_rows_read_these_tokens_as_loadtxt(token):
    # 2**53 + 1, +-2**63 and 2**64 -+ 1 as integer tokens, and the exponent layouts repr and other writers use
    tails = [f"{token},0.5", f"0.25,{token}"]
    got = idfusion_io._parse_json_rows(tails)
    assert got is not None
    assert got.tobytes() == np.loadtxt(tails, dtype=np.float64, delimiter=",", ndmin=2).tobytes()
    assert _bulk_parse(tails).tobytes() == got.tobytes()


# the tokens orjson rejects, then a bare -0 and an e-0 exponent, which the -0 scan turns away, also before a space or tab
@pytest.mark.parametrize(
    "token",
    ["nan", "inf", "1e400", ".5", "1.", "+1", "01", "1_0", "-0", "1e-0", "2E-0", "-0 ", "-0\t", "1e-0 "],
)
def test_tokens_that_take_the_old_path(token):
    tails = [f"{token},0.5", f"0.25,{token}"]  # the token before a comma, then before the join's bracket
    assert idfusion_io._parse_json_rows(tails) is None
    want = np.array([[float(x) for x in tail.split(",")] for tail in tails])  # float() reads them all
    got = _bulk_parse(tails)
    np.testing.assert_array_equal(got, want)
    assert np.signbit(got).tolist() == np.signbit(want).tolist()


@pytest.mark.parametrize(
    "tails",
    [["0.5,0.25", "[0.5,0.25]"], ["[0.5,0.25", "0.5,0.25]"], ["0.5],[0.25,0.75"], ["true,0.5"], ["null,0.5"],
     ['"0.5",0.25'], ["0.5,0.25", "[[0.5,0.25]]"]],
    ids=["brackets-around-a-row", "unbalanced-brackets", "row-boundary", "true", "null", "quotes", "nested"],
)
def test_injected_json_takes_the_old_path(tails):
    assert idfusion_io._parse_json_rows(tails) is None
    lines = ["sample_id,true_label,face_0,face_1"] + [f"s{i},{i % 2},{tail}" for i, tail in enumerate(tails)]
    _check_loader_matches_plain_reader(lines)


def test_bare_minus_zero_keeps_its_sign_without_normalization(tmp_path):
    # orjson reads a bare -0 as the integer 0; the sign must reach the matrix, as from float("-0").
    # The ECG file's only bare -0s end in a space or a tab, so no -0 before a comma turns its block away
    face = _write(tmp_path / "face.csv", ["sample_id,true_label,face_0,face_1", "a,0,-0,1", "b,1,1,-0", "c,0, -0 ,1"])
    ecg = _write(tmp_path / "ecg.csv", ["sample_id,true_label,ecg_0,ecg_1", "a,0, -0 ,1", "b,1,1,-0.0", "c,0,-0\t,1"])
    want = [[True, False], [False, True], [True, False]]
    assert np.signbit(load_score_matrix(face, normalize=False)[0].values).tolist() == want
    paired = load_paired_dataset(face, ecg, normalize=False)
    assert np.signbit(paired.face.values).tolist() == np.signbit(paired.ecg.values).tolist() == want


_TEXT_LINE = (
    st.sampled_from(["", " ", "\t ", "#", "# note", " #x", "0.5#x", "#1"])
    | st.floats(allow_nan=False).map(repr)
    | st.integers(-99, 99).map(str)
)


@st.composite
def _text_and_block(draw):
    """Text of numbers, blank, whitespace-only and '#' lines with any of the three line
    endings, and a block size; sometimes one that cuts the text right before a '#'."""
    pairs = draw(st.lists(st.tuples(_TEXT_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=30))
    text = "".join(line + end for line, end in pairs)
    if draw(st.booleans()):
        text += draw(_TEXT_LINE)  # a last line that no newline ends
    block = draw(st.integers(1, 48))
    read = re.sub("\r\n?", "\n", text)  # blocks are cut in the text as read, where \r\n is one character
    hashes = [k for k, c in enumerate(read) if c == "#" and k > 0]
    if hashes and draw(st.booleans()):
        k = draw(st.sampled_from(hashes))
        block = draw(st.sampled_from([b for b in range(1, 49) if k % b == 0]))
    return text, block


@given(_text_and_block(), st.sampled_from(["#", None]))
@settings(max_examples=300, deadline=None)
def test_line_reader_matches_plain_split(text_and_block, comment):
    # blocks with nothing to skip and blocks that skip lines must number lines alike
    text, block = text_and_block
    stripped = [line.strip() for line in re.split("\r\n|\r|\n", text)]
    want = [(n, line) for n, line in enumerate(stripped, start=1) if line and line[0] != comment]
    got_lines, got_numbers = [], []
    with tempfile.TemporaryDirectory() as d, mock.patch.object(core, "_READ_BLOCK_CHARS", block):
        path = Path(d) / "text.txt"
        path.write_bytes(text.encode())
        for lines, numbers in core.read_lines(path, "text", comment):
            assert len(lines) == len(numbers) > 0
            got_lines += lines
            got_numbers += numbers
    assert list(zip(got_numbers, got_lines)) == want


def test_block_with_nothing_to_skip_numbers_its_lines_by_range(tmp_path):
    path = _write(tmp_path / "sig.txt", ["0.1", " 0.2", "0.3 "])
    assert list(core.read_lines(path, "signal file")) == [(["0.1", "0.2", "0.3"], range(1, 4))]
    path = _write(tmp_path / "sig.txt", ["0.1", "", "0.3"])
    assert list(core.read_lines(path, "signal file")) == [(["0.1", "0.3"], [1, 3])]


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

    def test_unknown_format_rejected(self):
        report = run_experiment(_desk_dataset(3), k=2, seed=3)
        with pytest.raises(ValidationError):
            format_report(report, fmt="binary")


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


def test_writer_checks_the_label_count(tmp_path):
    # the loader's messages are reached through the CLI, in tests/test_cli.py
    matrix = ConfidenceMatrix(np.eye(3), ("a", "b", "c"), "face")
    with pytest.raises(ValidationError) as exc:
        write_score_matrix(matrix, [0, 1], tmp_path / "face.csv")
    assert str(exc.value) == "2 labels for 3 rows"
    assert not (tmp_path / "face.csv").exists()


@pytest.mark.parametrize("sid", [" a", "a,1", "a\rb"], ids=["surrounding-space", "comma", "carriage-return"])
def test_writer_rejects_an_id_that_would_not_read_back(tmp_path, sid):
    # " a" would read back as "a"; "a,1" and "a\rb" would fail the load on a field count
    matrix = ConfidenceMatrix(np.eye(2), ("b", sid), "face")
    with pytest.raises(ValidationError) as exc:
        write_score_matrix(matrix, [0, 1], tmp_path / "face.csv")
    assert str(exc.value) == f"sample id {sid!r} would not read back from a score file"
    assert not (tmp_path / "face.csv").exists()
