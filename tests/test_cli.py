"""Command-line behavior: flows, determinism, config merging, exit codes."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from idfusion.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from idfusion.evaluation import EvalConfig, run_experiment
from idfusion.fusion import predict_fused
from idfusion.io import format_report, load_fusion_model, load_paired_dataset
from reference import child_env, make_pulse_train


def run_cli(*argv):
    return main(list(argv))


def config_of(report_path):
    return json.loads(report_path.read_text())["config"]


@pytest.fixture(scope="module")
def exported_scores(tmp_path_factory):
    """One small simulate run with exported scores, shared across tests."""
    d = tmp_path_factory.mktemp("scores")
    code = run_cli(
        "simulate",
        "--subjects", "10", "--samples", "8", "--seed", "5", "--folds", "4",
        "--dump-scores", str(d),
        "--out", str(d / "report.json"), "--format", "structured",
    )
    assert code == EXIT_OK
    return d


class TestSimulate:
    def test_desk_smoke(self, capsys):
        assert run_cli("simulate", "--preset", "desk", "--seed", "7") == EXIT_OK
        out = capsys.readouterr().out
        assert "fold" in out and "avg" in out

    def test_structured_output(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "simulate", "--subjects", "8", "--samples", "6",
            "--folds", "3", "--seed", "1", "--out", str(out), "--format", "structured",
        )
        assert code == EXIT_OK
        config = config_of(out)
        assert config["folds"] == 3
        assert config["n_samples"] == 48

    def test_degraded_scenario_runs(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "simulate", "--subjects", "21", "--samples", "8",
            "--scenario", "degraded", "--folds", "4", "--seed", "2",
            "--out", str(out), "--format", "structured",
        )
        assert code == EXIT_OK
        assert config_of(out)["scenario"] == "degraded"

    def test_rules_require_degraded_scenario(self, capsys):
        code = run_cli("simulate", "--face-rule", "2", "--scenario", "clean")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("scenario", ["clean", "degraded"])
    def test_unaddressable_size_is_data_error(self, scenario, capsys):
        # 2 x 10^8 x 10^8 x 10^8 float64 values: past the address space, so rejected
        # before calibration, and before the degraded rule would visit 10^8 subjects
        start = time.perf_counter()
        code = run_cli("simulate", "--subjects", "100000000", "--samples", "100000000",
                       "--scenario", scenario)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: invalid data: --subjects 100000000 and --samples 100000000 ")
        assert err.count("\n") == 1

    def test_unallocatable_size_is_runtime_error(self, capsys):
        # 14.2 PiB can be addressed, but not allocated: a real MemoryError stays exit 3
        code = run_cli("simulate", "--subjects", "100000", "--samples", "100000")
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: runtime: MemoryError: ") and err.count("\n") == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "subjects = 8\nsamples = 6\nfolds = 3\nseed = 9\n"
            "format = structured\n"
        )
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out1)) == EXIT_OK
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out2),
                       "--seed", "10") == EXIT_OK
        assert config_of(out1)["seed"] == 9
        assert config_of(out2)["seed"] == 10
        # a later call without --config must not inherit the file's values
        out3 = tmp_path / "c.json"
        assert run_cli("simulate", "--subjects", "8", "--samples", "6",
                       "--folds", "3", "--out", str(out3), "--format", "structured") == EXIT_OK
        assert config_of(out3)["seed"] == 0

    @pytest.mark.parametrize(
        "line, message",
        [
            ("faces = a.csv", "unknown config key"),
            ("format = jsn", "config key 'format': invalid choice"),
            ("preset = huge", "config key 'preset': invalid choice"),
            ("seed = -1", "config key 'seed': seed must be a non-negative integer"),
        ],
        ids=["unknown-key", "format-not-a-choice", "preset-not-a-choice", "negative-seed"],
    )
    def test_unknown_config_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        assert run_cli("simulate", "--config", str(cfg)) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_rule_that_degrades_nobody_is_data_error(self, capsys):
        code = run_cli("simulate", "--scenario", "degraded", "--face-rule", "none")
        assert code == EXIT_DATA
        assert "face rule degrades no subjects" in capsys.readouterr().err


class TestEvaluate:
    def test_matches_library_byte_for_byte(self, exported_scores, tmp_path):
        face = exported_scores / "face_scores.csv"
        ecg = exported_scores / "ecg_scores.csv"
        cli_out = tmp_path / "cli.json"
        code = run_cli(
            "evaluate", "--face", str(face), "--ecg", str(ecg),
            "--folds", "4", "--seed", "5", "--out", str(cli_out), "--format", "structured",
        )
        assert code == EXIT_OK
        dataset = load_paired_dataset(face, ecg)
        report = run_experiment(dataset, k=4, seed=5, cfg=EvalConfig())
        lib_out = tmp_path / "lib.json"
        lib_out.write_text(format_report(report, "structured"))
        assert cli_out.read_bytes() == lib_out.read_bytes()

    def test_run_twice_identical(self, exported_scores, tmp_path):
        args = [
            "evaluate",
            "--face", str(exported_scores / "face_scores.csv"),
            "--ecg", str(exported_scores / "ecg_scores.csv"),
            "--folds", "4", "--seed", "1", "--format", "structured",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a)) == EXIT_OK
        assert run_cli(*args, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run_cli(
            "evaluate", "--face", str(tmp_path / "no.csv"), "--ecg", str(tmp_path / "no2.csv")
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: invalid data:")

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,true_label,face_0,face_1\na,0,0.5\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("sample_id,true_label,ecg_0,ecg_1\na,0,0.5,0.5\n")
        assert run_cli("evaluate", "--face", str(bad), "--ecg", str(ok)) == EXIT_DATA

    def test_config_boolean_matches_flag(self, tmp_path):
        data = Path(__file__).parent / "data"
        args = ["evaluate", "--face", str(data / "face_unit.csv"), "--ecg", str(data / "ecg_unit.csv"),
                "--folds", "5", "--format", "structured"]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("no-normalize = yes\n")
        by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
        assert run_cli(*args, "--no-normalize", "--out", str(by_flag)) == EXIT_OK
        assert run_cli(*args, "--config", str(cfg), "--out", str(by_config)) == EXIT_OK
        assert by_config.read_bytes() == by_flag.read_bytes()

    def test_config_boolean_rejects_other_words(self, tmp_path, capsys):
        data = Path(__file__).parent / "data"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("no-normalize = maybe\n")
        code = run_cli("evaluate", "--config", str(cfg), "--face", str(data / "face_unit.csv"),
                       "--ecg", str(data / "ecg_unit.csv"), "--folds", "5")
        assert code == EXIT_USAGE
        assert "config key 'no-normalize': not a boolean" in capsys.readouterr().err

    def test_requires_both_files(self, capsys):
        assert run_cli("evaluate", "--face", "only.csv") == EXIT_USAGE

    @pytest.mark.parametrize("depth", ["0", "7"])
    def test_rank_depth_outside_class_range_is_data_error(self, depth, capsys):
        data = Path(__file__).parent / "data"
        code = run_cli(
            "evaluate", "--face", str(data / "face_raw.csv"), "--ecg", str(data / "ecg_raw.csv"),
            "--folds", "5", "--rank-depth", depth,
        )
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: invalid data:") and "rank_depth" in captured.err

    @pytest.mark.parametrize(
        "face_name, ecg_name, named",
        [("ecg_raw.csv", "face_raw.csv", "face"), ("face_raw.csv", "face_raw.csv", "ecg")],
        ids=["swapped", "face-tagged-ecg-file"],
    )
    def test_file_tagged_as_the_other_modality_is_data_error(
        self, tmp_path, capsys, face_name, ecg_name, named
    ):
        data = Path(__file__).parent / "data"
        face, ecg = tmp_path / f"face_{face_name}", tmp_path / f"ecg_{ecg_name}"
        face.write_bytes((data / face_name).read_bytes())
        ecg.write_bytes((data / ecg_name).read_bytes())
        model = tmp_path / "m.json"
        code = run_cli(
            "evaluate", "--face", str(face), "--ecg", str(ecg), "--folds", "5", "--save-model", str(model)
        )
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: invalid data: {face if named == 'face' else ecg}: ")
        assert not model.exists()

    def test_custom_modality_tags_still_work(self, tmp_path):
        data = Path(__file__).parent / "data"
        paths = []
        for name, tag, new in (("face_raw.csv", "face", "rgb"), ("ecg_raw.csv", "ecg", "thermal")):
            path = tmp_path / name
            path.write_text((data / name).read_text().replace(f",{tag}_", f",{new}_"))
            paths.append(path)
        model = tmp_path / "m.json"
        code = run_cli(
            "evaluate", "--face", str(paths[0]), "--ecg", str(paths[1]), "--folds", "5",
            "--save-model", str(model), "--out", str(tmp_path / "r.txt"),
        )
        assert code == EXIT_OK
        assert json.loads(model.read_text())["modality_order"] == ["rgb", "thermal"]


class TestFuse:
    def test_single_prediction_matches_library(self, exported_scores, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = run_cli(
            "simulate", "--subjects", "10", "--samples", "8",
            "--seed", "5", "--folds", "4", "--save-model", str(model_path),
        )
        assert code == EXIT_OK
        capsys.readouterr()
        model = load_fusion_model(model_path)
        rng = np.random.default_rng(0)
        cf = rng.random(10)
        ce = rng.random(10)
        code = run_cli(
            "fuse", "--model", str(model_path),
            "--face", ",".join(repr(float(v)) for v in cf),
            "--ecg", ",".join(repr(float(v)) for v in ce),
        )
        assert code == EXIT_OK
        printed = int(capsys.readouterr().out.strip())
        assert printed == predict_fused(cf, ce, model)

    def test_bad_vector_is_data_error(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli(
            "simulate", "--subjects", "8", "--samples", "6",
            "--seed", "0", "--folds", "3", "--save-model", str(model_path),
        )
        capsys.readouterr()
        assert run_cli(
            "fuse", "--model", str(model_path), "--face", "0.1,oops", "--ecg", "0.5,0.5"
        ) == EXIT_DATA

    @pytest.mark.parametrize(
        "content",
        [
            b'{"modality_order": ["face", "ecg"], "bound": 0.1, "difference": ["x", 0.1]}',
            b"\xff",
            # valid JSON that the fusion types reject: the error must still name the file
            b'{"modality_order": ["face", "face"], "bound": 0.2, "difference": [0.2, -0.1]}',
            b'{"modality_order": ["face", "ecg"], "bound": 0.2, "difference": [1e400, 0.1]}',
            b'{"modality_order": ["face", "ecg"], "bound": 0.7, "difference": [0.7, 0.1]}',
            b'{"modality_order": ["face", "ecg"], "bound": 0.2, "difference": [0.1, -0.05]}',
        ],
        ids=["non-number", "not-utf8", "same-tags", "infinite-entry", "bound-too-large", "peak-below-bound"],
    )
    def test_garbage_model_is_data_error(self, tmp_path, capsys, content):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(content)
        assert run_cli(
            "fuse", "--model", str(model_path), "--face", "0.1,0.9", "--ecg", "0.5,0.4"
        ) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: invalid data: {model_path}: not a fusion model file: ")

    @pytest.mark.parametrize("opening", [b"[", b'{"a":'], ids=["array", "object"])
    def test_deeply_nested_model_is_data_error(self, tmp_path, capsys, opening):
        # json.loads raises RecursionError, not ValueError, when nesting passes the recursion limit
        model_path = tmp_path / "model.json"
        model_path.write_bytes(opening * 200_000)
        assert run_cli(
            "fuse", "--model", str(model_path), "--face", "0.1,0.9", "--ecg", "0.5,0.4"
        ) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: invalid data: {model_path}: not a fusion model file: maximum recursion depth")


class TestPrepEcg:
    def test_end_to_end(self, tmp_path):
        samples, _ = make_pulse_train(np.random.default_rng(1))
        src = tmp_path / "sig.txt"
        src.write_text("\n".join(repr(float(v)) for v in samples) + "\n")
        dst = tmp_path / "gated.txt"
        assert run_cli("prep-ecg", "--in", str(src), "--out", str(dst), "--rate", "512") == EXIT_OK
        lines = dst.read_text().strip().splitlines()
        assert len(lines) == 2048

    def test_flat_signal_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "flat.txt"
        src.write_text("\n".join(["1.0"] * 4096) + "\n")
        assert run_cli("prep-ecg", "--in", str(src), "--out", str(tmp_path / "o.txt")) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: invalid data:")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--rate", "--duration", "--search-window"])
    def test_non_finite_flag_is_data_error(self, flag, value, tmp_path, capsys):
        src = Path(__file__).parent / "data" / "ecg_recording.txt"
        code = run_cli("prep-ecg", "--in", str(src), "--out", str(tmp_path / "o.txt"), flag, value)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: invalid data:") and err.count("\n") == 1
        assert "must be finite and positive" in err

    @pytest.mark.parametrize(
        "flags",
        [["--rate", "1e308"], ["--search-window", "1e308"], ["--rate", "1e300", "--duration", "1e10"]],
        ids=["rate", "search-window", "rate-times-duration"],
    )
    def test_sample_count_past_float_range_is_data_error(self, flags, tmp_path, capsys):
        src = Path(__file__).parent / "data" / "ecg_recording.txt"
        code = run_cli("prep-ecg", "--in", str(src), "--out", str(tmp_path / "o.txt"), *flags)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: invalid data:") and err.count("\n") == 1
        assert "overflows the sample count" in err

    def test_span_overflow_blames_the_signal(self, tmp_path, capsys):
        src = tmp_path / "wide.txt"
        src.write_text("-1e308\n0\n1e308\n0.5\n")
        assert run_cli("prep-ecg", "--in", str(src), "--out", str(tmp_path / "o.txt")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: invalid data:") and err.count("\n") == 1
        assert "signal" in err


class TestCalibrateCommand:
    def test_writes_result_json(self, tmp_path):
        out = tmp_path / "cal.json"
        code = run_cli(
            "calibrate", "--target", "0.9", "--classes", "20", "--out", str(out),
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["achieved"] - 0.9) <= 0.005
        assert doc["sigma"] > 0

    @pytest.mark.parametrize(
        "bounds",
        [["--sigma-min", "0"], ["--sigma-min", "5", "--sigma-max", "1"], ["--sigma-min", "-1"]],
    )
    def test_invalid_sigma_range_is_data_error(self, bounds, capsys):
        assert run_cli("calibrate", "--target", "0.9", *bounds) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: invalid data: sigma_range")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--subjects", "8", "--samples", "6", "--folds", "3"],
        ["simulate", "--subjects", "8", "--samples", "6", "--folds", "3", "--format", "structured"],
        ["calibrate", "--target", "0.9", "--classes", "20"],
    ],
    ids=["simulate-text", "simulate-structured", "calibrate"],
)
def test_stdout_and_out_file_are_identical(argv, tmp_path, capsys):
    assert run_cli(*argv) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / "result"
    assert run_cli(*argv, "--out", str(out)) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


class TestUsageAndExitCodes:
    def test_no_subcommand(self, capsys):
        assert run_cli() == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run_cli("simulate", "--bogus") == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--trials", "20000"], "unrecognized arguments: --trials 20000"),
            (["calibrate", "--target", "0.9", "--trials", "20000"],
             "unrecognized arguments: --trials 20000"),
            (["calibrate", "--target", "0.9", "--seed", "0"], "unrecognized arguments: --seed 0"),
            (["simulate", "--config", "{cfg}"], "unknown config key 'trials' for simulate"),
        ],
        ids=["simulate-trials", "calibrate-trials", "calibrate-seed", "config-trials"],
    )
    def test_calibration_draw_flags_are_gone(self, argv, message, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("trials = 20000\n")
        assert run_cli(*(a.format(cfg=cfg) for a in argv)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: usage: {message}\n"

    def test_config_values_stay_with_their_call(self, tmp_path, capsys):
        # the parser is built once per process: no call may see another call's config values
        data = Path(__file__).parent / "data"
        a = tmp_path / "a.cfg"
        a.write_text(f"face = {data / 'face_raw.csv'}\necg = {data / 'ecg_raw.csv'}\n"
                     "folds = 5\nseed = 4\nbound = 0.1\nrank-depth = 2\nscenario = lab\n")
        b = tmp_path / "b.cfg"
        b.write_text("subjects = 9\nsamples = 8\nfolds = 4\nseed = 11\nbound = 0.3\nrank-depth = 3\n")
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 99\nfolds = 2\nfaces = a.csv\n")
        plain = ["simulate", "--subjects", "8", "--samples", "10"]
        out = [tmp_path / f"{k}.json" for k in range(4)]
        report = [["--format", "structured", "--out", str(o)] for o in out]

        assert run_cli("evaluate", "--config", str(a), *report[0]) == EXIT_OK
        assert run_cli(*plain, *report[1]) == EXIT_OK
        assert run_cli("simulate", "--config", str(b), *report[2]) == EXIT_OK
        assert run_cli("simulate", "--config", str(bad)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: usage: unknown config key 'faces' for simulate\n"
        assert run_cli(*plain, *report[3]) == EXIT_OK

        evaluated, first, configured = (config_of(o) for o in out[:3])
        assert (evaluated["folds"], evaluated["seed"], evaluated["bound"]) == (5, 4, 0.1)
        assert (evaluated["rank_depth"], evaluated["scenario"]) == (2, "lab")
        assert (configured["n_classes"], configured["n_samples"], configured["folds"]) == (9, 72, 4)
        assert (configured["seed"], configured["bound"], configured["rank_depth"]) == (11, 0.3, 3)
        assert first == {"bound": EvalConfig.bound, "folds": 10, "n_classes": 8, "n_samples": 80,
                         "rank_depth": EvalConfig.rank_depth, "scenario": "clean", "seed": 0}
        assert out[3].read_bytes() == out[1].read_bytes()

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--subjects", "8", "--samples", "6",
            "--folds", "3", "--out", str(tmp_path / "missing" / "dir" / "r.txt"),
        )
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: runtime:")

    def test_diagnostics_are_single_line(self, tmp_path, capsys):
        run_cli("evaluate", "--face", str(tmp_path / "a.csv"), "--ecg", str(tmp_path / "b.csv"))
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")


DATA = Path(__file__).parent / "data"
_FACE_RAW, _ECG_RAW = str(DATA / "face_raw.csv"), str(DATA / "ecg_raw.csv")


def _ecg_with_a_seventh_class():
    """ecg_raw.csv with one more confidence column; labels 0-based, so the base stays unambiguous."""
    header, *rows = (DATA / "ecg_raw.csv").read_text().splitlines()
    rows = [f"{sid},{int(label) - 1},{rest},0.5" for sid, label, rest in (r.split(",", 2) for r in rows)]
    return "\n".join([header + ",ecg_6", *rows]) + "\n"


def _with_line(name, index, line):
    """The tests/data file ``name`` with its line at ``index`` replaced by ``line``."""
    lines = (DATA / name).read_text().splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def _late_byte_file(line_3=None):
    """1200 rows of 87 scores, about 1.3 MB, with 0xff opening line 1101: past the first 1 MiB block."""
    rows = ["sample_id,true_label," + ",".join(f"face_{j}" for j in range(87))]
    rows += [f"r{i},{i % 87}," + ",".join(f"0.{(i + j) % 87:02d}12345678" for j in range(87)) for i in range(1200)]
    rows[2] = line_3 or rows[2]
    return "\n".join(rows[:1100]).encode() + b"\n\xff" + "\n".join(rows[1100:]).encode() + b"\n"


_SIGNAL = (DATA / "ecg_recording.txt").read_text().splitlines()
_TIMED = [f"{i / 512!r},{v}" for i, v in enumerate(_SIGNAL)]  # the recording as a 512 Hz 'time,value' CSV
_SHORT_ECG_ROW = _with_line("ecg_raw.csv", 3, "s14,2,-1.0649,-0.6631,-0.9821,-0.0489,-1.6345")
_FACE_HEADER = (DATA / "face_raw.csv").read_text().splitlines()[0]
_SWAPPED_MODEL = json.dumps({**json.loads((DATA / "model.json").read_text()), "modality_order": ["ecg", "face"]})
_FIXTURES = ["--face", _FACE_RAW, "--ecg", _ECG_RAW]
_VECTORS = ["--face", "0.1,0.9", "--ecg", "0.2,0.8"]
_SIX_CLASS_VECTORS = ["--face", "0.1,0.9,0.3,0.2,0.4,0.5", "--ecg", "0.2,0.3,0.8,0.1,0.0,0.6"]
_RECORDING = ["--in", str(DATA / "ecg_recording.txt"), "--out", "{tmp}/window.txt"]
_DESK = ["simulate", "--preset", "desk", "--seed", "0"]
_EVALUATE_LATE = ["evaluate", "--face", "{tmp}/late.csv", "--ecg", _ECG_RAW, "--folds", "5"]
_BOUND = "invalid data: bound must lie in (0, 0.5) to keep all weights positive"
_DIRECTORY = object()  # a ``files`` value: make a directory by that name

# One CLI call per row, run by both tests below. ``files`` are written to {tmp} first. A row with
# a non-zero code must print nothing to stdout and exactly "error: <line>" to stderr; a row with
# code 0 must print nothing to stderr (what it writes is pinned by test_digests.py).
_CASES = [
    pytest.param(["evaluate", "--face", _FACE_RAW, "--ecg", "{tmp}/wide.csv", "--folds", "5"],
                 {"wide.csv": _ecg_with_a_seventh_class()},
                 EXIT_DATA, f"invalid data: {_FACE_RAW} has 6 classes but {{tmp}}/wide.csv has 7", id="shapes-differ"),
    pytest.param(["evaluate", "--face", _FACE_RAW, "--ecg", "{tmp}/flipped.csv", "--folds", "5"],
                 {"flipped.csv": _with_line("ecg_raw.csv", 2, "s22,5,-0.7559,-0.4876,-0.9294,0.0723,-0.988,-1.733")},
                 EXIT_DATA, f"invalid data: {_FACE_RAW} and {{tmp}}/flipped.csv disagree on the true label of sample "
                            "'s22'", id="labels-disagree"),
    pytest.param(["prep-ecg", "--in", "{tmp}/nan.txt", "--out", "{tmp}/window.txt"], {"nan.txt": "0.1\nnan\n0.3\n"},
                 EXIT_DATA, "invalid data: {tmp}/nan.txt:2: non-finite sample nan", id="nan-signal"),
    pytest.param(["prep-ecg", "--in", "{tmp}/inf.csv", "--out", "{tmp}/window.txt", "--duration", "1"],
                 {"inf.csv": "\n".join([*_TIMED, "10.1,inf"]) + "\n"},
                 EXIT_DATA, "invalid data: {tmp}/inf.csv:1025: non-finite sample inf", id="inf-signal-csv"),
    pytest.param(["prep-ecg", *_RECORDING, "--threshold-fraction", "1"], {},
                 EXIT_DATA, "invalid data: threshold_fraction must lie in (0, 1)", id="threshold-fraction"),
    pytest.param(["prep-ecg", *_RECORDING, "--duration", "0.0005"], {},
                 EXIT_DATA, "invalid data: gate duration is shorter than one sample", id="sub-sample-gate"),
    pytest.param(["prep-ecg", "--in", "{tmp}/blank.txt", "--out", "{tmp}/window.txt"], {"blank.txt": "# lead I\n\n"},
                 EXIT_DATA, "invalid data: signal file {tmp}/blank.txt is empty", id="empty-signal"),
    pytest.param(["evaluate", *_FIXTURES, "--folds", "1"], {}, EXIT_DATA, "invalid data: need at least 2 folds",
                 id="one-fold"),
    pytest.param(["fuse", "--model", "{tmp}/past.json", *_VECTORS],
                 {"past.json": '{"modality_order": ["face", "ecg"], "bound": 0.2, "difference": [0.3, -0.3]}'},
                 EXIT_DATA, "invalid data: {tmp}/past.json: not a fusion model file: "
                            "entries exceed the bound: max |d| = 0.3 > 0.2", id="model-past-bound"),
    pytest.param(["evaluate", "--face", "{tmp}/empty.csv", "--ecg", _ECG_RAW], {"empty.csv": ""},
                 EXIT_DATA, "invalid data: {tmp}/empty.csv: empty score file", id="empty-score-file"),
    pytest.param(["evaluate", "--face", "{tmp}/swapped.csv", "--ecg", _ECG_RAW],
                 {"swapped.csv": _FACE_HEADER.replace("face_2,face_3", "face_3,face_2") + "\n"},
                 EXIT_DATA, "invalid data: {tmp}/swapped.csv:1: confidence columns must be face_0..face_5",
                 id="columns-out-of-sequence"),
    pytest.param(["evaluate", "--face", "{tmp}/header.csv", "--ecg", _ECG_RAW], {"header.csv": _FACE_HEADER + "\n"},
                 EXIT_DATA, "invalid data: {tmp}/header.csv: no data rows", id="no-data-rows"),
    pytest.param(["fuse", "--model", "{tmp}", *_VECTORS], {},
                 EXIT_DATA, "invalid data: cannot read model {tmp}: [Errno 21] Is a directory: '{tmp}'",
                 id="model-is-a-directory"),
    pytest.param(["simulate", "--config", "{tmp}/blank.cfg"], {"blank.cfg": "folds = 3\nseed =\n"},
                 EXIT_DATA, "invalid data: {tmp}/blank.cfg:2: empty key or value", id="config-empty-value"),
    pytest.param(["simulate", "--subjects", "1"], {}, EXIT_DATA, "invalid data: need at least 2 classes",
                 id="one-class"),
    pytest.param(["simulate", "--samples", "0"], {}, EXIT_DATA, "invalid data: need at least 1 sample per class",
                 id="no-samples"),
    pytest.param(["simulate", "--scenario", "degraded", "--face-rule", "1"], {},
                 EXIT_DATA, "invalid data: divisors must be >= 2", id="divisor-one"),
    pytest.param(["calibrate", "--target", "1"], {},
                 EXIT_DATA, "invalid data: target accuracy must lie strictly between 0 and 1",
                 id="calibrate-target-one"),
    pytest.param(["simulate", "--seed", "abc"], {},
                 EXIT_USAGE, "usage: argument --seed: seed must be a non-negative integer, got 'abc'",
                 id="seed-not-an-integer"),
    pytest.param(["simulate", "--seed", "-1"], {},
                 EXIT_USAGE, "usage: argument --seed: seed must be a non-negative integer, got '-1'",
                 id="negative-seed"),
    pytest.param(["evaluate", "--face", "f.csv", "--ecg", "e.csv", "--seed", "-1"], {},
                 EXIT_USAGE, "usage: argument --seed: seed must be a non-negative integer, got '-1'",
                 id="negative-seed-evaluate"),
    # the score export writes the ECG file in a forked child
    pytest.param([*_DESK, "--dump-scores", "{tmp}/scores"], {}, EXIT_OK, None, id="dump-scores"),
    pytest.param([*_DESK, "--dump-scores", "{tmp}"], {"ecg_scores.csv": _DIRECTORY},
                 EXIT_RUNTIME, "runtime: [Errno 21] Is a directory: '{tmp}/ecg_scores.csv'",
                 id="dump-ecg-file-is-a-directory"),
    # the bound is checked before the difference vector is scaled by it: no numpy warning, no NaN blamed;
    # a negative value may follow its flag as a separate argument
    pytest.param([*_DESK, "--bound=inf"], {}, EXIT_DATA, _BOUND, id="bound-inf"),
    pytest.param([*_DESK, "--bound=nan"], {}, EXIT_DATA, _BOUND, id="bound-nan"),
    pytest.param([*_DESK, "--bound=-inf"], {}, EXIT_DATA, _BOUND, id="bound-minus-inf"),
    pytest.param([*_DESK, "--bound", "-inf"], {}, EXIT_DATA, _BOUND, id="bound-minus-inf-separate"),
    pytest.param([*_DESK, "--bound", "-1e-1"], {}, EXIT_DATA, _BOUND, id="bound-negative-exponent-separate"),
    pytest.param(["simulate", "--subjects", "100000000", "--samples", "100000000", "--scenario", "degraded"], {},
                 EXIT_DATA, "invalid data: --subjects 100000000 and --samples 100000000 need a "
                            "16000000000000000000000000-byte dataset, more than this platform can address",
                 id="unaddressable-size"),
    # the fixtures: scoring, the fit and one fused decision; model.json is what the fit saves
    pytest.param(["evaluate", *_FIXTURES, "--folds", "5"], {}, EXIT_OK, None, id="evaluate-fixtures"),
    pytest.param(["evaluate", *_FIXTURES, "--folds", "5", "--save-model", "{tmp}/saved.json"], {},
                 EXIT_OK, None, id="evaluate-save-model"),
    pytest.param(["fuse", "--model", str(DATA / "model.json"), *_SIX_CLASS_VECTORS], {},
                 EXIT_OK, None, id="fuse-fixtures"),
    pytest.param(["evaluate", "--face", _ECG_RAW, "--ecg", _FACE_RAW, "--folds", "5", "--save-model", "{tmp}/m.json"],
                 {}, EXIT_DATA,
                 f"invalid data: {_ECG_RAW}: given as the face score file, but its columns are tagged 'ecg'",
                 id="evaluate-swapped-files"),
    pytest.param(["fuse", "--model", str(DATA / "model.json"), "--face", "0.1,0.9,0.3,0.2,0.4,0.5",
                  "--ecg", "0.2,nan,0.8,0.1,0.0,0.6"], {},
                 EXIT_DATA, "invalid data: ECG confidence vector contains NaN or infinite entries", id="fuse-ecg-nan"),
    pytest.param(["fuse", "--model", str(DATA / "model.json"), "--face", "0.1,0.9,0.3,1.6,0.4,0.5",
                  "--ecg", "0.2,0.3,0.8,0.1,0.0,0.6"], {},
                 EXIT_DATA, "invalid data: face confidence vector has values outside [0, 1] (min=0.1, max=1.6); "
                            "normalize before use", id="fuse-face-out-of-range"),
    pytest.param(["fuse", "--model", "{tmp}/swapped.json", *_SIX_CLASS_VECTORS], {"swapped.json": _SWAPPED_MODEL},
                 EXIT_DATA, "invalid data: {tmp}/swapped.json: not a fusion model file: modality_order "
                            "['ecg', 'face'] puts ecg on the face (minus) side or face on the ecg (plus) side",
                 id="fuse-swapped-model"),
    # evaluate parses the ECG file in a forked child; the first fault in file order is the one reported
    pytest.param(["evaluate", "--face", "{tmp}/wide.csv", "--ecg", _ECG_RAW, "--folds", "5"],
                 {"wide.csv": _with_line("face_raw.csv", 1, "s00,1,-1e308,1e308,0,0,0,0")},
                 EXIT_DATA,
                 "invalid data: {tmp}/wide.csv:2: score row span overflows float64; it cannot be normalized",
                 id="span-overflow-row"),
    pytest.param(_EVALUATE_LATE, {"late.csv": _late_byte_file()},
                 EXIT_DATA, "invalid data: cannot read score file {tmp}/late.csv: "
                            "'utf-8' codec can't decode byte 0xff in position 1252327: invalid start byte",
                 id="late-undecodable-byte"),
    pytest.param(_EVALUATE_LATE, {"late.csv": _late_byte_file("r1,1," + ",".join(["0.5"] * 86))},
                 EXIT_DATA, "invalid data: {tmp}/late.csv:3: expected 89 fields, got 88",
                 id="short-row-before-late-byte"),
    pytest.param(_EVALUATE_LATE, {"late.csv": _late_byte_file("r1,1," + ",".join(["0.5"] * 87))},
                 EXIT_DATA, "invalid data: {tmp}/late.csv:3: constant score row ranks no class",
                 id="constant-row-before-late-byte"),
    pytest.param(["evaluate", "--face", _FACE_RAW, "--ecg", "{tmp}/short.csv", "--folds", "5"],
                 {"short.csv": _SHORT_ECG_ROW},
                 EXIT_DATA, "invalid data: {tmp}/short.csv:4: expected 8 fields, got 7", id="short-ecg-row"),
    pytest.param(["evaluate", "--face", "{tmp}/no_face.csv", "--ecg", "{tmp}/short.csv", "--folds", "5"],
                 {"short.csv": _SHORT_ECG_ROW},
                 EXIT_DATA, "invalid data: cannot read score file {tmp}/no_face.csv: "
                            "[Errno 2] No such file or directory: '{tmp}/no_face.csv'",
                 id="missing-face-before-bad-ecg"),
    # prep-ecg reads a recording a block at a time
    pytest.param(["prep-ecg", *_RECORDING, "--duration", "1"], {}, EXIT_OK, None, id="prep-ecg-one-second"),
    pytest.param(["prep-ecg", *_RECORDING, "--rate", "nan"], {},
                 EXIT_DATA, "invalid data: sample rate must be finite and positive", id="rate-nan"),
    pytest.param(["prep-ecg", *_RECORDING, "--rate", "1e308"], {},
                 EXIT_DATA, "invalid data: gate duration of 4.0 s at 1e+308 Hz overflows the sample count",
                 id="rate-overflows-sample-count"),
    # a rate inferred from a CSV time column: a step too small to invert, a span past float64, a time that is not finite
    pytest.param(["prep-ecg", "--in", "{tmp}/tiny.csv", "--out", "{tmp}/window.txt"],
                 {"tiny.csv": "0,0.1\n5e-324,0.5\n1e-323,0.2\n"},
                 EXIT_DATA, "invalid data: {tmp}/tiny.csv: the time column's median step of 5e-324 s "
                            "gives no finite positive rate", id="inferred-rate-overflows"),
    pytest.param(["prep-ecg", "--in", "{tmp}/wide.csv", "--out", "{tmp}/window.txt"],
                 {"wide.csv": "-1.7e308,0.1\n1.7e308,0.5\n"},
                 EXIT_DATA, "invalid data: {tmp}/wide.csv: the time column's median step of inf s "
                            "gives no finite positive rate", id="time-span-overflows"),
    pytest.param(["prep-ecg", "--in", "{tmp}/inf.csv", "--out", "{tmp}/window.txt", "--duration", "1"],
                 {"inf.csv": "\n".join([*_TIMED, "inf,0.0"]) + "\n"},
                 EXIT_DATA, "invalid data: {tmp}/inf.csv:1025: non-finite time 'inf'", id="time-inf"),
    pytest.param(["prep-ecg", "--in", "{tmp}/nan.csv", "--out", "{tmp}/window.txt", "--duration", "1"],
                 {"nan.csv": "\n".join([*_TIMED[:512], "nan,0.2", *_TIMED[513:]]) + "\n"},
                 EXIT_DATA, "invalid data: {tmp}/nan.csv:513: non-finite time 'nan'", id="time-nan"),
    pytest.param(["prep-ecg", "--in", "{tmp}/late.txt", "--out", "{tmp}/window.txt"],
                 {"late.txt": "\n".join([*_SIGNAL[:2], "# lead I", *_SIGNAL[2:-3], "0.2.1", *_SIGNAL[-2:]]) + "\n"},
                 EXIT_DATA, "invalid data: {tmp}/late.txt:1023: non-numeric line in signal file",
                 id="late-non-numeric-line"),
    # calibrate: the paper's ECG accuracy (test_writes_result_json checks the fit); a zero mean moves nothing
    pytest.param(["calibrate", "--target", "0.961", "--classes", "87", "--out", "{tmp}/cal.json"], {},
                 EXIT_OK, None, id="calibrate-paper-ecg"),
    pytest.param(["calibrate", "--target", "0.961", "--mean", "nan"], {},
                 EXIT_DATA, "invalid data: true-class mean must be finite, got nan", id="mean-nan"),
    pytest.param(["calibrate", "--target", "0.9", "--mean=inf"], {},
                 EXIT_DATA, "invalid data: true-class mean must be finite, got inf", id="mean-inf"),
    pytest.param(["calibrate", "--target", "0.9", "--mean=-inf"], {},
                 EXIT_DATA, "invalid data: true-class mean must be finite, got -inf", id="mean-minus-inf"),
    # a negative mean inverts the landscape: accuracy would rise with sigma
    pytest.param(["calibrate", "--target", "0.9", "--mean", "-5e-1"], {},
                 EXIT_DATA, "invalid data: true-class mean must not be negative, got -0.5", id="mean-negative"),
    pytest.param(["calibrate", "--target", "0.5", "--classes", "2", "--mean", "0"], {},
                 EXIT_RUNTIME, "runtime: flat accuracy landscape (0.5000 to 0.5000); "
                               "the true-class offset cannot move accuracy in this range", id="flat-landscape"),
]


def _prepare(argv, files, tmp_path):
    """Write a case's files; return its arguments."""
    for name, content in files.items():
        path = tmp_path / name
        if content is _DIRECTORY:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    return [a.format(tmp=tmp_path) for a in argv]


def _check(got_code, out, err, code, line, tmp_path):
    assert got_code == code
    if code == EXIT_OK:
        assert err == ""
    else:
        assert (out, err) == ("", f"error: {line.format(tmp=tmp_path)}\n")


@pytest.mark.parametrize("argv, files, code, line", _CASES)
def test_error_line(argv, files, code, line, tmp_path, capsys):
    got_code = main(_prepare(argv, files, tmp_path))
    captured = capsys.readouterr()
    _check(got_code, captured.out, captured.err, code, line, tmp_path)


@pytest.mark.parametrize("argv, files, code, line", _CASES)
def test_error_line_in_a_process(argv, files, code, line, tmp_path):
    # a line that a forked child, numpy or the interpreter writes to the process's own stderr shows
    # here; capsys does not see what a forked child writes
    proc = subprocess.run(
        [sys.executable, "-m", "idfusion.cli", *_prepare(argv, files, tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=120,
    )
    _check(proc.returncode, proc.stdout, proc.stderr, code, line, tmp_path)


@pytest.mark.parametrize("word", ["0", "false", "No", "OFF"])
def test_config_boolean_false_words_match_no_flag(word, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"no-normalize = {word}\n")
    args = ["evaluate", *_FIXTURES, "--folds", "5", "--format", "structured"]
    assert run_cli(*args, "--out", str(tmp_path / "plain.json")) == EXIT_OK
    assert run_cli(*args, "--config", str(cfg), "--out", str(tmp_path / "config.json")) == EXIT_OK
    assert (tmp_path / "config.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
