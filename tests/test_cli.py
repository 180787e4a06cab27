"""Command-line behavior: flows, determinism, config merging, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from idfusion.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from idfusion.evaluation import EvalConfig, run_experiment
from idfusion.fusion import predict_fused
from idfusion.io import format_report, load_fusion_model, load_paired_dataset
from reference import make_pulse_train


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

    def test_span_overflow_row_is_data_error(self, tmp_path, capsys):
        # finite entries whose max - min overflows: one line naming the row, not NaN scores
        data = Path(__file__).parent / "data"
        face = tmp_path / "face.csv"
        lines = (data / "face_raw.csv").read_text().splitlines()
        lines[1] = "s00,1,-1e308,1e308,0,0,0,0"
        face.write_text("\n".join(lines) + "\n")
        code = run_cli("evaluate", "--face", str(face), "--ecg", str(data / "ecg_raw.csv"), "--folds", "5")
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid data: {face}:2: score row span overflows float64; it cannot be normalized\n"

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

    def test_model_with_ecg_on_the_face_side_is_data_error(self, tmp_path, capsys):
        doc = json.loads((Path(__file__).parent / "data" / "model.json").read_text())
        doc["modality_order"] = ["ecg", "face"]
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        code = run_cli(
            "fuse", "--model", str(model_path),
            "--face", "0.1,0.9,0.3,0.2,0.4,0.5", "--ecg", "0.2,0.3,0.8,0.1,0.0,0.6",
        )
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: invalid data: {model_path}: ")


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

    def test_flat_landscape_is_runtime_error(self, capsys):
        code = run_cli(
            "calibrate", "--target", "0.5", "--classes", "2", "--mean", "0.0",
        )
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: runtime:")

    @pytest.mark.parametrize("mean", ["nan", "inf", "-inf"])
    def test_non_finite_mean_is_data_error(self, mean, capsys):
        assert run_cli("calibrate", "--target", "0.9", f"--mean={mean}") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: invalid data: true-class mean must be finite")
        assert err.count("\n") == 1

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
        "argv",
        [["simulate"], ["evaluate", "--face", "f.csv", "--ecg", "e.csv"]],
        ids=["simulate", "evaluate"],
    )
    def test_negative_seed_is_usage_error(self, argv, capsys):
        assert run_cli(*argv, "--seed", "-1") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: usage: argument --seed: seed must be a non-negative integer, got '-1'\n"

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
