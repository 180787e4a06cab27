"""Command-line behavior: flows, determinism, config merging, exit codes."""

import json

import numpy as np
import pytest

from idfusion.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from idfusion.evaluation import EvalConfig, run_experiment
from idfusion.fusion import predict_fused
from idfusion.io import load_fusion_model, load_paired_dataset, load_report
from reference import make_pulse_train


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def exported_scores(tmp_path_factory):
    """One small simulate run with exported scores, shared across tests."""
    d = tmp_path_factory.mktemp("scores")
    code = run_cli(
        "simulate",
        "--subjects", "10", "--samples", "8", "--trials", "20000",
        "--seed", "5", "--folds", "4",
        "--dump-scores", str(d),
        "--out", str(d / "report.json"), "--format", "structured",
    )
    assert code == EXIT_OK
    return d


class TestSimulate:
    def test_desk_smoke(self, capsys):
        assert run_cli("simulate", "--preset", "desk", "--seed", "7",
                       "--trials", "20000") == EXIT_OK
        out = capsys.readouterr().out
        assert "fold" in out and "avg" in out

    def test_structured_output(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "simulate", "--subjects", "8", "--samples", "6", "--trials", "20000",
            "--folds", "3", "--seed", "1", "--out", str(out), "--format", "structured",
        )
        assert code == EXIT_OK
        report = load_report(out)
        assert report.config.folds == 3
        assert report.config.n_samples == 48

    def test_degraded_scenario_runs(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "simulate", "--subjects", "21", "--samples", "8", "--trials", "20000",
            "--scenario", "degraded", "--folds", "4", "--seed", "2",
            "--out", str(out), "--format", "structured",
        )
        assert code == EXIT_OK
        assert load_report(out).config.scenario == "degraded"

    def test_rules_require_degraded_scenario(self, capsys):
        code = run_cli("simulate", "--face-rule", "2", "--scenario", "clean")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "subjects = 8\nsamples = 6\ntrials = 20000\nfolds = 3\nseed = 9\n"
            "format = structured\n"
        )
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out1)) == EXIT_OK
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out2),
                       "--seed", "10") == EXIT_OK
        assert load_report(out1).config.seed == 9
        assert load_report(out2).config.seed == 10
        # a later call without --config must not inherit the file's values
        out3 = tmp_path / "c.json"
        assert run_cli("simulate", "--subjects", "8", "--samples", "6", "--trials", "20000",
                       "--folds", "3", "--out", str(out3), "--format", "structured") == EXIT_OK
        assert load_report(out3).config.seed == 0

    @pytest.mark.parametrize(
        "line, message",
        [
            ("faces = a.csv", "unknown config key"),
            ("format = jsn", "config key 'format': invalid choice"),
            ("preset = huge", "config key 'preset': invalid choice"),
        ],
        ids=["unknown-key", "format-not-a-choice", "preset-not-a-choice"],
    )
    def test_unknown_config_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        assert run_cli("simulate", "--config", str(cfg)) == EXIT_USAGE
        assert message in capsys.readouterr().err


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
        from idfusion.io import write_report

        dataset = load_paired_dataset(face, ecg)
        report = run_experiment(dataset, k=4, seed=5, cfg=EvalConfig())
        lib_out = tmp_path / "lib.json"
        write_report(report, lib_out, fmt="structured")
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

    def test_requires_both_files(self, capsys):
        assert run_cli("evaluate", "--face", "only.csv") == EXIT_USAGE


class TestFuse:
    def test_single_prediction_matches_library(self, exported_scores, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = run_cli(
            "simulate", "--subjects", "10", "--samples", "8", "--trials", "20000",
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
            "simulate", "--subjects", "8", "--samples", "6", "--trials", "20000",
            "--seed", "0", "--folds", "3", "--save-model", str(model_path),
        )
        capsys.readouterr()
        assert run_cli(
            "fuse", "--model", str(model_path), "--face", "0.1,oops", "--ecg", "0.5,0.5"
        ) == EXIT_DATA


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


class TestCalibrateCommand:
    def test_writes_result_json(self, tmp_path):
        out = tmp_path / "cal.json"
        code = run_cli(
            "calibrate", "--target", "0.9", "--classes", "20",
            "--trials", "20000", "--seed", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["achieved"] - 0.9) <= 0.005
        assert doc["sigma"] > 0

    def test_flat_landscape_is_runtime_error(self, capsys):
        code = run_cli(
            "calibrate", "--target", "0.5", "--classes", "2",
            "--mean", "0.0", "--trials", "20000",
        )
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: runtime:")

    @pytest.mark.parametrize(
        "bounds",
        [["--sigma-min", "0"], ["--sigma-min", "5", "--sigma-max", "1"], ["--sigma-min", "-1"]],
    )
    def test_invalid_sigma_range_is_data_error(self, bounds, capsys):
        assert run_cli("calibrate", "--target", "0.9", *bounds) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: invalid data: sigma_range")


class TestUsageAndExitCodes:
    def test_no_subcommand(self, capsys):
        assert run_cli() == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run_cli("simulate", "--bogus") == EXIT_USAGE

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--subjects", "8", "--samples", "6", "--trials", "20000",
            "--folds", "3", "--out", str(tmp_path / "missing" / "dir" / "r.txt"),
        )
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: runtime:")

    def test_diagnostics_are_single_line(self, tmp_path, capsys):
        run_cli("evaluate", "--face", str(tmp_path / "a.csv"), "--ecg", str(tmp_path / "b.csv"))
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
