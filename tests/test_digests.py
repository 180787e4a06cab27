"""Pinned sha256 digests of CLI outputs: identical inputs give identical bytes.

A change that alters one of these outputs on purpose updates its digest in
the same change and says so; an optimisation that alters one is a bug.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from idfusion.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"

# simulate --preset desk --seed 0 --format structured --dump-scores --save-model
SIMULATE_DESK_SEED0 = {
    "clean": {
        "report.json": "cebf526e62476ceac953753c969d1e5dbaabc04a8308ea21d23c485262134f8d",
        "face_scores.csv": "8f1e6206e58beb330c52080a8ec5dd8971b4c748e8560346f8ce300b81eae66c",
        "ecg_scores.csv": "12cca103317984ffcdd108e0702a083bf75239a087bb3fb5d27795bc5db7e904",
        "model.json": "9c76b256133b68f3eaa27a66e01b39eefc06176cd6ab6d709a9c811a16f24926",
    },
    "degraded": {
        "report.json": "ca3bc2b8f8ea5e08e1c1ed3214d79d75050cbe1e1551dfeeb11aaa24e6a100aa",
        "face_scores.csv": "ea513f8ee4250ca4a4afba5844bbadc9f8ddce664dcd80cd599975ded3dbbdd3",
        "ecg_scores.csv": "16a52fd802355160453b91c9d4f1bcb12837a4b2aae1385dc73289d450043a12",
        "model.json": "a6a3b9b3f55108be5ad2d17874e02716ef1daaeb8d1637f677e95f84bb9f2549",
    },
}

# the same outputs at --seed 1
SIMULATE_DESK_SEED1 = {
    "clean": {
        "report.json": "39368da5239c07f6f01b9a78ffc6278023609784cd8f5103240f0bbe77fa5c48",
        "face_scores.csv": "a4e71957b7764a7ae331a86651174580e4b0f6f2d76980501846d8b73ba764d4",
        "ecg_scores.csv": "478f2aa3f60b745e13f552d7cb939827d815661ff1575eb78c101cfd550e23d8",
        "model.json": "29f46755a2903deadd90733b13fb9471dffa48629037e101f20c309a4b1a8e34",
    },
    "degraded": {
        "report.json": "fc5a231cf2aa55755c7bceca9823f2993bf62824486924cd20156dc732113806",
        "face_scores.csv": "9473055c3a11668901d589b33b175de6f5d878a54db909394c8f589dbade7e2d",
        "ecg_scores.csv": "12ad0918bb9b379a0b3598d11d154097e44d284e3d397db8676727f9547fa0c9",
        "model.json": "0e87b877bf4976c87dcbc6bdee6fd40f130aba2b56bed9ed2ed97a9a96d49d02",
    },
}

# simulate --preset desk --seed 0, text report
SIMULATE_DESK_SEED0_TEXT = {
    "clean": "e9eeedd10e3037125912ef12288c9a37b46639b9d4ba984a5497690a79ed6ee0",
    "degraded": "76f246107f2f3feec0273daaabc136e6b92c54d1830e39f2a0f644d28c3f951f",
}


def _simulate_desk(tmp_path, scenario: str, seed: int, expected: dict[str, str]) -> None:
    code = main([
        "simulate", "--preset", "desk", "--scenario", scenario, "--seed", str(seed),
        "--format", "structured", "--out", str(tmp_path / "report.json"),
        "--dump-scores", str(tmp_path), "--save-model", str(tmp_path / "model.json"),
    ])
    assert code == EXIT_OK
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected


@pytest.mark.parametrize("scenario", sorted(SIMULATE_DESK_SEED0))
def test_simulate_desk_outputs_are_pinned(tmp_path, scenario):
    _simulate_desk(tmp_path, scenario, 0, SIMULATE_DESK_SEED0[scenario])


@pytest.mark.parametrize("scenario", sorted(SIMULATE_DESK_SEED1))
def test_simulate_desk_seed1_outputs_are_pinned(tmp_path, scenario):
    _simulate_desk(tmp_path, scenario, 1, SIMULATE_DESK_SEED1[scenario])


@pytest.mark.parametrize("scenario", sorted(SIMULATE_DESK_SEED0_TEXT))
def test_simulate_desk_text_report_is_pinned(tmp_path, scenario):
    report = tmp_path / "report.txt"
    code = main(["simulate", "--preset", "desk", "--scenario", scenario, "--seed", "0",
                 "--out", str(report)])
    assert code == EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == SIMULATE_DESK_SEED0_TEXT[scenario]


# The fixtures in tests/data: a raw 6-class score pair (30 samples, labels
# 1-based, ECG rows in another order), a pair already in [0, 1] (0-based),
# the model `evaluate --save-model` trains on the raw pair, and one ECG
# recording as 512 Hz text and as 128 Hz time,value CSV.
RAW = ["--face", "{data}/face_raw.csv", "--ecg", "{data}/ecg_raw.csv", "--folds", "5"]
UNIT = ["--face", "{data}/face_unit.csv", "--ecg", "{data}/ecg_unit.csv", "--folds", "5", "--no-normalize"]
FUSE = ["fuse", "--model", "{data}/model.json"]

# case -> (arguments, sha256 of the one file they name under {tmp}, or of stdout if none)
CLI_OUTPUTS = {
    "evaluate-text": (
        ["evaluate", *RAW, "--out", "{tmp}/report.txt"],
        "86a480f625e8964437fe8e5f5c3f2c0e730f5d25446f3f5372f29871d1c43c8e",
    ),
    "evaluate-structured": (
        ["evaluate", *RAW, "--format", "structured", "--out", "{tmp}/report.json"],
        "19462b4127e12883bafe103d0d0d68cc646db0b70cdc8d0b990e57722d8d5ac8",
    ),
    "evaluate-save-model": (
        ["evaluate", *RAW, "--save-model", "{tmp}/model.json"],
        "a9cdd1669836beff3319f483b73d3eecbe83cc8fb05c4da70ab844c5021bb87b",
    ),
    "evaluate-no-normalize-text": (
        ["evaluate", *UNIT, "--out", "{tmp}/report.txt"],
        "f86802528b31fb0fc184a6d6207174b78ba4ab5682a73af4fc2e8fc5d3e7d8e0",
    ),
    "evaluate-no-normalize-structured": (
        ["evaluate", *UNIT, "--format", "structured", "--out", "{tmp}/report.json"],
        "60e86ee47bac9df8739550dee8427b7729e2fbeb3941e9ee5066b16ca176813b",
    ),
    "fuse-face-led": (
        [*FUSE, "--face", "0.1,0.9,0.3,0.2,0.4,0.5", "--ecg", "0.2,0.3,0.8,0.1,0.0,0.6"],
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    "fuse-ecg-led": (
        [*FUSE, "--face", "0.7,0.1,0.1,0.65,0.2,0.3", "--ecg", "0.1,0.2,0.3,0.9,0.2,0.1"],
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    ),
    # flat in both modalities: the fused sum ties everywhere and the lower-index rule picks 0
    "fuse-flat": (
        [*FUSE, "--face", "0.5,0.5,0.5,0.5,0.5,0.5", "--ecg", "0.5,0.5,0.5,0.5,0.5,0.5"],
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ),
    "prep-ecg-txt": (
        ["prep-ecg", "--in", "{data}/ecg_recording.txt", "--duration", "1", "--out", "{tmp}/window.txt"],
        "3b8bd04670b75b6b4b5806851c973b509733fb2754dba42fc9b52e8f3bcab7e3",
    ),
    "prep-ecg-csv": (
        ["prep-ecg", "--in", "{data}/ecg_recording.csv", "--duration", "2", "--out", "{tmp}/window.csv"],
        "a483d285d7f338b6e0cb32a234e2b49da6fab970eeed515970b1634ffca20a1e",
    ),
    "calibrate": (
        ["calibrate", "--target", "0.6", "--classes", "5", "--trials", "2000", "--seed", "0",
         "--out", "{tmp}/calibration.json"],
        "9771068bd4d21438e93fc49857bf6d4e1a59950926ca6aef8beacfccfba7e1ac",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_OUTPUTS))
def test_cli_outputs_are_pinned(tmp_path, capsys, case):
    args, digest = CLI_OUTPUTS[case]
    argv = [a.format(data=DATA, tmp=tmp_path) for a in args]
    assert main(argv) == EXIT_OK
    written = [Path(a.format(tmp=tmp_path)) for a in args if a.startswith("{tmp}")]
    out = written[0].read_bytes() if written else capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


# Every simulated digest above rests on numpy's random streams. A numpy release
# that changes them fails this one test by name, before the digests fail at once.
NUMPY_STREAMS = {
    "standard_normal(64)": "4e7a2ece1420539c",
    "permutation(20)": "2942c8bcff0b3a3b",
}


def test_numpy_random_streams_are_pinned():
    draws = {
        "standard_normal(64)": np.random.default_rng(0).standard_normal(64).astype("<f8"),
        "permutation(20)": np.random.default_rng(0).permutation(20).astype("<i8"),
    }
    got = {name: hashlib.sha256(v.tobytes()).hexdigest()[:16] for name, v in draws.items()}
    assert got == NUMPY_STREAMS
