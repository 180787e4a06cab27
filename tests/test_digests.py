"""Pinned sha256 digests of CLI outputs: identical inputs give identical bytes.

A change that alters one of these outputs on purpose updates its digest in
the same change and says so; an optimisation that alters one is a bug.
"""

import hashlib

import pytest

from idfusion.cli import EXIT_OK, main

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


@pytest.mark.parametrize("scenario", sorted(SIMULATE_DESK_SEED0))
def test_simulate_desk_outputs_are_pinned(tmp_path, scenario):
    code = main([
        "simulate", "--preset", "desk", "--scenario", scenario, "--seed", "0",
        "--format", "structured", "--out", str(tmp_path / "report.json"),
        "--dump-scores", str(tmp_path), "--save-model", str(tmp_path / "model.json"),
    ])
    assert code == EXIT_OK
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in SIMULATE_DESK_SEED0[scenario]}
    assert got == SIMULATE_DESK_SEED0[scenario]
