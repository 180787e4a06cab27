"""End-to-end acceptance gates for the whole package.

Each test covers one numbered criterion and prints a ``[criterion N]``
PASS/FAIL line (visible with ``pytest -s`` or in captured output). The
heavyweight experiment gates re-run the full-scale pipeline from scratch
on fixed master seeds, so this module is slower than the unit suites.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import idfusion
from idfusion.cli import main as cli_main
from idfusion.ecg import EcgSignal, find_first_r_peak, normalize_amplitude, preprocess, zero_mean
from idfusion.evaluation import (
    EvalConfig,
    accuracy,
    make_folds,
    run_experiment,
    train_fusion_model,
)
from idfusion.fusion import (
    FusionModel,
    compute_baseline_weights,
    normalize_difference,
    predict_fused,
    predict_fused_batch,
    predict_weighted_sum_batch,
)
from idfusion.io import format_report, load_paired_dataset
from idfusion.scoring import compute_subject_scores
from idfusion.simulator import (
    DEFAULT_CLEAN_TARGETS,
    DEFAULT_DEGRADED_TARGETS,
    calibrate_clean_regime,
    calibrate_degraded_regime,
    generate_dataset,
)
from reference import make_pulse_train, subject_scores_reference

MASTER_SEEDS = (0, 1, 2, 3, 4)


def check(criterion: int, condition: bool, detail: str = ""):
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}")
    assert condition, f"criterion {criterion}: {detail}"


@pytest.mark.filterwarnings("ignore:unbalanced")
def test_criterion_1_scoring_matches_literal_reference():
    rng = np.random.default_rng(20240001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(m, 10 * m + 1))
        conf = rng.random((n, m))
        labels = rng.integers(0, m, n)
        spc = n / m
        depth = min(5, m)
        got = compute_subject_scores(conf, labels, rank_depth=depth)
        want = np.asarray(subject_scores_reference(conf, labels, spc, depth))
        worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    check(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"1000 instances, max |diff| = {worst:.2e}, {elapsed:.1f}s",
    )


@pytest.mark.filterwarnings("ignore:unbalanced")
def test_criterion_2_hand_trace_fixtures():
    # scoring fixture: every sample correct at rank 1
    s1 = compute_subject_scores([[0.9, 0.1], [0.2, 0.8]], [0, 1], rank_depth=2)
    ok = np.array_equal(s1, [1.0, 1.0])

    # scoring fixture: a rank-2 miss punishes and clamps class 0 before its
    # own award arrives, leaving it at exactly 1.0 afterwards
    conf = [[0.7, 0.6, 0.1], [0.8, 0.1, 0.0], [0.1, 0.2, 0.9]]
    expected = subject_scores_reference(conf, [1, 0, 2], 1.0, rank_depth=3)
    assert expected == [1.0, 1.0 - (0.7 - 0.6), 1.0]
    s2 = compute_subject_scores(conf, [1, 0, 2], rank_depth=3)
    ok = ok and np.array_equal(s2, expected)

    # scoring fixture: true class below the rank window, full punishment
    s3 = compute_subject_scores([[0.9, 0.8, 0.7, 0.6, 0.5, 0.1]], [5], rank_depth=5)
    ok = ok and np.array_equal(s3, np.zeros(6))

    # fused-prediction chain on one sample pair
    d = normalize_difference([0.5, -0.5], bound=0.2)
    ok = ok and np.array_equal(d.values, [0.2, -0.2])
    model = FusionModel(difference=d)
    # ECG is weighted by 0.5 + d, face by 0.5 - d, and predict_fused takes the argmax of the sum
    f_ecg = np.array([0.8, 0.4]) * (0.5 + d.values)
    f_face = np.array([0.8, 0.4]) * (0.5 - d.values)
    ok = ok and np.array_equal(f_ecg, [0.8 * 0.7, 0.4 * 0.3])
    ok = ok and np.array_equal(f_face, [0.8 * 0.3, 0.4 * 0.7])
    total = f_face + f_ecg
    ok = ok and np.array_equal(total, [0.8 * 0.3 + 0.8 * 0.7, 0.4 * 0.7 + 0.4 * 0.3])
    ok = ok and predict_fused([0.8, 0.4], [0.8, 0.4], model) == int(np.argmax(total)) == 0
    check(2, ok, "scoring traces and fused-prediction chain reproduce exactly")


def test_criterion_3_zero_difference_reduction():
    rng = np.random.default_rng(20240003)
    models = {}
    agreements = 0
    cases = 10_000
    for _ in range(cases):
        m = int(rng.integers(2, 51))
        if m not in models:
            models[m] = FusionModel(difference=normalize_difference(np.zeros(m)))
        cf = rng.random(m)
        ce = rng.random(m)
        fused = predict_fused(cf, ce, models[m])
        agreements += fused == int(np.argmax(cf + ce))
    check(3, agreements == cases, f"{agreements}/{cases} decisions equal the sum rule")


@pytest.mark.slow
def test_criterion_4_clean_regime_experiment():
    start = time.perf_counter()
    face_t, ecg_t = DEFAULT_CLEAN_TARGETS
    all_ok = True
    details = []
    for seed in MASTER_SEEDS:
        data_seed = np.random.SeedSequence(seed).spawn(2)[1]
        regime = calibrate_clean_regime(87, 100)
        for tag, target in (("face", face_t), ("ecg", ecg_t)):
            achieved = regime.details[f"{tag}_clean"].achieved
            all_ok = all_ok and abs(achieved - target) <= 0.005
        ds = generate_dataset(regime.face, regime.ecg, regime.scenario, data_seed)
        report = run_experiment(ds, k=10, seed=seed, cfg=EvalConfig(scenario="clean"))
        s = report.summary
        mean_ok = s.fused.mean >= max(s.face.mean, s.ecg.mean)
        fold_wins = sum(
            f.acc_fused >= max(f.acc_face, f.acc_ecg) for f in report.folds
        )
        all_ok = all_ok and mean_ok and fold_wins >= 8
        details.append(f"seed {seed}: fused {s.fused.mean:.4f} wins {fold_wins}/10")
    elapsed = time.perf_counter() - start
    check(4, all_ok and elapsed < 300.0, "; ".join(details) + f"; {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_degraded_regime_experiment():
    start = time.perf_counter()
    face_overall, ecg_overall = DEFAULT_DEGRADED_TARGETS
    strict_wins = 0
    calibration_ok = True
    details = []
    for seed in MASTER_SEEDS:
        data_seed = np.random.SeedSequence(seed).spawn(2)[1]
        regime = calibrate_degraded_regime(calibrate_clean_regime(87, 100))
        # face target is reachable as a population mixture; ECG's clean
        # majority is too accurate for that, so its degraded subpopulation
        # carries the target directly
        face_expected = regime.details["face_expected_overall"]
        calibration_ok = calibration_ok and abs(face_expected - face_overall) <= 0.01
        ecg_sub = regime.details["ecg_degraded"]
        calibration_ok = (
            calibration_ok
            and not regime.details["ecg_mixture_feasible"]
            and abs(ecg_sub.achieved - ecg_overall) <= 0.01
        )
        ds = generate_dataset(regime.face, regime.ecg, regime.scenario, data_seed)
        report = run_experiment(ds, k=10, seed=seed, cfg=EvalConfig(scenario="degraded"))
        s = report.summary
        win = s.fused.mean > s.weighted_sum.mean
        strict_wins += win
        details.append(
            f"seed {seed}: fused {s.fused.mean:.4f} vs weighted {s.weighted_sum.mean:.4f}"
        )
    elapsed = time.perf_counter() - start
    check(
        5,
        calibration_ok and strict_wins >= 4 and elapsed < 300.0,
        f"strict wins {strict_wins}/5; " + "; ".join(details) + f"; {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_weighted_sum_wins_outside_the_bound_window():
    # README "What the result depends on": at bounds of 0.05 and 0.45 the fused rule loses on every seed
    regime = calibrate_degraded_regime(calibrate_clean_regime(87, 100))
    for seed in MASTER_SEEDS:
        ds = generate_dataset(regime.face, regime.ecg, regime.scenario, np.random.SeedSequence(seed).spawn(2)[1])
        for bound in (0.05, 0.45):
            decisions = run_experiment(ds, k=10, seed=seed, cfg=EvalConfig(bound=bound)).decisions
            errors = {name: int(np.sum(decisions[name] != ds.labels)) for name in ("fused", "weighted_sum")}
            assert errors["fused"] > errors["weighted_sum"], (seed, bound, errors)


def test_criterion_6_subject_score_bounds():
    rng = np.random.default_rng(20240006)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        spc = int(rng.integers(1, 11))
        labels = np.repeat(np.arange(m), spc)
        conf = rng.random((labels.size, m))
        scores = compute_subject_scores(conf, labels, rank_depth=min(5, m))
        ok = ok and bool(np.all(scores >= 0.0) and np.all(scores <= 1.0))
        assert ok
    check(6, ok, "1000 balanced instances, all scores in [0, 1]")


def test_criterion_7_difference_vector_contract():
    rng = np.random.default_rng(20240007)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 101))
        raw = rng.normal(scale=rng.uniform(1e-3, 5.0), size=m)
        if np.all(raw == 0.0):
            continue
        d = normalize_difference(raw, bound=0.2)
        peak = float(np.abs(d.values).max())
        ok = ok and abs(peak - 0.2) <= 1e-12
        model = FusionModel(difference=d)
        # the face and ECG weights the decision kernel applies
        for w in (0.5 - model.difference.values, 0.5 + model.difference.values):
            ok = ok and bool(np.all(w >= 0.3) and np.all(w <= 0.7))
        assert ok
    check(7, ok, "peak |d| = bound within 1e-12; all weights in [0.3, 0.7]")


def test_criterion_8_ecg_preprocessing_family():
    rng = np.random.default_rng(20240008)
    ok = True
    for case in range(100):
        samples, apex = make_pulse_train(rng)
        sig = EcgSignal(samples=samples, sample_rate=512)
        out = preprocess(sig)
        ok = ok and len(out) == 2048
        ok = ok and abs(out.samples.mean()) <= 1e-12
        centered = zero_mean(normalize_amplitude(sig)).samples
        window = centered[apex : apex + 2048]
        ok = ok and bool(np.allclose(out.samples, window - window.mean(), atol=1e-12))
        if case % 10 == 0:  # prepended-zeros shift covariance
            pad = int(rng.integers(1, 50))
            shifted = EcgSignal(
                samples=np.concatenate([np.zeros(pad), samples]), sample_rate=512
            )
            base_peak = find_first_r_peak(zero_mean(normalize_amplitude(sig)))
            moved_peak = find_first_r_peak(zero_mean(normalize_amplitude(shifted)))
            ok = ok and moved_peak == base_peak + pad
        assert ok
    check(8, ok, "100 pulse trains: 2048 samples, zero mean, apex-aligned, shift-covariant")


def test_criterion_9_cross_validation_integrity(tmp_path):
    rng = np.random.default_rng(20240009)
    ok = True
    for _ in range(20):
        m = int(rng.integers(2, 9))
        counts = rng.integers(4, 40, size=m)
        labels = rng.permutation(np.repeat(np.arange(m), counts))
        k = int(rng.integers(2, min(4, counts.min()) + 1))
        fa = make_folds(labels, k=k, seed=int(rng.integers(0, 2**31)))
        seen = np.concatenate([fa.test_indices(f) for f in range(k)])
        ok = ok and sorted(seen.tolist()) == list(range(labels.size))
        for f in range(k):
            fold_counts = np.bincount(labels[fa.test_indices(f)], minlength=m)
            ok = ok and bool(np.all(np.abs(fold_counts - counts / k) < 1.0))
        assert ok

    # pooled accuracy identity and byte-identical reports on a simulated set
    regime = calibrate_clean_regime(12, 12)
    ds = generate_dataset(regime.face, regime.ecg, regime.scenario, seed=3)
    k = 4
    report = run_experiment(ds, k=k, seed=3)
    fa = make_folds(ds.labels, k=k, seed=3)
    sizes = np.array([fa.test_indices(f).size for f in range(k)], dtype=float)
    pooled = {"acc_face": 0, "acc_ecg": 0, "acc_fused": 0, "acc_weighted_sum": 0}
    for f in range(k):
        tr, te = fa.train_indices(f), fa.test_indices(f)
        model = train_fusion_model(ds.face.take(tr), ds.ecg.take(tr), ds.labels[tr])
        w = compute_baseline_weights(
            accuracy(np.argmax(ds.face.values[tr], axis=1), ds.labels[tr]),
            accuracy(np.argmax(ds.ecg.values[tr], axis=1), ds.labels[tr]),
        )
        y = ds.labels[te]
        pooled["acc_face"] += int(np.sum(np.argmax(ds.face.values[te], axis=1) == y))
        pooled["acc_ecg"] += int(np.sum(np.argmax(ds.ecg.values[te], axis=1) == y))
        pooled["acc_fused"] += int(
            np.sum(predict_fused_batch(ds.face.values[te], ds.ecg.values[te], model) == y)
        )
        pooled["acc_weighted_sum"] += int(
            np.sum(predict_weighted_sum_batch(ds.face.values[te], ds.ecg.values[te], w) == y)
        )
    for name, correct in pooled.items():
        weighted = float(
            np.sum(sizes * np.array([getattr(f, name) for f in report.folds])) / sizes.sum()
        )
        ok = ok and abs(weighted - correct / ds.num_samples) <= 1e-12

    again = run_experiment(ds, k=k, seed=3)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    p1.write_text(format_report(report, "structured"))
    p2.write_text(format_report(again, "structured"))
    ok = ok and p1.read_bytes() == p2.read_bytes()
    check(9, ok, "exact cover, stratified within 1, pooled identity, byte-identical reports")


@pytest.mark.slow
def test_criterion_10_cli_end_to_end(tmp_path):
    # desk-preset simulate through the real interpreter entry point
    # the child runs the package this suite imported, even without PYTHONPATH
    src = str(Path(idfusion.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "idfusion.cli", "simulate", "--preset", "desk", "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    desk_elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and "avg" in proc.stdout and desk_elapsed < 10.0

    # exported scores evaluated by the CLI give the library report byte-for-byte
    scores_dir = tmp_path / "scores"
    assert (
        cli_main(
            ["simulate", "--preset", "desk", "--seed", "7",
             "--dump-scores", str(scores_dir),
             "--out", str(tmp_path / "sim.json"), "--format", "structured"]
        )
        == 0
    )
    cli_report = tmp_path / "cli.json"
    code = cli_main(
        ["evaluate",
         "--face", str(scores_dir / "face_scores.csv"),
         "--ecg", str(scores_dir / "ecg_scores.csv"),
         "--seed", "7", "--folds", "10",
         "--out", str(cli_report), "--format", "structured"]
    )
    ok = ok and code == 0
    dataset = load_paired_dataset(
        scores_dir / "face_scores.csv", scores_dir / "ecg_scores.csv"
    )
    lib_report = tmp_path / "lib.json"
    lib_report.write_text(format_report(run_experiment(dataset, k=10, seed=7, cfg=EvalConfig()), "structured"))
    ok = ok and cli_report.read_bytes() == lib_report.read_bytes()

    # designated exit codes: 1 usage, 2 data validation, 3 runtime
    ok = ok and cli_main(["no-such-command"]) == 1
    ok = ok and cli_main(["evaluate", "--face", "a.csv"]) == 1
    ok = ok and cli_main(
        ["evaluate", "--face", str(tmp_path / "nope.csv"), "--ecg", str(tmp_path / "nope2.csv")]
    ) == 2
    flat = tmp_path / "flat.txt"
    flat.write_text("\n".join(["1.0"] * 3000) + "\n")
    ok = ok and cli_main(["prep-ecg", "--in", str(flat), "--out", str(tmp_path / "o.txt")]) == 2
    ok = ok and cli_main(
        ["calibrate", "--target", "0.5", "--classes", "2", "--mean", "0.0"]
    ) == 3
    ok = ok and cli_main(
        ["simulate", "--subjects", "8", "--samples", "6", "--folds", "3",
         "--out", str(tmp_path / "no" / "dir" / "r.txt")]
    ) == 3
    check(
        10,
        ok,
        f"desk run {desk_elapsed:.1f}s; CLI evaluate is byte-identical to the library; "
        "exit codes 1/2/3 verified",
    )
