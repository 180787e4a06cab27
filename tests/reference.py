"""Independent reference implementations, fixture builders and a child-process environment for the tests.

Everything here is deliberately plain and unoptimized so it can serve as
an oracle for the library's vectorized paths: straight-line loops, list
arithmetic, and a Gauss-Hermite quadrature that shares no code with the
calibration's trapezoidal rule it cross-checks.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import idfusion
from idfusion.evaluation import make_folds


def rank_indices_reference(values, n):
    """Brute-force top-n ranking: sort by (-value, index), take the first n."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return order[:n]


def subject_scores_reference(
    confidences,
    labels,
    samples_per_class,
    rank_depth=5,
    clamp_floor=0.0,
):
    """Straight-line transcription of the award/punish scoring loop.

    Processes one sample at a time with no batching or reordering: rank the
    sample's confidences, award the true subject 1 - gap, subtract the gap
    from the top-predicted subject, clamp that one entry, and finally divide
    by the per-class sample count.
    """
    rows = [list(map(float, r)) for r in confidences]
    y = [int(v) for v in labels]
    m = len(rows[0])
    scores = [0.0] * m
    for c, true in zip(rows, y):
        order = sorted(range(m), key=lambda i: (-c[i], i))
        if order[0] == true:
            gap = 0.0
        else:
            gap = 1.0
            for r in range(1, rank_depth):
                if order[r] == true:
                    gap = c[order[0]] - c[order[r]]
                    break
        scores[true] += 1.0 - gap
        top = order[0]
        scores[top] -= gap
        if scores[top] < clamp_floor:
            scores[top] = clamp_floor
    return [s / samples_per_class for s in scores]


def experiment_reference(face, ecg, labels, k, seed, bound, rank_depth):
    """Straight-line transcription of the k-fold experiment: its fold rows and out-of-fold decisions.

    Only the fold assignment comes from the library (``make_folds`` has tests of its own).
    Each fold fits both modalities' subject scores on its training rows, in sample order,
    with :func:`subject_scores_reference`, rescales ECG minus face to peak at ``bound``,
    weights the baseline by the two training top-1 accuracies, and decides each test sample
    by explicit per-class sums, taking the first maximum. Returns ``(rows, decisions)``: per
    fold a dict of ``FoldResult`` fields, and per system (face, ecg, fused, weighted_sum) a
    list with every sample's decision. A fold where both modalities miss every training
    sample has no baseline weights and raises ``ZeroDivisionError``.
    """
    face = [list(map(float, r)) for r in face]
    ecg = [list(map(float, r)) for r in ecg]
    y = [int(v) for v in labels]
    n, m = len(y), len(face[0])
    fold_of = [int(f) for f in make_folds(y, k, seed).fold_of_sample]

    def first_max(values):
        best = 0
        for j in range(1, len(values)):
            if values[j] > values[best]:
                best = j
        return best

    def hits(decided, samples):
        return sum(1 for i in samples if decided[i] == y[i])

    decisions = {
        "face": [first_max(r) for r in face],
        "ecg": [first_max(r) for r in ecg],
        "fused": [None] * n,
        "weighted_sum": [None] * n,
    }
    rows = []
    for fold in range(k):
        train = [i for i in range(n) if fold_of[i] != fold]
        test = [i for i in range(n) if fold_of[i] == fold]
        y_train = [y[i] for i in train]
        s_face = subject_scores_reference([face[i] for i in train], y_train, len(train) / m, rank_depth)
        s_ecg = subject_scores_reference([ecg[i] for i in train], y_train, len(train) / m, rank_depth)
        raw = [e - f for e, f in zip(s_ecg, s_face)]
        peak = max(abs(v) for v in raw)
        d = [v / peak * bound for v in raw] if peak else raw
        acc_face = hits(decisions["face"], train) / len(train)
        acc_ecg = hits(decisions["ecg"], train) / len(train)
        w_face = acc_face / (acc_face + acc_ecg)
        w_ecg = acc_ecg / (acc_face + acc_ecg)
        for i in test:
            fused = [face[i][j] * (0.5 - d[j]) + ecg[i][j] * (0.5 + d[j]) for j in range(m)]
            decisions["fused"][i] = first_max(fused)
            weighted = [face[i][j] * w_face + ecg[i][j] * w_ecg for j in range(m)]
            decisions["weighted_sum"][i] = first_max(weighted)
        accs = {f"acc_{name}": hits(decided, test) / len(test) for name, decided in decisions.items()}
        rows.append({"fold_id": fold, **accs, "error_count_fused": len(test) - hits(decisions["fused"], test)})
    return rows, decisions


def rank1_accuracy_quadrature(true_class_mean, sigma, num_classes, nodes=301):
    """Probability that the true class wins, by Gauss-Hermite quadrature.

    The true class score is mean + sigma*z0 and each of the other
    num_classes - 1 scores is sigma*z; integrating P(all others below) over
    z0 gives E[Phi(z0 + mean/sigma)^(M-1)].
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    z = math.sqrt(2.0) * x + true_class_mean / sigma
    phi = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    return float(np.sum(w * phi ** (num_classes - 1)) / math.sqrt(math.pi))


def make_pulse_train(
    rng,
    duration_seconds=5.0,
    sample_rate=512,
    first_pulse_second_range=(0.2, 0.9),
    pulse_period_range=(0.6, 1.0),
    pulse_half_width=6,
    amplitude_range=(0.85, 1.0),
    noise_level=0.05,
):
    """Synthetic signal with triangular spikes over low-level noise.

    Returns (samples, apex_index) where apex_index is the first spike's
    apex. Spike amplitudes all sit above the detector threshold and the
    noise floor stays well below it, so the first spike is the peak a
    correct detector must report.
    """
    n = int(round(duration_seconds * sample_rate))
    samples = rng.uniform(0.0, noise_level, n)
    first = int(round(rng.uniform(*first_pulse_second_range) * sample_rate))
    period = rng.uniform(*pulse_period_range)
    apexes = []
    t = first
    while t < n - pulse_half_width:
        apexes.append(t)
        t += int(round(period * sample_rate))
    for apex in apexes:
        amp = rng.uniform(*amplitude_range)
        for k in range(-pulse_half_width, pulse_half_width + 1):
            idx = apex + k
            if 0 <= idx < n:
                rise = 1.0 - abs(k) / (pulse_half_width + 1)
                samples[idx] = max(samples[idx], amp * rise)
    return samples, apexes[0]


def child_env():
    """A copy of ``os.environ`` for a child Python that must import this process's ``idfusion``.

    The parent directory of that package goes first on ``PYTHONPATH``: ``src`` when the
    tests run from the source tree, site-packages when they run against an installed copy.
    """
    package_root = str(Path(idfusion.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
