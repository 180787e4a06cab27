"""Metric definitions: end-to-end metrics of the untraced run, per-layer metrics of the traced run.

Per-layer values are totals per timed operation (one command, one decision
or one recording), so a layer's ``.ms`` reads as its share of
``call_ms.p50``. A function the workload calls only while setting up
(fuse-single trains, saves and loads its model there) reports its total
per set-up instead. A function the workload never calls reports 0.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence

import numpy as np

from tracer import SETUP, Tracer

# (name, unit); bounds and directions live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("call_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, kind, key): kind says how the value is computed from the trace
LAYER_METRICS = (
    ("simulator.calibrate.ms", "ms", "ms", "simulator.calibrate"),
    ("simulator.calibrate.calls", "count", "calls", "simulator.calibrate"),
    ("simulator.calibrate.normals_drawn", "count", "counter", "simulator.normals_drawn"),
    ("simulator.generate_dataset.ms", "ms", "ms", "simulator.generate_dataset"),
    ("evaluation.run_experiment.ms", "ms", "ms", "evaluation.run_experiment"),
    ("evaluation.evaluate_fold.self_ms", "ms", "self_ms", "evaluation.evaluate_fold"),
    ("evaluation.evaluate_fold.calls", "count", "calls", "evaluation.evaluate_fold"),
    ("evaluation.train_fusion_model.ms", "ms", "ms", "evaluation.train_fusion_model"),
    ("evaluation.make_folds.ms", "ms", "ms", "evaluation.make_folds"),
    ("scoring.compute_subject_scores.ms", "ms", "ms", "scoring.compute_subject_scores"),
    ("scoring.compute_subject_scores.calls", "count", "calls", "scoring.compute_subject_scores"),
    ("scoring.rows_scored", "count", "counter", "scoring.rows_scored"),
    ("scoring.rows_per_distinct_row", "ratio", "distinct", "scoring.compute_subject_scores"),
    ("core.ConfidenceMatrix.take.ms", "ms", "ms", "core.ConfidenceMatrix.take"),
    ("core.ConfidenceMatrix.take.bytes_copied", "bytes", "counter", "core.take.bytes_copied"),
    ("core.minmax_normalize_rows.ms", "ms", "ms", "core.minmax_normalize_rows"),
    ("core.as_confidence_vector.calls", "count", "calls", "core.as_confidence_vector"),
    ("core.as_confidence_vector.us", "us", "us", "core.as_confidence_vector"),
    ("fusion.predict_fused.us", "us", "us", "fusion.predict_fused"),
    ("fusion.predict_fused_batch.ms", "ms", "ms", "fusion.predict_fused_batch"),
    ("fusion.predict_weighted_sum_batch.ms", "ms", "ms", "fusion.predict_weighted_sum_batch"),
    ("io.write_score_matrix.ms", "ms", "ms", "io.write_score_matrix"),
    ("io.write_score_matrix.bytes", "bytes", "counter", "io.write_bytes"),
    ("io.write_MBps", "MB/s", "rate", ("io.write_bytes", "io.write_score_matrix")),
    ("io.save_fusion_model.ms", "ms", "ms", "io.save_fusion_model"),
    ("io.load_score_matrix.ms", "ms", "ms", "io.load_score_matrix"),
    ("io.load_score_matrix.bytes", "bytes", "counter", "io.read_bytes"),
    ("io.read_MBps", "MB/s", "rate", ("io.read_bytes", "io.load_score_matrix")),
    ("io.load_paired_dataset.self_ms", "ms", "self_ms", "io.load_paired_dataset"),
    ("io.report_to_dict.ms", "ms", "ms", "io.report_to_dict"),
    ("io.load_fusion_model.ms", "ms", "ms", "io.load_fusion_model"),
    ("ecg.read_signal.ms", "ms", "ms", "ecg.read_signal"),
    ("ecg.read_signal.bytes", "bytes", "counter", "ecg.read_bytes"),
    ("ecg.preprocess.ms", "ms", "ms", "ecg.preprocess"),
    ("ecg.write_signal.ms", "ms", "ms", "ecg.write_signal"),
    ("cli.main.ms", "ms", "ms", "cli.main"),
    ("cli.self_ms", "ms", "self_ms", "cli.main"),
    ("trace.overhead_frac", "ratio", "overhead", None),
)

_NS_PER = {"ms": 1e6, "us": 1e3, "self_ms": 1e6}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(call_ns: Sequence[int], setup_s: Sequence[float], peak_rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "call_ms.p50": statistics.median(call_ns) / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_values(tracer: Tracer, plain_ns: Sequence[int], traced_ns: Sequence[int]) -> dict:
    """Every per-layer metric from one traced run."""
    spans = tracer.span_table()
    name_id = {n: i for i, n in enumerate(tracer.names)}
    ops = max(tracer.ops, 1)

    def phase(mask_timed: np.ndarray, mask_setup: np.ndarray):
        # the timed loop wins; set-up only speaks for functions the loop never calls
        if mask_timed.any():
            return mask_timed, ops
        return mask_setup, 1

    def span_phase(key):
        of_name = spans["name"] == name_id.get(key, -1)
        return phase(of_name & (spans["op"] >= 0), of_name & (spans["op"] == SETUP))

    def counter(key):
        timed = sum(v for (op, k), v in tracer.counters.items() if k == key and op >= 0)
        if timed:
            return timed, ops
        return sum(v for (op, k), v in tracer.counters.items() if k == key and op == SETUP), 1

    out = {}
    for metric, _unit, kind, key in LAYER_METRICS:
        if kind in _NS_PER:
            mask, n = span_phase(key)
            col = spans["self" if kind == "self_ms" else "dur"]
            out[metric] = float(col[mask].sum()) / n / _NS_PER[kind]
        elif kind == "calls":
            mask, n = span_phase(key)
            out[metric] = float(mask.sum()) / n
        elif kind == "counter":
            total, n = counter(key)
            out[metric] = total / n
        elif kind == "rate":
            total, _ = counter(key[0])
            mask, _ = span_phase(key[1])
            seconds = spans["dur"][mask].sum() / 1e9
            out[metric] = total / seconds / 1e6 if seconds else 0.0
        elif kind == "distinct":
            timed = [op for op in tracer.row_hashes if op >= 0]
            chosen = timed or [op for op in tracer.row_hashes if op == SETUP]
            ratios = [
                sum(h.size for h in tracer.row_hashes[op])
                / np.unique(np.concatenate(tracer.row_hashes[op])).size
                for op in chosen
            ]
            out[metric] = statistics.fmean(ratios) if ratios else 0.0
        elif kind == "overhead":
            out[metric] = statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
    return out
