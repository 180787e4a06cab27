"""File formats: score matrices, experiment reports, configs, saved models.

Score files are plain CSV, one row per sample: ``sample_id, true_label``
followed by one confidence column per enrolled subject. The header's
confidence columns are named ``<modality>_<index>``, which carries both
the modality tag and the class count. Floats are written with ``repr`` so
a write/read round trip is bit-exact. A score file is written one row at
a time, so a dump holds one row's text in memory, not the whole file. The
two files of a dump are written at once, and the two files of a paired
load are parsed at once: the ECG file in a forked child, the face file in
this process, with the same bytes, arrays and errors as one after the
other. A score file is parsed in blocks of about 1 MiB of text, so a
load holds one block's text, not the whole file: each line is split once
into id, label and confidence text, and ``np.loadtxt`` converts the
block's confidences in one call. A block the bulk parse cannot take (a wrong
field count, a repeated id, a number only ``float()`` reads, such as
``1_0``) is parsed again line by line, which names the first bad line.
Checks that span rows (the label base, non-finite, constant and too-wide
rows, the [0, 1] range) run after the last block.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import ConfidenceMatrix, PairedDataset, ValidationError, as_confidence_vector, line_ref, read_lines
from .evaluation import ExperimentReport
from .fusion import DifferenceVector, FusionModel

__all__ = [
    "load_score_matrix",
    "write_score_matrix",
    "load_paired_dataset",
    "dump_dataset_scores",
    "render_report_text",
    "report_to_dict",
    "format_report",
    "json_text",
    "save_fusion_model",
    "load_fusion_model",
    "parse_config_file",
]


def load_score_matrix(path, normalize: bool = True) -> tuple[ConfidenceMatrix, np.ndarray]:
    """Parse one modality's score CSV into a matrix and its label vector.

    Labels are 0-based or start at another base ``b``; the base must be the
    only ``b >= 0`` that puts every label in ``[b, b + M)``, and labels are
    remapped to 0-based indices. With ``normalize`` (the default) every row
    is min-max rescaled; disable it for files that are already in [0, 1],
    and a row outside [0, 1] is rejected with its line.
    A constant row is rejected in both modes: its argmax would silently be
    class 0. So is a row with a NaN or infinite confidence, and, with
    ``normalize``, a row whose span max - min overflows. A sample id may
    start with ``#``: score files have no comments.
    """
    p = Path(path)
    modality, ids, labels, numbers, values = _parse_blocks(p, read_lines(p, "score file", comment=None))
    m = values.shape[1]
    try:
        y = np.asarray(labels, dtype=np.int64)
    except OverflowError:
        k = next(k for k, v in enumerate(labels) if not -(2**63) <= v < 2**63)
        raise ValidationError(f"{line_ref(p, numbers[k])}: label out of range for {m} classes") from None
    lo, hi = int(y.min()), int(y.max())
    if 0 < lo and hi - lo < m - 1:  # bases lo - 1 and lo both fit every label
        raise ValidationError(
            f"{p}: ambiguous label base: labels {lo}..{hi} fit {m} classes "
            f"from any base in {max(0, hi - m + 1)}..{lo}"
        )
    y -= max(lo, 0)
    bad = np.nonzero((y < 0) | (y >= m))[0]
    if bad.size:
        raise ValidationError(f"{line_ref(p, numbers[int(bad[0])])}: label out of range for {m} classes")
    bad = np.nonzero(~np.isfinite(values).all(axis=1))[0]
    if bad.size:
        raise ValidationError(f"{line_ref(p, numbers[int(bad[0])])}: NaN or infinite confidence")
    with np.errstate(over="ignore"):  # a finite row can still be too wide: checked below
        span = values.max(axis=1) - values.min(axis=1)
    flat = np.nonzero(span == 0.0)[0]
    if flat.size:
        raise ValidationError(f"{line_ref(p, numbers[int(flat[0])])}: constant score row ranks no class")
    if normalize:
        wide = np.nonzero(span == np.inf)[0]
        if wide.size:
            raise ValidationError(f"{line_ref(p, numbers[int(wide[0])])}: score row span overflows float64; it cannot be normalized")
        values = as_confidence_vector(values, ndim=2, normalize=True)
    else:
        bad = np.nonzero(((values < 0.0) | (values > 1.0)).any(axis=1))[0]
        if bad.size:
            raise ValidationError(f"{line_ref(p, numbers[int(bad[0])])}: confidence outside [0, 1] without normalization")
    return ConfidenceMatrix(values=values, sample_ids=tuple(ids), modality=modality), y


def _parse_blocks(p: Path, blocks) -> tuple[str, dict[str, None], list[int], list[int], np.ndarray]:
    """Check the header, then parse the data rows block by block.

    Returns the modality tag, the sample ids (an ordered set), the labels,
    the file line of each row and the raw confidences.
    """
    first = next(blocks, None)
    if first is None:
        raise ValidationError(f"{p}: empty score file")
    header = line_ref(p, first[1][0])
    cols = [c.strip() for c in first[0][0].split(",")]
    if len(cols) < 4 or cols[0] != "sample_id" or cols[1] != "true_label":
        raise ValidationError(f"{header}: header must be 'sample_id,true_label,<modality>_0,...'")
    conf_cols = cols[2:]
    m = len(conf_cols)
    modality, _, first_idx = conf_cols[0].rpartition("_")
    if not modality or first_idx != "0":
        raise ValidationError(f"{header}: first confidence column must be '<modality>_0'")
    if conf_cols != [f"{modality}_{j}" for j in range(m)]:
        raise ValidationError(f"{header}: confidence columns must be {modality}_0..{modality}_{m - 1}")

    ids: dict[str, None] = {}  # an ordered set
    labels: list[int] = []
    numbers: list[int] = []
    chunks: list[np.ndarray] = []
    for lines, block_numbers in itertools.chain([(first[0][1:], first[1][1:])], blocks):
        if lines:
            block_labels, values = _parse_block(p, lines, block_numbers, ids, m)
            labels += block_labels
            numbers += block_numbers
            chunks.append(values)
    if not chunks:
        raise ValidationError(f"{p}: no data rows")
    return modality, ids, labels, numbers, np.concatenate(chunks)


def _parse_block(p: Path, lines, numbers, ids: dict[str, None], m: int) -> tuple[list[int], np.ndarray]:
    """Parse one block of data rows in bulk, adding their ids to ``ids``.

    Each line is split once into id, label and confidence text, and
    ``np.loadtxt`` converts the block's confidences in one call. A block the
    bulk parse cannot take goes to :func:`_parse_rows`.
    """
    fields = [line.split(",", 2) for line in lines]
    try:
        new = dict.fromkeys(f[0].strip() for f in fields)
        labels = [int(f[1]) for f in fields]
        tails = [f[2] for f in fields]
        # loadtxt skips an empty tail ("a,0,"), and warns if every tail is
        if all(tails) and len(new) == len(fields) and ids.keys().isdisjoint(new):
            values = np.loadtxt(tails, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
            if values.shape == (len(fields), m):
                ids.update(new)
                return labels, values
    except (IndexError, ValueError):
        pass
    # a short line, a bad number, a wrong column count or a repeated id: find it line by line
    return _parse_rows(p, lines, numbers, ids, m)


def _parse_rows(p: Path, lines, numbers, ids: dict[str, None], m: int) -> tuple[list[int], np.ndarray]:
    """Parse a block's rows one by one, naming the line of the first bad one.

    The fallback of :func:`_parse_block`: it also accepts the numbers
    ``float()`` reads and ``np.loadtxt`` does not, such as ``1_0``.
    """
    labels: list[int] = []
    rows: list[list[float]] = []
    for line, n in zip(lines, numbers):
        parts = line.split(",")  # int() and float() ignore the spaces around a field
        if len(parts) != m + 2:
            raise ValidationError(f"{line_ref(p, n)}: expected {m + 2} fields, got {len(parts)}")
        sid = parts[0].strip()
        if sid in ids:
            raise ValidationError(f"{line_ref(p, n)}: duplicate sample_id {sid!r}")
        try:
            label = int(parts[1])
            conf = [float(x) for x in parts[2:]]
        except ValueError as exc:
            raise ValidationError(f"{line_ref(p, n)}: non-numeric field") from exc
        ids[sid] = None
        labels.append(label)
        rows.append(conf)
    return labels, np.asarray(rows, dtype=np.float64)


def write_score_matrix(matrix: ConfidenceMatrix, labels, path) -> None:
    """Write one modality's scores in the CSV format ``load_score_matrix`` reads."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size != matrix.num_samples:
        raise ValidationError(f"{y.size} labels for {matrix.num_samples} rows")
    header = ["sample_id", "true_label"] + [
        f"{matrix.modality}_{j}" for j in range(matrix.num_classes)
    ]
    with open(path, "w") as f:  # the encoding and newlines of Path.write_text
        f.write(",".join(header) + "\n")
        for sid, label, row in zip(matrix.sample_ids, y.tolist(), matrix.values):
            f.write(f"{sid},{label}," + ",".join(map(repr, row.tolist())) + "\n")


def load_paired_dataset(face_path, ecg_path, normalize: bool = True) -> PairedDataset:
    """Load and align the two modalities' score files into one dataset.

    The files must cover the same sample_ids with the same labels; the ECG
    rows are reordered to the face file's sample order if needed. A face
    file tagged ``ecg``, or an ECG file tagged ``face``, is rejected: the
    fused rule would silently swap sides. Any other tag is accepted.
    """
    (face, y_face), (ecg, y_ecg) = _fork_pair(
        lambda: load_score_matrix(face_path, normalize=normalize),
        lambda: load_score_matrix(ecg_path, normalize=normalize),
        f"{ecg_path}: reader",
    )
    for path, matrix, role, other in ((face_path, face, "face", "ecg"), (ecg_path, ecg, "ecg", "face")):
        if matrix.modality == other:
            raise ValidationError(
                f"{path}: given as the {role} score file, but its columns are tagged {other!r}"
            )
    if set(face.sample_ids) != set(ecg.sample_ids):
        only_face = set(face.sample_ids) - set(ecg.sample_ids)
        only_ecg = set(ecg.sample_ids) - set(face.sample_ids)
        raise ValidationError(
            f"modality files cover different samples "
            f"({len(only_face)} only in {face_path}, {len(only_ecg)} only in {ecg_path})"
        )
    if face.sample_ids != ecg.sample_ids:
        pos = {sid: i for i, sid in enumerate(ecg.sample_ids)}
        order = [pos[sid] for sid in face.sample_ids]
        ecg = ecg.take(order)
        y_ecg = y_ecg[order]
    if not np.array_equal(y_face, y_ecg):
        raise ValidationError("modality files disagree on true labels")
    return PairedDataset(face=face, ecg=ecg, labels=y_face)


def dump_dataset_scores(dataset: PairedDataset, directory) -> tuple[Path, Path]:
    """Export both modalities of a dataset as score CSVs; returns the paths."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    face_path = d / "face_scores.csv"
    ecg_path = d / "ecg_scores.csv"
    _fork_pair(
        lambda: write_score_matrix(dataset.face, dataset.labels, face_path),
        lambda: write_score_matrix(dataset.ecg, dataset.labels, ecg_path),
        f"{ecg_path}: writer",
    )
    return face_path, ecg_path


def _fork_pair(here, there, child: str):
    """Return ``(here(), there())``, running ``there`` in a forked child.

    The parser and the writer hold the GIL, so a thread would not overlap
    them. The child sends back its result, or its exception (as
    ``RuntimeError(str(exc))`` if it cannot be rebuilt), pickled through a
    pipe, with array data out of band so this process holds it once. It
    leaves by ``os._exit``: it runs no ``atexit`` handler and flushes no
    inherited stdio buffer. An error of ``here`` wins; a child that ends
    without a message raises ``OSError`` naming ``child``. Without
    ``os.fork`` the two run in turn.
    """
    if not hasattr(os, "fork"):
        return here(), there()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            buffers: list[pickle.PickleBuffer] = []
            try:
                message = pickle.dumps((True, there()), protocol=5, buffer_callback=buffers.append)
            except BaseException as exc:
                buffers.clear()
                try:
                    message = pickle.dumps((False, exc))
                    pickle.loads(message)  # an exception that cannot be rebuilt there goes as its text
                except BaseException:
                    message = pickle.dumps((False, RuntimeError(str(exc))))
            with open(w, "wb") as f:
                pickle.dump(([b.raw().nbytes for b in buffers], message), f)
                for b in buffers:
                    f.write(b.raw())
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        mine = here()
    finally:
        outcome = None
        with open(r, "rb") as f:
            try:
                sizes, message = pickle.load(f)
                buffers = [bytearray(n) for n in sizes]
                if all(f.readinto(b) == len(b) for b in buffers):
                    outcome = pickle.loads(message, buffers=buffers)
            except (EOFError, pickle.UnpicklingError):  # the child ended before it wrote it all
                pass
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if outcome is None:
        raise OSError(f"{child} process ended with status {code}")
    if not outcome[0]:
        raise outcome[1]
    return mine, outcome[1]


# -- experiment reports -------------------------------------------------


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": asdict(report.config),
        "folds": [asdict(f) for f in report.folds],
        "summary": asdict(report.summary),
    }


def render_report_text(report: ExperimentReport) -> str:
    """Human-readable per-fold table with an aggregate row."""
    c = report.config
    head = (
        f"scenario: {c.scenario}  seed: {c.seed}  folds: {c.folds}  "
        f"bound: {c.bound}  rank_depth: {c.rank_depth}  "
        f"samples: {c.n_samples}  classes: {c.n_classes}"
    )
    cols = ["fold", "face(%)", "ecg(%)", "fused(%)", "weighted_sum(%)"]
    rows = [
        [
            str(f.fold_id),
            f"{100 * f.acc_face:.3f}",
            f"{100 * f.acc_ecg:.3f}",
            f"{100 * f.acc_fused:.3f}",
            f"{100 * f.acc_weighted_sum:.3f}",
        ]
        for f in report.folds
    ]
    s = report.summary
    rows.append(
        [
            "avg±std",
            f"{100 * s.face.mean:.3f}±{100 * s.face.std:.2f}",
            f"{100 * s.ecg.mean:.3f}±{100 * s.ecg.std:.2f}",
            f"{100 * s.fused.mean:.3f}±{100 * s.fused.std:.2f}",
            f"{100 * s.weighted_sum.mean:.3f}±{100 * s.weighted_sum.std:.2f}",
        ]
    )
    widths = [max(len(r[i]) for r in rows + [cols]) for i in range(len(cols))]
    lines = [head, "  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in rows]
    return "\n".join(lines) + "\n"


def format_report(report: ExperimentReport, fmt: str = "text") -> str:
    """A report as 'text' (the fold table) or 'structured' (JSON)."""
    if fmt == "text":
        return render_report_text(report)
    if fmt == "structured":
        return json_text(report_to_dict(report))
    raise ValidationError(f"unknown report format {fmt!r}")


def json_text(doc) -> str:
    """The JSON form of every structured output: two-space indent, sorted keys, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- fusion model persistence -------------------------------------------


def save_fusion_model(model: FusionModel, path) -> None:
    doc = {
        "modality_order": list(model.modality_order),
        "bound": model.difference.bound,
        "difference": [float(v) for v in model.difference.values],
    }
    Path(path).write_text(json_text(doc))


def _is_number(x) -> bool:
    """A JSON number: an int or a float, not a bool and not a numeric string."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_fusion_model(path) -> FusionModel:
    try:
        doc = json.loads(Path(path).read_text())
        order, bound, difference = doc["modality_order"], doc["bound"], doc["difference"]
        if not (isinstance(order, list) and len(order) == 2 and all(isinstance(m, str) for m in order)):
            raise TypeError("modality_order must be a list of two strings")
        if not _is_number(bound):
            raise TypeError("bound must be a number")
        if not (isinstance(difference, list) and all(map(_is_number, difference))):
            raise TypeError("difference must be a list of numbers")
        difference = DifferenceVector(values=np.asarray(difference, dtype=np.float64), bound=float(bound))
        return FusionModel(difference=difference, modality_order=tuple(order))
    except OSError as exc:
        raise ValidationError(f"cannot read model {path}: {exc}") from exc
    # ValueError: bad UTF-8 or JSON, or a model the fusion types reject (ValidationError);
    # OverflowError: an integer too large for a float; RecursionError: JSON nested too deep
    except (ValueError, OverflowError, RecursionError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: not a fusion model file: {exc}") from exc


# -- flat key-value config files ----------------------------------------


def parse_config_file(path) -> dict[str, str]:
    """Read a flat ``key = value`` config; keys match CLI flag names."""
    p = Path(path)
    out: dict[str, str] = {}
    for lines, numbers in read_lines(p, "config"):
        for line, n in zip(lines, numbers):
            if "=" not in line:
                raise ValidationError(f"{line_ref(p, n)}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ValidationError(f"{line_ref(p, n)}: empty key or value")
            if key in out:
                raise ValidationError(f"{line_ref(p, n)}: duplicate key {key!r}")
            out[key] = value
    return out
