"""File formats: score matrices, experiment reports, configs, saved models.

Score files are plain CSV, one row per sample: ``sample_id, true_label``
followed by one confidence column per enrolled subject. The header's
confidence columns are named ``<modality>_<index>``, which carries both
the modality tag and the class count. Floats are written as their ``repr``
(by :func:`~idfusion.core.repr_rows`, in C) so a write/read round trip is
bit-exact. A score file is written in blocks of 16 rows, so a dump holds
one block's text in memory, not the whole file. The two files of a dump
are written at once, and the two files of a paired load are parsed at
once, each in its own forked child, with the same bytes, arrays and
errors as one after the other in this process. A score file is parsed in
blocks of about 1 MiB of text, so a load holds one block's text, not the
whole file: each line is split once into id, label and confidence text,
and orjson reads the block's confidences, spaces and tabs included, as
one JSON array of rows. A block that orjson cannot read exactly (a byte
outside its number syntax, a bare ``-0``, a token such as ``.5``, ``1_0``
or ``1e400``), or that holds a wrong field count or a repeated id, is
parsed again line by line with ``float()``, which names the first bad
line. Each block's rows are checked as soon as it is parsed; only the
label base waits for the last block.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .core import (
    ConfidenceMatrix, PairedDataset, ValidationError, as_confidence_vector, line_ref, read_lines, repr_rows,
)
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
    start with ``#``: score files have no comments. A fault is reported at
    the first row where the rows read so far prove it.
    """
    p = Path(path)
    modality, ids, labels, values = _parse_blocks(p, read_lines(p, "score file", comment=None), normalize)
    m = values.shape[1]
    y = np.asarray(labels, dtype=np.int64)  # every label is in [0, 2**63): the row checks saw to it
    lo, hi = int(y.min()), int(y.max())
    if 0 < lo and hi - lo < m - 1:  # bases lo - 1 and lo both fit every label
        raise ValidationError(
            f"{p}: ambiguous label base: labels {lo}..{hi} fit {m} classes "
            f"from any base in {max(0, hi - m + 1)}..{lo}"
        )
    y -= lo
    if normalize:
        values = as_confidence_vector(values, ndim=2, normalize=True)
    return ConfidenceMatrix(values=values, sample_ids=tuple(ids), modality=modality), y


def _parse_blocks(p: Path, blocks, normalize: bool) -> tuple[str, dict[str, None], list[int], np.ndarray]:
    """Check the header, then parse and check the data rows block by block.

    Returns the modality tag, the sample ids (an ordered set), the labels
    and the raw confidences.
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
    low, high = 2**63, 0  # the label range so far; no label at or above 2**63 fits a base
    for lines, block_numbers in itertools.chain([(first[0][1:], first[1][1:])], blocks):
        if lines:
            block_labels, values = _parse_block(p, lines, block_numbers, ids, m)
            labels += block_labels
            numbers += block_numbers
            low, high = min(low, min(block_labels)), max(high, max(block_labels))
            _check_rows(p, values, labels, numbers, low, high, normalize)
            chunks.append(values)
    if not chunks:
        raise ValidationError(f"{p}: no data rows")
    return modality, ids, labels, np.concatenate(chunks)


def _check_rows(p: Path, values: np.ndarray, labels, numbers, low: int, high: int, normalize: bool) -> None:
    """Reject the first bad row read so far, once a block's confidences ``values`` are parsed.

    ``labels`` and ``numbers`` cover every row so far, and ``low``..``high`` is their label range.
    The base can only fall, so every label must lie in ``[0, max(low, 0) + M)``; a label fault wins a tie.
    """
    m = values.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a too-wide or non-finite row: flagged below
        span = values.max(axis=1) - values.min(axis=1)
    faults = [
        (~np.isfinite(values).all(axis=1), "NaN or infinite confidence"),
        (span == 0.0, "constant score row ranks no class"),
        (span == np.inf, "score row span overflows float64; it cannot be normalized") if normalize else
        (((values < 0.0) | (values > 1.0)).any(axis=1), "confidence outside [0, 1] without normalization"),
    ]
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in faults]))
    k = len(labels) - len(values) + int(bad[0]) if bad.size else len(labels)
    limit = min(max(low, 0) + m, 2**63)
    if low < 0 or high >= limit:
        j = next(j for j, label in enumerate(labels) if not 0 <= label < limit)
        if j <= k:
            raise ValidationError(f"{line_ref(p, numbers[j])}: label out of range for {m} classes")
    if bad.size:
        raise ValidationError(f"{line_ref(p, numbers[k])}: " + next(text for mask, text in faults if mask[bad[0]]))


_JSON_NUMBER_BYTES = b"0123456789.eE+-, \t"  # with the join's brackets, the bytes of plain numbers and their spacing


def _parse_block(p: Path, lines, numbers, ids: dict[str, None], m: int) -> tuple[list[int], np.ndarray]:
    """Parse one block of data rows in bulk, adding their ids to ``ids``.

    Each line is split once into id, label and confidence text. orjson
    reads the block's confidences as one array of rows when every token is
    a JSON number it reads as ``float()`` does; any other block goes to :func:`_parse_rows`.
    """
    fields = [line.split(",", 2) for line in lines]
    try:
        new = dict.fromkeys(f[0].strip() for f in fields)
        labels = [int(f[1]) for f in fields]
        if len(new) == len(fields) and ids.keys().isdisjoint(new):
            values = _parse_json_rows([f[2] for f in fields])
            if values is not None and values.shape == (len(fields), m):
                ids.update(new)
                return labels, values
    except (IndexError, ValueError):
        pass
    # a short line, a bad number, a wrong column count or a repeated id: find it line by line
    return _parse_rows(p, lines, numbers, ids, m)


def _parse_json_rows(tails: list[str]) -> np.ndarray | None:
    """The confidence rows ``tails`` read by orjson, or None where its values could differ from ``float()``'s.

    Between the brackets of the join only digits, ``.eE+-``, commas, spaces and tabs may appear, and no
    token may be a bare ``-0``. Ragged rows, such as an empty tail among full ones, raise ``ValueError``.
    """
    import orjson  # on first use: a process that reads no score file, such as one fused decision, never loads it

    data = ("[[" + "],[".join(tails) + "]]").encode()
    if data.translate(None, _JSON_NUMBER_BYTES) != b"[[" + b"][" * (len(tails) - 1) + b"]]":
        return None
    b = np.frombuffer(data, np.uint8)
    minus, zero, comma, close = b"-0,]"
    after = b[2:]  # the admitted bytes <= "," are tab, space, "+" and ",": each ends a -0, or orjson rejects it
    # scanned in every block: each row of a normalized export holds a 0.0, so testing for a zero first skips nothing
    if ((b[:-2] == minus) & (b[1:-1] == zero) & ((after <= comma) | (after == close))).any():
        return None  # a bare -0, which orjson reads as the integer 0 (an e-0 exponent also lands here: same values)
    try:
        return np.array(orjson.loads(data), dtype=np.float64)
    except orjson.JSONDecodeError:  # .5, 1., +1, 01, 1e400 and the like: float() reads them, or fails
        return None


def _parse_rows(p: Path, lines, numbers, ids: dict[str, None], m: int) -> tuple[list[int], np.ndarray]:
    """Parse a block's rows one by one, naming the line of the first bad one.

    The fallback of :func:`_parse_block`: it reads the numbers orjson
    does not, such as ``.5``, ``1_0`` or a bare ``-0``, with ``float()``.
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


# rows formatted at once. At 87 classes a block is about 27 KB of text; 64-row blocks (106 KB, past
# glibc's 64 KiB consolidation size) grew the heap of a process that dumps again and again by 10 MB
_WRITE_BLOCK_ROWS = 16


def write_score_matrix(matrix: ConfidenceMatrix, labels, path) -> None:
    """Write one modality's scores in the CSV format ``load_score_matrix`` reads."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size != matrix.num_samples:
        raise ValidationError(f"{y.size} labels for {matrix.num_samples} rows")
    ids, y = matrix.sample_ids, y.tolist()
    for sid in ids:  # the reader ends a line at \n or \r, a field at a comma, and strips each id
        if "," in sid or "\n" in sid or "\r" in sid or sid != sid.strip():
            raise ValidationError(f"sample id {sid!r} would not read back from a score file")
    header = ["sample_id", "true_label"] + [
        f"{matrix.modality}_{j}" for j in range(matrix.num_classes)
    ]
    with open(path, "w") as f:  # the encoding and newlines of Path.write_text
        f.write(",".join(header) + "\n")
        for i in range(0, len(ids), _WRITE_BLOCK_ROWS):
            block = slice(i, i + _WRITE_BLOCK_ROWS)
            rows = repr_rows(matrix.values[block])
            f.write("".join(f"{sid},{label},{row}\n" for sid, label, row in zip(ids[block], y[block], rows)))


def load_paired_dataset(face_path, ecg_path, normalize: bool = True) -> PairedDataset:
    """Load and align the two modalities' score files into one dataset.

    The files must cover the same sample_ids with the same labels; the ECG
    rows are reordered to the face file's sample order if needed. A face
    file tagged ``ecg``, or an ECG file tagged ``face``, is rejected: the
    fused rule would silently swap sides. Any other tag is accepted.
    """
    (face, y_face), (ecg, y_ecg) = _fork_each(
        (lambda: load_score_matrix(face_path, normalize=normalize), f"{face_path}: reader"),
        (lambda: load_score_matrix(ecg_path, normalize=normalize), f"{ecg_path}: reader"),
    )
    for path, matrix, role, other in ((face_path, face, "face", "ecg"), (ecg_path, ecg, "ecg", "face")):
        if matrix.modality == other:
            raise ValidationError(
                f"{path}: given as the {role} score file, but its columns are tagged {other!r}"
            )
    if face.num_classes != ecg.num_classes:
        raise ValidationError(
            f"{face_path} has {face.num_classes} classes but {ecg_path} has {ecg.num_classes}"
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
    differ = np.flatnonzero(y_face != y_ecg)
    if differ.size:
        raise ValidationError(
            f"{face_path} and {ecg_path} disagree on the true label of sample {face.sample_ids[differ[0]]!r}"
        )
    return PairedDataset(face=face, ecg=ecg, labels=y_face)


def dump_dataset_scores(dataset: PairedDataset, directory) -> tuple[Path, Path]:
    """Export both modalities of a dataset as score CSVs; returns the paths."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    face_path = d / "face_scores.csv"
    ecg_path = d / "ecg_scores.csv"
    # core.repr_rows's orjson, imported here, not in each writer child: a process that dumps again and again pays once
    import orjson  # noqa: F401

    _fork_each(
        (lambda: write_score_matrix(dataset.face, dataset.labels, face_path), f"{face_path}: writer"),
        (lambda: write_score_matrix(dataset.ecg, dataset.labels, ecg_path), f"{ecg_path}: writer"),
    )
    return face_path, ecg_path


def _fork_each(*jobs) -> list:
    """Return ``[call() for call, name in jobs]``, running each call in its own forked child.

    The parsers and the writers hold the GIL, so threads would not overlap
    them. Each child pickles its result, or its exception (as
    ``RuntimeError(str(exc))`` if it cannot be rebuilt), straight into a
    pipe, and this process unpickles it from there, holding its arrays once.
    A child leaves by ``os._exit``: it runs no ``atexit`` handler and
    flushes no inherited stdio buffer. The error of the first failed job in
    argument order wins; a child that ends without a message raises
    ``OSError`` naming its job's ``name``. If a later fork fails, every
    child already started is read and reaped before the error propagates.
    Without ``os.fork`` the calls run in turn.
    """
    if not hasattr(os, "fork"):
        return [call() for call, _ in jobs]
    started: list[tuple[int, int]] = []  # (pid, read end) of each child so far
    try:
        for call, _ in jobs:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _run_child(call, w, [r] + [fd for _, fd in started])
            os.close(w)
            started.append((pid, r))
    finally:
        outcomes = []
        for pid, r in started:
            with open(r, "rb") as f:
                try:
                    outcome = pickle.load(f)
                except (EOFError, pickle.UnpicklingError):  # the child ended before it wrote it all
                    outcome = None
            outcomes.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), outcome))
    results = []
    for (code, outcome), (_, name) in zip(outcomes, jobs):
        if outcome is None:
            raise OSError(f"{name} process ended with status {code}")
        if not outcome[0]:
            raise outcome[1]
        results.append(outcome[1])
    return results


def _run_child(call, w: int, inherited: list[int]):
    """In a forked child: close the read ends it inherited, send ``call()``'s outcome down ``w``, and exit."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            outcome = (True, call())
        except BaseException as exc:
            outcome = (False, exc)
            try:
                pickle.loads(pickle.dumps(outcome))  # an exception that cannot be rebuilt there goes as its text
            except BaseException:
                outcome = (False, RuntimeError(str(exc)))
        with open(w, "wb") as f:
            pickle.dump(outcome, f, protocol=5)  # an array goes as one raw buffer, which the parent wraps
        status = 0
    finally:
        os._exit(status)


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
    systems = [f.name for f in fields(report.summary)]
    cols = ["fold", *(f"{name}(%)" for name in systems)]
    rows = [[str(r.fold_id), *(f"{100 * getattr(r, f'acc_{name}'):.3f}" for name in systems)] for r in report.folds]
    means = [getattr(report.summary, name) for name in systems]
    rows.append(["avg±std", *(f"{100 * m.mean:.3f}±{100 * m.std:.2f}" for m in means)])
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
