"""Shared domain types, the ingestion kernel and the line reader.

Everything downstream (subject scoring, fusion, evaluation) works on
per-sample confidence vectors: one float per enrolled subject, rescaled
into [0, 1] at ingestion so that scores from different models are
commensurate. :func:`as_confidence_vector` is the one place that decides
what a confidence row is and how a raw score row becomes one; a constant
raw row ranks no class and is an error, in the library as in the CLI.
This module also owns the line reader every text input format is parsed
from.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ValidationError",
    "ConfidenceMatrix",
    "PairedDataset",
    "as_confidence_vector",
    "as_label_vector",
    "line_ref",
    "read_lines",
]


class ValidationError(ValueError):
    """Input data violates a documented contract (bad shape, range, or value)."""


_READ_BLOCK_CHARS = 1 << 20  # text per block: a block, not the file, is in memory at once


def line_ref(path, line: int) -> str:
    """``path:line``: how an error names a line of an input file."""
    return f"{path}:{line}"


def read_lines(path, what: str, comment: str | None = "#") -> Iterator[tuple[list[str], Sequence[int]]]:
    """The stripped data lines of a text file, parsed in blocks: ``for lines, numbers in read_lines(...)``.

    Each block is a ``(lines, numbers)`` pair for about 1 MiB of text that ends at a line end;
    ``numbers`` is a sequence (a ``range`` when the block skipped no line, else a list), and
    ``numbers[k]`` is the 1-based file line of ``lines[k]``, for :func:`line_ref` in errors. Blank
    lines are skipped, and so are lines starting with ``comment`` (``None``: no comments). Lines end
    at ``\\n``, ``\\r\\n`` or ``\\r`` only, as when iterating over a text file; other characters
    that :meth:`str.splitlines` breaks at, such as a form feed, stay in the line.
    An unreadable or undecodable file raises :class:`ValidationError` "cannot read <what> <path>: ...".
    Nothing past a block is read until the caller asks for the next one, so the first fault in file
    order is reported: a caller that rejects a line stops the read there, and an undecodable byte in
    a later block is never reached. A block is decoded before it is yielded, so an undecodable byte
    in the same block as a bad line is the fault reported.
    """
    p = Path(path)
    try:
        with open(p) as f:  # the encoding and newlines of Path.read_text: \r\n and \r read as \n
            n = 0  # lines before this block
            while text := f.read(_READ_BLOCK_CHARS):
                text += f.readline()  # the block ends where its last line does
                raw = [line.strip() for line in text.split("\n")]
                if not raw[-1]:  # after the block's last newline, or a blank last line of the file
                    raw.pop()
                if all(raw) and (comment is None or comment not in text):  # nothing to skip
                    lines, numbers = raw, range(n + 1, n + 1 + len(raw))
                else:
                    lines = [line for line in raw if line and line[0] != comment]
                    numbers = [k for k, line in enumerate(raw, n + 1) if line and line[0] != comment]
                if lines:
                    yield lines, numbers
                n += len(raw)
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            try:  # decoded whole, the error gives the bad byte's offset in the file, not in a block
                p.read_text()
            except (OSError, UnicodeDecodeError) as whole:
                exc = whole
        raise ValidationError(f"cannot read {what} {p}: {exc}") from exc


def as_confidence_vector(
    values, *, name: str = "confidence vector", ndim: int = 1, normalize: bool = False
) -> np.ndarray:
    """Validate and return float64 confidence vectors, one per row of the last axis.

    ``ndim`` is 1 for a single vector and 2 for an N x M matrix of them.
    Requires at least 2 classes and finite entries. With ``normalize`` each
    raw row is min-max rescaled into [0, 1] as ``(v - lo) / (hi - lo)``, and
    a constant row, which ranks no class, is an error, as is a row whose
    span ``hi - lo`` overflows to infinity; without it the
    values must already lie inside [0, 1]. That range check is also the
    finiteness check: ``min`` and ``max`` propagate a NaN, and an infinity
    lies outside [0, 1], so the entries are scanned for NaN or infinity
    only when it fails, and a non-finite entry is still reported first.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {v.shape}")
    if v.shape[-1] < 2:
        raise ValidationError(f"{name} needs at least 2 classes, got {v.shape[-1]}")
    # raw rows have no range to check it against, so with normalize the scan always runs
    in_range = not normalize and (not v.size or (0.0 <= v.min() and v.max() <= 1.0))
    if not in_range and not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    if normalize:
        lo = v.min(axis=-1, keepdims=True)
        with np.errstate(over="ignore"):  # a finite row can still be too wide: checked below
            span = v.max(axis=-1, keepdims=True) - lo
        if np.any(span == 0.0):
            raise ValidationError(f"{name} has a constant row, which ranks no class")
        if np.any(span == np.inf):
            raise ValidationError(f"{name} has a row whose span max - min overflows float64")
        return (v - lo) / span
    if not in_range:
        raise ValidationError(
            f"{name} has values outside [0, 1] (min={v.min()}, max={v.max()}); "
            "normalize before use"
        )
    return v


def as_label_vector(labels, num_classes: int | None = None, *, name: str = "labels") -> np.ndarray:
    """Validate and return a 1-D int64 label vector with entries in [0, num_classes).

    Without ``num_classes`` any non-negative integer label is accepted.
    """
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {y.shape}")
    if y.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.issubdtype(y.dtype, np.integer):
        y = np.asarray(labels, dtype=np.float64)
        if not np.all(y == np.floor(y)):
            raise ValidationError(f"{name} must contain integers")
    # check the given values, before the cast can wrap them
    bound = np.inf if num_classes is None else num_classes
    if y.min() < 0 or y.max() >= bound:
        raise ValidationError(f"{name} out of range [0, {bound}): min={y.min()}, max={y.max()}")
    if y.max() >= 2**63:
        raise ValidationError(f"{name} exceed the int64 range: max={y.max()}")
    return y.astype(np.int64)


@dataclass(frozen=True)
class ConfidenceMatrix:
    """Per-sample confidence vectors for one modality.

    ``values`` is N x M (samples x enrolled subjects), every entry in [0, 1].
    ``sample_ids`` are unique and aligned with the rows.
    """

    values: np.ndarray
    sample_ids: tuple[str, ...]
    modality: str

    def __post_init__(self):
        v = as_confidence_vector(self.values, name="confidence matrix", ndim=2)
        ids = tuple(str(s) for s in self.sample_ids)
        if len(ids) != v.shape[0]:
            raise ValidationError(
                f"{len(ids)} sample ids for {v.shape[0]} rows"
            )
        if len(set(ids)) != len(ids):
            raise ValidationError("sample ids must be unique")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "sample_ids", ids)

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]

    def take(self, indices) -> "ConfidenceMatrix":
        """Sub-matrix for the given sample positions, order preserved."""
        idx = np.asarray(indices, dtype=np.int64)
        return ConfidenceMatrix(
            values=self.values[idx],  # fancy indexing already copies
            sample_ids=tuple(self.sample_ids[i] for i in idx),
            modality=self.modality,
        )


@dataclass(frozen=True)
class PairedDataset:
    """Aligned confidence matrices for the two modalities plus ground truth.

    Row i of both matrices and ``labels[i]`` all describe the same physical
    sample, which is what lets per-fold results combine directly.
    """

    face: ConfidenceMatrix
    ecg: ConfidenceMatrix
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.face.values.shape != self.ecg.values.shape:
            raise ValidationError(
                f"modality shapes differ: {self.face.values.shape} vs {self.ecg.values.shape}"
            )
        if self.face.sample_ids != self.ecg.sample_ids:
            raise ValidationError("modalities must cover the same samples in the same order")
        y = as_label_vector(self.labels, self.face.num_classes)
        if y.size != self.face.num_samples:
            raise ValidationError(
                f"{y.size} labels for {self.face.num_samples} samples"
            )
        y.setflags(write=False)
        object.__setattr__(self, "labels", y)

    @property
    def num_samples(self) -> int:
        return self.face.num_samples

    @property
    def num_classes(self) -> int:
        return self.face.num_classes
