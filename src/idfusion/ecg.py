"""Single-lead ECG conditioning: rescale, center, align to the first R peak.

The chain prepares raw recordings for a fixed-input-length classifier:
amplitudes are min-max rescaled, the mean is removed, the first R peak is
located (R peaks being the dominant positive spikes), and the signal is
cut to a fixed-duration window starting at that peak. The emitted window
is re-centered so it is itself zero-mean. At the default 512 Hz and 4 s
window the output is always exactly 2048 samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import ValidationError, as_confidence_vector, line_ref, read_lines, repr_rows

__all__ = [
    "EcgSignal",
    "PeakDetectorConfig",
    "DegenerateSignalError",
    "PeakDetectionError",
    "InsufficientDataError",
    "normalize_amplitude",
    "zero_mean",
    "find_first_r_peak",
    "gate_signal",
    "preprocess",
    "read_signal",
    "write_signal",
]

DEFAULT_SAMPLE_RATE = 512.0
DEFAULT_GATE_SECONDS = 4.0


class DegenerateSignalError(ValidationError):
    """The signal is constant and cannot be amplitude-normalized."""


class PeakDetectionError(ValidationError):
    """No qualifying R peak inside the search window."""


class InsufficientDataError(ValidationError):
    """Not enough samples after the alignment point for the requested window."""


@dataclass(frozen=True)
class EcgSignal:
    """A single-channel signal with its sampling rate."""

    samples: np.ndarray = field(repr=False)
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.size == 0:
            raise ValidationError(f"signal must be a nonempty 1-D array, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValidationError("signal contains NaN or infinite samples")
        if not 0.0 < self.sample_rate < np.inf:  # also false for NaN
            raise ValidationError("sample rate must be finite and positive")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class PeakDetectorConfig:
    """Threshold-fraction peak detector settings.

    Both defaults are implementation choices: a peak qualifies when it
    reaches ``threshold_fraction`` of the signal's global maximum, and only
    the first ``search_window_seconds`` of the signal are searched.
    """

    threshold_fraction: float = 0.8
    search_window_seconds: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValidationError("threshold_fraction must lie in (0, 1)")
        if not 0.0 < self.search_window_seconds < np.inf:
            raise ValidationError("search window must be finite and positive")


def normalize_amplitude(sig: EcgSignal) -> EcgSignal:
    """Min-max rescale the samples into [0, 1]."""
    s = sig.samples
    if s.min() == s.max():
        raise DegenerateSignalError("constant signal cannot be amplitude-normalized")
    return replace(sig, samples=as_confidence_vector(s, name="signal", normalize=True))


def zero_mean(sig: EcgSignal) -> EcgSignal:
    """Subtract the mean so the signal is centered at zero."""
    return replace(sig, samples=sig.samples - sig.samples.mean())


def _plateau_peaks(s: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima; a flat-topped peak reports its first sample."""
    d = np.diff(s)
    nz = np.nonzero(d)[0]
    if nz.size < 2:
        return np.empty(0, dtype=np.int64)
    rising = d[nz[:-1]] > 0
    falling = d[nz[1:]] < 0
    return nz[:-1][rising & falling] + 1


def _sample_count(seconds: float, rate: float, what: str) -> int:
    """``round(seconds * rate)``; a product past the float range is invalid data."""
    n = seconds * rate
    if not np.isfinite(n):
        raise ValidationError(f"{what} of {seconds} s at {rate} Hz overflows the sample count")
    return int(round(n))


def find_first_r_peak(sig: EcgSignal, cfg: PeakDetectorConfig = PeakDetectorConfig()) -> int:
    """Index of the first R peak.

    The first local maximum inside the search window whose amplitude
    reaches ``threshold_fraction`` of the signal's global maximum.
    """
    s = sig.samples
    window = _sample_count(cfg.search_window_seconds, sig.sample_rate, "search window")
    threshold = cfg.threshold_fraction * s.max()
    for peak in _plateau_peaks(s):
        if peak >= window:
            break
        if s[peak] >= threshold:
            return int(peak)
    raise PeakDetectionError(
        f"no peak >= {cfg.threshold_fraction:.2f} of max within the first "
        f"{cfg.search_window_seconds} s"
    )


def gate_signal(
    sig: EcgSignal, peak_index: int, duration_seconds: float = DEFAULT_GATE_SECONDS
) -> EcgSignal:
    """Cut a fixed-duration window starting exactly at ``peak_index``.

    Never pads: a signal too short to fill the window is an error, so the
    output length is always round(duration * rate).
    """
    if not 0 <= peak_index < len(sig):
        raise ValidationError(f"peak index {peak_index} out of range [0, {len(sig)})")
    if not 0.0 < duration_seconds < np.inf:
        raise ValidationError("gate duration must be finite and positive")
    n_out = _sample_count(duration_seconds, sig.sample_rate, "gate duration")
    if n_out < 1:
        raise ValidationError("gate duration is shorter than one sample")
    if peak_index + n_out > len(sig):
        raise InsufficientDataError(
            f"need {n_out} samples after index {peak_index}, "
            f"only {len(sig) - peak_index} available"
        )
    return replace(sig, samples=sig.samples[peak_index : peak_index + n_out].copy())


def preprocess(
    sig: EcgSignal,
    detector: PeakDetectorConfig = PeakDetectorConfig(),
    duration_seconds: float = DEFAULT_GATE_SECONDS,
) -> EcgSignal:
    """Full conditioning chain on one raw signal.

    Rescale to [0, 1], remove the mean, find the first R peak, gate to the
    fixed window, then re-center the window so the emitted samples are
    zero-mean regardless of what the cut removed.
    """
    centered = zero_mean(normalize_amplitude(sig))
    peak = find_first_r_peak(centered, detector)
    gated = gate_signal(centered, peak, duration_seconds)
    return zero_mean(gated)


def read_signal(path, sample_rate: float | None = None) -> EcgSignal:
    """Load a signal from one-value-per-line text or two-column (time, value) CSV.

    For CSV input the rate is inferred from the time column unless given
    explicitly; plain text has no timing, so the default rate applies.
    """
    p = Path(path)
    csv = p.suffix.lower() == ".csv"
    times: list[float] = []
    values: list[float] = []
    numbers: list[int] = []
    for lines, block_numbers in read_lines(p, "signal file"):
        numbers += block_numbers
        if not csv:
            try:
                values += map(float, lines)  # on a bad line, the values before it stay appended
            except ValueError as exc:
                raise ValidationError(f"{line_ref(p, numbers[len(values)])}: non-numeric line in signal file") from exc
            continue
        for ln, n in zip(lines, block_numbers):
            parts = [x.strip() for x in ln.split(",")]
            if len(parts) != 2:
                raise ValidationError(f"{line_ref(p, n)}: expected 'time,value', got {ln!r}")
            try:
                times.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError as exc:
                raise ValidationError(f"{line_ref(p, n)}: non-numeric field") from exc
    if not numbers:
        raise ValidationError(f"signal file {p} is empty")
    if csv and sample_rate is None:
        with np.errstate(over="ignore", invalid="ignore"):  # a step past float64 or too small to invert: rejected below
            dt = np.diff(np.asarray(times))
            back = np.nonzero(dt <= 0)[0]
            if dt.size == 0 or back.size:
                at = line_ref(p, numbers[int(back[0]) + 1]) if back.size else str(p)
                raise ValidationError(f"{at}: time column must be strictly increasing")
            step = float(np.median(dt))
            sample_rate = 1.0 / step
        if not 0.0 < sample_rate < np.inf:  # also false for NaN
            raise ValidationError(f"{p}: the time column's median step of {step!r} s gives no finite positive rate")
    return EcgSignal(
        samples=np.asarray(values),
        sample_rate=DEFAULT_SAMPLE_RATE if sample_rate is None else sample_rate,
    )


def write_signal(sig: EcgSignal, path) -> None:
    """Write a signal in the format implied by the extension (.csv or text)."""
    p = Path(path)
    if p.suffix.lower() == ".csv":  # time i / rate next to sample i
        block = np.column_stack([np.arange(len(sig)) / sig.sample_rate, sig.samples])
    else:
        block = sig.samples[:, None]
    p.write_text("\n".join(repr_rows(block)) + "\n")
