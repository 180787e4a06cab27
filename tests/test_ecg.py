"""Signal conditioning chain: rescale, center, peak alignment, gating."""

import numpy as np
import pytest

from idfusion import core
from idfusion.core import ValidationError
from idfusion.ecg import (
    DegenerateSignalError,
    EcgSignal,
    InsufficientDataError,
    PeakDetectionError,
    PeakDetectorConfig,
    find_first_r_peak,
    gate_signal,
    normalize_amplitude,
    preprocess,
    read_signal,
    write_signal,
    zero_mean,
)
from reference import make_pulse_train


def _sig(values, rate=512):
    return EcgSignal(samples=np.asarray(values, dtype=float), sample_rate=rate)


class TestNormalizeAmplitude:
    def test_affine_rescale(self):
        out = normalize_amplitude(_sig([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(out.samples, [0.0, 0.5, 1.0])

    def test_identity_on_already_normalized(self):
        out = normalize_amplitude(_sig([0.0, 1.0]))
        np.testing.assert_array_equal(out.samples, [0.0, 1.0])

    def test_constant_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            normalize_amplitude(_sig([3.0, 3.0, 3.0]))


class TestZeroMean:
    def test_two_sample(self):
        np.testing.assert_array_equal(zero_mean(_sig([0.0, 1.0])).samples, [-0.5, 0.5])

    def test_already_centered_unchanged(self):
        out = zero_mean(_sig([-0.5, 0.0, 0.5]))
        np.testing.assert_allclose(out.samples, [-0.5, 0.0, 0.5], atol=1e-15)

    def test_three_sample(self):
        np.testing.assert_allclose(
            zero_mean(_sig([0.0, 0.5, 1.0])).samples, [-0.5, 0.0, 0.5], atol=1e-15
        )

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        sig = _sig(rng.normal(size=4096))
        once = zero_mean(sig)
        twice = zero_mean(once)
        assert abs(twice.samples.mean()) <= 1e-12
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-12)


class TestFindFirstRPeak:
    def test_two_pulse_train_picks_the_first(self):
        rate = 512
        n = 2 * rate
        rng = np.random.default_rng(1)
        s = rng.uniform(0.0, 0.1, n)
        for apex_s in (0.3, 1.1):
            apex = int(apex_s * rate)
            s[apex - 2 : apex + 3] = [0.5, 0.8, 1.0, 0.8, 0.5]
        peak = find_first_r_peak(_sig(s, rate))
        assert peak == int(0.3 * rate)

    def test_single_impulse(self):
        s = np.zeros(64)
        s[7] = 1.0
        assert find_first_r_peak(_sig(s)) == 7

    def test_flat_signal_detection_error(self):
        with pytest.raises(PeakDetectionError):
            find_first_r_peak(_sig(np.zeros(256)))

    def test_peak_outside_window_detection_error(self):
        rate = 512
        s = np.zeros(3 * rate)
        apex = 2 * rate  # beyond the default 1.5 s window
        s[apex - 1 : apex + 2] = [0.5, 1.0, 0.5]
        with pytest.raises(PeakDetectionError):
            find_first_r_peak(_sig(s, rate))

    def test_plateau_reports_first_sample(self):
        s = np.zeros(32)
        s[10:14] = 1.0
        assert find_first_r_peak(_sig(s)) == 10

    def test_sub_threshold_peaks_skipped(self):
        s = np.zeros(512)
        s[20 - 1 : 20 + 2] = [0.2, 0.4, 0.2]  # early but small
        s[100 - 1 : 100 + 2] = [0.5, 1.0, 0.5]
        assert find_first_r_peak(_sig(s)) == 100

    def test_shift_covariance(self):
        samples, apex = make_pulse_train(np.random.default_rng(2))
        base = find_first_r_peak(_sig(samples))
        for pad in (1, 5, 40):
            shifted = np.concatenate([np.zeros(pad), samples])
            assert find_first_r_peak(_sig(shifted)) == base + pad


class TestGateSignal:
    def test_full_scale_slice(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=3000)
        out = gate_signal(_sig(s), 100)
        assert len(out) == 2048
        np.testing.assert_array_equal(out.samples, s[100:2148])

    def test_peak_at_end_insufficient(self):
        with pytest.raises(InsufficientDataError):
            gate_signal(_sig(np.zeros(512)), 511)

    def test_short_duration(self):
        out = gate_signal(_sig(np.arange(600.0)), 10, duration_seconds=0.5)
        assert len(out) == 256
        assert out.samples[0] == 10.0

    def test_bad_peak_index(self):
        with pytest.raises(ValidationError):
            gate_signal(_sig(np.zeros(16)), 16)


class TestPreprocess:
    def test_pulse_train_end_to_end(self):
        samples, apex = make_pulse_train(np.random.default_rng(4))
        sig = _sig(samples)
        out = preprocess(sig)
        assert len(out) == 2048
        assert abs(out.samples.mean()) <= 1e-12
        # output starts at the apex: compare against the same affine chain
        centered = zero_mean(normalize_amplitude(sig))
        window = centered.samples[apex : apex + 2048]
        np.testing.assert_allclose(
            out.samples, window - window.mean(), atol=1e-12
        )
        # the window must open on the apex, which towers over its neighborhood
        assert out.samples[0] == np.max(out.samples[:256])

    def test_constant_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            preprocess(_sig(np.ones(4096)))

    def test_too_short_after_peak_rejected(self):
        samples, _ = make_pulse_train(np.random.default_rng(5), duration_seconds=3.0)
        with pytest.raises(InsufficientDataError):
            preprocess(_sig(samples))


class TestSignalFiles:
    def test_text_round_trip(self, tmp_path):
        samples, _ = make_pulse_train(np.random.default_rng(6))
        sig = _sig(samples)
        path = tmp_path / "sig.txt"
        write_signal(sig, path)
        back = read_signal(path)
        np.testing.assert_array_equal(back.samples, sig.samples)
        assert back.sample_rate == 512.0

    def test_csv_round_trip_infers_rate(self, tmp_path):
        sig = _sig(np.sin(np.linspace(0, 6, 1024)), rate=256)
        path = tmp_path / "sig.csv"
        write_signal(sig, path)
        back = read_signal(path)
        np.testing.assert_array_equal(back.samples, sig.samples)
        assert back.sample_rate == pytest.approx(256.0, rel=1e-6)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read signal file .*absent.txt"):
            read_signal(tmp_path / "absent.txt")

    def test_malformed_csv_row(self, tmp_path):
        # the comment and the blank line count: errors name the line in the file
        path = tmp_path / "bad.csv"
        path.write_text("# rec\n\n0.0,1.0\n0.1\n0.2,oops\n")
        with pytest.raises(ValidationError, match="bad.csv:4: expected"):
            read_signal(path)
        path.write_text("# rec\n\n0.0,1.0\n0.002,oops\n")
        with pytest.raises(ValidationError, match="bad.csv:4: non-numeric"):
            read_signal(path)
        path.write_text("# rec\n\n0.0,1.0\n0.002,1.5\n# gap\n0.002,2.0\n")
        with pytest.raises(ValidationError, match="bad.csv:6: time column"):
            read_signal(path)

    def test_non_numeric_text(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# rec\n\n0.5\nhello\n")
        with pytest.raises(ValidationError, match="bad.txt:4: non-numeric"):
            read_signal(path)

    @pytest.mark.parametrize("block", [7, 64, 4096])
    def test_non_numeric_line_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, block):
        # a text block is converted in one go; the bad line, not its block, is named
        monkeypatch.setattr(core, "_READ_BLOCK_CHARS", block)
        lines = ["# rec", "", *(f"0.{k:04d}" for k in range(1, 1201))]
        lines[1150] = "0.1.2"
        path = tmp_path / "late.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as got:
            read_signal(path)
        assert str(got.value) == f"{path}:1151: non-numeric line in signal file"

    @pytest.mark.parametrize("suffix", [".txt", ".csv"])
    @pytest.mark.parametrize("rate", [512, 250.5, 3])
    def test_written_bytes_match_the_per_scalar_formula(self, tmp_path, suffix, rate):
        # shortest repr of each value as a Python float, as float(numpy scalar) gave it
        values = [-0.0, 0.0, 1e-05, 1e16, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2,
                  1 / 3, -2 / 3, 123456789.12345679, 1.7976931348623157e308, -1.5]
        values += np.random.default_rng(5).normal(scale=0.3, size=2000).tolist()  # a window's worth
        sig = _sig(values, rate=rate)
        path = tmp_path / f"sig{suffix}"
        write_signal(sig, path)
        if suffix == ".csv":
            want = [f"{i / sig.sample_rate!r},{float(v)!r}" for i, v in enumerate(sig.samples)]
        else:
            want = [repr(float(v)) for v in sig.samples]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()


@pytest.mark.parametrize(
    "samples, message",
    [
        (np.zeros((2, 3)), "signal must be a nonempty 1-D array, got shape (2, 3)"),
        (np.zeros(0), "signal must be a nonempty 1-D array, got shape (0,)"),
    ],
    ids=["2d", "empty"],
)
def test_signal_shape_messages(samples, message):
    # NaN samples, the threshold fraction, a sub-sample gate and an empty file are reached
    # through the CLI, in tests/test_cli.py
    with pytest.raises(ValidationError) as exc:
        EcgSignal(samples)
    assert str(exc.value) == message
