"""The four workloads: inputs from a seed, one timed user call, and output checks.

Each workload is a closed loop with a single caller. ``setup`` builds the
inputs, ``warmup`` runs the code paths once, ``call`` is the timed user
call, ``keep`` stores what the checks need (outside the timed region) and
``failures`` checks every kept output against an oracle once the loop is
over. Each check lives in a ``bad_*`` method returning a reason or None,
so the self-test can feed it deliberately corrupted outputs.

Library entry points are looked up as module attributes on every call
(``cli.main``, ``fusion.predict_fused``) so that the tracer's wrappers
apply when it is installed. The oracles bind their functions at import
time instead, and run after tracing is over.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from array import array
from pathlib import Path

import numpy as np

import idfusion.cli as cli
import idfusion.evaluation as evaluation
import idfusion.fusion as fusion
import idfusion.io as idio
from idfusion.core import ConfidenceMatrix, PairedDataset
from idfusion.evaluation import EvalConfig, run_experiment, train_fusion_model

FULL_SHAPE = (87, 100)  # subjects x samples per subject, the paper's size
TINY_SHAPE = (20, 20)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _report_text(report) -> str:
    """The structured report as the CLI prints it, serialised independently of idfusion.io."""
    doc = {
        "config": dataclasses.asdict(report.config),
        "folds": [dataclasses.asdict(f) for f in report.folds],
        "summary": dataclasses.asdict(report.summary),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_score_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a score CSV with plain string handling; returns ids, labels and values."""
    rows = [ln.split(",") for ln in Path(path).read_text().splitlines()[1:] if ln]
    ids = [r[0] for r in rows]
    labels = np.array([int(r[1]) for r in rows], dtype=np.int64)
    values = np.array([[float(x) for x in r[2:]] for r in rows], dtype=np.float64)
    return ids, labels, values


def _write_score_csv(path, modality: str, ids, labels, values) -> None:
    m = values.shape[1]
    lines = ["sample_id,true_label," + ",".join(f"{modality}_{j}" for j in range(m))]
    for sid, label, row in zip(ids, labels.tolist(), values.tolist()):
        lines.append(f"{sid},{label}," + ",".join(map(repr, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def _normalize_rows(raw: np.ndarray) -> np.ndarray:
    lo = raw.min(axis=1, keepdims=True)
    hi = raw.max(axis=1, keepdims=True)
    return (raw - lo) / (hi - lo)


def _scores(rng, labels: np.ndarray, m: int, sigma_range: tuple[float, float]) -> np.ndarray:
    """Raw logit-like scores: true-class offset plus per-subject noise, then a per-row affine map."""
    n = labels.size
    sigma = rng.uniform(*sigma_range, size=m)[labels][:, None]
    z = rng.standard_normal((n, m)) * sigma
    z[np.arange(n), labels] += 1.0
    scale = rng.uniform(0.5, 4.0, size=(n, 1))
    shift = rng.uniform(-5.0, 5.0, size=(n, 1))
    return z * scale + shift


class Workload:
    name = ""
    reported_exception = False  # the first exception a call raises is printed, the rest only counted

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.m, self.spc = TINY_SHAPE if tiny else FULL_SHAPE
        work.mkdir(parents=True, exist_ok=True)
        self.kept: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def keep(self, i: int, out) -> None:
        raise NotImplementedError

    def failures(self) -> int:
        """Number of kept outputs that fail their check."""
        raise NotImplementedError


class _ReportWorkload(Workload):
    """A workload whose call is one CLI command printing a structured report."""

    argv: list[str] = []

    def call(self, i: int):
        return _run_cli(self.argv)

    def _files(self) -> tuple[str, ...]:
        """Digests of the files the call writes."""
        return ()

    def _oracle(self) -> None:
        """Set ``expected_digest`` and ``expected_files``."""
        raise NotImplementedError

    def keep(self, i: int, out) -> None:
        code, text = out if out is not None else (-1, "")
        if i == 0:
            self.first_report = text
        self.kept.append((code, _digest(text.encode()), self._files() if code == 0 else None))

    def bad(self, kept) -> str | None:
        code, report_digest, files = kept
        if code != 0:
            return f"exit code {code}"
        if report_digest != self.expected_digest:
            return "report differs from the oracle"
        if files != self.expected_files:
            return "written files differ between calls with the same seed"
        return None

    def failures(self) -> int:
        self._oracle()
        return sum(self.bad(k) is not None for k in self.kept)


class SimulateExport(_ReportWorkload):
    """``idfusion simulate --preset full --scenario degraded`` with CSV and model export."""

    name = "simulate-export"

    def _argv(self, preset: str, out_dir: Path) -> list[str]:
        return [
            "simulate", "--preset", preset, "--scenario", "degraded",
            "--format", "structured", "--seed", str(self.seed),
            "--dump-scores", str(out_dir / "scores"), "--save-model", str(out_dir / "model.json"),
        ]

    def setup(self) -> None:
        self.out = self.work / "export"
        self.argv = self._argv("desk" if self.tiny else "full", self.out)

    def warmup(self) -> None:
        # the desk preset runs every code path of the command at a fraction of its cost
        _run_cli(self._argv("desk", self.work / "warmup"))

    def _files(self) -> tuple[str, ...]:
        return tuple(
            _digest((self.out / rel).read_bytes())
            for rel in ("scores/face_scores.csv", "scores/ecg_scores.csv", "model.json")
        )

    def _oracle(self) -> None:
        """Read the exported CSVs back without idfusion.io and rerun the experiment on them."""
        ids, labels, face = _read_score_csv(self.out / "scores/face_scores.csv")
        ecg_ids, ecg_labels, ecg = _read_score_csv(self.out / "scores/ecg_scores.csv")
        if ecg_ids != ids or not np.array_equal(ecg_labels, labels):
            raise AssertionError("exported CSVs disagree on samples or labels")
        dataset = PairedDataset(
            face=ConfidenceMatrix(values=face, sample_ids=tuple(ids), modality="face"),
            ecg=ConfidenceMatrix(values=ecg, sample_ids=tuple(ids), modality="ecg"),
            labels=labels,
        )
        cfg = EvalConfig(scenario="degraded")
        report = run_experiment(dataset, k=10, seed=self.seed, cfg=cfg)
        self.expected_digest = _digest(_report_text(report).encode())
        model = train_fusion_model(dataset.face, dataset.ecg, dataset.labels, cfg)
        saved = json.loads((self.out / "model.json").read_text())
        self.model_ok = saved["difference"] == model.difference.values.tolist() and saved[
            "modality_order"
        ] == ["face", "ecg"]
        self.expected_files = self._files()

    def bad(self, kept) -> str | None:
        reason = super().bad(kept)
        if reason is None and not self.model_ok:
            reason = "saved model differs from the model trained on the exported CSVs"
        return reason


class EvaluateCsv(_ReportWorkload):
    """``idfusion evaluate`` on raw score CSVs generated here, ECG rows in another order."""

    name = "evaluate-csv"

    def _fixture(self, directory: Path, m: int, spc: int) -> dict:
        rng = np.random.default_rng([self.seed, m, spc])
        labels = np.repeat(np.arange(m), spc)
        ids = [f"r{i:06d}" for i in range(labels.size)]
        face = _scores(rng, labels, m, (0.2, 0.5))
        ecg = _scores(rng, labels, m, (0.25, 0.6))
        order = rng.permutation(labels.size)
        directory.mkdir(parents=True, exist_ok=True)
        _write_score_csv(directory / "face.csv", "face", ids, labels, face)
        _write_score_csv(
            directory / "ecg.csv", "ecg", [ids[j] for j in order], labels[order], ecg[order]
        )
        argv = [
            "evaluate", "--face", str(directory / "face.csv"), "--ecg", str(directory / "ecg.csv"),
            "--format", "structured", "--seed", str(self.seed),
        ]
        return {"ids": ids, "labels": labels, "face": face, "ecg": ecg, "argv": argv}

    def setup(self) -> None:
        self.data = self._fixture(self.work / "scores", self.m, self.spc)
        self.argv = self.data["argv"]

    def warmup(self) -> None:
        small = self._fixture(self.work / "warmup", *TINY_SHAPE)
        _run_cli(small["argv"])

    def _oracle(self) -> None:
        """The same arrays, normalised here and kept in memory, through run_experiment."""
        d = self.data
        ids = tuple(d["ids"])
        dataset = PairedDataset(
            face=ConfidenceMatrix(values=_normalize_rows(d["face"]), sample_ids=ids, modality="face"),
            ecg=ConfidenceMatrix(values=_normalize_rows(d["ecg"]), sample_ids=ids, modality="ecg"),
            labels=d["labels"],
        )
        report = run_experiment(dataset, k=10, seed=self.seed, cfg=EvalConfig())
        self.expected_digest = _digest(_report_text(report).encode())
        self.expected_files = ()


class FuseSingle(Workload):
    """A stream of single-sample ``predict_fused`` calls against a saved-and-reloaded model."""

    name = "fuse-single"
    POOL = 8700

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, self.m])
        labels = np.repeat(np.arange(self.m), self.spc)
        ids = tuple(f"t{i:06d}" for i in range(labels.size))
        face = ConfidenceMatrix(
            values=_normalize_rows(_scores(rng, labels, self.m, (0.2, 0.5))), sample_ids=ids, modality="face"
        )
        ecg = ConfidenceMatrix(
            values=_normalize_rows(_scores(rng, labels, self.m, (0.25, 0.6))), sample_ids=ids, modality="ecg"
        )
        self.model_path = self.work / "model.json"
        idio.save_fusion_model(evaluation.train_fusion_model(face, ecg, labels), self.model_path)
        self.model = idio.load_fusion_model(self.model_path)

        pool = self.POOL if not self.tiny else 400
        test_labels = rng.integers(0, self.m, size=pool)
        self.face = _normalize_rows(_scores(rng, test_labels, self.m, (0.2, 0.5)))
        self.ecg = _normalize_rows(_scores(rng, test_labels, self.m, (0.25, 0.6)))
        # one row in a hundred is flat in both modalities, so the fused sum ties
        # and the lower-index rule decides
        flat = np.arange(0, pool, 100)
        self.face[flat] = 0.5
        self.ecg[flat] = 0.5
        self.face_rows = list(self.face)
        self.ecg_rows = list(self.ecg)
        # a compact array, so that peak memory does not grow with the call count
        self.kept = array("i")

    def warmup(self) -> None:
        for i in range(min(2000, len(self.face_rows))):
            fusion.predict_fused(self.face_rows[i], self.ecg_rows[i], self.model)

    def call(self, i: int):
        j = i % len(self.face_rows)
        return fusion.predict_fused(self.face_rows[j], self.ecg_rows[j], self.model)

    def _oracle(self) -> np.ndarray:
        d = np.asarray(json.loads(self.model_path.read_text())["difference"], dtype=np.float64)
        total = self.face * (0.5 - d) + self.ecg * (0.5 + d)
        # first index reaching the row maximum: ties go to the lower class index
        return np.argmax(total == total.max(axis=1, keepdims=True), axis=1)

    def keep(self, i: int, out) -> None:
        self.kept.append(out if isinstance(out, int) else -1)

    def bad_decisions(self, decisions) -> int:
        expected = self.expected[np.arange(len(decisions)) % self.expected.size]
        return int(np.sum(np.asarray(decisions, dtype=np.int64) != expected))

    def failures(self) -> int:
        self.expected = self._oracle()
        return self.bad_decisions(self.kept)


class PrepEcg(Workload):
    """Repeated ``idfusion prep-ecg`` calls on seeded 10 s, 512 Hz recordings."""

    name = "prep-ecg"
    RATE = 512
    SECONDS = 10
    WINDOW = 2048  # 4 s at 512 Hz, the CLI default gate
    RECORDINGS = 16

    def _recording(self, rng) -> tuple[np.ndarray, int]:
        """Synthetic lead: R spikes, P and T waves, baseline wander, noise; first R peak planted."""
        rate, n = self.RATE, self.RATE * self.SECONDS
        t = np.arange(n, dtype=np.float64)
        x = rng.normal(0.0, 0.003, n)
        x += 0.05 * np.sin(2 * np.pi * 0.3 * t / rate + rng.uniform(0, 2 * np.pi))
        first = int(rng.integers(int(0.15 * rate), rate))
        rr = rng.uniform(0.65, 0.95) * rate
        peaks = [first]
        while peaks[-1] + rr + int(rng.integers(-10, 11)) < n - 20:
            peaks.append(int(peaks[-1] + rr + rng.integers(-10, 11)))

        def bump(center, width, height):
            return height * np.exp(-0.5 * ((t - center) / width) ** 2)

        for k, p in enumerate(peaks):
            # the planted first peak is the tallest; later beats stay above the
            # detector's 0.8 threshold but below it
            x += bump(p, 3.0, 1.0 if k == 0 else rng.uniform(0.85, 0.97))
            x += bump(p - 0.16 * rate, 12.0, 0.12) if p > 0.16 * rate else 0.0
            x += bump(p + 0.3 * rate, 25.0, 0.25)
        return x, first

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, self.RATE])
        count = 4 if self.tiny else self.RECORDINGS
        self.recordings = [self._recording(rng) for _ in range(count)]
        self.paths = []
        for j, (x, _) in enumerate(self.recordings):
            src = self.work / f"rec{j:02d}.txt"
            # fixed-width exact values: every recording file has the same size, so
            # the bytes read per call repeat exactly whichever recordings are traced
            src.write_text("".join(f"{v:+.17e}\n" for v in x.tolist()))
            self.paths.append((str(src), str(self.work / f"out{j:02d}.txt")))
        self.expected: dict[int, np.ndarray] = {}

    def warmup(self) -> None:
        for j in range(len(self.paths)):
            self.call(j)

    def call(self, i: int):
        src, dst = self.paths[i % len(self.paths)]
        return cli.main(["prep-ecg", "--in", src, "--out", dst])

    def _window(self, j: int) -> np.ndarray:
        """Rescale, centre, cut at the planted peak, centre again: the documented chain."""
        if j not in self.expected:
            x, first = self.recordings[j]
            y = (x - x.min()) / (x.max() - x.min())
            y = y - y.mean()
            w = y[first : first + self.WINDOW]
            self.expected[j] = w - w.mean()
        return self.expected[j]

    def bad_window(self, j: int, samples: np.ndarray) -> str | None:
        if samples.size != self.WINDOW:
            return f"{samples.size} samples, expected {self.WINDOW}"
        if abs(samples.mean()) > 1e-9:
            return f"mean {samples.mean()} is not zero"
        if np.max(np.abs(samples - self._window(j))) > 1e-9:
            return "window does not start at the planted first R peak"
        return None

    def keep(self, i: int, out) -> None:
        j = i % len(self.paths)
        if out != 0:
            self.kept.append(f"exit code {out}")
            return
        text = Path(self.paths[j][1]).read_text()
        self.kept.append(self.bad_window(j, np.array([float(v) for v in text.split()])))

    def failures(self) -> int:
        return sum(reason is not None for reason in self.kept)


WORKLOADS = {w.name: w for w in (SimulateExport, EvaluateCsv, FuseSingle, PrepEcg)}
