"""idfusion benchmark: one workload per process, a closed loop with one caller.

    python3 bench/run.py --workload evaluate-csv --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Run from the repository root. The library is imported from ``src/`` next
to this directory; without it the benchmark exits with code 2.

``--trace 0`` times the user call untraced and reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced blocks of calls and
reports the per-layer metrics, including the tracing overhead. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). A human-readable
summary and the environment go to standard error; traced runs also write
their spans under ``.bench_traces/``. Scratch files live under
``.bench_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5       # set-ups per run; setup_s is their median
TRACE_BLOCK_S = 0.25  # traced and untraced blocks alternate at least this often
EXIT_NO_SOURCE = 2


def _import_library():
    if not (SRC / "idfusion" / "__init__.py").is_file():
        sys.stderr.write(f"error: no idfusion sources under {SRC}; run from a full checkout\n")
        sys.exit(EXIT_NO_SOURCE)
    sys.path.insert(0, str(SRC))
    import idfusion

    if Path(idfusion.__file__).resolve().parent != SRC / "idfusion":
        sys.stderr.write(f"error: imported idfusion from {idfusion.__file__}, not from {SRC}\n")
        sys.exit(EXIT_NO_SOURCE)


def _import_seconds() -> float:
    """Interpreter start plus library import, timed in a fresh child process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import idfusion.cli"], env=env, cwd=ROOT, check=True, timeout=120)
    return perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _call(wl, i: int):
    try:
        return wl.call(i)
    except Exception:  # a failed call is counted, and the loop keeps going
        if not wl.reported_exception:
            traceback.print_exc()
            wl.reported_exception = True
        return None


def run_plain(cls, seed: int, seconds: float, tiny: bool, work: Path) -> tuple[dict, object]:
    from metrics import end_to_end

    setups = []
    for rep in range(SETUP_REPS):
        t_import = _import_seconds()
        t0 = perf_counter()
        wl = cls(work / f"setup{rep}", seed, tiny)
        wl.setup()
        wl.warmup()
        setups.append(t_import + perf_counter() - t0)

    sys.stderr.write(f"{cls.name}: set-up seconds {[round(s, 4) for s in setups]}\n")
    call_ns = array("q")  # compact, so that peak memory does not grow with the call count
    deadline = perf_counter() + seconds
    i = 0
    while not call_ns or perf_counter() < deadline:
        t0 = perf_counter_ns()
        out = _call(wl, i)
        call_ns.append(perf_counter_ns() - t0)
        wl.keep(i, out)
        i += 1
    rss = _peak_rss_mb()
    failed = wl.failures()
    _summary(cls.name, call_ns)
    return _result(call_ns, failed, end_to_end(call_ns, setups, rss), "end_to_end"), wl


def run_traced(cls, seed: int, seconds: float, tiny: bool, work: Path) -> tuple[dict, object]:
    from metrics import layer_values
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wl = cls(work / "setup0", seed, tiny)
        wl.setup()
        wl.warmup()
    finally:
        tracer.uninstall()

    plain = array("q")
    traced = array("q")
    deadline = perf_counter() + seconds
    tracing = False
    i = 0
    while not plain or not traced or (perf_counter() < deadline and not tracer.full):
        if tracing:
            tracer.install()
        try:
            block_end = perf_counter() + TRACE_BLOCK_S
            while True:
                if tracing:
                    tracer.begin_op()
                t0 = perf_counter_ns()
                out = _call(wl, i)
                dt = perf_counter_ns() - t0
                if tracing:
                    tracer.end_op()
                (traced if tracing else plain).append(dt)
                wl.keep(i, out)
                i += 1
                if perf_counter() >= block_end:
                    break
        finally:
            tracer.uninstall()
        tracing = not tracing
    failed = wl.failures()
    traces = ROOT / ".bench_traces"
    traces.mkdir(exist_ok=True)
    tracer.write(traces / f"{cls.name}-seed{seed}.npz")
    _summary(cls.name, plain)
    values = layer_values(tracer, plain, traced)
    return _result(plain + traced, failed, values, "per_layer"), wl


def _result(call_ns, failed: int, values: dict, family: str) -> dict:
    from metrics import END_TO_END, LAYER_METRICS

    units = dict(END_TO_END) if family == "end_to_end" else {m[0]: m[1] for m in LAYER_METRICS}
    return {
        "correct": failed == 0,
        "attempted": len(call_ns),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def _summary(name: str, call_ns) -> None:
    """Sample count and the tail percentiles that have at least ten samples beyond them."""
    from metrics import percentile

    n = len(call_ns)
    tails = {q: percentile(call_ns, q) / 1e6 for q in (90, 99, 99.9) if n * (100 - q) / 100 >= 10}
    sys.stderr.write(
        f"{name}: {n} untraced calls, p50 {statistics.median(call_ns) / 1e6:.4f} ms"
        + "".join(f", p{q:g} {v:.4f} ms" for q, v in tails.items())
        + "\n"
    )


def environment() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.partition("ref: ")[2]
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "idfusion").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, object]:
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        runner = run_traced if trace else run_plain
        return runner(WORKLOADS[name], seed, seconds, tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one after the other; prints a metric table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(f"error: workload {name} exited with code {proc.returncode}\n")
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, v in r["metrics"].items():
            print(f"  {metric:42s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def self_test() -> int:
    """Tiny runs of every workload: metric names and units, and checks that reject bad outputs."""
    import numpy as np

    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, family in ((False, "end_to_end"), (True, "per_layer")):
            result, wl = run_one(name, seed=1, seconds=0.3, trace=trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec[family]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))} "
                                "missing, extra, or with another unit")
            values = [v["value"] for v in result["metrics"].values()]
            if not all(isinstance(v, float) and np.isfinite(v) for v in values):
                problems.append(f"{name} trace={int(trace)}: a metric is not a finite number")
            if family == "end_to_end" and not all(v > 0 for v in values):
                problems.append(f"{name}: an end-to-end metric is not positive")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed calls")
        for case, rejected in _corruptions(wl):
            status = "rejected" if rejected else "ACCEPTED"
            sys.stderr.write(f"{name}: corrupted output ({case}) {status}\n")
            if not rejected:
                problems.append(f"{name}: the check accepted a corrupted output ({case})")
    for p in problems:
        sys.stderr.write(f"self-test: {p}\n")
    print(json.dumps({"self_test": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def _corruptions(wl):
    """(case, rejected) for deliberately corrupted copies of a workload's real outputs."""
    import numpy as np

    from workloads import EvaluateCsv, FuseSingle, PrepEcg, SimulateExport, _digest

    if isinstance(wl, (SimulateExport, EvaluateCsv)):
        text = wl.first_report
        pos = text.index('"acc_fused"') + 20
        altered = _digest((text[:pos] + chr(ord(text[pos]) ^ 1) + text[pos + 1:]).encode())
        kept = wl.kept[0]
        yield "one altered report byte", wl.bad((kept[0], altered, *kept[2:])) is not None
        yield "non-zero exit code", wl.bad((3, *kept[1:])) is not None
        if isinstance(wl, SimulateExport):
            files = ("0" * 64, *kept[2][1:])
            yield "altered exported CSV", wl.bad((kept[0], kept[1], files)) is not None
    elif isinstance(wl, FuseSingle):
        flipped = list(wl.kept)
        flipped[0] = (flipped[0] + 1) % wl.m
        yield "one flipped decision", wl.bad_decisions(flipped) == 1
    elif isinstance(wl, PrepEcg):
        good = wl._window(0)
        yield "truncated window", wl.bad_window(0, good[:-1]) is not None
        yield "window shifted by one sample", wl.bad_window(0, np.roll(good, 1)) is not None
        yield "window off zero mean", wl.bad_window(0, good + 1e-3) is not None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["simulate-export", "evaluate-csv", "fuse-single", "prep-ecg", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny runs that check the benchmark itself")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required unless --self-test is given")

    _import_library()
    sys.stderr.write(f"environment: {json.dumps(environment())}\n")
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, _ = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, v in result["metrics"].items():
        sys.stderr.write(f"  {metric:42s} {v['value']:.6g} {v['unit']}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
