"""Command-line entry point.

Subcommands:
  simulate   generate a calibrated synthetic dataset and run the k-fold experiment
  evaluate   run the k-fold experiment on score CSVs exported from real models
  fuse       one fused prediction from two confidence vectors and a saved model
  prep-ecg   condition a raw ECG recording into the fixed-length window
  calibrate  fit the simulator noise level to a target rank-1 accuracy

Exit codes: 0 success, 1 usage, 2 data validation, 3 runtime failure.
Every failure prints a single ``error: ...`` line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from pathlib import Path

import numpy as np

from .core import ValidationError
from .ecg import DEFAULT_GATE_SECONDS, PeakDetectorConfig, preprocess, read_signal, write_signal
from .evaluation import EvalConfig, run_experiment, train_fusion_model
from .fusion import predict_fused
from .io import (
    dump_dataset_scores,
    format_report,
    json_text,
    load_fusion_model,
    load_paired_dataset,
    parse_config_file,
    save_fusion_model,
)
from .simulator import (
    DEFAULT_CLEAN_TARGETS,
    DEFAULT_DEGRADED_TARGETS,
    DESK_PRESET,
    FULL_PRESET,
    CalibrationError,
    DegradationScenario,
    GeneratorParams,
    SubjectRule,
    calibrate,
    calibrate_clean_regime,
    calibrate_degraded_regime,
    generate_dataset,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token that starts with "-" is an option name unless this matches it; argparse's own
        # pattern takes only -<digits>[.<digits>], so "--bound -inf" and "--mean -5e-1" lost their value
        self._negative_number_matcher = argparse.Namespace(match=_is_float)

    # argparse exits 2 on bad usage by default; route through our codes instead
    def error(self, message):
        raise _UsageError(message)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_divisors(text: str) -> tuple[int, ...]:
    t = text.strip().lower()
    if t in ("", "none"):
        return ()
    return tuple(int(x) for x in t.split(","))


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds only with non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(x) for x in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ValidationError(f"not a comma-separated float vector: {text!r}") from exc


def _defaults(fn) -> dict:
    """A library function's parameter defaults by name, so the flags that feed it share them."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


def _add_run_flags(p: _Parser) -> None:
    """Flags shared by the two k-fold experiment commands."""
    run = _defaults(run_experiment)
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--seed", type=_seed, default=run["seed"])
    p.add_argument("--folds", type=int, default=run["k"])
    p.add_argument("--bound", type=float, default=EvalConfig.bound)
    p.add_argument("--rank-depth", type=int, default=EvalConfig.rank_depth)
    p.add_argument("--out", help="report path (default: print to stdout)")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--save-model", help="path for the fusion model trained on all samples")


@functools.cache  # built once per process; a --config run sets its defaults on a fresh one
def _build_parser() -> _Parser:
    parser = _Parser(prog="idfusion", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    cal = _defaults(calibrate)

    p = sub.add_parser("simulate", help="calibrated synthetic experiment")
    p.add_argument("--preset", choices=["desk", "full"], default="desk")
    p.add_argument("--subjects", type=int)
    p.add_argument("--samples", type=int, help="samples per subject")
    p.add_argument("--scenario", choices=["clean", "degraded"], default="clean")
    p.add_argument("--face-rule", type=_parse_divisors, help="degraded-subject divisors, e.g. 2,3")
    p.add_argument("--ecg-rule", type=_parse_divisors)
    p.add_argument("--face-target", type=float, default=DEFAULT_CLEAN_TARGETS[0],
                   help="clean rank-1 accuracy target")
    p.add_argument("--ecg-target", type=float, default=DEFAULT_CLEAN_TARGETS[1])
    p.add_argument("--face-overall", type=float, default=DEFAULT_DEGRADED_TARGETS[0],
                   help="degraded-regime overall accuracy target")
    p.add_argument("--ecg-overall", type=float, default=DEFAULT_DEGRADED_TARGETS[1])
    _add_run_flags(p)
    p.add_argument("--dump-scores", help="directory for exported score CSVs")

    p = sub.add_parser("evaluate", help="k-fold experiment from score CSVs")
    p.add_argument("--face", help="face score CSV")
    p.add_argument("--ecg", help="ecg score CSV")
    p.add_argument("--no-normalize", action="store_true",
                   help="trust the files to already be in [0, 1]")
    p.add_argument("--scenario", default=EvalConfig.scenario, help="label echoed into the report")
    _add_run_flags(p)

    p = sub.add_parser("fuse", help="single fused prediction from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--face", required=True, help="comma-separated confidence vector")
    p.add_argument("--ecg", required=True)

    p = sub.add_parser("prep-ecg", help="condition a raw ECG recording")
    p.add_argument("--in", dest="input", required=True, help=".txt (one value/line) or .csv (time,value)")
    p.add_argument("--out", required=True)
    p.add_argument("--rate", type=float, help="sample rate in Hz (default 512; inferred for CSV)")
    p.add_argument("--duration", type=float, default=DEFAULT_GATE_SECONDS,
                   help="gate length in seconds")
    p.add_argument("--threshold-fraction", type=float, default=PeakDetectorConfig.threshold_fraction)
    p.add_argument("--search-window", type=float, default=PeakDetectorConfig.search_window_seconds,
                   help="peak search window in seconds")

    p = sub.add_parser("calibrate", help="fit a noise sigma to a target accuracy")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--classes", type=int, default=FULL_PRESET[0])
    p.add_argument("--mean", type=float, default=GeneratorParams.true_class_mean,
                   help="true-class logit offset")
    p.add_argument("--sigma-min", type=float, default=cal["sigma_range"][0])
    p.add_argument("--sigma-max", type=float, default=cal["sigma_range"][1])
    p.add_argument("--out", help="write the result JSON here instead of stdout")

    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


def _config_defaults(command: _Parser, name: str, path) -> dict:
    """A config file's values, converted and checked exactly like their flags.

    Every flag but ``--config`` is a key, spelled without the leading ``--``.
    """
    actions = {
        a.option_strings[-1][2:]: a
        for a in command._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    out = {}
    for key, value in parse_config_file(path).items():
        action = actions.get(key)
        if action is None:
            raise _UsageError(f"unknown config key {key!r} for {name}")
        conv = _parse_bool if action.nargs == 0 else (action.type or str)
        try:
            converted = conv(value)
        except (ValueError, ValidationError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and converted not in action.choices:
            raise _UsageError(
                f"config key {key!r}: invalid choice {value!r} "
                f"(choose from {', '.join(action.choices)})"
            )
        out[action.dest] = converted
    return out


def _emit(text: str, out) -> None:
    """A command's result goes to the ``--out`` file if one is given, else to stdout."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _run_and_report(dataset, args) -> int:
    """The k-fold experiment, its exports and its report: shared by simulate and evaluate."""
    cfg = EvalConfig(bound=args.bound, rank_depth=args.rank_depth, scenario=args.scenario)
    report = run_experiment(dataset, k=args.folds, seed=args.seed, cfg=cfg)
    if getattr(args, "dump_scores", None):  # simulate only
        dump_dataset_scores(dataset, args.dump_scores)
    if args.save_model:
        model = train_fusion_model(dataset.face, dataset.ecg, dataset.labels, cfg)
        save_fusion_model(model, args.save_model)
    _emit(format_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    subjects, samples = {"desk": DESK_PRESET, "full": FULL_PRESET}[args.preset]
    if args.subjects is not None:
        subjects = args.subjects
    if args.samples is not None:
        samples = args.samples
    if args.scenario == "clean" and (args.face_rule is not None or args.ecg_rule is not None):
        raise _UsageError("--face-rule/--ecg-rule require --scenario degraded")
    # the dataset is one (2, subjects * samples, subjects) float64 block: check it before calibrating
    size = 16 * subjects * samples * subjects
    if min(subjects, samples) > 0 and size > np.iinfo(np.intp).max:
        raise ValidationError(
            f"--subjects {subjects} and --samples {samples} need a {size}-byte dataset, "
            "more than this platform can address"
        )

    clean_cal = calibrate_clean_regime(
        num_classes=subjects,
        samples_per_class=samples,
        face_target=args.face_target,
        ecg_target=args.ecg_target,
    )
    if args.scenario == "degraded":
        default = DegradationScenario.default_degraded()
        scenario = DegradationScenario(
            face_rule=SubjectRule(args.face_rule) if args.face_rule is not None else default.face_rule,
            ecg_rule=SubjectRule(args.ecg_rule) if args.ecg_rule is not None else default.ecg_rule,
        )
        regime = calibrate_degraded_regime(
            clean_cal,
            face_overall_target=args.face_overall,
            ecg_overall_target=args.ecg_overall,
            scenario=scenario,
        )
    else:
        regime = clean_cal

    # the second child of the run seed, so a given --seed keeps its dataset
    data_seed = np.random.SeedSequence(args.seed).spawn(2)[1]
    dataset = generate_dataset(regime.face, regime.ecg, regime.scenario, data_seed)
    return _run_and_report(dataset, args)


def _cmd_evaluate(args) -> int:
    if not args.face or not args.ecg:
        raise _UsageError("evaluate requires --face and --ecg score files")
    dataset = load_paired_dataset(args.face, args.ecg, normalize=not args.no_normalize)
    return _run_and_report(dataset, args)


def _cmd_fuse(args) -> int:
    model = load_fusion_model(args.model)
    c_face = _parse_vector(args.face)
    c_ecg = _parse_vector(args.ecg)
    sys.stdout.write(f"{predict_fused(c_face, c_ecg, model)}\n")
    return EXIT_OK


def _cmd_prep_ecg(args) -> int:
    sig = read_signal(args.input, sample_rate=args.rate)
    detector = PeakDetectorConfig(
        threshold_fraction=args.threshold_fraction,
        search_window_seconds=args.search_window,
    )
    write_signal(preprocess(sig, detector, duration_seconds=args.duration), args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    template = GeneratorParams(
        num_classes=args.classes,
        samples_per_class=1,  # calibration never reads the sample count
        true_class_mean=args.mean,
    )
    result = calibrate(args.target, template, sigma_range=(args.sigma_min, args.sigma_max))
    doc = {
        "target": result.target,
        "sigma": result.sigma,
        "achieved": result.achieved,
        "num_classes": args.classes,
        "true_class_mean": args.mean,
    }
    _emit(json_text(doc), args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "fuse": _cmd_fuse,
    "prep-ecg": _cmd_prep_ecg,
    "calibrate": _cmd_calibrate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        if getattr(args, "config", None):
            # config values become the subcommand's defaults, so explicit flags still win;
            # set_defaults outlives the call, so they go on a parser no other call shares
            parser = _build_parser.__wrapped__()
            command = parser.commands[args.command]
            command.set_defaults(**_config_defaults(command, args.command, args.config))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: usage: {exc}\n")
        return EXIT_USAGE
    except ValidationError as exc:
        sys.stderr.write(f"error: invalid data: {exc}\n")
        return EXIT_DATA
    except (CalibrationError, OSError) as exc:
        sys.stderr.write(f"error: runtime: {exc}\n")
        return EXIT_RUNTIME
    except Exception as exc:  # keep the contract: any failure is one line + code 3
        sys.stderr.write(f"error: runtime: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
