"""Command-line entry points: baseline, selective, sweep, augment, evaluate.

Flag values override an optional JSON config file, which overrides
:data:`DEFAULTS`, the one option table (training defaults come from
``TrainConfig``); a config key outside it exits 2.  Option types are checked
before any input is read.  Training commands load their inputs, check the
thresholds, the window fraction and the window it gives, and the ``--val``
mode with :func:`~fcnaug.pipeline.check_run`, and only then create ``--out``
and train; ``baseline`` and ``selective`` pass the sets that check returned
to :func:`~fcnaug.pipeline.run_row`.  ``evaluate`` writes ``evaluate.json``
only when ``out`` is set by a flag or the config file.  Every output file is
written with :func:`~fcnaug.data_io.write_atomic`, so an interrupted command
leaves each file whole or as it was, and the augmented sets are streamed to
it line by line.

Exit codes, set by the error's type in :func:`main` alone: 0 success; 2 for
an :class:`~fcnaug.errors.InputError` (bad flags, config keys or values,
input files, and every out-of-range parameter); 1 for any other
:class:`~fcnaug.errors.FcnAugError` or an ``OSError`` (training, checkpoint
and file-system failures).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .augmentation import DEFAULT_WINDOW_FRACTION
from .data_io import Dataset, load_ucr_file, remap_labels, serialize_ucr, split_test, write_atomic
from .errors import FcnAugError, InputError
from .pipeline import (
    VAL_TESTA,
    DataSplits,
    RowSpec,
    augment_selected,
    check_run,
    run_row,
    select_low_confidence,
    sweep,
)
from .report import (
    curve_csv,
    curve_points,
    report_csv,
    report_document,
    svg_line_chart,
    sweep_table_csv,
    write_json,
)
from .rng import RngStream
from .training import TrainConfig, evaluate, history_csv, load_checkpoint, save_checkpoint

TRAIN_KEYS = ("seed", "epochs", "batch_size")
FORMATS = ("json", "csv")
MAX_RANGE_THRESHOLDS = 1000  # each threshold of a sweep is one training
DEFAULTS = {
    **{key: getattr(TrainConfig(), key) for key in TRAIN_KEYS},
    "fraction": DEFAULT_WINDOW_FRACTION,
    "val": VAL_TESTA,
    "out": "runs",
    "format": FORMATS[0],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcnaug",
        description="Selective window-slice augmentation for FCN time-series classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, training: bool = True) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help=f"base seed (default {DEFAULTS['seed']})")
        p.add_argument("--out", help=f"output directory (default {DEFAULTS['out']}/)")
        p.add_argument("--format", choices=FORMATS, help=f"report format (default "
                       f"{DEFAULTS['format']}; csv adds a CSV copy)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamps so reruns are byte-identical")
        if training:
            p.add_argument("--epochs", type=int,
                           help=f"training epochs (default {DEFAULTS['epochs']})")
            p.add_argument("--batch-size", type=int, dest="batch_size",
                           help=f"batch size (default {DEFAULTS['batch_size']})")
            p.add_argument("--val", help="validation set: testa or holdout:<fraction> "
                                         f"(default {DEFAULTS['val']})")

    p = sub.add_parser("baseline", help="train on the raw training set and evaluate")
    p.add_argument("--train", required=True, help="UCR training file")
    p.add_argument("--test", required=True, help="UCR test file (split in half)")
    common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("selective", help="full selective-augmentation run at one threshold")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--alpha", type=float, required=True,
                   help="confidence-margin threshold in [0, 1]")
    p.add_argument("--fraction", type=float,
                   help=f"window fraction (default {DEFAULTS['fraction']})")
    common(p)
    p.set_defaults(func=cmd_selective)

    p = sub.add_parser("sweep", help="baseline plus one selective run per threshold")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--alphas", required=True,
                   help=f"thresholds: start:stop:step (at most {MAX_RANGE_THRESHOLDS}) "
                   "or a comma-separated list")
    p.add_argument("--fraction", type=float)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("augment", help="inspect selection and augmentation for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--probe", required=True, help="UCR file scored for low confidence")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--fraction", type=float)
    common(p, training=False)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("evaluate", help="accuracy/loss of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    common(p, training=False)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FcnAugError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1


# ---------------------------------------------------------------------------
# option resolution
# ---------------------------------------------------------------------------


def _resolve_options(args) -> dict:
    file_values = {}
    if getattr(args, "config", None):
        path = _existing(args.config)
        try:
            file_values = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise InputError(f"config file {path} must contain a JSON object")
        unknown = sorted(set(file_values) - DEFAULTS.keys())
        if unknown:
            raise InputError(f"config file {path} has unknown keys {unknown}; "
                             f"known keys are {list(DEFAULTS)}")

    opts = {}
    for name, default in DEFAULTS.items():
        value = getattr(args, name, None)
        if value is None:
            value = file_values.get(name, default)
        # Each option has its default's type; bool is an int subclass, and a
        # JSON integer is a valid float.
        kind = type(default)
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise InputError(f"{name} must be of type {kind.__name__}, got {value!r}")
        opts[name] = kind(value)
    if opts["format"] not in FORMATS:
        raise InputError(f"format must be one of {FORMATS}, got {opts['format']!r}")
    opts["train"] = TrainConfig(**{key: opts[key] for key in TRAIN_KEYS})
    opts["with_timestamp"] = not getattr(args, "no_timestamp", False)
    # The options set by a flag or the config file rather than by DEFAULTS.
    opts["given"] = file_values.keys() | {
        name for name in DEFAULTS if getattr(args, name, None) is not None}
    return opts


def _existing(path_str: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise InputError(f"file not found: {path}")
    return path


def _load_dataset(path_str: str) -> Dataset:
    path = _existing(path_str)
    try:
        return remap_labels(load_ucr_file(path))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_split(args) -> DataSplits:
    train_ds = _load_dataset(args.train)
    test_ds = _load_dataset(args.test)
    try:
        return DataSplits(train_ds, *split_test(test_ds))
    except InputError as exc:
        raise InputError(f"{args.test}: {exc}") from None


def _parse_alphas(spec_str: str) -> list[float]:
    try:
        if ":" in spec_str:
            parts = spec_str.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
                raise ValueError("need finite bounds, step > 0 and stop >= start")
            steps = (stop - start) / step
            if steps >= MAX_RANGE_THRESHOLDS - 0.5:  # checked before round() meets inf
                raise ValueError(f"a range makes at most {MAX_RANGE_THRESHOLDS} thresholds")
            count = int(round(steps)) + 1
            values = [round(start + i * step, 12) for i in range(count)]
            values = [v for v in values if v <= stop + 1e-9]
        else:
            values = [float(x) for x in spec_str.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad --alphas value {spec_str!r}: {exc}") from None
    if not values:
        raise InputError("--alphas produced an empty threshold list")
    return values


def _outdir(opts) -> Path:
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out: Path, report, opts) -> None:
    """``<mode>.report.json``, plus ``<mode>.report.csv`` under ``--format csv``."""
    write_json(out / f"{report.mode}.report.json",
               report_document(report, opts["with_timestamp"]))
    if opts["format"] == "csv":
        write_atomic(out / f"{report.mode}.report.csv", report_csv(report))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_baseline(args) -> int:
    opts = _resolve_options(args)
    splits = _load_split(args)
    train_used, val_set = check_run(splits, [], opts["fraction"], opts["val"])
    out = _outdir(opts)
    artifacts = run_row(RowSpec(opts["train"], None, opts["fraction"], opts["val"]),
                        train_used, val_set, splits.test_a, splits.test_b)
    _write_report(out, artifacts.report, opts)
    save_checkpoint(artifacts.model, out / "baseline.ckpt.json")
    write_atomic(out / "baseline.history.csv", history_csv(artifacts.model))
    r = artifacts.report
    print(f"baseline: accuracy={r.accuracy:.4f} loss={r.loss:.4f} "
          f"best_epoch={r.best_epoch} out={out}")
    return 0


def cmd_selective(args) -> int:
    opts = _resolve_options(args)
    splits = _load_split(args)
    train_used, val_set = check_run(splits, [args.alpha], opts["fraction"], opts["val"])
    out = _outdir(opts)
    artifacts = run_row(RowSpec(opts["train"], args.alpha, opts["fraction"], opts["val"]),
                        train_used, val_set, splits.test_a, splits.test_b)
    _write_report(out, artifacts.report, opts)
    save_checkpoint(artifacts.initial_model, out / "selective.initial.ckpt.json")
    save_checkpoint(artifacts.model, out / "selective.final.ckpt.json")
    write_atomic(out / "selective.train_expanded.tsv", serialize_ucr(artifacts.expanded_train))
    write_atomic(out / "selective.history.csv", history_csv(artifacts.model))
    r = artifacts.report
    print(f"selective: alpha={args.alpha} selected={r.selected_count} "
          f"accuracy={r.accuracy:.4f} loss={r.loss:.4f} out={out}")
    return 0


def cmd_sweep(args) -> int:
    opts = _resolve_options(args)
    thresholds = _parse_alphas(args.alphas)
    splits = _load_split(args)
    check_run(splits, thresholds, opts["fraction"], opts["val"])
    out = _outdir(opts)
    reports = sweep(opts["train"], splits, thresholds, opts["fraction"], opts["val"])
    write_json(out / "sweep.reports.json",
               [report_document(r, opts["with_timestamp"]) for r in reports])
    table = sweep_table_csv(reports)
    write_atomic(out / "sweep.table.csv", table)
    for metric in ("accuracy", "loss"):
        write_atomic(out / f"sweep.{metric}.csv", curve_csv(reports, metric))
        xs, ys = zip(*curve_points(reports, metric))
        write_atomic(out / f"sweep.{metric}.svg", svg_line_chart(
            xs, ys, f"{metric.capitalize()} by confidence threshold", "alpha threshold", metric))
    print(table, end="")
    return 0


def cmd_augment(args) -> int:
    opts = _resolve_options(args)
    model = load_checkpoint(_existing(args.checkpoint))
    probe = _load_dataset(args.probe)
    selection = select_low_confidence(model.params, probe, args.alpha)
    augmented, labels = augment_selected(
        probe, selection, opts["fraction"], RngStream(opts["seed"]))
    out = _outdir(opts)
    write_json(out / "augment.selection.json", {
        "threshold": selection.threshold,
        "indices": list(selection.indices),
        "alphas": list(selection.alphas),
        "augmented_count": len(augmented),
    })
    augmented_path = out / "augment.augmented.tsv"
    if augmented:
        rows = Dataset([a.values for a in augmented], labels, probe.class_count)
        write_atomic(augmented_path, serialize_ucr(rows))
    else:
        write_atomic(augmented_path, "")
        print("warning: no samples fell below the threshold; wrote an empty file",
              file=sys.stderr)
    print(f"augment: selected={len(selection.indices)} "
          f"augmented={len(augmented)} out={out}")
    return 0


def cmd_evaluate(args) -> int:
    opts = _resolve_options(args)
    model = load_checkpoint(_existing(args.checkpoint))
    data = _load_dataset(args.data)
    accuracy, loss = evaluate(model.params, data)
    if opts["format"] == "json":
        print(json.dumps({"accuracy": accuracy, "loss": loss}, sort_keys=True))
    else:
        print(f"accuracy={accuracy!r} loss={loss!r}")
    if "out" in opts["given"]:
        out = _outdir(opts)
        write_json(out / "evaluate.json", {"accuracy": accuracy, "loss": loss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
