"""The three benchmark workloads and the probes that time them.

Every workload is one ``fcnaug`` command run in-process through
``fcnaug.cli.main``, as a batch job that waits for its own result: a closed
loop with a single caller.  Each iteration of the timed loop runs the
command once more on the same inputs.

``train_ecg200``  ``fcnaug baseline`` on ECG200 at a truncated epoch count.
    Nearly all of its time is the engine's forward/backward at batch 32 plus
    Adam and the per-epoch validation pass; it is where a conv or
    batch-norm kernel change shows.
``sweep_ecg200``  ``fcnaug sweep`` over thresholds from low to high on a
    short schedule: 1 + 2k independent trainings plus selection,
    augmentation and the reports, CSVs and SVGs.  It is the work run-level
    parallelism would speed up, and it exposes the fixed cost per training.
    On a short schedule the batch-norm running statistics have not
    converged, margins sit near 0 and every probe sample is selected, so
    the retrains see 200 samples: the augmentation-heavy end of a sweep.
``score_augment``  ``fcnaug augment`` on a seeded probe file of a few
    thousand ECG200-derived series and a checkpoint made beforehand:
    parse, infer-mode scoring at batch 256 (no backward, no Adam), window-
    slice augmentation of the selected rows and serialization.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

import numpy as np

import inputs
from spans import Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data" / "ECG200"
TRAIN_FILE = DATA / "ECG200_TRAIN.tsv"
TEST_FILE = DATA / "ECG200_TEST.tsv"

TRAIN_EPOCHS = 20
SWEEP_EPOCHS = 5
SWEEP_ALPHAS = (0.1, 0.5, 0.9)
PROBE_ROWS = 2048
PROBE_ALPHA = 0.5
AUGMENT_BLOCK = 16  # augment_sample calls timed as one operation
CHECKPOINT_EPOCHS = 5
INFER_CHUNK = 256  # infer_logits' default chunk, used by the augment command


class MissingInput(Exception):
    """The checkout lacks the package source or the ECG200 data."""


def import_package():
    """Import ``fcnaug`` from the checkout's ``src/`` and return the package."""
    for path in (SRC / "fcnaug" / "__init__.py", TRAIN_FILE, TEST_FILE):
        if not path.is_file():
            raise MissingInput(f"missing {path.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fcnaug
    import fcnaug.cli  # the command entry point every workload runs

    return fcnaug


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "train")
    return f"nn_engine.fcn_forward.{mode}"


def _observe_train(tracer, args, kwargs, model) -> None:
    tracer.note("train.set_size", len(args[1]))
    tracer.note("training.best_epoch_ratio", model.best_epoch / len(model.history))
    tracer.note("training.best_val_loss", model.best_val_loss)


def _observe_evaluate(tracer, args, kwargs, result) -> None:
    tracer.note("training.evaluate.samples", len(args[1]))


def _observe_select(tracer, args, kwargs, selection) -> None:
    probe = len(args[1])
    tracer.note("pipeline.select_low_confidence.samples", probe)
    tracer.note("pipeline.selected.count", len(selection.indices))
    tracer.note("pipeline.selection_ratio", len(selection.indices) / probe)


def _observe_augment(tracer, args, kwargs, pair) -> None:
    tracer.note("augmentation.degenerate.count", sum(s.degenerate for s in pair))


def _observe_load_file(tracer, args, kwargs, result) -> None:
    tracer.note("data_io.parsed_bytes", Path(args[0]).stat().st_size)


TRAIN = Probe("training:train", "training.train", _observe_train)
EVALUATE = Probe("training:evaluate", "training.evaluate", _observe_evaluate)
SELECT = Probe("pipeline:select_low_confidence", "pipeline.select_low_confidence",
               _observe_select)
AUGMENT = Probe("augmentation:augment_sample", "augmentation.augment_sample",
                _observe_augment)

# Every public function whose time the traced run attributes to a layer.
FULL_PROBES = (
    Probe("cli:main", "cli.main"),
    Probe("pipeline:sweep", "pipeline.sweep"),
    Probe("pipeline:run_baseline_detailed", "pipeline.run_baseline_detailed"),
    Probe("pipeline:run_selective_detailed", "pipeline.run_selective_detailed"),
    SELECT,
    TRAIN,
    EVALUATE,
    Probe("training:adam_step", "training.adam_step"),
    Probe("training:save_checkpoint", "training.save_checkpoint"),
    Probe("training:load_checkpoint", "training.load_checkpoint"),
    Probe("nn_engine:FcnParams.copy", "training.snapshot"),
    Probe("nn_engine:init_params", "nn_engine.init_params"),
    Probe("nn_engine:fcn_forward", _forward_name),
    Probe("nn_engine:fcn_backward", "nn_engine.fcn_backward"),
    Probe("nn_engine:xent_loss", "nn_engine.xent_loss"),
    AUGMENT,
    Probe("augmentation:slice_window", "augmentation.slice_window"),
    Probe("augmentation:spline_resample", "augmentation.spline_resample"),
    Probe("data_io:load_ucr_file", "data_io.load_ucr_file", _observe_load_file),
    Probe("data_io:remap_labels", "data_io.remap_labels"),
    Probe("data_io:serialize_ucr", "data_io.serialize_ucr"),
    Probe("data_io:znormalize", "data_io.znormalize"),
    Probe("rng:RngStream.generator", "rng.generator"),
    Probe("report:report_document", "report.report_document"),
    Probe("report:write_json", "report.write_json"),
    Probe("report:svg_line_chart", "report.svg_line_chart"),
)


def epochs(spans) -> list[list[tuple[float, float, float]]]:
    """Per training, in call order: each epoch's start, validation start and end.

    An epoch runs from the training's start, or the previous validation's
    end, to the end of its own validation call.
    """
    out, last_end = {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "training.train":
            out[i], last_end[i] = [], start
        elif name == "training.evaluate" and parent in out:
            out[parent].append((last_end[parent], start, end))
            last_end[parent] = end
    return list(out.values())


def epoch_ms(spans) -> list[float]:
    """Epoch durations in ms, validation included."""
    return [(end - start) * 1e3 for training in epochs(spans) for start, _, end in training]


def pass_ms_per_sample(spans, set_sizes) -> list[float]:
    """Each epoch's training pass, validation excluded, per training sample, in ms.

    ``set_sizes`` holds the training-set size of each training, in call order.
    """
    return [(val_start - start) * 1e3 / size
            for training, size in zip(epochs(spans), set_sizes)
            for start, val_start, _ in training]


def _durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


def _rates(spans, notes, name: str) -> list[float]:
    """Per-call samples per second of the span ``name`` and its ``.samples`` notes."""
    return [n / d for n, d in zip(notes.get(f"{name}.samples", ()), _durations(spans, name))]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One ``fcnaug`` command, its seeded inputs and its output checks."""

    name = ""
    op_label = ""
    clock_probes: tuple[Probe, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"

    def prepare(self, fc) -> None:
        """Write the seeded inputs (untimed)."""

    def setup(self, fc):
        """Read, parse, remap and split the inputs, as the command does."""
        load = fc.data_io.load_ucr_file
        train = fc.data_io.remap_labels(load(TRAIN_FILE))
        test_a, test_b = fc.data_io.split_test(fc.data_io.remap_labels(load(TEST_FILE)))
        return train, test_a, test_b

    def argv(self) -> list[str]:
        raise NotImplementedError

    def ops(self, notes) -> int:
        """Operations one iteration attempts."""
        raise NotImplementedError

    def op_ms(self, spans, notes) -> list[float]:
        """Durations of the workload's unit operation, in ms."""
        raise NotImplementedError

    def infer_rates(self, spans, notes) -> list[float]:
        """Samples per second of each infer-mode scoring call."""
        raise NotImplementedError

    def check(self, fc, stdout: str) -> tuple[list[str], dict]:
        """Output problems found, and quality figures worth printing."""
        raise NotImplementedError

    def info(self, records) -> dict:
        """Figures derived from the untraced iterations, printed but not gated."""
        raise NotImplementedError

    def output_digest(self, stdout: str) -> str:
        h = hashlib.sha256(stdout.encode())
        for path in sorted(p for p in self.out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(self.out)).encode() + b"\0")
            h.update(path.read_bytes())
        return h.hexdigest()


class TrainingWorkload(Workload):
    """A command whose time is trainings; its unit operation is one epoch."""

    op_label = "epoch"
    clock_probes = (TRAIN, EVALUATE)

    def op_ms(self, spans, notes):
        return epoch_ms(spans)

    def infer_rates(self, spans, notes):
        return _rates(spans, notes, "training.evaluate")

    def info(self, records):
        samples = sum(size * len(training) for r in records
                      for training, size in zip(epochs(r.spans), r.notes.get("train.set_size", ())))
        train_s = sum(sum(_durations(r.spans, "training.train")) for r in records)
        infer_s = sum(sum(_durations(r.spans, "training.evaluate")) for r in records)
        return {"train_samples_per_s": {"value": samples / (train_s - infer_s), "unit": "1/s"}}


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _validate_reports(fc, docs) -> list[str]:
    import jsonschema

    problems = []
    for i, doc in enumerate(docs):
        try:
            jsonschema.validate(doc, fc.report.REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            problems.append(f"report {i} fails REPORT_SCHEMA: {exc.message}")
        if not _finite(doc.get("loss")):
            problems.append(f"report {i} has a non-finite loss")
    return problems


class TrainEcg200(TrainingWorkload):
    name = "train_ecg200"

    def argv(self):
        return ["baseline", "--train", str(TRAIN_FILE), "--test", str(TEST_FILE),
                "--seed", str(self.seed), "--epochs", str(TRAIN_EPOCHS), "--no-timestamp"]

    def ops(self, notes):
        return 1

    def check(self, fc, stdout):
        report = json.loads((self.out / "baseline.report.json").read_text())
        problems = _validate_reports(fc, [report])
        model = fc.training.load_checkpoint(self.out / "baseline.ckpt.json")
        losses = [x for h in model.history for x in (h.train_loss, h.val_loss)]
        if len(model.history) != TRAIN_EPOCHS or not all(map(_finite, losses)):
            problems.append("checkpoint history is incomplete or has non-finite losses")
        if not _finite(model.best_val_loss):
            problems.append("best validation loss is not finite")
        return problems, {"final_val_loss": {"value": model.best_val_loss, "unit": "nats"}}

    def info(self, records):
        out = super().info(records)
        p50 = median([ms for r in records for ms in epoch_ms(r.spans)])
        # Projections for a full-length run, from this workload's median epoch.
        out["projected_baseline_500_epochs_s"] = {"value": 500 * p50 / 1e3, "unit": "s"}
        out["projected_sweep_17_trainings_s"] = {"value": 17 * 500 * p50 / 1e3, "unit": "s"}
        return out


class SweepEcg200(TrainingWorkload):
    name = "sweep_ecg200"
    # Retrains run on the probe's augmented set as well, so their epochs are
    # longer by however many samples were selected; per sample, the two kinds
    # of training are one figure.
    op_label = "epoch training pass, per training sample"

    def op_ms(self, spans, notes):
        return pass_ms_per_sample(spans, notes.get("train.set_size", ()))

    def argv(self):
        return ["sweep", "--train", str(TRAIN_FILE), "--test", str(TEST_FILE),
                "--alphas", ",".join(map(str, SWEEP_ALPHAS)), "--seed", str(self.seed),
                "--epochs", str(SWEEP_EPOCHS), "--no-timestamp"]

    def ops(self, notes):
        return 1 + 2 * len(SWEEP_ALPHAS)

    def check(self, fc, stdout):
        docs = json.loads((self.out / "sweep.reports.json").read_text())
        problems = _validate_reports(fc, docs)
        modes = [(d.get("mode"), d.get("alpha_threshold")) for d in docs]
        if modes != [("baseline", None)] + [("selective", a) for a in SWEEP_ALPHAS]:
            problems.append(f"sweep rows are {modes}")
        for d in docs[1:]:
            if d.get("augmented_count") != 2 * d.get("selected_count", -1):
                problems.append(f"row alpha={d.get('alpha_threshold')}: augmented != 2 x selected")
        table = (self.out / "sweep.table.csv").read_text().splitlines()
        if len(table) != 2 + len(SWEEP_ALPHAS) or stdout.splitlines() != table:
            problems.append("sweep table is incomplete or differs from stdout")
        for chart in ("sweep.accuracy.svg", "sweep.loss.svg"):
            if not (self.out / chart).read_text().startswith("<svg"):
                problems.append(f"{chart} is not an SVG document")
        return problems, {}


class ScoreAugment(Workload):
    name = "score_augment"
    op_label = f"{AUGMENT_BLOCK} consecutive augment_sample calls"
    clock_probes = (SELECT, AUGMENT)

    @property
    def probe_file(self) -> Path:
        return self.workdir / "probe.tsv"

    @property
    def checkpoint(self) -> Path:
        return self.workdir / "checkpoint" / "baseline.ckpt.json"

    def prepare(self, fc):
        labels, values = zip(*(inputs.read_ucr_rows(p) for p in (TRAIN_FILE, TEST_FILE)))
        rows = inputs.make_probe_rows(np.concatenate(labels), np.concatenate(values),
                                      PROBE_ROWS, self.seed)
        self.probe_file.write_text(inputs.ucr_text(*rows))
        with redirect_stdout(io.StringIO()):
            code = fc.cli.main(["baseline", "--train", str(TRAIN_FILE), "--test", str(TEST_FILE),
                                "--seed", str(self.seed), "--epochs", str(CHECKPOINT_EPOCHS),
                                "--no-timestamp", "--out", str(self.checkpoint.parent)])
        if code != 0:
            raise RuntimeError(f"making the checkpoint failed with exit code {code}")

    def setup(self, fc):
        splits = super().setup(fc)
        model = fc.training.load_checkpoint(self.checkpoint)
        probe = fc.data_io.remap_labels(fc.data_io.load_ucr_file(self.probe_file))
        return splits, model, probe

    def argv(self):
        return ["augment", "--checkpoint", str(self.checkpoint), "--probe", str(self.probe_file),
                "--alpha", str(PROBE_ALPHA), "--seed", str(self.seed), "--no-timestamp"]

    def ops(self, notes):
        selected = sum(notes.get("pipeline.selected.count", ()))
        return math.ceil(PROBE_ROWS / INFER_CHUNK) + selected

    def op_ms(self, spans, notes):
        # Single calls take under a millisecond and resolve the host's speed
        # steps; a block of them averages over those.
        calls = _durations(spans, "augmentation.augment_sample")
        return [sum(calls[i:i + AUGMENT_BLOCK]) * 1e3
                for i in range(0, len(calls) - AUGMENT_BLOCK + 1, AUGMENT_BLOCK)]

    def infer_rates(self, spans, notes):
        return _rates(spans, notes, "pipeline.select_low_confidence")

    def check(self, fc, stdout):
        problems = []
        sel = json.loads((self.out / "augment.selection.json").read_text())
        indices, alphas = sel["indices"], sel["alphas"]
        if not all(_finite(a) and 0.0 <= a < PROBE_ALPHA for a in alphas):
            problems.append("a selected alpha is non-finite or not below the threshold")
        if sel["augmented_count"] != 2 * len(indices) or len(alphas) != len(indices):
            problems.append("augmented count is not twice the selected count")
        table = np.loadtxt(self.out / "augment.augmented.tsv", delimiter="\t", ndmin=2)
        if table.shape != (sel["augmented_count"], 97):
            problems.append(f"augmented file has shape {table.shape}")
        elif not np.isin(table[:, 0], (0, 1)).all():
            problems.append("augmented labels are not 0/1")
        else:
            values = table[:, 1:]
            flat = ~values.any(axis=1)  # degenerate windows normalize to all zeros
            if not (np.allclose(values.mean(axis=1), 0.0, atol=1e-9)
                    and np.allclose(values[~flat].std(axis=1), 1.0, atol=1e-9)):
                problems.append("augmented series are not z-normalized")
        return problems, {}

    def info(self, records):
        pairs = [d for r in records for d in _durations(r.spans, "augmentation.augment_sample")]
        return {"augmented_per_s": {"value": len(pairs) / sum(pairs), "unit": "1/s"}}


WORKLOADS = {w.name: w for w in (TrainEcg200, SweepEcg200, ScoreAugment)}
