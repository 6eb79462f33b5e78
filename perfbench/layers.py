"""Per-layer metrics of a traced run, computed from its spans and notes.

Each entry of :data:`PER_LAYER` is (metric, unit, better, kind, key):

``call``     median duration per call of the span named ``key``
``self``     median self time per call of that span
``calls``    calls of that span per iteration
``sum``      per-iteration sum of the note ``key``
``value``    median of the note ``key``
``share``    self time of the module ``key`` over the traced wall time
``replay``   the kernel replay at the training shape; ``replay.infer`` at
             the inference shape
``checkpoint`` the checkpoint round trip, which every workload gets alike:
             the augment command only loads a checkpoint, the sweep neither
             saves nor loads one
``overhead`` traced over untraced iteration wall time
``absent``   wrapped functions or kernels that could not be found

Medians are taken over the traced iterations.  A function the workload never
calls reads 0.
"""

from __future__ import annotations

from statistics import median

from spans import self_times

MODULES = ("nn_engine", "training", "pipeline", "augmentation", "data_io", "rng",
           "report", "cli", "bench")
BLOCKS = (1, 2, 3)


def _replay_entries():
    train, infer = [], []
    for layer in ("conv", "bn", "relu"):
        for i in BLOCKS:
            for way in ("fwd", "bwd"):
                key = f"{layer}{i}.{way}"
                train.append((f"nn_engine.{key}_us", "us", "lower", "replay", key))
            key = f"{layer}{i}.fwd"
            infer.append((f"nn_engine.{key}_us.infer", "us", "lower", "replay.infer", key))
    for way in ("fwd", "bwd"):
        train.append((f"nn_engine.gap_dense.{way}_us", "us", "lower", "replay",
                       f"gap_dense.{way}"))
    infer.append(("nn_engine.gap_dense.fwd_us.infer", "us", "lower", "replay.infer",
                  "gap_dense.fwd"))
    return train + infer


PER_LAYER = (
    ("nn_engine.fcn_forward.train.ms", "ms", "lower", "call", "nn_engine.fcn_forward.train"),
    ("nn_engine.fcn_forward.infer.ms", "ms", "lower", "call", "nn_engine.fcn_forward.infer"),
    ("nn_engine.fcn_backward.ms", "ms", "lower", "call", "nn_engine.fcn_backward"),
    ("nn_engine.xent_loss.us", "us", "lower", "call", "nn_engine.xent_loss"),
    *_replay_entries(),
    ("training.adam_step.us", "us", "lower", "call", "training.adam_step"),
    ("training.evaluate.ms", "ms", "lower", "call", "training.evaluate"),
    ("training.train.self_ms", "ms", "lower", "self", "training.train"),
    ("training.steps.count", "count", "lower", "calls", "training.adam_step"),
    ("training.snapshot.count", "count", "lower", "calls", "training.snapshot"),
    ("training.best_epoch_ratio", "ratio", "higher", "value", "training.best_epoch_ratio"),
    ("training.best_val_loss", "nats", "lower", "value", "training.best_val_loss"),
    ("training.save_checkpoint.ms", "ms", "lower", "checkpoint", "save_ms"),
    ("training.load_checkpoint.ms", "ms", "lower", "checkpoint", "load_ms"),
    ("training.checkpoint_bytes", "bytes", "lower", "checkpoint", "bytes"),
    ("pipeline.select_low_confidence.ms", "ms", "lower", "call",
     "pipeline.select_low_confidence"),
    ("pipeline.selected.count", "count", "lower", "sum", "pipeline.selected.count"),
    ("pipeline.selection_ratio", "ratio", "lower", "value", "pipeline.selection_ratio"),
    ("augmentation.augment_sample.us", "us", "lower", "call", "augmentation.augment_sample"),
    ("augmentation.spline_resample.us", "us", "lower", "call", "augmentation.spline_resample"),
    ("augmentation.slice_window.us", "us", "lower", "call", "augmentation.slice_window"),
    ("augmentation.degenerate.count", "count", "lower", "sum", "augmentation.degenerate.count"),
    ("data_io.load_ucr_file.ms", "ms", "lower", "call", "data_io.load_ucr_file"),
    ("data_io.parsed_bytes", "bytes", "lower", "sum", "data_io.parsed_bytes"),
    ("data_io.serialize_ucr.ms", "ms", "lower", "call", "data_io.serialize_ucr"),
    ("data_io.znormalize.count", "count", "lower", "calls", "data_io.znormalize"),
    ("rng.generator.us", "us", "lower", "call", "rng.generator"),
    ("rng.generator.count", "count", "lower", "calls", "rng.generator"),
    ("report.report_document.ms", "ms", "lower", "call", "report.report_document"),
    ("report.write_json.ms", "ms", "lower", "call", "report.write_json"),
    ("report.svg_line_chart.ms", "ms", "lower", "call", "report.svg_line_chart"),
    ("cli.main.self_ms", "ms", "lower", "self", "cli.main"),
    *((f"{m}.self_share", "ratio", "lower", "share", m) for m in MODULES),
    ("trace.overhead_ratio", "ratio", "lower", "overhead", None),
    ("trace.absent.count", "count", "lower", "absent", None),
)

SCALE = {"ms": 1e3, "us": 1e6}


def _median_or_zero(values) -> float:
    return median(values) if values else 0.0


def per_layer(traced, untraced_walls, replay, checkpoint, absent) -> dict:
    """{metric: {"value", "unit"}} from the traced iterations and the replays.

    ``traced`` holds objects with ``spans``, ``notes`` and ``wall``;
    ``replay`` maps "train"/"infer" to the kernel replay results and
    ``checkpoint`` holds the round trip's "save_ms", "load_ms" and "bytes".
    """
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    share_time = dict.fromkeys(MODULES, 0.0)
    calls = []
    for rec in traced:
        per_iter: dict[str, int] = {}
        for (name, start, end, _), own in zip(rec.spans, self_times(rec.spans)):
            durations.setdefault(name, []).append(end - start)
            selfs.setdefault(name, []).append(own)
            per_iter[name] = per_iter.get(name, 0) + 1
            module = name.split(".", 1)[0]
            if module in share_time:
                share_time[module] += own
        calls.append(per_iter)
    traced_wall = sum(rec.wall for rec in traced)

    out = {}
    for metric, unit, _, kind, key in PER_LAYER:
        scale = SCALE.get(unit, 1.0)
        if kind == "call":
            value = _median_or_zero(durations.get(key, [])) * scale
        elif kind == "self":
            value = _median_or_zero(selfs.get(key, [])) * scale
        elif kind == "calls":
            value = median([c.get(key, 0) for c in calls])
        elif kind == "sum":
            value = median([sum(rec.notes.get(key, ())) for rec in traced])
        elif kind == "value":
            value = _median_or_zero([v for rec in traced for v in rec.notes.get(key, ())])
        elif kind == "share":
            value = share_time[key] / traced_wall
        elif kind.startswith("replay"):
            shape = "infer" if kind == "replay.infer" else "train"
            value = replay[shape].get(key, {}).get("us", 0.0)
        elif kind == "checkpoint":
            value = checkpoint.get(key, 0.0)
        elif kind == "overhead":
            value = median([rec.wall for rec in traced]) / median(untraced_walls)
        else:
            value = len(absent)
        out[metric] = {"value": value, "unit": unit}
    return out
