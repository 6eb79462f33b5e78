"""Training loop: Adam, reduce-on-plateau scheduling, best-checkpoint restore.

One call to :func:`train` runs the full schedule (500 epochs by default),
keeps the parameter snapshot with the lowest validation loss, and returns
it restored.  Everything is driven by an :class:`~fcnaug.rng.RngStream`,
so a (config, data, seed) triple fully determines the result.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data_io import Dataset, write_atomic
from .errors import (
    CheckpointError,
    NumericError,
    ParameterError,
    ShapeError,
    UnsupportedLabelError,
)
from .nn_engine import (
    INFER,
    TRAIN,
    FcnConfig,
    FcnParams,
    Workspace,
    fcn_backward,
    fcn_forward,
    init_params,
    softmax_batch,
    xent_loss,
    zeros_params,
)
from .rng import RngStream

CHECKPOINT_FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7

# Rows per infer-mode forward.  At 96 points and 64 filters each activation of
# a 32-row block is 1.5 MB, close to a 4 MB L2 cache.  Scoring 2048 rows with
# the stacked block-1 conv and one workspace on a 2-vCPU Xeon, one BLAS
# thread, two sets of 8 interleaved runs: median 5212 and 5338 rows/s at 32,
# 5294 and 5370 at 16, 5270 and 5395 at 64.  Every gap is within 1.6%, about
# one interquartile range (74-119 rows/s).
INFER_BLOCK = 32


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.  Only epochs, batch_size and seed
    are settable; ``asdict`` still lists the fixed fields for the report."""

    epochs: int = 500
    batch_size: int = 32
    initial_lr: float = field(default=1e-3, init=False)
    plateau_factor: float = field(default=0.5, init=False)
    plateau_patience: int = field(default=20, init=False)
    min_lr: float = field(default=1e-4, init=False)
    min_delta: float = field(default=1e-4, init=False)
    seed: int = 0
    shuffle: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be at least 1")


@dataclass
class AdamState:
    """First/second moment accumulators (keyed like FcnParams learnables), plus
    two scratch arrays per tensor that hold the update's temporaries."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


@dataclass(frozen=True)
class PlateauState:
    """Monitor for the reduce-on-plateau schedule."""

    best_val_loss: float
    epochs_since_improvement: int
    current_lr: float


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class TrainedModel:
    """Best-checkpoint parameters plus the full per-epoch history."""

    params: FcnParams
    best_epoch: int
    best_val_loss: float
    history: list[EpochStats]


def adam_step(state: AdamState, params: FcnParams, grads, lr: float):
    """One Adam update with bias correction, applied in place.

    theta -= lr * mhat / (sqrt(vhat) + eps), each temporary written into the
    state's scratch arrays in that expression's operation order.  Raises
    NumericError naming the parameter group if a gradient is not finite.
    """
    state.t += 1
    t = state.t
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, theta in params.learnables():
        g = grads[name]
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
            state.scratch[name] = (np.empty_like(theta), np.empty_like(theta))
        m, v, (a, b) = state.m[name], state.v[name], state.scratch[name]
        m *= b1
        m += np.multiply(1.0 - b1, g, out=a)
        v *= b2
        v += np.multiply(1.0 - b2, np.square(g, out=a), out=a)
        denom = np.sqrt(np.divide(v, 1.0 - b2**t, out=a), out=a)  # sqrt(vhat)
        denom += ADAM_EPS
        step = np.multiply(lr, np.divide(m, 1.0 - b1**t, out=b), out=b)  # lr * mhat
        theta -= np.divide(step, denom, out=b)
    return state, params


def plateau_update(state: PlateauState, val_loss: float, cfg: TrainConfig) -> PlateauState:
    """Advance the plateau monitor by one epoch's validation loss.

    Improvement means val_loss < best - min_delta.  When the stall counter
    reaches the patience, the learning rate is multiplied by the factor
    (never below min_lr) and the counter resets; the recorded best persists
    across reductions.
    """
    if val_loss < state.best_val_loss - cfg.min_delta:
        return PlateauState(val_loss, 0, state.current_lr)
    stalled = state.epochs_since_improvement + 1
    if stalled >= cfg.plateau_patience:
        reduced = max(cfg.min_lr, state.current_lr * cfg.plateau_factor)
        return PlateauState(state.best_val_loss, 0, reduced)
    return PlateauState(state.best_val_loss, stalled, state.current_lr)


def batch_bounds(n: int, batch_size: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) batch windows; the final partial batch is kept."""
    return [(i, min(i + batch_size, n)) for i in range(0, n, batch_size)]


def infer_logits(
    params: FcnParams, values: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    """Infer-mode logits for an (N, L) value matrix, in blocks of INFER_BLOCK rows.

    Every block runs in ``ws``, a new workspace when none is given."""
    if values.shape[1] != params.config.series_len:
        raise ShapeError(
            f"series length {values.shape[1]} does not match the model's "
            f"{params.config.series_len}"
        )
    ws = Workspace() if ws is None else ws
    out = []
    for start in range(0, values.shape[0], INFER_BLOCK):
        x = values[start : start + INFER_BLOCK][:, :, None]
        logits, _ = fcn_forward(params, x, INFER, ws)
        out.append(logits)
    return np.concatenate(out, axis=0)


def evaluate(
    params: FcnParams, data: Dataset, ws: Workspace | None = None
) -> tuple[float, float]:
    """Infer-mode accuracy and mean cross-entropy; never mutates params.

    Prediction is the argmax of the class probabilities with ties broken
    toward class 0.  The forward passes run in ``ws`` when it is given.
    """
    logits = infer_logits(params, data.values, ws)
    labels = data.labels
    loss, _ = xent_loss(logits, labels)
    probs = softmax_batch(logits)
    predictions = probs.argmax(axis=1)  # argmax takes the first max: ties -> class 0
    accuracy = float(np.mean(predictions == labels))
    return accuracy, loss


def train(
    cfg: TrainConfig, train_set: Dataset, val_set: Dataset, rng: RngStream
) -> TrainedModel:
    """Run the full training schedule and return the restored best model.

    Each epoch shuffles the training set (seeded per epoch), steps Adam over
    batches at the scheduler's current rate, evaluates the validation set in
    infer mode, and snapshots the parameters whenever the validation loss
    strictly improves on the best seen.  Every step and validation pass of
    the call shares one :class:`~fcnaug.nn_engine.Workspace`.
    """
    if train_set.class_count != 2 or val_set.class_count != 2:
        raise UnsupportedLabelError("training requires exactly 2 classes")
    if train_set.series_len != val_set.series_len:
        raise ShapeError("training and validation series lengths differ")

    config = FcnConfig(series_len=train_set.series_len, class_count=2)
    params = init_params(config, rng.child("init"))
    adam = AdamState()
    plateau = PlateauState(np.inf, 0, cfg.initial_lr)
    ws = Workspace()

    x_all = train_set.values
    y_all = train_set.labels
    n = len(train_set)

    best_params = None
    best_val_loss = np.inf
    best_epoch = -1
    history: list[EpochStats] = []

    for epoch in range(1, cfg.epochs + 1):
        lr = plateau.current_lr
        order = rng.child("shuffle", epoch).generator().permutation(n)
        loss_sum = 0.0
        for start, stop in batch_bounds(n, cfg.batch_size):
            idx = order[start:stop]
            batch = x_all[idx][:, :, None]
            logits, caches = fcn_forward(params, batch, TRAIN, ws)
            loss, grad_logits = xent_loss(logits, y_all[idx])
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            grads = fcn_backward(params, caches, grad_logits, ws)
            adam_step(adam, params, grads, lr)
            loss_sum += loss * (stop - start)
        train_loss = loss_sum / n

        _, val_loss = evaluate(params, val_set, ws)
        if not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        if val_loss < best_val_loss:
            best_val_loss = val_loss
            best_epoch = epoch
            best_params = params.copy()
        plateau = plateau_update(plateau, val_loss, cfg)
        history.append(EpochStats(train_loss, val_loss, lr))

    assert best_params is not None
    return TrainedModel(best_params, best_epoch, float(best_val_loss), history)


# ---------------------------------------------------------------------------
# checkpoint files
# ---------------------------------------------------------------------------


def save_checkpoint(model: TrainedModel, path: str | Path) -> None:
    """Write the model as a self-describing JSON document.

    Floats are serialized with shortest-roundtrip formatting, so loading
    reproduces every tensor bit-identically.  The document is built as one
    string: ``json.dump``'s streaming path would use the pure-Python encoder.
    """
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(model.params.config),
        "best_epoch": model.best_epoch,
        "best_val_loss": model.best_val_loss,
        "history": [[h.train_loss, h.val_loss, h.lr] for h in model.history],
        "tensors": {
            name: {"shape": list(tensor.shape), "values": tensor.ravel().tolist()}
            for name, tensor in model.params.all_tensors()
        },
    }
    write_atomic(path, (json.dumps(doc, sort_keys=True, allow_nan=False), "\n"))


def _json_value(value, kinds: tuple[type, ...], name: str):
    """``value`` if its JSON type is one of ``kinds``; a bool is never a number."""
    if type(value) not in kinds:
        kind = "an integer" if kinds == (int,) else "a number"
        raise TypeError(f"{name} must be {kind}, got {json.dumps(value)}")
    return value


class _JsonConstant(float):
    """A ``NaN``, ``Infinity`` or ``-Infinity`` literal, which no value type check accepts."""


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Read a checkpoint document back into a TrainedModel, checking each value's JSON type.

    A ``NaN``/``Infinity`` literal, a ``config.class_count`` other than 2 (every
    model is binary), a ``best_epoch`` outside the history and a history row
    that is not three numbers are rejected, each naming its field.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(), parse_constant=_JsonConstant)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format in {path}: "
            f"expected version {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        config = FcnConfig(**{f.name: _json_value(doc["config"][f.name], (int,), f"config.{f.name}")
                              for f in fields(FcnConfig)})
        if config.class_count != 2:
            raise ValueError(f"config.class_count must be 2, got {config.class_count}")
        params = zeros_params(config)
        for name, tensor in params.all_tensors():
            entry = doc["tensors"][name]
            if tuple(entry["shape"]) != tensor.shape:
                raise CheckpointError(
                    f"tensor {name} has shape {entry['shape']}, expected {tensor.shape}"
                )
            tensor[...] = np.array(entry["values"], dtype=np.float64).reshape(tensor.shape)
            if not np.isfinite(tensor).all():
                raise CheckpointError(f"tensor {name} contains non-finite values")
        history = []
        for i, row in enumerate(doc["history"]):
            if type(row) is not list or len(row) != 3:
                raise TypeError(f"history[{i}] must hold 3 numbers, got {json.dumps(row)}")
            history.append(EpochStats(
                *(float(_json_value(x, (int, float), f"history[{i}]")) for x in row)))
        best_val_loss = float(_json_value(doc["best_val_loss"], (int, float), "best_val_loss"))
        best_epoch = _json_value(doc["best_epoch"], (int,), "best_epoch")
        if not 1 <= best_epoch <= len(history):
            raise ValueError(f"best_epoch {best_epoch} is outside 1..{len(history)}")
        return TrainedModel(params, best_epoch, best_val_loss, history)
    except (KeyError, TypeError, ValueError, OverflowError, ParameterError) as exc:
        raise CheckpointError(f"inconsistent checkpoint {path}: {exc}") from None


def history_csv(model: TrainedModel) -> str:
    """Per-epoch history as CSV with columns epoch,train_loss,val_loss,lr."""
    lines = ["epoch,train_loss,val_loss,lr"]
    for i, h in enumerate(model.history, start=1):
        lines.append(f"{i},{h.train_loss!r},{h.val_loss!r},{h.lr!r}")
    return "\n".join(lines) + "\n"
