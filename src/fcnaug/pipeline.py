"""Experiment orchestration: baseline run, selective augmentation, threshold sweep.

The baseline is the prefix of every run: train an initial model and, for a
baseline, evaluate it on the held-back half (test_set_b).  A selective run
continues from there: score the probe set (test_set_a) by confidence margin,
augment every sample whose margin falls strictly below the threshold (twice
each), merge the new series into the training set, retrain from scratch with
identical hyperparameters, and evaluate the retrained model instead.
:func:`check_run` checks a run's parameters before any training starts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .augmentation import DEFAULT_WINDOW_FRACTION, augment_sample, check_window
from .data_io import Dataset, ZNormalized
from .errors import DataFormatError, ParameterError
from .nn_engine import FcnParams, PredictionDist, confidence_margins, softmax_batch
from .rng import RngStream, derive_seed
from .training import TrainConfig, TrainedModel, evaluate, infer_logits, train

VAL_TESTA = "testa"
VAL_HOLDOUT_PREFIX = "holdout:"


@dataclass(frozen=True)
class SelectionResult:
    """Probe-set positions whose confidence margin fell below the threshold."""

    indices: tuple[int, ...]
    alphas: tuple[float, ...]
    threshold: float

    def __post_init__(self):
        if len(self.indices) != len(self.alphas):
            raise ParameterError("indices and alphas must be parallel")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ParameterError("indices must be strictly increasing")
        if any(a >= self.threshold for a in self.alphas):
            raise ParameterError("every selected alpha must be strictly below the threshold")


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one baseline or selective experiment."""

    mode: str  # "baseline" or "selective"
    alpha_threshold: float | None
    selected_count: int
    augmented_count: int
    train_size_final: int
    accuracy: float
    loss: float
    seed: int
    best_epoch: int
    config: dict


@dataclass(frozen=True)
class DataSplits:
    """Preprocessed training set plus the probe/eval halves of the test set."""

    train: Dataset
    test_a: Dataset
    test_b: Dataset

    def __post_init__(self):
        for half in (self.test_a, self.test_b):
            if half.series_len != self.train.series_len:
                raise DataFormatError(f"test series have length {half.series_len}, "
                                      f"training series {self.train.series_len}")


@dataclass
class RunArtifacts:
    """A run's report, reported model and step-1 model (one object for a
    baseline), and a selective run's selection and expanded training set."""

    report: ExperimentReport
    model: TrainedModel
    initial_model: TrainedModel
    selection: SelectionResult | None
    augmented: list[ZNormalized]
    expanded_train: Dataset


def confidence_alpha(dist: PredictionDist) -> float:
    """Absolute difference of the two class probabilities."""
    if dist.probs.shape[0] != 2 or dist.alpha is None:
        raise ParameterError("confidence margin is only defined for 2-class distributions")
    return dist.alpha


def check_threshold(threshold: float) -> None:
    """Reject a confidence-margin threshold (alpha) outside [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ParameterError(f"alpha threshold must lie in [0, 1], got {threshold}")


def predict_alphas(params: FcnParams, probe_set: Dataset) -> np.ndarray:
    """Per-sample confidence margins of infer-mode predictions."""
    return confidence_margins(softmax_batch(infer_logits(params, probe_set.values)))


def select_low_confidence(
    params: FcnParams, probe_set: Dataset, threshold: float
) -> SelectionResult:
    """Samples with margin strictly below the threshold, in probe order.

    Prediction correctness is irrelevant; only the margin matters.
    """
    check_threshold(threshold)
    alphas = predict_alphas(params, probe_set)
    indices = tuple(int(i) for i in np.flatnonzero(alphas < threshold))
    return SelectionResult(indices, tuple(float(alphas[i]) for i in indices), threshold)


def augment_selected(
    probe_set: Dataset, selection: SelectionResult, fraction: float, rng: RngStream
) -> tuple[list[ZNormalized], np.ndarray]:
    """Two augmentations of each selected probe sample, in selection order.

    Returns them with their labels, each selected sample's label twice, so
    that ``[a.values for a in augmented]`` and the labels are the rows to
    add to a dataset.  Sample ``idx`` draws from
    ``rng.child("augment", idx)``, so its pair does not depend on which other
    samples were selected.  The fraction and its window are checked even when
    nothing was selected.
    """
    check_window(probe_set.series_len, fraction)
    augmented = []
    for idx in selection.indices:
        augmented.extend(
            augment_sample(probe_set.values[idx], fraction, rng.child("augment", idx)))
    return augmented, np.repeat(probe_set.labels[list(selection.indices)], 2)


def check_run(
    splits: DataSplits, thresholds: list[float], fraction: float, val_mode: str
) -> tuple[Dataset, Dataset]:
    """Check a run's thresholds, window fraction and window, and validation mode.

    Returns the (training, validation) sets to train on.  The validation set
    is the probe half (``testa``, the default) or, under ``holdout:F``, the
    final floor(F * n) training samples (file order), which the training set
    then leaves out.
    """
    for threshold in thresholds:
        check_threshold(threshold)
    train_set = splits.train
    check_window(train_set.series_len, fraction)
    if val_mode == VAL_TESTA:
        return train_set, splits.test_a
    if not val_mode.startswith(VAL_HOLDOUT_PREFIX):
        raise ParameterError(f"unknown validation mode {val_mode!r}")
    try:
        frac = float(val_mode[len(VAL_HOLDOUT_PREFIX):])
    except ValueError:
        raise ParameterError(f"bad holdout fraction in {val_mode!r}") from None
    if not 0.0 < frac < 1.0:
        raise ParameterError("holdout fraction must lie strictly between 0 and 1")
    n = len(train_set)
    k = int(frac * n)
    if k < 1 or k >= n:
        raise ParameterError(f"holdout of {k} samples is not usable")
    return train_set.subset(slice(n - k)), train_set.subset(slice(n - k, n))


def _report(
    cfg: TrainConfig,
    model: TrainedModel,
    train_size: int,
    test_b: Dataset,
    val_mode: str,
    selection: SelectionResult | None = None,
    augmented_count: int = 0,
    fraction: float | None = None,
) -> ExperimentReport:
    """Evaluate ``model`` on the eval half and record the run.

    Without a selection the run is a baseline row, with one a selective row;
    a baseline row records no window fraction.
    """
    accuracy, loss = evaluate(model.params, test_b)
    config = asdict(cfg)
    config["window_fraction"] = None if selection is None else fraction
    config["val_mode"] = val_mode
    return ExperimentReport(
        mode="baseline" if selection is None else "selective",
        alpha_threshold=None if selection is None else selection.threshold,
        selected_count=0 if selection is None else len(selection.indices),
        augmented_count=augmented_count,
        train_size_final=train_size,
        accuracy=accuracy,
        loss=loss,
        seed=cfg.seed,
        best_epoch=model.best_epoch,
        config=config,
    )


def _run(
    cfg: TrainConfig,
    train_used: Dataset,
    val_set: Dataset,
    test_a: Dataset | None,
    test_b: Dataset,
    val_mode: str,
    threshold: float | None = None,
    fraction: float | None = None,
) -> RunArtifacts:
    """One row: the baseline, plus select, augment and retrain given a threshold.

    The initial training draws from the same stream with or without a
    threshold, so a baseline and a selective run at one seed share their
    step-1 model bit for bit.  The retrain draws from a fresh stream ("from
    scratch", not warm-started).
    """
    rng = RngStream(cfg.seed)
    initial = model = train(cfg, train_used, val_set, rng.child("train", "initial"))
    selection, augmented, expanded = None, [], train_used
    if threshold is not None:
        selection = select_low_confidence(initial.params, test_a, threshold)
        augmented, labels = augment_selected(test_a, selection, fraction, rng)
        expanded = Dataset(np.vstack([train_used.values, *(a.values for a in augmented)]),
                           np.concatenate([train_used.labels, labels]), train_used.class_count)
        model = train(cfg, expanded, val_set, rng.child("train", "retrain"))
    report = _report(
        cfg, model, len(expanded), test_b, val_mode, selection, len(augmented), fraction
    )
    return RunArtifacts(report, model, initial, selection, augmented, expanded)


def run_baseline_detailed(
    cfg: TrainConfig,
    train_set: Dataset,
    test_b: Dataset,
    val_set: Dataset,
    val_mode: str = VAL_TESTA,
) -> RunArtifacts:
    """Train on the untouched training set and evaluate on the eval half."""
    return _run(cfg, train_set, val_set, None, test_b, val_mode)


def run_selective_detailed(
    cfg: TrainConfig,
    train_set: Dataset,
    test_a: Dataset,
    test_b: Dataset,
    threshold: float,
    fraction: float = DEFAULT_WINDOW_FRACTION,
    val_mode: str = VAL_TESTA,
) -> RunArtifacts:
    """The full selective procedure, returning every intermediate artifact."""
    train_used, val_set = check_run(
        DataSplits(train_set, test_a, test_b), [threshold], fraction, val_mode
    )
    return _run(cfg, train_used, val_set, test_a, test_b, val_mode, threshold, fraction)


def run_experiment_pair(
    cfg: TrainConfig,
    splits: DataSplits,
    threshold: float,
    fraction: float = DEFAULT_WINDOW_FRACTION,
    val_mode: str = VAL_TESTA,
) -> tuple[ExperimentReport, ExperimentReport]:
    """Baseline and selective reports sharing one initial training.

    The baseline report is the selective run's step-1 model evaluated, so it
    is identical to an independent :func:`run_baseline_detailed` at the same
    seed without training the same model twice.
    """
    train_used, val_set = check_run(splits, [threshold], fraction, val_mode)
    artifacts = _run(
        cfg, train_used, val_set, splits.test_a, splits.test_b, val_mode, threshold, fraction
    )
    baseline = _report(cfg, artifacts.initial_model, len(train_used), splits.test_b, val_mode)
    return baseline, artifacts.report


def sweep(
    cfg: TrainConfig,
    splits: DataSplits,
    thresholds: list[float],
    fraction: float = DEFAULT_WINDOW_FRACTION,
    val_mode: str = VAL_TESTA,
) -> list[ExperimentReport]:
    """One baseline plus one selective run per threshold, all from scratch.

    Every row gets its own seed derived from (base seed, row), so rows are
    independent yet the whole sweep is reproducible from the base seed.
    """
    if not thresholds:
        raise ParameterError("at least one threshold is required")
    train_used, val_set = check_run(splits, thresholds, fraction, val_mode)
    seeds = [derive_seed(cfg.seed, "baseline")]
    seeds += [derive_seed(cfg.seed, "threshold", i) for i in range(len(thresholds))]
    return [
        _run(replace(cfg, seed=seed), train_used, val_set, splits.test_a, splits.test_b,
             val_mode, threshold, fraction).report
        for seed, threshold in zip(seeds, [None, *thresholds])
    ]
