import json
import math
import os
import subprocess
import re
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fcnaug
from fcnaug.data_io import Dataset
from fcnaug.errors import (
    CheckpointError,
    NumericError,
    ParameterError,
    ShapeError,
    UnsupportedLabelError,
)
from fcnaug.nn_engine import (
    TRAIN,
    FcnConfig,
    Workspace,
    fcn_backward,
    fcn_forward,
    init_params,
    xent_loss,
    zeros_params,
)
from fcnaug.rng import RngStream
from fcnaug.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    EpochStats,
    PlateauState,
    TrainConfig,
    adam_step,
    batch_bounds,
    evaluate,
    history_csv,
    load_checkpoint,
    plateau_update,
    save_checkpoint,
    train,
)

from helpers import bits_equal, make_synthetic

# Trains on ECG200 and prints the sha256 of every parameter tensor and of the
# infer-mode logits of 300 rows.
_HASH_TRAINED_PARAMS = textwrap.dedent("""
    import hashlib, sys
    import numpy as np
    from fcnaug.data_io import load_ucr_file, remap_labels, split_test
    from fcnaug.rng import RngStream
    from fcnaug.training import TrainConfig, infer_logits, train
    train_set = remap_labels(load_ucr_file(sys.argv[1]))
    val_set = split_test(remap_labels(load_ucr_file(sys.argv[2])))[0]
    model = train(TrainConfig(epochs=3, seed=0), train_set, val_set, RngStream(0))
    for name, tensor in model.params.all_tensors():
        print(name, hashlib.sha256(tensor.tobytes()).hexdigest())
    logits = infer_logits(model.params, np.random.default_rng(0).standard_normal((300, 96)))
    print("infer_logits", hashlib.sha256(logits.tobytes()).hexdigest())
""")


class _ScalarParams:
    """Minimal learnables() carrier for optimizer unit tests."""

    def __init__(self, value: float):
        self.theta = np.array([value])

    def learnables(self):
        return [("theta", self.theta)]


class TestTrainConfig:
    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size) == (500, 32)
        assert (cfg.initial_lr, cfg.plateau_factor) == (1e-3, 0.5)
        assert (cfg.plateau_patience, cfg.min_lr, cfg.min_delta) == (20, 1e-4, 1e-4)
        assert cfg.shuffle

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            TrainConfig(**kwargs)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = _ScalarParams(1.5)
        adam_step(AdamState(), params, {"theta": np.zeros(1)}, lr=1e-3)
        assert params.theta[0] == 1.5

    def test_first_step_is_signed_lr(self):
        for g in (0.37, -2.4, 1e-6):
            params = _ScalarParams(0.0)
            adam_step(AdamState(), params, {"theta": np.array([g])}, lr=1e-3)
            expected = -1e-3 * g / (abs(g) + ADAM_EPS)
            assert params.theta[0] == pytest.approx(expected, abs=1e-15)

    def test_ten_step_trace_matches_recurrence(self):
        gen = np.random.default_rng(0)
        grads = gen.standard_normal(10)
        lr = 3e-3

        params = _ScalarParams(0.2)
        state = AdamState()
        for g in grads:
            adam_step(state, params, {"theta": np.array([g])}, lr)

        # plain-float reference recurrence
        theta, m, v = 0.2, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            theta -= lr * mhat / (math.sqrt(vhat) + ADAM_EPS)
        assert params.theta[0] == pytest.approx(theta, abs=1e-12)

    def test_non_finite_gradient_names_group(self):
        params = _ScalarParams(0.0)
        with pytest.raises(NumericError, match="theta"):
            adam_step(AdamState(), params, {"theta": np.array([np.nan])}, 1e-3)

    def test_matches_plain_expression_bit_for_bit(self):
        """The scratch-array update gives every bit of the update written as
        one expression with fresh temporaries, over steps of varying gradient
        scale and learning rate."""
        params = init_params(FcnConfig(), RngStream(50, "init"))
        theta = {name: t.copy() for name, t in params.learnables()}
        m = {name: np.zeros_like(t) for name, t in theta.items()}
        v = {name: np.zeros_like(t) for name, t in theta.items()}
        state = AdamState()
        gen = np.random.default_rng(51)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for t in range(1, 7):
            grads = {name: gen.standard_normal(x.shape) * 10.0 ** -t for name, x in theta.items()}
            lr = 1e-3 * 0.5 ** (t // 3)
            adam_step(state, params, grads, lr)
            for name, g in grads.items():
                m[name] *= b1
                m[name] += (1.0 - b1) * g
                v[name] *= b2
                v[name] += (1.0 - b2) * np.square(g)
                mhat = m[name] / (1.0 - b1**t)
                vhat = v[name] / (1.0 - b2**t)
                theta[name] -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            for name, got in params.learnables():
                assert bits_equal(got, theta[name]), (t, name)
                assert bits_equal(state.m[name], m[name]), (t, name)
                assert bits_equal(state.v[name], v[name]), (t, name)

    def test_warm_step_peak_memory(self):
        """Once the state holds its scratch arrays, a step allocates next to
        nothing: about 14 KB, against 493 KB with a fresh array per temporary."""
        params = init_params(FcnConfig(), RngStream(52, "init"))
        gen = np.random.default_rng(53)
        grads = {name: gen.standard_normal(t.shape) for name, t in params.learnables()}
        state = AdamState()
        adam_step(state, params, grads, 1e-3)
        tracemalloc.start()
        try:
            adam_step(state, params, grads, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"warm adam_step peak {peak / 1024:.0f} KB"


class TestPlateau:
    CFG = TrainConfig()

    def test_twenty_stalls_halve_lr(self):
        state = PlateauState(0.5, 0, 1e-3)
        for _ in range(20):
            state = plateau_update(state, 0.6, self.CFG)
        assert state.current_lr == pytest.approx(5e-4)
        assert state.epochs_since_improvement == 0

    def test_floor_clamp(self):
        state = PlateauState(0.5, 0, 1.5e-4)
        for _ in range(20):
            state = plateau_update(state, 0.6, self.CFG)
        assert state.current_lr == 1e-4

    def test_improvement_resets_counter(self):
        state = PlateauState(0.5, 19, 1e-3)
        state = plateau_update(state, 0.4, self.CFG)
        assert state.epochs_since_improvement == 0
        assert state.current_lr == 1e-3
        assert state.best_val_loss == 0.4

    def test_min_delta_guard(self):
        # a loss within min_delta of the best is not an improvement
        state = PlateauState(0.5, 0, 1e-3)
        state = plateau_update(state, 0.5 - 0.5e-4, self.CFG)
        assert state.epochs_since_improvement == 1
        assert state.best_val_loss == 0.5

    def test_scripted_thirty_epoch_trace(self):
        # improve at epochs 1-5, stall 6-25, improve at 26:
        # exactly one reduction, processed at epoch 25
        losses = [1.0 - 0.1 * e for e in range(1, 6)]
        losses += [losses[-1] + 0.01] * 20
        losses += [0.01 * (30 - e) for e in range(26, 31)]
        state = PlateauState(np.inf, 0, 1e-3)
        reduced_at = []
        for epoch, loss in enumerate(losses, start=1):
            before = state.current_lr
            state = plateau_update(state, loss, self.CFG)
            if state.current_lr < before:
                reduced_at.append(epoch)
        assert reduced_at == [25]
        assert state.current_lr == pytest.approx(5e-4)


class TestBatching:
    def test_ecg200_shape(self):
        sizes = [stop - start for start, stop in batch_bounds(100, 32)]
        assert sizes == [32, 32, 32, 4]

    def test_exact_division(self):
        sizes = [stop - start for start, stop in batch_bounds(64, 32)]
        assert sizes == [32, 32]

    def test_single_partial(self):
        assert batch_bounds(5, 32) == [(0, 5)]


class TestTrainLoop:
    def test_memorizes_tiny_dataset(self):
        data = make_synthetic(n_per_class=2, length=16, seed=1)
        cfg = TrainConfig(epochs=300, batch_size=32, seed=5)
        model = train(cfg, data, data, RngStream(5).child("train"))
        accuracy, _ = evaluate(model.params, data)
        assert accuracy == 1.0

    def test_epoch_count_and_history(self):
        data = make_synthetic(n_per_class=3, length=12, seed=2)
        cfg = TrainConfig(epochs=4, seed=1)
        model = train(cfg, data, data, RngStream(1))
        assert len(model.history) == 4
        assert model.best_val_loss == min(h.val_loss for h in model.history)
        assert model.history[model.best_epoch - 1].val_loss == model.best_val_loss

    def test_restored_params_reproduce_best_val_loss(self):
        data = make_synthetic(n_per_class=4, length=12, seed=3)
        cfg = TrainConfig(epochs=6, seed=2)
        model = train(cfg, data, data, RngStream(2))
        _, loss = evaluate(model.params, data)
        assert loss == model.best_val_loss

    def test_deterministic_repeat(self):
        data = make_synthetic(n_per_class=3, length=12, seed=4)
        cfg = TrainConfig(epochs=3, seed=9)
        a = train(cfg, data, data, RngStream(9))
        b = train(cfg, data, data, RngStream(9))
        assert a.history == b.history
        assert a.best_epoch == b.best_epoch
        for (_, ta), (_, tb) in zip(a.params.all_tensors(), b.params.all_tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_lr_monotone_and_bounded(self):
        data = make_synthetic(n_per_class=3, length=12, seed=5)
        # Validating on flipped labels stalls the validation loss, so the
        # schedule halves the rate every patience epochs down to the floor.
        flipped = Dataset(data.values, 1 - data.labels, 2)
        cfg = TrainConfig(epochs=100, seed=3)
        model = train(cfg, data, flipped, RngStream(3))
        lrs = [h.lr for h in model.history]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert all(cfg.min_lr <= lr <= cfg.initial_lr for lr in lrs)

    def test_rejects_bad_class_count(self):
        data = make_synthetic(n_per_class=2, length=12)
        three = Dataset(data.values, data.labels, 3)
        with pytest.raises(UnsupportedLabelError):
            train(TrainConfig(epochs=1), three, three, RngStream(0))

    def test_rejects_length_mismatch(self):
        a = make_synthetic(n_per_class=2, length=12)
        b = make_synthetic(n_per_class=2, length=16)
        with pytest.raises(ShapeError):
            train(TrainConfig(epochs=1), a, b, RngStream(0))


class TestEvaluate:
    def test_perfect_predictions(self):
        data = make_synthetic(n_per_class=2, length=16, seed=1)
        cfg = TrainConfig(epochs=300, batch_size=32, seed=5)
        model = train(cfg, data, data, RngStream(5).child("train"))
        accuracy, loss = evaluate(model.params, data)
        assert accuracy == 1.0 and loss < 0.5

    def test_zero_model_on_balanced_set(self):
        data = make_synthetic(n_per_class=5, length=12, seed=6)
        params = zeros_params(FcnConfig(series_len=12))
        accuracy, loss = evaluate(params, data)
        assert accuracy == 0.5  # ties resolve to class 0; half the labels are 0
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_side_effect_free(self):
        data = make_synthetic(n_per_class=3, length=12, seed=7)
        params = init_params(FcnConfig(series_len=12), RngStream(4, "init"))
        before = {n: t.copy() for n, t in params.all_tensors()}
        evaluate(params, data)
        for name, tensor in params.all_tensors():
            np.testing.assert_array_equal(tensor, before[name])

    def test_length_mismatch(self):
        data = make_synthetic(n_per_class=2, length=16)
        params = init_params(FcnConfig(series_len=12), RngStream(0))
        with pytest.raises(ShapeError):
            evaluate(params, data)


class TestWorkspace:
    def test_reuse_matches_fresh_arrays_exactly(self):
        """Train steps at batch 32, 32 and 4 and a validation pass that share one
        workspace give bit for bit what the same calls give with fresh arrays."""

        def run(ws):
            params = init_params(FcnConfig(), RngStream(40, "init"))
            adam = AdamState()
            gen = np.random.default_rng(41)
            out = []
            for step, rows in enumerate((32, 32, 4)):
                logits, caches = fcn_forward(params, gen.standard_normal((rows, 96, 1)), TRAIN, ws)
                grads = fcn_backward(params, caches, xent_loss(logits, np.arange(rows) % 2)[1], ws)
                adam_step(adam, params, grads, 1e-3)
                out += [(f"{step}/logits", logits)]
                out += [(f"{step}/grad {name}", g) for name, g in grads.items()]
                out += [(f"{step}/{name}", t.copy()) for name, t in params.all_tensors()]
            val = Dataset(gen.standard_normal((50, 96)), np.arange(50) % 2, 2)
            return out, evaluate(params, val, ws)

        (fresh, fresh_eval), (reused, reused_eval) = run(None), run(Workspace())
        assert [name for name, _ in fresh] == [name for name, _ in reused]
        for (name, a), (_, b) in zip(fresh, reused):
            assert a.tobytes() == b.tobytes(), name
        assert fresh_eval == reused_eval


class TestCheckpoint:
    @pytest.fixture
    def model(self):
        data = make_synthetic(n_per_class=3, length=12, seed=8)
        return train(TrainConfig(epochs=3, seed=11), data, data, RngStream(11))

    def test_roundtrip_bit_identical(self, model, tmp_path):
        data = make_synthetic(n_per_class=3, length=12, seed=8)
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert evaluate(loaded.params, data) == evaluate(model.params, data)
        for (_, ta), (_, tb) in zip(model.params.all_tensors(), loaded.params.all_tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_metadata_matches_history(self, model, tmp_path):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.best_epoch == model.best_epoch
        assert loaded.best_val_loss == model.best_val_loss
        assert loaded.history == model.history
        assert loaded.best_val_loss == min(h.val_loss for h in loaded.history)

    def test_truncated_file(self, model, tmp_path):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_version_mismatch(self, model, tmp_path):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_shape_tampering_detected(self, model, tmp_path):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["tensors"]["dense/bias"]["values"] = [0.0, 0.0, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_config_tampering_detected(self, model, tmp_path):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["config"]["kernel"] = 4  # FcnConfig rejects an even kernel
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_binary_class_count_rejected(self, model, tmp_path):
        """A self-consistent 3-class checkpoint is refused: alpha needs two classes."""
        path = tmp_path / "model.ckpt.json"
        params = init_params(FcnConfig(series_len=12, class_count=3), RngStream(4))
        save_checkpoint(replace(model, params=params), path)
        with pytest.raises(CheckpointError, match="config.class_count must be 2, got 3"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "where, value, message",
        [
            pytest.param(where, value, message, id=f"{where}={json.dumps(value)[:12]}")
            for where, value, message in [
                (("config", "series_len"), 8.9, "config.series_len"),
                (("config", "series_len"), True, "config.series_len"),
                (("config", "filters"), "64", "config.filters"),
                (("config", "class_count"), 2.0, "config.class_count"),
                (("best_epoch",), 2.7, "best_epoch"),
                (("best_epoch",), True, "best_epoch"),
                (("best_val_loss",), "0.5", "best_val_loss"),
                (("best_val_loss",), False, "best_val_loss"),
                (("history", 0, 1), True, "history[0]"),
                (("history", 1, 0), "0.5", "history[1]"),
                (("history", 2, 2), 10**400, "too large"),
            ]
        ],
    )
    def test_value_type_tampering_detected(self, model, tmp_path, where, value, message):
        """A value of the wrong JSON type is rejected, never coerced: config
        fields and best_epoch are integers, the losses and rates numbers."""
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("where, value, message", [
        (("best_val_loss",), math.nan, "best_val_loss must be a number, got NaN"),
        (("history", 1, 0), math.inf, "history[1] must be a number, got Infinity"),
        (("history", 2, 1), -math.inf, "history[2] must be a number, got -Infinity"),
    ], ids=["nan", "infinity", "-infinity"])
    def test_non_finite_literal_rejected(self, model, tmp_path, where, value, message):
        """json.dumps writes NaN/Infinity/-Infinity literals, which JSON itself lacks."""
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("best_epoch", [0, -1, 4])
    def test_best_epoch_outside_history_rejected(self, model, tmp_path, best_epoch):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        assert len(doc["history"]) == 3
        doc["best_epoch"] = best_epoch
        path.write_text(json.dumps(doc))
        message = f"best_epoch {best_epoch} is outside 1..3"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("row", [[0.5, 0.25], [0.5, 0.25, 0.001, 7.0], 0.5],
                             ids=["two", "four", "number"])
    def test_history_row_of_three_values_required(self, model, tmp_path, row):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["history"][1] = row
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=re.escape("history[1] must hold 3 numbers")):
            load_checkpoint(path)

    def test_integer_valued_numbers_load(self, model, tmp_path):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["best_val_loss"] = 1
        doc["history"][0] = [2, 1, 0]
        path.write_text(json.dumps(doc))
        loaded = load_checkpoint(path)
        assert type(loaded.best_val_loss) is float and loaded.best_val_loss == 1.0
        assert loaded.history[0] == EpochStats(2.0, 1.0, 0.0)

    def test_history_csv_layout(self, model):
        text = history_csv(model)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert len(lines) == 1 + len(model.history)
        assert lines[1].startswith("1,")


class TestBlasThreads:
    """OpenBLAS may split a GEMM differently across threads; results must not move."""

    def test_training_identical_across_blas_thread_counts(self, ecg200_paths):
        src = str(Path(fcnaug.__file__).resolve().parents[1])
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            result = subprocess.run(
                [sys.executable, "-c", _HASH_TRAINED_PARAMS, *map(str, ecg200_paths)],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            hashes.append(result.stdout)
        assert hashes[0].count("\n") == 21
        assert hashes[0] == hashes[1]
