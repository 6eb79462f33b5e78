"""Shared test utilities: datasets, synthetic data, reference implementations and
finite-difference checking."""

from __future__ import annotations

import numpy as np

from fcnaug.data_io import Dataset, TimeSeriesSample, znormalize
from fcnaug.nn_engine import TRAIN, FcnParams, fcn_backward, fcn_forward, xent_loss

FD_STEP = 1e-5
FD_REL_TOL = 1e-4
FD_ABS_FLOOR = 1e-9


def dataset_from_arrays(values, labels, class_count: int | None = None) -> Dataset:
    """A dataset with one sample per row of ``values``."""
    values = np.asarray(values, dtype=np.float64)
    samples = [TimeSeriesSample(row, int(lab)) for row, lab in zip(values, labels)]
    return Dataset.from_samples(samples, class_count)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Exact equality: metadata, order, labels, and bit-identical values."""
    if (len(a), a.series_len, a.class_count) != (len(b), b.series_len, b.class_count):
        return False
    return all(
        s.label == t.label and np.array_equal(s.values, t.values)
        for s, t in zip(a.samples, b.samples)
    )


def make_synthetic(n_per_class: int = 10, length: int = 24, seed: int = 0) -> Dataset:
    """Two separable classes: smooth sine (0) vs. clipped square wave (1)."""
    gen = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, length)
    samples = []
    for _ in range(n_per_class):
        smooth = np.sin(2 * np.pi * (2 * t + gen.uniform())) + 0.1 * gen.standard_normal(length)
        samples.append(TimeSeriesSample(znormalize(smooth)[0], 0))
        square = np.sign(np.sin(2 * np.pi * (3 * t + gen.uniform())))
        square = square + 0.1 * gen.standard_normal(length)
        samples.append(TimeSeriesSample(znormalize(square)[0], 1))
    return Dataset.from_samples(samples, class_count=2)


def fd_gradient_ok(analytic: float, numeric: float) -> bool:
    """Central-difference agreement at FD_REL_TOL with an absolute floor."""
    err = abs(analytic - numeric)
    scale = max(abs(analytic), abs(numeric))
    return err <= FD_ABS_FLOOR or err <= FD_REL_TOL * scale


def check_loss_gradients(
    params: FcnParams,
    batch: np.ndarray,
    labels: np.ndarray,
    n_coords: int,
    seed: int = 0,
) -> list[str]:
    """Compare fcn_backward against finite differences of the full loss.

    Samples n_coords parameter coordinates across all learnable tensors and
    returns a description of every disagreement (empty list means pass).
    """

    def loss_at(p: FcnParams) -> float:
        logits, _ = fcn_forward(p.copy(), batch, TRAIN)
        return xent_loss(logits, labels)[0]

    work = params.copy()
    logits, caches = fcn_forward(work, batch, TRAIN)
    _, grad_logits = xent_loss(logits, labels)
    grads = fcn_backward(work, caches, grad_logits)

    names = [name for name, _ in params.learnables()]
    sizes = np.array([t.size for _, t in params.learnables()])
    cumulative = np.cumsum(sizes)
    gen = np.random.default_rng(seed)
    coords = gen.choice(int(cumulative[-1]), size=n_coords, replace=False)

    failures = []
    probe = params.copy()
    tensors = dict(probe.learnables())
    for flat_index in coords:
        which = int(np.searchsorted(cumulative, flat_index, side="right"))
        local = int(flat_index - (cumulative[which - 1] if which else 0))
        name = names[which]
        tensor = tensors[name]
        original = tensor.flat[local]
        tensor.flat[local] = original + FD_STEP
        up = loss_at(probe)
        tensor.flat[local] = original - FD_STEP
        down = loss_at(probe)
        tensor.flat[local] = original
        numeric = (up - down) / (2 * FD_STEP)
        analytic = float(grads[name].flat[local])
        if not fd_gradient_ok(analytic, numeric):
            failures.append(
                f"{name}[{local}]: analytic {analytic:.3e} vs fd {numeric:.3e}"
            )
    return failures


def numeric_grad(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Dense central-difference gradient of a scalar function of an array."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = f(x)
        flat[i] = original - step
        down = f(x)
        flat[i] = original
        grad.ravel()[i] = (up - down) / (2 * step)
    return grad


def reference_conv1d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded conv by direct sums over time steps and taps, no GEMM."""
    b, length, _ = x.shape
    kernel, _, cout = weights.shape
    out = np.empty((b, length, cout))
    for t in range(length):
        acc = np.broadcast_to(bias, (b, cout)).copy()
        for k in range(kernel):
            src = t + k - kernel // 2
            if 0 <= src < length:
                acc += np.einsum("bi,io->bo", x[:, src], weights[k])
        out[:, t] = acc
    return out


def reference_conv1d_backward(grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray):
    """(grad_x, grad_weights, grad_bias) of :func:`reference_conv1d` by direct sums."""
    b, length, _ = x.shape
    kernel = weights.shape[0]
    grad_x = np.zeros(x.shape)
    grad_weights = np.zeros(weights.shape)
    for t in range(length):
        for k in range(kernel):
            src = t + k - kernel // 2
            if 0 <= src < length:
                grad_x[:, src] += np.einsum("bo,io->bi", grad_out[:, t], weights[k])
                grad_weights[k] += np.einsum("bi,bo->io", x[:, src], grad_out[:, t])
    return grad_x, grad_weights, grad_out.sum(axis=(0, 1))


def reference_spline_resample(segment, target_len: int) -> np.ndarray:
    """``augmentation.spline_resample`` as it was before its plan cache.

    It eliminates the not-a-knot system and builds the evaluation grid on
    every call; the cached version must equal it bit for bit.
    """
    y = np.asarray(segment, dtype=np.float64)
    m = y.shape[0]
    slope = y[1:] - y[:-1]
    sl = slope.tolist()
    s = [(5.0 * sl[0] + sl[1]) / 2.0, *(3 * (slope[:-1] + slope[1:])).tolist(),
         (sl[-2] + 5.0 * sl[-1]) / 2.0]
    diag = [1.0] + [4.0] * (m - 2) + [1.0]
    upper = [2.0] + [1.0] * (m - 2)
    lower = [1.0] * (m - 2) + [2.0]
    for k in range(m - 1):
        fact = lower[k] / diag[k]
        diag[k + 1] -= fact * upper[k]
        s[k + 1] -= fact * s[k]
    s[-1] /= diag[-1]
    for k in range(m - 2, -1, -1):
        s[k] = (s[k] - upper[k] * s[k + 1]) / diag[k]
    s = np.array(s)
    cubic = s[:-1] + s[1:] - 2 * slope
    square = (slope - s[:-1]) - cubic
    grid = np.linspace(0.0, float(m - 1), target_len)
    i = np.minimum(grid.astype(np.intp), m - 2)
    z = grid - i
    z2 = z * z
    return (((0.0 + y[i]) + s[i] * z) + square[i] * z2) + cubic[i] * (z2 * z)
