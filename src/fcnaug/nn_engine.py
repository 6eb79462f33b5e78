"""Dense-tensor engine for the three-block fully convolutional classifier.

Layout of every activation tensor is (batch, time, channels), float64
throughout.  Each block is conv (linear, same padding) -> batch norm ->
ReLU; the blocks feed a global average pool and a dense layer producing
two logits.  Backward passes are derived analytically and are checked
against central finite differences in the test suite.

Infer mode normalizes by fixed running statistics, so each block's batch
norm is a per-channel affine map; it is folded into the conv weights and
bias, and the ReLU is applied in place.  Callers score in 32-row blocks
(``training.INFER_BLOCK``).

Train mode runs the layers unfolded but with fewer full-tensor passes:
batch norm derives the variance from the centered values it normalizes and
writes into the conv output, and the ReLU is applied in place.  Its logits,
running statistics and gradients equal the chain of public layer functions
bit for bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import LabelError, NumericError, ParameterError, ShapeError
from .rng import RngStream

BN_EPS = 1e-3
BN_MOMENTUM = 0.99

TRAIN = "train"
INFER = "infer"


def _check_mode(mode: str) -> None:
    if mode not in (TRAIN, INFER):
        raise ParameterError(f"mode must be {TRAIN!r} or {INFER!r}, got {mode!r}")


# ---------------------------------------------------------------------------
# configuration and parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FcnConfig:
    """Architecture settings; the defaults are the ECG200 configuration."""

    series_len: int = 96
    class_count: int = 2
    filters: int = 64
    kernel: int = 3

    def __post_init__(self):
        if self.kernel % 2 != 1:
            raise ParameterError(f"kernel length must be odd, got {self.kernel}")
        if min(self.series_len, self.class_count, self.filters) < 1:
            raise ParameterError("series_len, class_count, and filters must be positive")

    def block_in_channels(self) -> tuple[int, int, int]:
        return (1, self.filters, self.filters)


@dataclass
class ConvBlockParams:
    """One conv + batch-norm block: learnables plus running statistics."""

    weights: np.ndarray  # (kernel, in_channels, filters)
    bias: np.ndarray  # (filters,)
    gamma: np.ndarray  # (filters,)
    beta: np.ndarray  # (filters,)
    running_mean: np.ndarray  # (filters,)
    running_var: np.ndarray  # (filters,)


# The tensors of each block: (name inside the block, ConvBlockParams field,
# learnable).  Tensor names read "block{i}/<name>"; running statistics are
# checkpointed but not trained.
BLOCK_TENSORS = (
    ("conv_weights", "weights", True),
    ("conv_bias", "bias", True),
    ("bn_gamma", "gamma", True),
    ("bn_beta", "beta", True),
    ("bn_running_mean", "running_mean", False),
    ("bn_running_var", "running_var", False),
)


@dataclass
class FcnParams:
    """All parameters of the three-block network."""

    config: FcnConfig
    blocks: list[ConvBlockParams]
    dense_weights: np.ndarray  # (filters, class_count)
    dense_bias: np.ndarray  # (class_count,)

    def _tensors(self, learnable_only: bool) -> list[tuple[str, np.ndarray]]:
        out = [
            (f"block{i}/{name}", getattr(blk, attr))
            for i, blk in enumerate(self.blocks, start=1)
            for name, attr, learnable in BLOCK_TENSORS
            if learnable or not learnable_only
        ]
        return out + [("dense/weights", self.dense_weights), ("dense/bias", self.dense_bias)]

    def learnables(self) -> list[tuple[str, np.ndarray]]:
        """Learnable tensors in a fixed order (running stats excluded)."""
        return self._tensors(learnable_only=True)

    def all_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Learnables plus running statistics, for checkpointing."""
        return self._tensors(learnable_only=False)

    def copy(self) -> "FcnParams":
        return copy.deepcopy(self)


def init_params(config: FcnConfig, rng: RngStream) -> FcnParams:
    """Glorot-uniform conv/dense weights, zero biases, identity batch norm.

    Conv fans count the kernel: fan_in = kernel * in_channels,
    fan_out = kernel * filters.
    """
    gen = rng.generator()
    params = zeros_params(config)
    for blk in params.blocks:
        kernel, cin, filters = blk.weights.shape
        limit = np.sqrt(6.0 / (kernel * cin + kernel * filters))
        blk.weights[...] = gen.uniform(-limit, limit, size=blk.weights.shape)
        blk.gamma[...] = 1.0
        blk.running_var[...] = 1.0
    limit = np.sqrt(6.0 / (config.filters + config.class_count))
    params.dense_weights[...] = gen.uniform(-limit, limit, size=params.dense_weights.shape)
    return params


def zeros_params(config: FcnConfig) -> FcnParams:
    """All-zero parameters, running variance included.

    A null model, and the template :func:`~fcnaug.training.load_checkpoint` fills.
    """
    blocks = [
        ConvBlockParams(
            weights=np.zeros((config.kernel, cin, config.filters)),
            bias=np.zeros(config.filters),
            gamma=np.zeros(config.filters),
            beta=np.zeros(config.filters),
            running_mean=np.zeros(config.filters),
            running_var=np.zeros(config.filters),
        )
        for cin in config.block_in_channels()
    ]
    return FcnParams(
        config,
        blocks,
        np.zeros((config.filters, config.class_count)),
        np.zeros(config.class_count),
    )


# ---------------------------------------------------------------------------
# layer forward/backward primitives
# ---------------------------------------------------------------------------


def _conv_taps(kernel: int, length: int):
    """(k, shift, lo, hi) per kernel tap: output steps lo..hi-1 read input t + shift.

    A tap that only ever reads the zero padding is left out.
    """
    for k in range(kernel):
        shift = k - kernel // 2
        lo, hi = max(0, -shift), min(length, length - shift)
        if lo < hi:
            yield k, shift, lo, hi


def _conv_cols(x: np.ndarray, kernel: int) -> np.ndarray:
    """im2col for same-padded 1-D convolution: (B*L, kernel*Cin)."""
    b, length, cin = x.shape
    cols = np.empty((b, length, kernel, cin))
    # A tap reads the zero padding only in the first and last kernel // 2 steps.
    pad = kernel // 2
    cols[:, :pad] = 0.0
    cols[:, max(length - pad, 0):] = 0.0
    for k, shift, lo, hi in _conv_taps(kernel, length):
        cols[:, lo:hi, k, :] = x[:, lo + shift : hi + shift, :]
    return cols.reshape(b * length, kernel * cin)


def conv1d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded linear convolution along the time axis.

    out[b, t, co] = bias[co] + sum_{k, ci} weights[k, ci, co] * x_padded[b, t+k, ci]
    with kernel//2 zeros at each end, so the time length is preserved.
    """
    out, _ = _conv1d_forward_cols(x, weights, bias)
    return out


def _conv1d_forward_cols(x: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """conv1d_forward that also returns the im2col matrix for backward reuse."""
    if x.ndim != 3 or weights.ndim != 3:
        raise ShapeError("conv1d expects x (B, L, Cin) and weights (K, Cin, Cout)")
    kernel, cin, cout = weights.shape
    if kernel % 2 != 1:
        raise ShapeError(f"kernel length must be odd, got {kernel}")
    if x.shape[2] != cin:
        raise ShapeError(f"input has {x.shape[2]} channels, weights expect {cin}")
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match {cout} filters")
    b, length, _ = x.shape
    cols = _conv_cols(x, kernel)
    out = cols @ weights.reshape(kernel * cin, cout)
    out += bias
    return out.reshape(b, length, cout), cols


def conv1d_backward(
    grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray, cols: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv1d_forward: (grad_x, grad_weights, grad_bias).

    ``cols`` optionally reuses the forward pass's im2col matrix; it is
    recomputed from x when absent.
    """
    kernel, cin, cout = weights.shape
    b, length, _ = x.shape
    if grad_out.shape != (b, length, cout):
        raise ShapeError(
            f"upstream gradient shape {grad_out.shape} does not match ({b}, {length}, {cout})"
        )
    if cols is None:
        cols = _conv_cols(x, kernel)
    grad_weights, grad_bias = _conv_param_grads(grad_out, cols, weights.shape)
    flat = grad_out.reshape(b * length, cout)
    dcols = (flat @ weights.reshape(kernel * cin, cout).T).reshape(b, length, kernel, cin)
    grad_x = np.zeros((b, length, cin))
    for k, shift, lo, hi in _conv_taps(kernel, length):
        grad_x[:, lo + shift : hi + shift, :] += dcols[:, lo:hi, k, :]
    return grad_x, grad_weights, grad_bias


def _conv_param_grads(grad_out: np.ndarray, cols: np.ndarray, shape: tuple[int, ...]):
    """(grad_weights, grad_bias) of a conv from its upstream gradient and im2col matrix."""
    flat = grad_out.reshape(-1, shape[2])
    return (cols.T @ flat).reshape(shape), flat.sum(axis=0)


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str,
):
    """Per-channel normalization over the batch and time axes.

    Train mode normalizes by biased batch statistics and returns updated
    running stats (running_new = BN_MOMENTUM * running_old
    + (1 - BN_MOMENTUM) * batch).
    Infer mode normalizes by the running statistics unchanged.

    Returns (out, cache, new_running_mean, new_running_var); the cache is
    None in infer mode.
    """
    _check_mode(mode)
    if x.ndim != 3 or x.shape[2] != gamma.shape[0]:
        raise ShapeError("batchnorm expects x (B, L, C) matching gamma/beta length")
    if mode == INFER:
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        out = gamma * (x - running_mean) * inv_std + beta
        return out, None, running_mean, running_var
    return _batchnorm_train(x, gamma, beta, running_mean, running_var)


def _batchnorm_train(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    out: np.ndarray | None = None,
):
    """Train-mode :func:`batchnorm_forward`, writing into ``out`` (x itself is allowed)."""
    n = x.shape[0] * x.shape[1]
    if n < 2:
        raise ShapeError("train-mode batchnorm needs at least 2 values per channel")
    # Same arithmetic as x.var(axis=(0, 1)) (biased, matching the running
    # update), sharing its mean and centered values with the normalization.
    mean = x.mean(axis=(0, 1))
    xhat = x - mean
    if out is None:
        out = np.empty_like(xhat)
    var = np.multiply(xhat, xhat, out=out).sum(axis=(0, 1)) / n
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=out)
    out += beta
    new_mean = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean
    new_var = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var
    cache = (xhat, inv_std, gamma)
    return out, cache, new_mean, new_var


def batchnorm_backward(grad_out: np.ndarray, cache):
    """Gradients of train-mode batchnorm, including the batch-statistics terms.

    Returns (grad_x, grad_gamma, grad_beta).
    """
    if cache is None:
        raise ShapeError("batchnorm_backward requires a train-mode cache")
    xhat, inv_std, gamma = cache
    if grad_out.shape != xhat.shape:
        raise ShapeError(
            f"upstream gradient shape {grad_out.shape} does not match {xhat.shape}"
        )
    n = xhat.shape[0] * xhat.shape[1]
    grad_beta = grad_out.sum(axis=(0, 1))
    tmp = grad_out * xhat
    grad_gamma = tmp.sum(axis=(0, 1))
    dxhat = grad_out * gamma
    np.multiply(dxhat, xhat, out=tmp)
    # grad_x = (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
    # evaluated in place in the same operation order.
    sum_dxhat_xhat = tmp.sum(axis=(0, 1))
    np.multiply(xhat, sum_dxhat_xhat, out=tmp)
    sum_dxhat = dxhat.sum(axis=(0, 1))
    grad_x = dxhat
    grad_x *= n
    grad_x -= sum_dxhat
    grad_x -= tmp
    grad_x *= inv_std / n
    return grad_x, grad_gamma, grad_beta


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Subgradient at exactly 0 is 0.
    return grad_out * (x > 0.0)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the time axis: (B, L, C) -> (B, C)."""
    if x.ndim != 3 or x.shape[1] < 1:
        raise ShapeError("global_avg_pool expects (B, L, C) with L >= 1")
    return x.mean(axis=1)


def gap_backward(grad_out: np.ndarray, length: int) -> np.ndarray:
    """Spread the upstream gradient uniformly over the time axis."""
    b, c = grad_out.shape
    return np.broadcast_to(grad_out[:, None, :] / length, (b, length, c)).copy()


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != weights.shape[0] or bias.shape != (weights.shape[1],):
        raise ShapeError(
            f"dense shapes inconsistent: x {x.shape}, W {weights.shape}, b {bias.shape}"
        )
    return x @ weights + bias


def dense_backward(grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray):
    if grad_out.shape != (x.shape[0], weights.shape[1]):
        raise ShapeError(f"upstream gradient shape {grad_out.shape} mismatched")
    return grad_out @ weights.T, x.T @ grad_out, grad_out.sum(axis=0)


# ---------------------------------------------------------------------------
# softmax and loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PredictionDist:
    """Softmax output over classes plus the binary confidence margin.

    ``alpha`` is |p0 - p1| for two classes (0 means maximal uncertainty);
    it is None for other class counts.
    """

    probs: np.ndarray
    alpha: float | None = field(default=None)


def softmax_batch(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for (B, K) logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax(logits) -> PredictionDist:
    """Stable softmax of one logit vector, with the margin filled for K = 2."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise ShapeError("softmax expects a 1-D vector of at least 2 logits")
    if not np.isfinite(z).all():
        raise NumericError("softmax input contains non-finite logits")
    probs = softmax_batch(z[None, :])[0]
    alpha = float(abs(probs[0] - probs[1])) if z.shape[0] == 2 else None
    return PredictionDist(probs, alpha)


def xent_loss(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean sparse categorical cross-entropy and its logit gradient.

    loss = mean_b of -log softmax(logits_b)[label_b], computed via
    log-sum-exp; grad = (softmax - one_hot) / B.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"logits {logits.shape} and labels {labels.shape} are inconsistent"
        )
    b, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise LabelError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(b), labels]))
    grad = softmax_batch(logits)
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


# ---------------------------------------------------------------------------
# the full network
# ---------------------------------------------------------------------------


def _folded_block_forward(x: np.ndarray, blk: ConvBlockParams) -> np.ndarray:
    """Infer-mode conv -> batch norm -> ReLU as one conv with folded weights.

    With running statistics, batch norm is ``conv * scale + (beta -
    running_mean * scale)`` with ``scale = gamma / sqrt(running_var + eps)``,
    so it folds into the conv's weights and bias.  The folded tensors are
    rebuilt on every call because training updates the parameters in place.
    """
    scale = blk.gamma / np.sqrt(blk.running_var + BN_EPS)
    out = conv1d_forward(x, blk.weights * scale, (blk.bias - blk.running_mean) * scale + blk.beta)
    return np.maximum(out, 0.0, out=out)


def fcn_forward(params: FcnParams, batch: np.ndarray, mode: str):
    """Run the network: three conv blocks, global average pool, dense logits.

    Returns (logits, caches); caches are layer inputs needed by
    :func:`fcn_backward` and are only populated in train mode.  Train mode
    updates each block's running statistics in place; infer mode folds each
    batch norm into its conv and keeps nothing.
    """
    _check_mode(mode)
    if batch.ndim != 3 or batch.shape[2] != params.config.block_in_channels()[0]:
        raise ShapeError(
            f"batch shape {batch.shape} does not match (B, L, "
            f"{params.config.block_in_channels()[0]})"
        )
    x = batch
    block_caches = []
    for blk in params.blocks:
        if mode == INFER:
            x = _folded_block_forward(x, blk)
            continue
        conv_out, cols = _conv1d_forward_cols(x, blk.weights, blk.bias)
        bn_out, bn_cache, blk.running_mean, blk.running_var = _batchnorm_train(
            conv_out, blk.gamma, blk.beta, blk.running_mean, blk.running_var, out=conv_out
        )
        # ReLU in place: the activation keeps the sign mask relu_backward needs.
        x_in, x = x, np.maximum(bn_out, 0.0, out=bn_out)
        block_caches.append((x_in, cols, bn_cache, x))
    pooled = global_avg_pool(x)
    logits = dense_forward(pooled, params.dense_weights, params.dense_bias)
    caches = None
    if mode == TRAIN:
        caches = {"blocks": block_caches, "pooled": pooled, "length": batch.shape[1]}
    return logits, caches


def fcn_backward(params: FcnParams, caches, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of every learnable tensor, keyed by its :meth:`FcnParams.learnables` name."""
    if caches is None or "blocks" not in caches or len(caches["blocks"]) != len(params.blocks):
        raise ShapeError("fcn_backward requires caches from a train-mode forward pass")
    grads: dict[str, np.ndarray] = {}
    dpooled, grads["dense/weights"], grads["dense/bias"] = dense_backward(
        grad_logits, caches["pooled"], params.dense_weights
    )
    dx = gap_backward(dpooled, caches["length"])
    for i in range(len(params.blocks), 0, -1):
        blk = params.blocks[i - 1]
        x_in, cols, bn_cache, act = caches["blocks"][i - 1]
        dbn_out = relu_backward(dx, act)
        dconv, dgamma, dbeta = batchnorm_backward(dbn_out, bn_cache)
        if i > 1:
            dx, dweights, dbias = conv1d_backward(dconv, x_in, blk.weights, cols)
        else:  # the network input needs no gradient
            dweights, dbias = _conv_param_grads(dconv, cols, blk.weights.shape)
        grads[f"block{i}/conv_weights"] = dweights
        grads[f"block{i}/conv_bias"] = dbias
        grads[f"block{i}/bn_gamma"] = dgamma
        grads[f"block{i}/bn_beta"] = dbeta
    return grads
