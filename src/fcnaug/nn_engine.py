"""Dense-tensor engine for the three-block fully convolutional classifier.

Layout of every activation tensor is (batch, time, channels), float64
throughout.  Each block is conv (linear, same padding) -> batch norm ->
ReLU; the blocks feed a global average pool and a dense layer producing
two logits.  Backward passes are derived analytically and are checked
against central finite differences in the test suite.

The conv runs one GEMM per kernel tap on the unpadded input, with no im2col
matrix; its input gradient is that conv with the kernel reversed and transposed.

Infer mode normalizes by fixed running statistics, so each block's batch
norm is a per-channel affine map; it is folded into the conv weights and
bias, and the ReLU is applied in place.  Callers score in 32-row blocks
(``training.INFER_BLOCK``).

Train mode runs the layers unfolded.  Batch norm caches the centered values
and 1/std and writes into the conv output, where the ReLU runs in place; the
backward pass masks the upstream gradient in place and overwrites it and the
cache.  Logits, running statistics and gradients equal the chain of public
layer functions bit for bit: both call the same kernels.
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


def _conv(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Same-padded conv without bias: the centre tap is one (B*L, Cin) @ (Cin, Cout)
    GEMM, and each side tap adds ``x[:, lo+shift:hi+shift] @ weights[k]`` into
    output steps lo..hi-1."""
    b, length, cin = x.shape
    kernel = weights.shape[0]
    # One channel: a broadcast multiply, the same products in 60% of matmul's time.
    product = np.multiply if cin == 1 else np.matmul
    out = product(x.reshape(b * length, cin), weights[kernel // 2]).reshape(b, length, -1)
    for k, shift, lo, hi in _conv_taps(kernel, length):
        if shift:
            out[:, lo:hi] += product(x[:, lo + shift : hi + shift], weights[k])
    return out


def conv1d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded linear convolution along the time axis.

    out[b, t, co] = bias[co] + sum_{k, ci} weights[k, ci, co] * x_padded[b, t+k, ci]
    with kernel//2 zeros at each end, so the time length is preserved.
    """
    if x.ndim != 3 or weights.ndim != 3:
        raise ShapeError("conv1d expects x (B, L, Cin) and weights (K, Cin, Cout)")
    kernel, cin, cout = weights.shape
    if kernel % 2 != 1:
        raise ShapeError(f"kernel length must be odd, got {kernel}")
    if x.shape[2] != cin:
        raise ShapeError(f"input has {x.shape[2]} channels, weights expect {cin}")
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match {cout} filters")
    out = _conv(x, weights)
    out += bias
    return out


def conv1d_backward(
    grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv1d_forward: (grad_x, grad_weights, grad_bias).

    grad_x is the conv of grad_out with the kernel reversed and transposed.
    """
    kernel, cin, cout = weights.shape
    b, length, _ = x.shape
    if grad_out.shape != (b, length, cout):
        raise ShapeError(
            f"upstream gradient shape {grad_out.shape} does not match ({b}, {length}, {cout})"
        )
    grad_weights, grad_bias = _conv_param_grads(grad_out, x, kernel)
    grad_x = _conv(grad_out, weights[::-1].transpose(0, 2, 1))
    return grad_x, grad_weights, grad_bias


def _conv_param_grads(grad_out: np.ndarray, x: np.ndarray, kernel: int):
    """(grad_weights, grad_bias) of a conv: one GEMM for the centre tap, B stacked
    GEMMs summed over the batch per side tap; a padding-only tap's stays exactly 0."""
    b, length, cin = x.shape
    cout = grad_out.shape[2]
    flat = grad_out.reshape(b * length, cout)
    grad_weights = np.zeros((kernel, cin, cout))
    grad_weights[kernel // 2] = x.reshape(b * length, cin).T @ flat
    for k, shift, lo, hi in _conv_taps(kernel, length):
        if shift:
            xs = x[:, lo + shift : hi + shift].transpose(0, 2, 1)
            grad_weights[k] = np.matmul(xs, grad_out[:, lo:hi]).sum(axis=0)
    return grad_weights, flat.sum(axis=0)


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
    """Train-mode :func:`batchnorm_forward` into ``out`` (x itself is allowed),
    caching (centered values, inv_std, gamma * inv_std)."""
    n = x.shape[0] * x.shape[1]
    if n < 2:
        raise ShapeError("train-mode batchnorm needs at least 2 values per channel")
    mean = x.mean(axis=(0, 1))
    centered = x - mean
    # Biased, matching the running update.
    var = np.einsum("blc,blc->c", centered, centered) / n
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * inv_std
    out = np.multiply(centered, scale, out=out)
    out += beta
    new_mean = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean
    new_var = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var
    return out, (centered, inv_std, scale), new_mean, new_var


def batchnorm_backward(grad_out: np.ndarray, cache):
    """Gradients of train-mode batchnorm, including the batch-statistics terms.

    Returns (grad_x, grad_gamma, grad_beta); grad_out and the cache are left
    unchanged.
    """
    if cache is None:
        raise ShapeError("batchnorm_backward requires a train-mode cache")
    centered, inv_std, scale = cache
    if grad_out.shape != centered.shape:
        raise ShapeError(
            f"upstream gradient shape {grad_out.shape} does not match {centered.shape}"
        )
    return _batchnorm_backward(grad_out.copy(), centered.copy(), inv_std, scale)


def _batchnorm_backward(grad: np.ndarray, centered: np.ndarray, inv_std, scale):
    """:func:`batchnorm_backward` that overwrites ``grad`` with grad_x and
    ``centered`` with scratch."""
    n = grad.shape[0] * grad.shape[1]
    grad_beta = grad.sum(axis=(0, 1))
    grad_gamma = np.einsum("blc,blc->c", grad, centered) * inv_std
    # grad_x = (scale / n) * (n * g - sum(g) - centered * inv_std * grad_gamma)
    grad *= n
    grad -= grad_beta
    centered *= inv_std * grad_gamma
    grad -= centered
    grad *= scale / n
    return grad, grad_gamma, grad_beta


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """grad_out (or its broadcast) where x > 0, else 0; the subgradient at 0 is 0."""
    return np.multiply(grad_out, x > 0.0, out=out)


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


def confidence_margins(probs: np.ndarray) -> np.ndarray:
    """Per-row binary confidence margin |p0 - p1| of (B, 2) probabilities."""
    return np.abs(probs[:, 0] - probs[:, 1])


def softmax(logits) -> PredictionDist:
    """Stable softmax of one logit vector, with the margin filled for K = 2."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise ShapeError("softmax expects a 1-D vector of at least 2 logits")
    if not np.isfinite(z).all():
        raise NumericError("softmax input contains non-finite logits")
    probs = softmax_batch(z[None, :])
    alpha = float(confidence_margins(probs)[0]) if z.shape[0] == 2 else None
    return PredictionDist(probs[0], alpha)


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
        conv_out = conv1d_forward(x, blk.weights, blk.bias)
        bn_out, bn_cache, blk.running_mean, blk.running_var = _batchnorm_train(
            conv_out, blk.gamma, blk.beta, blk.running_mean, blk.running_var, out=conv_out
        )
        # ReLU in place: the activation keeps the sign mask relu_backward needs.
        x_in, x = x, np.maximum(bn_out, 0.0, out=bn_out)
        block_caches.append((x_in, bn_cache, x))
    pooled = global_avg_pool(x)
    logits = dense_forward(pooled, params.dense_weights, params.dense_bias)
    caches = None
    if mode == TRAIN:
        caches = {"blocks": block_caches, "pooled": pooled, "length": batch.shape[1]}
    return logits, caches


def fcn_backward(params: FcnParams, caches, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of each learnable tensor by :meth:`FcnParams.learnables` name.

    It overwrites ``caches``, so a forward pass feeds one backward pass."""
    if caches is None or "blocks" not in caches or len(caches["blocks"]) != len(params.blocks):
        raise ShapeError("fcn_backward requires caches from a train-mode forward pass")
    grads: dict[str, np.ndarray] = {}
    dpooled, grads["dense/weights"], grads["dense/bias"] = dense_backward(
        grad_logits, caches["pooled"], params.dense_weights
    )
    # gap_backward's values, left as a (B, 1, C) broadcast: the last block's
    # ReLU mask expands it to full size, and every other mask applies in place.
    dx = dpooled[:, None, :] / caches["length"]
    for i in range(len(params.blocks), 0, -1):
        blk = params.blocks[i - 1]
        x_in, bn_cache, act = caches["blocks"][i - 1]
        dx = relu_backward(dx, act, out=dx if dx.shape == act.shape else None)
        dconv, dgamma, dbeta = _batchnorm_backward(dx, *bn_cache)
        if i > 1:
            dx, dweights, dbias = conv1d_backward(dconv, x_in, blk.weights)
        else:  # the network input needs no gradient
            dweights, dbias = _conv_param_grads(dconv, x_in, blk.weights.shape[0])
        grads[f"block{i}/conv_weights"] = dweights
        grads[f"block{i}/conv_bias"] = dbias
        grads[f"block{i}/bn_gamma"] = dgamma
        grads[f"block{i}/bn_beta"] = dbeta
    return grads
