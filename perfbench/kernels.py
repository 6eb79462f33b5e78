"""Replay of the engine's layer primitives and of a checkpoint round trip,
and a gradient spot check.

The replay times each public forward/backward primitive of
``fcnaug.nn_engine`` on its own, at the shape a workload uses it: the
training shape (32, 96, C) and the inference shape (256, 96, C).  Operation
counts and bytes moved are computed, from array shapes: every input is read
once and every output written once, 8 bytes per float64 value, so cache
misses and temporaries are not counted.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

import numpy as np


COUNT_BASIS = "computed, from array shapes"
WORD = 8  # bytes per float64


def _time_us(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times) * 1e6


def _kernels(nn, batch: int, length: int, filters: int, kernel: int,
             classes: int, infer: bool, gen: np.random.Generator):
    """(name, callable, flops, bytes) for every primitive of one pass."""
    mode = nn.INFER if infer else nn.TRAIN
    out = []
    x = gen.standard_normal((batch, length, 1))
    for i, cin in enumerate((1, filters, filters), start=1):
        w = gen.standard_normal((kernel, cin, filters)) * 0.1
        b = np.zeros(filters)
        conv = nn.conv1d_forward(x, w, b)
        gamma, beta = np.ones(filters), np.zeros(filters)
        rmean, rvar = np.zeros(filters), np.ones(filters)
        bn_out, cache, _, _ = nn.batchnorm_forward(conv, gamma, beta, rmean, rvar, mode)
        g = gen.standard_normal(conv.shape)
        n_in, n_out, n_w = batch * length * cin, batch * length * filters, kernel * cin * filters
        mac = batch * length * kernel * cin * filters
        out.append((f"conv{i}.fwd", lambda x=x, w=w, b=b: nn.conv1d_forward(x, w, b),
                    2 * mac + n_out, WORD * (n_in + n_w + filters + n_out)))
        out.append((f"bn{i}.fwd",
                    lambda c=conv, ga=gamma, be=beta, m=rmean, v=rvar:
                    nn.batchnorm_forward(c, ga, be, m, v, mode),
                    (4 if infer else 8) * n_out, WORD * (2 * n_out + 4 * filters)))
        out.append((f"relu{i}.fwd", lambda z=bn_out: nn.relu(z), n_out, WORD * 2 * n_out))
        if not infer:
            out.append((f"conv{i}.bwd", lambda g=g, x=x, w=w: nn.conv1d_backward(g, x, w),
                        4 * mac + n_out, WORD * (n_out + n_in + n_w + n_in + n_w + filters)))
            out.append((f"bn{i}.bwd", lambda g=g, c=cache: nn.batchnorm_backward(g, c),
                        12 * n_out, WORD * (3 * n_out + 3 * filters)))
            out.append((f"relu{i}.bwd", lambda g=g, z=bn_out: nn.relu_backward(g, z),
                        2 * n_out, WORD * 3 * n_out))
        x = nn.relu(bn_out)
    wd = gen.standard_normal((filters, classes)) * 0.1
    bd = np.zeros(classes)
    pooled = nn.global_avg_pool(x)
    gl = gen.standard_normal((batch, classes))
    n_x, n_p, n_d = x.size, batch * filters, filters * classes
    out.append(("gap_dense.fwd",
                lambda: nn.dense_forward(nn.global_avg_pool(x), wd, bd),
                n_x + 2 * n_p * classes, WORD * (n_x + n_d + classes + batch * classes)))
    if not infer:
        def gap_dense_bwd():
            dpooled, _, _ = nn.dense_backward(gl, pooled, wd)
            return nn.gap_backward(dpooled, length)

        out.append(("gap_dense.bwd", gap_dense_bwd,
                    4 * n_p * classes + n_p,
                    WORD * (batch * classes + n_p + n_d + n_p + n_d + classes + n_x)))
    return out


def replay(nn, seed: int, reps: int, batch: int, infer: bool,
           length: int = 96, filters: int = 64, kernel: int = 3, classes: int = 2):
    """Median µs, flops and bytes of each primitive; absent primitives are listed.

    Returns ({name: {"us", "flops", "bytes"}}, [absent names]).
    """
    gen = np.random.default_rng([seed, batch])
    # A primitive a later version renames or reshapes is reported, not fatal.
    try:
        kernels = _kernels(nn, batch, length, filters, kernel, classes, infer, gen)
    except Exception as exc:
        return {}, [f"nn_engine replay at batch {batch}: {exc!r}"]
    results, absent = {}, []
    for name, fn, flops, nbytes in kernels:
        try:
            us = _time_us(fn, reps)
        except Exception as exc:
            absent.append(f"nn_engine.{name}: {exc!r}")
            continue
        results[name] = {"us": us, "flops": int(flops), "bytes": int(nbytes)}
    return results, absent


def checkpoint_round_trip(training, path: Path, reps: int) -> dict:
    """Median ms of ``save_checkpoint`` and ``load_checkpoint``, and the file's bytes.

    The model is the checkpoint at ``path``, saved again beside it.
    """
    model = training.load_checkpoint(path)
    copy = path.with_name("round-trip.ckpt.json")
    save_ms = _time_us(lambda: training.save_checkpoint(model, copy), reps) / 1e3
    load_ms = _time_us(lambda: training.load_checkpoint(copy), reps) / 1e3
    return {"save_ms": save_ms, "load_ms": load_ms, "bytes": copy.stat().st_size}


def gradient_spot_check(nn, rng_stream_cls, seed: int,
                        step: float = 1e-6, tolerance: float = 1e-5) -> tuple[bool, float]:
    """Central finite differences against ``fcn_backward`` on a small network.

    Returns (passed, worst relative error) over one randomly chosen entry of
    every learnable tensor but the conv biases: batch norm right after the
    conv cancels a bias, so its exact gradient is 0 and a check proves nothing.
    """
    config = nn.FcnConfig(series_len=16, class_count=2, filters=4, kernel=3)
    params = nn.init_params(config, rng_stream_cls(seed, "gradcheck"))
    gen = np.random.default_rng([seed, 7])
    batch = gen.standard_normal((4, config.series_len, 1))
    labels = np.array([0, 1, 1, 0])

    def loss_of(p):
        logits, _ = nn.fcn_forward(p, batch, nn.TRAIN)
        return nn.xent_loss(logits, labels)[0]

    logits, caches = nn.fcn_forward(params.copy(), batch, nn.TRAIN)
    _, grad_logits = nn.xent_loss(logits, labels)
    grads = nn.fcn_backward(params, caches, grad_logits)
    worst = 0.0
    for name, tensor in params.learnables():
        if name.endswith("conv_bias"):
            continue
        flat = int(gen.integers(tensor.size))
        saved = tensor.flat[flat]
        tensor.flat[flat] = saved + step
        up = loss_of(params.copy())
        tensor.flat[flat] = saved - step
        down = loss_of(params.copy())
        tensor.flat[flat] = saved
        numeric = (up - down) / (2 * step)
        analytic = grads[name].flat[flat]
        # The floor keeps round-off on near-zero gradients from reading as a
        # large relative error.
        rel = abs(numeric - analytic) / (abs(numeric) + abs(analytic) + 1e-4)
        worst = max(worst, rel)
    return worst <= tolerance, worst
