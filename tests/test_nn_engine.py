import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcnaug.errors import LabelError, ShapeError
from fcnaug.nn_engine import (
    INFER,
    TRAIN,
    FcnConfig,
    Workspace,
    batchnorm_backward,
    batchnorm_forward,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    fcn_backward,
    fcn_forward,
    gap_backward,
    global_avg_pool,
    init_params,
    relu,
    relu_backward,
    softmax,
    softmax_batch,
    xent_loss,
    zeros_params,
)
from fcnaug.rng import RngStream
from fcnaug.training import INFER_BLOCK, infer_logits

from helpers import (
    bits_equal,
    check_loss_gradients,
    fd_gradient_ok,
    numeric_grad,
    reference_conv1d,
    reference_conv1d_backward,
)

BN_EPS = 1e-3


def _as3d(values) -> np.ndarray:
    """A single-channel (1, L, 1) batch from a plain list."""
    return np.asarray(values, dtype=np.float64)[None, :, None]


class TestConvForward:
    def test_identity_kernel(self):
        x = _as3d([0.5, -1.0, 2.0, 3.0])
        w = np.array([0.0, 1.0, 0.0])[:, None, None]
        out = conv1d_forward(x, w, np.zeros(1))
        np.testing.assert_array_equal(out, x)

    def test_box_kernel_hand_oracle(self):
        # padded [0, 1, 2, 3, 0]; window sums: 3, 6, 5
        x = _as3d([1.0, 2.0, 3.0])
        w = np.ones((3, 1, 1))
        out = conv1d_forward(x, w, np.zeros(1))
        np.testing.assert_array_equal(out[0, :, 0], [3.0, 6.0, 5.0])

    def test_zero_input_gives_bias(self):
        x = np.zeros((2, 5, 3))
        w = np.ones((3, 3, 4))
        bias = np.array([1.0, -2.0, 0.5, 3.0])
        out = conv1d_forward(x, w, bias)
        assert out.shape == (2, 5, 4)
        np.testing.assert_array_equal(out, np.broadcast_to(bias, (2, 5, 4)))

    @pytest.mark.parametrize("length", [1, 2, 3, 17, 96])
    def test_time_dimension_preserved(self, length):
        gen = np.random.default_rng(length)
        x = gen.standard_normal((2, length, 3))
        out = conv1d_forward(x, gen.standard_normal((3, 3, 5)), gen.standard_normal(5))
        assert out.shape == (2, length, 5)

    def test_multichannel_matches_direct_sum(self):
        gen = np.random.default_rng(8)
        x = gen.standard_normal((2, 7, 3))
        w = gen.standard_normal((3, 3, 4))
        b = gen.standard_normal(4)
        out = conv1d_forward(x, w, b)
        xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
        expected = np.empty((2, 7, 4))
        for bi in range(2):
            for t in range(7):
                for co in range(4):
                    acc = b[co]
                    for k in range(3):
                        for ci in range(3):
                            acc += w[k, ci, co] * xp[bi, t + k, ci]
                    expected[bi, t, co] = acc
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            conv1d_forward(np.zeros((2, 5, 3)), np.zeros((3, 4, 6)), np.zeros(6))
        with pytest.raises(ShapeError):
            conv1d_forward(np.zeros((2, 5, 3)), np.zeros((2, 3, 6)), np.zeros(6))
        with pytest.raises(ShapeError):
            conv1d_forward(np.zeros((2, 5, 3)), np.zeros((3, 3, 6)), np.zeros(5))


class TestConvBackward:
    def test_zero_upstream(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((2, 6, 3))
        w = gen.standard_normal((3, 3, 4))
        dx, dw, db = conv1d_backward(np.zeros((2, 6, 4)), x, w)
        assert not dx.any() and not dw.any() and not db.any()

    def test_identity_kernel_grad_passthrough(self):
        w = np.array([0.0, 1.0, 0.0])[:, None, None]
        x = _as3d([1.0, 2.0, 3.0])
        upstream = _as3d([0.3, -0.7, 1.1])
        dx, _, _ = conv1d_backward(upstream, x, w)
        np.testing.assert_array_equal(dx, upstream)

    def test_finite_difference_all_inputs(self):
        gen = np.random.default_rng(12)
        x = gen.standard_normal((2, 5, 3)) * 0.5
        w = gen.standard_normal((3, 3, 4)) * 0.5
        b = gen.standard_normal(4) * 0.5
        proj = gen.standard_normal((2, 5, 4))

        def loss_x(xv):
            return float((conv1d_forward(xv, w, b) * proj).sum())

        def loss_w(wv):
            return float((conv1d_forward(x, wv, b) * proj).sum())

        def loss_b(bv):
            return float((conv1d_forward(x, w, bv) * proj).sum())

        dx, dw, db = conv1d_backward(proj, x, w)
        np.testing.assert_allclose(dx, numeric_grad(loss_x, x.copy()), rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(dw, numeric_grad(loss_w, w.copy()), rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(db, numeric_grad(loss_b, b.copy()), rtol=1e-5, atol=1e-9)

    def test_upstream_shape_checked(self):
        with pytest.raises(ShapeError):
            conv1d_backward(np.zeros((2, 6, 5)), np.zeros((2, 6, 3)), np.zeros((3, 3, 4)))


class TestConvOracle:
    """The per-tap and stacked (K*Cin < Cout) convs against direct sums over
    time steps and taps."""

    @settings(max_examples=150, deadline=None)
    @given(
        batch=st.integers(1, 4),
        length=st.integers(1, 20),
        cin=st.integers(1, 8),
        cout=st.integers(1, 5),
        kernel=st.sampled_from([1, 3, 5, 7]),
        seed=st.integers(0, 2**16),
    )
    @example(batch=2, length=1, cin=3, cout=4, kernel=7, seed=0)  # only the centre tap is real
    @example(batch=3, length=2, cin=1, cout=4, kernel=5, seed=1)  # taps 0 and 4 read padding
    @example(batch=2, length=20, cin=1, cout=64, kernel=3, seed=2)  # block 1, stacked
    @example(batch=3, length=2, cin=1, cout=8, kernel=7, seed=3)  # stacked, padding-only taps
    def test_matches_direct_sums(self, batch, length, cin, cout, kernel, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((batch, length, cin))
        w = gen.standard_normal((kernel, cin, cout))
        bias = gen.standard_normal(cout)
        upstream = gen.standard_normal((batch, length, cout))
        # Freed at once: stacked inputs whose padding were not zeroed would read NaN.
        np.full((batch, length, kernel, cin), np.nan)
        np.testing.assert_allclose(
            conv1d_forward(x, w, bias), reference_conv1d(x, w, bias), rtol=1e-12, atol=1e-12
        )
        # Freed at once: a weight gradient allocated uninitialized would read NaN.
        np.full(w.shape, np.nan)
        got = conv1d_backward(upstream, x, w)
        want = reference_conv1d_backward(upstream, x, w)
        for name, g, r in zip(("grad_x", "grad_weights", "grad_bias"), got, want):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12, err_msg=name)
        padding_only = [k for k in range(kernel) if abs(k - kernel // 2) >= length]
        assert np.array_equal(got[1][padding_only], np.zeros((len(padding_only), cin, cout)))


class TestBatchNorm:
    def test_two_value_channel_oracle(self):
        x = np.array([1.0, 3.0])[None, :, None]  # one channel, batch stats over 2 values
        out, cache, _, _ = batchnorm_forward(
            x, np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), TRAIN
        )
        expected = 1.0 / np.sqrt(1.0 + BN_EPS)
        np.testing.assert_allclose(out[0, :, 0], [-expected, expected], atol=1e-12)
        assert cache is not None

    def test_constant_channel_zeros(self):
        x = np.full((2, 4, 1), 7.5)
        out, _, _, _ = batchnorm_forward(
            x, np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), TRAIN
        )
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_infer_passthrough_statistics(self):
        gen = np.random.default_rng(5)
        x = gen.standard_normal((2, 4, 3))
        out, cache, rm, rv = batchnorm_forward(
            x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), INFER
        )
        np.testing.assert_allclose(out, x / np.sqrt(1.0 + BN_EPS), atol=1e-12)
        assert cache is None

    def test_running_update_momentum(self):
        gen = np.random.default_rng(6)
        x = gen.standard_normal((3, 5, 2)) * 2.0 + 1.0
        rm0, rv0 = np.array([0.5, -0.5]), np.array([2.0, 3.0])
        _, _, rm1, rv1 = batchnorm_forward(
            x, np.ones(2), np.zeros(2), rm0, rv0, TRAIN
        )
        np.testing.assert_allclose(rm1, 0.99 * rm0 + 0.01 * x.mean(axis=(0, 1)), atol=1e-12)
        np.testing.assert_allclose(rv1, 0.99 * rv0 + 0.01 * x.var(axis=(0, 1)), atol=1e-12)

    def test_train_output_statistics(self):
        gen = np.random.default_rng(7)
        x = gen.standard_normal((4, 8, 3)) * 3.0 + 2.0
        out, _, _, _ = batchnorm_forward(
            x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), TRAIN
        )
        var = x.var(axis=(0, 1))
        assert np.all(np.abs(out.mean(axis=(0, 1))) < 1e-9)
        np.testing.assert_allclose(out.var(axis=(0, 1)), var / (var + BN_EPS), atol=1e-6)

    def test_backward_zero_upstream(self):
        gen = np.random.default_rng(8)
        x = gen.standard_normal((2, 4, 3))
        _, cache, _, _ = batchnorm_forward(
            x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), TRAIN
        )
        dx, dgamma, dbeta = batchnorm_backward(np.zeros_like(x), cache)
        assert not dx.any() and not dgamma.any() and not dbeta.any()

    def test_backward_finite_difference(self):
        gen = np.random.default_rng(9)
        x = gen.standard_normal((2, 4, 3))
        gamma = gen.uniform(0.5, 1.5, 3)
        beta = gen.standard_normal(3)
        proj = gen.standard_normal(x.shape)

        def loss_of(xv, gv, bv):
            out, _, _, _ = batchnorm_forward(xv, gv, bv, np.zeros(3), np.ones(3), TRAIN)
            return float((out * proj).sum())

        _, cache, _, _ = batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3), TRAIN)
        dx, dgamma, dbeta = batchnorm_backward(proj, cache)
        fd_x = numeric_grad(lambda v: loss_of(v, gamma, beta), x.copy())
        fd_g = numeric_grad(lambda v: loss_of(x, v, beta), gamma.copy())
        fd_b = numeric_grad(lambda v: loss_of(x, gamma, v), beta.copy())
        np.testing.assert_allclose(dx, fd_x, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(dgamma, fd_g, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(dbeta, fd_b, rtol=1e-4, atol=1e-8)

    def test_grad_input_sums_to_zero_per_channel(self):
        gen = np.random.default_rng(10)
        x = gen.standard_normal((3, 6, 4))
        proj = gen.standard_normal(x.shape)
        _, cache, _, _ = batchnorm_forward(
            x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), TRAIN
        )
        dx, _, _ = batchnorm_backward(proj, cache)
        np.testing.assert_allclose(dx.sum(axis=(0, 1)), 0.0, atol=1e-10)


class TestReluAndPool:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_backward_mask(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(
            relu_backward(np.array([5.0, 5.0, 5.0]), x), [0.0, 0.0, 5.0]
        )

    def test_relu_finite_difference_away_from_zero(self):
        gen = np.random.default_rng(11)
        x = gen.standard_normal(40)
        x = x[np.abs(x) > 1e-3]
        proj = gen.standard_normal(x.shape)
        analytic = relu_backward(proj, x)
        fd = numeric_grad(lambda v: float((relu(v) * proj).sum()), x.copy())
        np.testing.assert_allclose(analytic, fd, atol=1e-6)

    def test_gap_two_point_mean(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # B=1, L=2, C=2
        np.testing.assert_array_equal(global_avg_pool(x), [[2.0, 3.0]])

    def test_gap_constant_map(self):
        x = np.full((2, 9, 3), 4.25)
        np.testing.assert_array_equal(global_avg_pool(x), np.full((2, 3), 4.25))

    def test_gap_backward_uniform_spread(self):
        upstream = np.array([[3.0, -6.0]])
        grad = gap_backward(upstream, 3)
        np.testing.assert_array_equal(grad, np.broadcast_to([[1.0, -2.0]], (1, 3, 2)))


class TestDense:
    def test_zero_weights_bias_only(self):
        x = np.random.default_rng(0).standard_normal((4, 6))
        b = np.array([2.0, -3.0])
        out = dense_forward(x, np.zeros((6, 2)), b)
        np.testing.assert_array_equal(out, np.broadcast_to(b, (4, 2)))

    def test_identity_weights_hand_oracle(self):
        w = np.zeros((6, 2))
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        x = np.array([[1.0, 2.0, 9.0, 9.0, 9.0, 9.0]])
        np.testing.assert_array_equal(dense_forward(x, w, np.zeros(2)), [[1.0, 2.0]])

    def test_finite_difference(self):
        gen = np.random.default_rng(13)
        x = gen.standard_normal((3, 5))
        w = gen.standard_normal((5, 2))
        b = gen.standard_normal(2)
        proj = gen.standard_normal((3, 2))
        dx, dw, db = dense_backward(proj, x, w)
        np.testing.assert_allclose(
            dx, numeric_grad(lambda v: float((dense_forward(v, w, b) * proj).sum()), x.copy()),
            atol=1e-6)
        np.testing.assert_allclose(
            dw, numeric_grad(lambda v: float((dense_forward(x, v, b) * proj).sum()), w.copy()),
            atol=1e-6)
        np.testing.assert_allclose(
            db, numeric_grad(lambda v: float((dense_forward(x, w, v) * proj).sum()), b.copy()),
            atol=1e-6)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            dense_forward(np.zeros((3, 5)), np.zeros((6, 2)), np.zeros(2))


class TestSoftmax:
    def test_symmetric(self):
        dist = softmax([0.0, 0.0])
        np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-15)
        assert dist.alpha == 0.0

    def test_extreme_logits_stable(self):
        dist = softmax([1000.0, 0.0])
        np.testing.assert_allclose(dist.probs, [1.0, 0.0], atol=1e-12)
        assert np.isfinite(dist.probs).all()

    def test_magnitude_1e4(self):
        dist = softmax([1e4, -1e4])
        assert abs(dist.probs.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        gen = np.random.default_rng(14)
        for _ in range(50):
            z = gen.standard_normal(2) * 10
            c = gen.uniform(-100, 100)
            np.testing.assert_allclose(softmax(z + c).probs, softmax(z).probs, atol=1e-12)

    def test_sums_to_one_property(self):
        gen = np.random.default_rng(15)
        for _ in range(200):
            k = int(gen.integers(2, 6))
            z = gen.uniform(-500, 500, k)
            assert abs(softmax(z).probs.sum() - 1.0) < 1e-12

    def test_alpha_only_for_two_classes(self):
        assert softmax([1.0, 2.0, 3.0]).alpha is None
        assert softmax([0.3, -0.3]).alpha == pytest.approx(
            abs(softmax([0.3, -0.3]).probs[0] - softmax([0.3, -0.3]).probs[1]))


class TestXentLoss:
    def test_uniform_logits_ln2(self):
        loss, _ = xent_loss(np.zeros((1, 2)), [0])
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturated_correct(self):
        loss, _ = xent_loss(np.array([[30.0, -30.0]]), [0])
        assert loss < 1e-12

    def test_gradient_finite_difference(self):
        gen = np.random.default_rng(16)
        logits = gen.standard_normal((4, 2)) * 2
        labels = gen.integers(0, 2, 4)
        _, grad = xent_loss(logits, labels)
        fd = numeric_grad(lambda z: xent_loss(z, labels)[0], logits.copy())
        np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            xent_loss(np.zeros((2, 2)), [0, 2])
        with pytest.raises(LabelError):
            xent_loss(np.zeros((1, 2)), [-1])

    def test_grad_rows_sum_to_zero(self):
        gen = np.random.default_rng(17)
        logits = gen.standard_normal((5, 2))
        _, grad = xent_loss(logits, [0, 1, 0, 1, 1])
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)


class TestFcnNetwork:
    @pytest.fixture
    def small_config(self):
        return FcnConfig(series_len=12, class_count=2, filters=64, kernel=3)

    def test_output_shape(self, small_config):
        params = init_params(small_config, RngStream(0, "init"))
        gen = np.random.default_rng(1)
        logits, _ = fcn_forward(params, gen.standard_normal((5, 12, 1)), INFER)
        assert logits.shape == (5, 2)

    def test_parameter_count_ecg200(self):
        params = init_params(FcnConfig(), RngStream(0))
        # (3*1*64 + 64 + 2*64) + 2*(3*64*64 + 64 + 2*64) + (64*2 + 2)
        expected = (3 * 1 * 64 + 64 + 128) + 2 * (3 * 64 * 64 + 64 + 128) + (64 * 2 + 2)
        assert expected == 25474
        assert sum(t.size for _, t in params.learnables()) == 25474

    def test_zero_params_give_uniform_prediction(self, small_config):
        params = zeros_params(small_config)
        logits, _ = fcn_forward(params, np.random.default_rng(2).standard_normal((3, 12, 1)),
                                INFER)
        np.testing.assert_array_equal(logits, np.zeros((3, 2)))
        np.testing.assert_allclose(softmax_batch(logits), 0.5, atol=1e-15)

    def test_infer_is_pure(self, small_config):
        params = init_params(small_config, RngStream(3, "init"))
        before = {n: t.copy() for n, t in params.all_tensors()}
        x = np.random.default_rng(4).standard_normal((4, 12, 1))
        first, _ = fcn_forward(params, x, INFER)
        second, _ = fcn_forward(params, x, INFER)
        np.testing.assert_array_equal(first, second)
        for name, tensor in params.all_tensors():
            np.testing.assert_array_equal(tensor, before[name])

    def test_train_mode_updates_running_stats(self, small_config):
        params = init_params(small_config, RngStream(5, "init"))
        before = params.blocks[0].running_mean.copy()
        fcn_forward(params, np.random.default_rng(6).standard_normal((4, 12, 1)), TRAIN)
        assert not np.array_equal(params.blocks[0].running_mean, before)

    def test_backward_zero_grad(self, small_config):
        params = init_params(small_config, RngStream(7, "init"))
        x = np.random.default_rng(8).standard_normal((3, 12, 1))
        _, caches = fcn_forward(params, x, TRAIN)
        grads = fcn_backward(params, caches, np.zeros((3, 2)))
        for name, _ in params.learnables():
            assert not grads[name].any(), name

    def test_backward_requires_train_caches(self, small_config):
        params = init_params(small_config, RngStream(9, "init"))
        _, caches = fcn_forward(params, np.zeros((2, 12, 1)), INFER)
        with pytest.raises(ShapeError):
            fcn_backward(params, caches, np.zeros((2, 2)))

    def test_full_loss_gradients_match_finite_differences(self, small_config):
        params = init_params(small_config, RngStream(10, "init"))
        gen = np.random.default_rng(11)
        batch = gen.standard_normal((3, 12, 1))
        labels = np.array([0, 1, 1])
        failures = check_loss_gradients(params, batch, labels, n_coords=200, seed=12)
        assert not failures, "\n".join(failures)

    def test_duplicated_sample_keeps_parameter_grads(self, small_config):
        params = init_params(small_config, RngStream(13, "init"))
        x = np.random.default_rng(14).standard_normal((1, 12, 1))
        double = np.concatenate([x, x])

        def grads_for(batch, labels):
            p = params.copy()
            logits, caches = fcn_forward(p, batch, TRAIN)
            _, grad_logits = xent_loss(logits, labels)
            return fcn_backward(p, caches, grad_logits)

        single = grads_for(x, [1])
        doubled = grads_for(double, [1, 1])
        for name, _ in params.learnables():
            np.testing.assert_allclose(doubled[name], single[name], atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 12, 8, 3), (3, 4, 6, 5), (2, 1, 4, 7)])
    def test_train_pass_equals_layer_chain_exactly(self, shape):
        batch, length, filters, kernel = shape
        config = FcnConfig(series_len=length, filters=filters, kernel=kernel)
        params = _nontrivial_params(config, 31)
        x = np.random.default_rng(32).standard_normal((batch, length, 1))
        labels = np.arange(batch) % 2

        ref = params.copy()
        acts, tapes = x, []
        for blk in ref.blocks:
            conv = conv1d_forward(acts, blk.weights, blk.bias)
            bn, cache, blk.running_mean, blk.running_var = batchnorm_forward(
                conv, blk.gamma, blk.beta, blk.running_mean, blk.running_var, TRAIN
            )
            tapes.append((acts, cache, bn))
            acts = relu(bn)
        pooled = global_avg_pool(acts)
        ref_logits = dense_forward(pooled, ref.dense_weights, ref.dense_bias)
        _, grad_logits = xent_loss(ref_logits, labels)
        dpooled, _, _ = dense_backward(grad_logits, pooled, ref.dense_weights)
        dx = gap_backward(dpooled, length)
        ref_grads = {}
        for i in range(3, 0, -1):
            x_in, cache, bn = tapes[i - 1]
            dconv, ref_grads[f"block{i}/bn_gamma"], ref_grads[f"block{i}/bn_beta"] = (
                batchnorm_backward(relu_backward(dx, bn), cache)
            )
            dx, ref_grads[f"block{i}/conv_weights"], ref_grads[f"block{i}/conv_bias"] = (
                conv1d_backward(dconv, x_in, ref.blocks[i - 1].weights)
            )

        logits, caches = fcn_forward(params, x, TRAIN)
        grads = fcn_backward(params, caches, xent_loss(logits, labels)[1])
        np.testing.assert_array_equal(logits, ref_logits)
        for (name, got), (_, want) in zip(params.all_tensors(), ref.all_tensors()):
            np.testing.assert_array_equal(got, want, err_msg=name)
        for name, want in ref_grads.items():
            np.testing.assert_array_equal(grads[name], want, err_msg=name)

    def test_train_step_peak_memory(self):
        """One ECG200-shaped train step allocates far less than an im2col engine,
        and next to nothing once a workspace holds its buffers.

        With a (B*L, K*Cin) im2col matrix per conv the peak was 30.3 MB; per-tap
        GEMMs bring it to 14.4 MB, and a warm workspace to about 0.3 MB.
        """
        params = init_params(FcnConfig(), RngStream(15, "init"))
        x = np.random.default_rng(16).standard_normal((32, 96, 1))
        labels = np.arange(32) % 2

        def step_peak(ws):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                logits, caches = fcn_forward(params, x, TRAIN, ws)
                fcn_backward(params, caches, xent_loss(logits, labels)[1], ws)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak = step_peak(None)
        assert peak < 20e6, f"train step peak {peak / 1e6:.1f} MB"
        warm = Workspace()
        step_peak(warm)
        peak = step_peak(warm)
        assert peak < 1e6, f"warm-workspace train step peak {peak / 1e6:.2f} MB"


class TestCallsWithoutWorkspace:
    """A call given no workspace makes its own, so no later call reuses its arrays."""

    @pytest.mark.parametrize("cin, cout", [(1, 8), (4, 4)])  # stacked and per-tap conv
    def test_conv_results_survive_the_next_call(self, cin, cout):
        gen = np.random.default_rng(60)
        w, b = gen.standard_normal((3, cin, cout)), gen.standard_normal(cout)
        x1, x2 = gen.standard_normal((2, 4, 7, cin))
        up1, up2 = gen.standard_normal((2, 4, 7, cout))
        out = conv1d_forward(x1, w, b)
        kept = out.copy()
        conv1d_forward(x2, w, b)
        assert bits_equal(out, kept)
        grads = conv1d_backward(up1, x1, w)
        kept = [g.copy() for g in grads]
        conv1d_backward(up2, x2, w)
        for got, want in zip(grads, kept):
            assert bits_equal(got, want)

    def test_train_caches_survive_another_forward(self):
        config = FcnConfig(series_len=12, filters=8)
        params = _nontrivial_params(config, 61)
        gen = np.random.default_rng(62)
        a, b = gen.standard_normal((2, 5, 12, 1))
        labels = np.arange(5) % 2

        ref = params.copy()
        ref_logits, ref_caches = fcn_forward(ref, a, TRAIN)
        want = fcn_backward(ref, ref_caches, xent_loss(ref_logits, labels)[1])
        logits, caches = fcn_forward(params, a, TRAIN)
        fcn_forward(params, b, TRAIN)
        got = fcn_backward(params, caches, xent_loss(logits, labels)[1])
        assert want.keys() == got.keys()
        for name in want:
            assert bits_equal(got[name], want[name]), name


def _nontrivial_params(config: FcnConfig, seed: int):
    """Initialized parameters with batch norm far from the identity."""
    params = init_params(config, RngStream(seed, "init"))
    gen = np.random.default_rng(seed)
    f = config.filters
    for blk in params.blocks:
        blk.bias = gen.normal(0.0, 0.3, f)
        blk.gamma = gen.uniform(0.5, 1.5, f)
        blk.beta = gen.normal(0.0, 0.3, f)
        blk.running_mean = gen.normal(0.0, 0.3, f)
        blk.running_var = gen.uniform(0.5, 2.0, f)
    params.dense_bias = gen.normal(0.0, 0.1, config.class_count)
    return params


def _reference_infer(params, batch):
    """Infer-mode logits through the unfolded layer primitives."""
    x = batch
    for blk in params.blocks:
        conv = conv1d_forward(x, blk.weights, blk.bias)
        bn, _, _, _ = batchnorm_forward(
            conv, blk.gamma, blk.beta, blk.running_mean, blk.running_var, INFER
        )
        x = relu(bn)
    return dense_forward(global_avg_pool(x), params.dense_weights, params.dense_bias)


class TestFoldedInference:
    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 6),
        length=st.integers(1, 20),
        filters=st.integers(1, 16),
        kernel=st.sampled_from([1, 3, 5, 7]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_unfolded_layers(self, batch, length, filters, kernel, seed):
        config = FcnConfig(series_len=length, class_count=2, filters=filters, kernel=kernel)
        params = _nontrivial_params(config, seed)
        x = np.random.default_rng(seed + 1).standard_normal((batch, length, 1))
        logits, caches = fcn_forward(params, x, INFER)
        assert caches is None
        np.testing.assert_allclose(logits, _reference_infer(params, x), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, INFER_BLOCK - 1, INFER_BLOCK + 1, 300])
    def test_blocked_scoring_matches_one_forward(self, rows):
        params = _nontrivial_params(FcnConfig(series_len=24), 21)
        values = np.random.default_rng(rows).standard_normal((rows, 24))
        whole, _ = fcn_forward(params, values[:, :, None], INFER)
        np.testing.assert_allclose(infer_logits(params, values), whole, rtol=1e-12, atol=1e-12)


class TestInitParams:
    def test_constants(self):
        params = init_params(FcnConfig(), RngStream(1, "init"))
        for blk in params.blocks:
            assert not blk.bias.any()
            np.testing.assert_array_equal(blk.gamma, np.ones(64))
            assert not blk.beta.any()
            assert not blk.running_mean.any()
            np.testing.assert_array_equal(blk.running_var, np.ones(64))
        assert not params.dense_bias.any()

    def test_glorot_bounds_block2(self):
        params = init_params(FcnConfig(), RngStream(2, "init"))
        bound = np.sqrt(6.0 / (3 * 64 + 3 * 64))
        w = params.blocks[1].weights
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # the draw actually fills the range

    def test_same_seed_bit_identical(self):
        a = init_params(FcnConfig(), RngStream(3, "init"))
        b = init_params(FcnConfig(), RngStream(3, "init"))
        for (_, ta), (_, tb) in zip(a.all_tensors(), b.all_tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_different_labels_differ(self):
        a = init_params(FcnConfig(), RngStream(3, "x"))
        b = init_params(FcnConfig(), RngStream(3, "y"))
        assert not np.array_equal(a.blocks[0].weights, b.blocks[0].weights)


class TestPerLayerGradientSampling:
    """FD spot checks at the acceptance tolerance for each layer in isolation."""

    def test_layers_random_coordinates(self):
        gen = np.random.default_rng(20)
        x = gen.standard_normal((2, 6, 3))
        w = gen.standard_normal((3, 3, 4)) * 0.7
        b = gen.standard_normal(4) * 0.3
        proj = gen.standard_normal((2, 6, 4))
        dx, dw, db = conv1d_backward(proj, x, w)
        fd_dw = numeric_grad(lambda v: float((conv1d_forward(x, v, b) * proj).sum()), w.copy())
        checked = 0
        for idx in gen.choice(w.size, size=min(30, w.size), replace=False):
            assert fd_gradient_ok(dw.flat[idx], fd_dw.flat[idx])
            checked += 1
        assert checked > 0
