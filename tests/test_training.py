import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bcnn.errors import (
    CorruptRecord, DataExhausted, DivergedLoss, InvalidConfig, MissingFile, NonFiniteInput,
    ShapeMismatch,
)
from bcnn.layers import CgbnLayer, ComplexConvLayer
from bcnn.binary_ops import ConvGeometry
from bcnn.models import AvgPool, ComplexInputGenerator, MaxPool, build_toy_bcnn
from bcnn.tensors import ComplexTensor
from bcnn.layers import (
    _bwd_cgbn,
    _complex_conv_bwd,
    _fwd_cgbn,
    _real_conv_bwd,
    complex_conv2d_fp,
    conv2d_real,
)
from bcnn.models import Mode, graph_nodes, kind_of, run_nodes
from bcnn.training import (
    CIFAR_RECORD_BYTES,
    Dataset,
    TrainConfig,
    evaluate,
    load_cifar10,
    make_separable_dataset,
    pooling_comparison,
    read_cifar10_batch,
    softmax_cross_entropy,
    sgd_step,
    ste_backward,
    train,
)
from helpers import (
    assert_close_relative,
    batch_gemm_real_conv,
    every_node_kind_model,
    einsum_complex_conv_bwd,
    einsum_complex_conv_fwd,
    einsum_real_conv_bwd,
    einsum_real_conv_fwd,
    tracemalloc_peak_mib,
)


# ---------------------------------------------------------------------------
# STE
# ---------------------------------------------------------------------------

def test_ste_passes_gradient_inside_clip():
    g = np.array([[2.0]])
    out_r, out_i = ste_backward(g, g, np.array([[0.5]]), np.array([[0.5]]), clip=1.0)
    np.testing.assert_array_equal(out_r, g)
    np.testing.assert_array_equal(out_i, g)


def test_ste_blocks_gradient_outside_clip():
    g = np.array([[2.0]])
    out_r, _ = ste_backward(g, g, np.array([[1.5]]), np.array([[0.5]]), clip=1.0)
    np.testing.assert_array_equal(out_r, 0.0)


def test_ste_gates_planes_independently():
    g = np.array([[3.0]])
    out_r, out_i = ste_backward(g, g, np.array([[0.5]]), np.array([[2.0]]), clip=1.0)
    assert out_r[0, 0] == 3.0 and out_i[0, 0] == 0.0


def test_ste_matches_finite_differences_of_clipped_surrogate():
    # surrogate: F(w) = <g, clamp(w, -C, C)>; away from the kinks dF/dw is
    # exactly the STE gate applied to g
    rng = np.random.default_rng(0)
    clip = 1.0
    margin = 0.1
    for _ in range(5):
        w_re = rng.uniform(-2, 2, (4, 6))
        w_im = rng.uniform(-2, 2, (4, 6))
        # keep every entry out of the margin band around the clip boundary
        for w in (w_re, w_im):
            bad = np.abs(np.abs(w) - clip) < margin
            w[bad] = 0.5 * np.sign(w[bad])
        g_re = rng.standard_normal((4, 6))
        g_im = rng.standard_normal((4, 6))
        got_re, got_im = ste_backward(g_re, g_im, w_re, w_im, clip)
        eps = 1e-6

        def fd(w, g):
            grad = np.zeros_like(w)
            for idx in np.ndindex(w.shape):
                wp = w.copy()
                wm = w.copy()
                wp[idx] += eps
                wm[idx] -= eps
                up = (g * np.clip(wp, -clip, clip)).sum()
                down = (g * np.clip(wm, -clip, clip)).sum()
                grad[idx] = (up - down) / (2 * eps)
            return grad

        np.testing.assert_allclose(got_re, fd(w_re, g_re), atol=1e-4)
        np.testing.assert_allclose(got_im, fd(w_im, g_im), atol=1e-4)


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def test_sgd_zero_gradient_is_noop():
    w = np.array([1.0, 2.0])
    sgd_step(w, np.zeros(2), lr=0.1)
    np.testing.assert_array_equal(w, [1.0, 2.0])


def test_sgd_example():
    w = np.array([1.0])
    sgd_step(w, np.array([0.5]), lr=0.1)
    np.testing.assert_allclose(w, [0.95])


def test_sgd_two_steps_equal_summed_gradient():
    w1 = np.array([3.0])
    g1, g2 = np.array([0.4]), np.array([-0.7])
    sgd_step(w1, g1, 0.1)
    sgd_step(w1, g2, 0.1)
    w2 = np.array([3.0])
    sgd_step(w2, g1 + g2, 0.1)
    np.testing.assert_allclose(w1, w2)


# ---------------------------------------------------------------------------
# gradient correctness (finite differences)
# ---------------------------------------------------------------------------

def test_complex_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    g = ConvGeometry(2, 3, (3, 3), (1, 1), (1, 1))
    layer = ComplexConvLayer(
        rng.standard_normal((3, 2, 3, 3)), rng.standard_normal((3, 2, 3, 3)), g,
        bias_re=rng.standard_normal(3), bias_im=rng.standard_normal(3),
    )
    x = ComplexTensor(rng.standard_normal((2, 2, 5, 5)), rng.standard_normal((2, 2, 5, 5)))
    up_r = rng.standard_normal((2, 3, 5, 5))
    up_i = rng.standard_normal((2, 3, 5, 5))

    def loss_at(layer_w_re):
        test_layer = ComplexConvLayer(layer_w_re, layer.w_im, g,
                                      bias_re=layer.bias_re, bias_im=layer.bias_im)
        y = complex_conv2d_fp(x, test_layer)
        return (up_r * y.re).sum() + (up_i * y.im).sum()

    dw_re, dw_im, db_re, db_im, dx = _complex_conv_bwd(
        ComplexTensor(up_r, up_i), x, layer
    )
    eps = 1e-6
    for idx in [(0, 0, 0, 0), (1, 1, 2, 2), (2, 0, 1, 2)]:
        wp = layer.w_re.copy(); wp[idx] += eps
        wm = layer.w_re.copy(); wm[idx] -= eps
        fd = (loss_at(wp) - loss_at(wm)) / (2 * eps)
        np.testing.assert_allclose(dw_re[idx], fd, rtol=1e-5, atol=1e-6)

    def loss_at_x(re_plane):
        y = complex_conv2d_fp(ComplexTensor(re_plane, x.im), layer)
        return (up_r * y.re).sum() + (up_i * y.im).sum()

    for idx in [(0, 0, 0, 0), (1, 1, 3, 4)]:
        xp = x.re.copy(); xp[idx] += eps
        xm = x.re.copy(); xm[idx] -= eps
        fd = (loss_at_x(xp) - loss_at_x(xm)) / (2 * eps)
        np.testing.assert_allclose(dx.re[idx], fd, rtol=1e-5, atol=1e-6)


def _central_difference(loss, arr, idx, eps=1e-6):
    """d loss / d arr[idx], perturbing ``arr`` in place and restoring it."""
    orig = arr[idx]
    arr[idx] = orig + eps
    up = loss()
    arr[idx] = orig - eps
    down = loss()
    arr[idx] = orig
    return (up - down) / (2 * eps)


def test_complex_conv_backward_stride2_matches_finite_differences():
    rng = np.random.default_rng(3)
    g = ConvGeometry(2, 3, (3, 3), (2, 2), (0, 0))
    layer = ComplexConvLayer(
        rng.standard_normal((3, 2, 3, 3)), rng.standard_normal((3, 2, 3, 3)), g,
        bias_re=rng.standard_normal(3), bias_im=rng.standard_normal(3),
    )
    x = ComplexTensor(rng.standard_normal((2, 2, 7, 7)), rng.standard_normal((2, 2, 7, 7)))
    up = ComplexTensor(rng.standard_normal((2, 3, 3, 3)), rng.standard_normal((2, 3, 3, 3)))

    def loss():
        y = complex_conv2d_fp(x, layer)
        return (up.re * y.re).sum() + (up.im * y.im).sum()

    dw_re, dw_im, db_re, db_im, dx = _complex_conv_bwd(up, x, layer)
    checks = [
        (layer.w_re, dw_re, [(0, 0, 0, 0), (2, 1, 2, 1)]),
        (layer.w_im, dw_im, [(0, 0, 0, 0), (1, 1, 2, 2), (2, 0, 1, 2)]),
        (layer.bias_re, db_re, [(0,), (1,), (2,)]),
        (layer.bias_im, db_im, [(0,), (1,), (2,)]),
        (x.re, dx.re, [(0, 0, 0, 0), (1, 1, 3, 4)]),
        # (0, 1, 6, 5) sits under a single window; (1, 0, 2, 2) under four
        (x.im, dx.im, [(0, 0, 0, 0), (0, 1, 6, 5), (1, 0, 2, 2), (1, 1, 3, 4)]),
    ]
    for arr, grad, indices in checks:
        for idx in indices:
            np.testing.assert_allclose(grad[idx], _central_difference(loss, arr, idx),
                                       rtol=1e-5, atol=1e-6)


def test_generator_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    gen = ComplexInputGenerator(
        w1=0.3 * rng.standard_normal((2, 2, 3, 3)), b1=0.1 * rng.standard_normal(2),
        w2=0.3 * rng.standard_normal((2, 2, 3, 3)), b2=0.1 * rng.standard_normal(2),
    )
    x = rng.standard_normal((2, 2, 5, 4))
    up = ComplexTensor(rng.standard_normal(x.shape), rng.standard_normal(x.shape))

    def loss():
        y, _ = kind_of(gen).forward(gen, x, Mode.BATCH_LOSS)
        return (up.re * y.re).sum() + (up.im * y.im).sum()

    _, cache = kind_of(gen).forward(gen, x, Mode.BATCH_LOSS)
    grads = []
    dx = kind_of(gen).backward(gen, up, cache, 1.0, grads)
    by_param = {id(arr): grad for arr, grad in grads}
    for arr, indices in [
        (gen.w1, [(0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 1)]),
        (gen.b1, [(0,), (1,)]),
        (gen.w2, [(0, 0, 0, 0), (1, 1, 2, 2), (1, 0, 1, 0)]),
        (gen.b2, [(0,), (1,)]),
        (x, [(0, 0, 0, 0), (1, 1, 2, 3), (0, 1, 4, 3)]),
    ]:
        grad = dx if arr is x else by_param[id(arr)]
        assert grad.shape == arr.shape
        for idx in indices:
            np.testing.assert_allclose(grad[idx], _central_difference(loss, arr, idx),
                                       rtol=1e-5, atol=1e-6)


def _check_node_input_gradient(node, x, out_shape, seed):
    """Every entry of ``node``'s input gradient on both planes against central
    differences of <up, node(x)>."""
    rng = np.random.default_rng(seed)
    up = ComplexTensor(rng.standard_normal(out_shape), rng.standard_normal(out_shape))

    def loss():
        y, _ = kind_of(node).forward(node, x, Mode.BATCH_LOSS)
        return (up.re * y.re).sum() + (up.im * y.im).sum()

    y, cache = kind_of(node).forward(node, x, Mode.BATCH_LOSS)
    assert y.shape == out_shape
    dx = kind_of(node).backward(node, up, cache, 1.0, [])
    for arr, grad in ((x.re, dx.re), (x.im, dx.im)):
        assert grad.shape == arr.shape
        for idx in np.ndindex(arr.shape):
            np.testing.assert_allclose(grad[idx], _central_difference(loss, arr, idx),
                                       rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("pool", [AvgPool, MaxPool])
@pytest.mark.parametrize("window, stride, in_hw, out_hw", [
    ((2, 2), None, (6, 4), (3, 2)),
    ((3, 3), (2, 2), (7, 5), (3, 2)),  # overlapping windows
])
def test_pool_backward_matches_finite_differences(pool, window, stride, in_hw, out_hw):
    rng = np.random.default_rng(7)
    shape = (2, 2) + in_hw
    # distinct values, so no max-pool window holds a tie
    x = ComplexTensor(rng.permutation(np.prod(shape)).reshape(shape) / 7.0,
                      rng.standard_normal(shape))
    _check_node_input_gradient(pool(window, stride), x, (2, 2) + out_hw, seed=8)


# ---------------------------------------------------------------------------
# GEMM conv gradients against the einsum formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("pad_value", [0.0, -1.0])
@pytest.mark.parametrize("padding", [0, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_complex_conv_gemm_matches_einsum_reference(kernel, stride, padding, pad_value,
                                                    bias, batch):
    rng = np.random.default_rng([kernel, stride, padding, int(bias), batch])
    g = ConvGeometry(3, 4, (kernel, kernel), (stride, stride), (padding, padding))
    layer = ComplexConvLayer(
        rng.standard_normal((4, 3, kernel, kernel)).astype(np.float32),
        rng.standard_normal((4, 3, kernel, kernel)).astype(np.float32),
        g,
        bias_re=rng.standard_normal(4) if bias else None,
        bias_im=rng.standard_normal(4) if bias else None,
        pad_value=pad_value,
    )
    x = ComplexTensor(rng.standard_normal((batch, 3, 7, 6)),
                      rng.standard_normal((batch, 3, 7, 6)))
    y = complex_conv2d_fp(x, layer)
    ref_y, ref_cache = einsum_complex_conv_fwd(x, layer)
    assert_close_relative(y.re, ref_y.re)
    assert_close_relative(y.im, ref_y.im)

    up = ComplexTensor(rng.standard_normal(y.shape), rng.standard_normal(y.shape))
    dw_re, dw_im, db_re, db_im, dx = _complex_conv_bwd(up, x, layer)
    ref = einsum_complex_conv_bwd(up, ref_cache, layer)
    for got, want in zip((dw_re, dw_im, dx.re, dx.im), (ref[0], ref[1], ref[4].re, ref[4].im)):
        assert_close_relative(got, want)
    if bias:
        assert_close_relative(db_re, ref[2])
        assert_close_relative(db_im, ref[3])
    else:
        assert db_re is None and db_im is None


@pytest.mark.parametrize("batch", [1, 3, 4, 9])
@pytest.mark.parametrize("pad_value", [0.0, -1.0])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_real_conv_gemm_matches_einsum_reference(kernel, stride, padding, pad_value, batch):
    rng = np.random.default_rng([kernel, padding, batch])
    w = rng.standard_normal((4, 3, kernel, kernel)).astype(np.float32)
    x = rng.standard_normal((batch, 3, 7, 6))
    args = ((stride, stride), (padding, padding), pad_value)
    y = conv2d_real(x, w, *args)
    ref_y, ref_cols = einsum_real_conv_fwd(x, w, *args)
    assert_close_relative(y, ref_y)

    up = rng.standard_normal(y.shape)
    dw, dx = _real_conv_bwd(up, x, w, *args)
    ref_dw, ref_dx = einsum_real_conv_bwd(up, ref_cols, x.shape, w, *args[:2])
    assert_close_relative(dw, ref_dw)
    assert_close_relative(dx, ref_dx)
    only_dw, none = _real_conv_bwd(up, x, w, *args, input_grad=False)
    np.testing.assert_array_equal(only_dw, dw)
    assert none is None

    # streaming one image at a time issues the same GEMMs as the whole batch
    for got, want in zip((y, dw, dx), batch_gemm_real_conv(x, w, up, *args)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("count", [1, 2], ids=["one_core", "two_cores"])
def test_real_conv_never_holds_the_whole_batch_columns(cores, count):
    """Forward and backward peak below one (n, c*kh*kw, h_out*w_out) float64
    column matrix: the columns exist one image at a time, and on two cores
    each thread holds its own."""
    import bcnn.workers as workers

    cores(count)
    rng = np.random.default_rng(0)
    n, c, out_c, hw, k = 16, 8, 8, 16, 3
    x = rng.standard_normal((n, c, hw, hw))
    w = rng.standard_normal((out_c, c, k, k)).astype(np.float32)
    g = rng.standard_normal((n, out_c, hw, hw))
    whole_cols = n * c * k * k * hw * hw * 8  # padding 1 keeps hw x hw outputs
    for run in (lambda: conv2d_real(x, w, padding=(1, 1)),
                lambda: _real_conv_bwd(g, x, w, padding=(1, 1))):
        run()  # first-call allocations (BLAS buffers) are not the routine's
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole_cols
    assert (workers._pool is not None) == (count > 1)


def test_cgbn_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    layer = CgbnLayer.identity(2, eps=1e-5)
    layer.gamma_re[:] = rng.standard_normal(2).astype(np.float32)
    layer.gamma_im[:] = rng.standard_normal(2).astype(np.float32)
    x = ComplexTensor(rng.standard_normal((3, 2, 4, 4)), rng.standard_normal((3, 2, 4, 4)))
    up = ComplexTensor(rng.standard_normal((3, 2, 4, 4)), rng.standard_normal((3, 2, 4, 4)))

    def loss_at(re_plane):
        y, _ = _fwd_cgbn(layer, ComplexTensor(re_plane, x.im), Mode.BATCH_LOSS)
        return (up.re * y.re).sum() + (up.im * y.im).sum()

    _, cache = _fwd_cgbn(layer, x, Mode.BATCH_LOSS)
    dx = _bwd_cgbn(layer, up, cache, grads=[])
    eps = 1e-6
    for idx in [(0, 0, 0, 0), (1, 1, 2, 3), (2, 0, 3, 1)]:
        xp = x.re.copy(); xp[idx] += eps
        xm = x.re.copy(); xm[idx] -= eps
        fd = (loss_at(xp) - loss_at(xm)) / (2 * eps)
        np.testing.assert_allclose(dx.re[idx], fd, rtol=1e-4, atol=1e-6)


def test_cgbn_parameter_and_imaginary_gradients_match_finite_differences():
    # float64 parameters, so a central difference resolves them
    rng = np.random.default_rng(9)
    layer = CgbnLayer(*(rng.standard_normal(3) for _ in range(4)),
                      *(np.zeros(3), np.zeros(3), np.ones(3), np.ones(3)), eps=1e-5)
    x = ComplexTensor(rng.standard_normal((2, 3, 4, 3)), rng.standard_normal((2, 3, 4, 3)))
    up = ComplexTensor(rng.standard_normal(x.shape), rng.standard_normal(x.shape))

    def loss():
        y, _ = _fwd_cgbn(layer, x, Mode.BATCH_LOSS)
        return (up.re * y.re).sum() + (up.im * y.im).sum()

    grads = []
    dx = _bwd_cgbn(layer, up, _fwd_cgbn(layer, x, Mode.BATCH_LOSS)[1], grads)
    by_param = {id(arr): grad for arr, grad in grads}
    assert len(by_param) == 4
    for arr in (layer.gamma_re, layer.gamma_im, layer.beta_re, layer.beta_im):
        for idx in np.ndindex(arr.shape):
            np.testing.assert_allclose(by_param[id(arr)][idx],
                                       _central_difference(loss, arr, idx),
                                       rtol=1e-5, atol=1e-7)
    for idx in [(0, 0, 0, 0), (1, 2, 3, 2), (0, 1, 2, 1)]:
        np.testing.assert_allclose(dx.im[idx], _central_difference(loss, x.im, idx),
                                   rtol=1e-5, atol=1e-7)


def test_dense_backward_matches_finite_differences():
    from bcnn.models import DenseLayer

    rng = np.random.default_rng(10)
    layer = DenseLayer(rng.standard_normal((3, 5)), rng.standard_normal(3))
    x = rng.standard_normal((4, 5))
    up = rng.standard_normal((4, 3))

    def loss():
        return (up * kind_of(layer).forward(layer, x, Mode.BATCH_LOSS)[0]).sum()

    _, cache = kind_of(layer).forward(layer, x, Mode.BATCH_LOSS)
    grads = []
    dx = kind_of(layer).backward(layer, up, cache, 1.0, grads)
    by_param = {id(arr): grad for arr, grad in grads}
    for arr in (layer.weight, layer.bias, x):
        grad = dx if arr is x else by_param[id(arr)]
        assert grad.shape == arr.shape
        for idx in np.ndindex(arr.shape):
            np.testing.assert_allclose(grad[idx], _central_difference(loss, arr, idx),
                                       rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_reaches_95_percent_on_separable_data():
    data = make_separable_dataset(samples_per_class=50, seed=0)
    model = build_toy_bcnn(seed=0)
    cfg = TrainConfig(lr=0.05, epochs=20, batch_size=16, seed=0)
    model, history = train(model, data, cfg)
    assert len(history) == 20
    _, accuracy = evaluate(model, data)
    assert accuracy >= 0.95


def test_zero_learning_rate_keeps_loss_curve_constant():
    data = make_separable_dataset(samples_per_class=10, seed=1)
    model = build_toy_bcnn(seed=1)
    cfg = TrainConfig(lr=0.0, epochs=3, batch_size=8, seed=1)
    _, history = train(model, data, cfg)
    losses = [h["loss"] for h in history]
    assert losses[0] == losses[1] == losses[2]


def test_fixed_seed_reproduces_loss_curve_exactly():
    data = make_separable_dataset(samples_per_class=10, seed=2)
    cfg = TrainConfig(lr=0.05, epochs=3, batch_size=8, seed=2)
    _, h1 = train(build_toy_bcnn(seed=2), data, cfg)
    _, h2 = train(build_toy_bcnn(seed=2), data, cfg)
    assert [h["loss"] for h in h1] == [h["loss"] for h in h2]


# sha256 prefixes of a seeded toy run, recorded with numpy 2.4.6 and its
# OpenBLAS: the per-epoch train history, then the history and BCN1 bytes of
# a 3-iteration SLR prune of the trained model
GOLDEN_TRAINING = {
    "train_history": "19693a6268dfb4262e2daf5bacea21d0",
    "slr_history": "afa7791ac7b437f40b6392ae0296577e",
    "slr_bcn1": "e97a4d95150d0e37caa5155d255b202d",
}


def test_seeded_train_and_slr_prune_are_golden():
    import hashlib
    import json

    from bcnn.model_io import model_to_bytes
    from bcnn.slr import SlrConfig, budgets_from_ratio, history_to_jsonl, slr_prune
    from bcnn.training import make_synthetic_dataset

    def digest(b):
        return hashlib.sha256(b).hexdigest()[:32]

    shape = (3, 16, 16)
    model = build_toy_bcnn(input_shape=shape, num_classes=4, channels=(8, 8), seed=3)
    data = make_synthetic_dataset(num_classes=4, samples_per_class=12, shape=shape, seed=3)
    _, history = train(model, data, TrainConfig(lr=0.05, epochs=3, batch_size=16, seed=3))
    cfg = SlrConfig(budgets=budgets_from_ratio(model, 0.5), max_iters=3)
    _, slr_history = slr_prune(model, data, cfg)
    assert {
        "train_history": digest(json.dumps(history).encode()),
        "slr_history": digest(history_to_jsonl(slr_history).encode()),
        "slr_bcn1": digest(model_to_bytes(model)),
    } == GOLDEN_TRAINING


@pytest.mark.parametrize("name, batch, steps", [("toy", 12, 3), ("resnet18", 4, 2)])
def test_two_cores_train_exactly_as_one(cores, monkeypatch, name, batch, steps):
    # the split convolutions keep every sum in one order: the same losses,
    # gradients, latent weights and running statistics, bit for bit
    import bcnn.training as training
    import bcnn.workers as workers
    from bcnn.models import build_resnet18_bcnn

    build = {"toy": lambda: build_toy_bcnn((3, 16, 16), 4, (8, 8), seed=40),
             "resnet18": lambda: build_resnet18_bcnn(seed=41)}[name]
    sgd_step, grads = training.sgd_step, []
    monkeypatch.setattr(training, "sgd_step",
                        lambda arr, grad, lr: grads.append(grad.copy()) or sgd_step(arr, grad, lr))
    runs = []
    for count in (1, 2):
        cores(count)
        model = build()
        rng = np.random.default_rng(42)
        losses = [training.train_step(model, rng.random((batch, *model.input_shape)),
                                      rng.integers(0, model.num_classes, batch), lr=0.1, clip=1.0)
                  for _ in range(steps)]
        assert (workers._pool is not None) == (count > 1)  # one core starts no pool
        runs.append((losses, grads[:], [arr for node, _ in graph_nodes(model)
                                         for arr in vars(node).values()
                                         if isinstance(arr, np.ndarray)]))
        grads.clear()
    (losses_1, *arrays_1), (losses_2, *arrays_2) = runs
    assert losses_2 == losses_1
    for one, two in zip(arrays_1, arrays_2):
        assert len(two) == len(one) > 0
        for a, b in zip(one, two):
            np.testing.assert_array_equal(b, a)


def test_concurrent_training_steps_share_the_pool_and_keep_their_results(cores):
    # more callers than cores, each training its own model on the one pool
    import copy
    import sys
    import threading

    from bcnn.training import train_step

    rng = np.random.default_rng(43)
    model = build_toy_bcnn((3, 16, 16), 4, (8, 8), seed=43)
    batches = [(rng.random((12, 3, 16, 16)), rng.integers(0, 4, 12)) for _ in range(2)]

    def train(net):
        losses = [train_step(net, x, y, lr=0.1, clip=1.0) for x, y in batches]
        return losses, [arr.tobytes() for node, _ in graph_nodes(net)
                        for arr in vars(node).values() if isinstance(arr, np.ndarray)]

    cores(1)
    want = train(copy.deepcopy(model))
    cores(2)
    start, results = threading.Barrier(3), [None] * 3

    def caller(k):
        net = copy.deepcopy(model)
        start.wait(timeout=60)
        results[k] = train(net)

    callers = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over often
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert results == [want] * 3


def test_latent_weights_stay_full_precision():
    data = make_separable_dataset(samples_per_class=10, seed=3)
    model = build_toy_bcnn(seed=3)
    conv = [l for l in model.layers if type(l).__name__ == "BinaryConvLayer"][0]
    before = conv.w_re.copy()
    logits, _ = run_nodes(model.layers, data.images[:8], Mode.TRAIN_STEP)
    np.testing.assert_array_equal(conv.w_re, before)  # forward never binarizes storage
    assert not np.all(np.abs(conv.w_re) == 1.0)


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("batch_size", 0), ("batch_size", -4),
    ("lr", -0.1), ("lr", math.nan), ("lr", math.inf),
    ("clip", 0.0), ("clip", -1.0), ("clip", math.nan),
])
def test_train_config_rejects_bad_hyperparameters(field, value):
    with pytest.raises(InvalidConfig, match=field.split("_")[0]):
        TrainConfig(**{field: value})


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(InvalidConfig, match="seed"):
        TrainConfig(seed=-1)


def test_train_config_accepts_the_edges():
    TrainConfig(lr=0.0, epochs=0, batch_size=1, clip=math.inf)


def test_train_raises_on_empty_dataset():
    data = Dataset(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(DataExhausted):
        train(build_toy_bcnn(seed=0), data, TrainConfig(epochs=1))


def test_train_raises_on_non_finite_loss():
    data = make_separable_dataset(samples_per_class=4, seed=4)
    model = build_toy_bcnn(seed=4)
    model.layers[-1].bias[:] = np.nan
    with pytest.raises(DivergedLoss):
        train(model, data, TrainConfig(lr=0.05, epochs=1, batch_size=4))


def test_softmax_cross_entropy_gradient():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 3))
    labels = np.array([0, 2, 1, 2])
    loss, grad = softmax_cross_entropy(logits, labels)
    eps = 1e-6
    for idx in [(0, 0), (1, 2), (3, 1)]:
        lp = logits.copy(); lp[idx] += eps
        lm = logits.copy(); lm[idx] -= eps
        fd = (softmax_cross_entropy(lp, labels)[0] - softmax_cross_entropy(lm, labels)[0]) / (2 * eps)
        np.testing.assert_allclose(grad[idx], fd, atol=1e-6)


# ---------------------------------------------------------------------------
# CIFAR-10 binary format
# ---------------------------------------------------------------------------

def _write_records(path, records):
    with open(path, "wb") as fh:
        for label, pixels in records:
            fh.write(bytes([label]) + pixels)


@pytest.mark.parametrize("labels", [[0, -1], [2, 0]])
def test_dataset_rejects_labels_out_of_range(labels):
    from bcnn.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch, match="label out of range"):
        Dataset(np.zeros((2, 3, 4, 4)), labels, 2)


def test_dataset_rejects_a_non_finite_pixel():
    from bcnn.errors import NonFiniteInput

    images = np.zeros((2, 3, 4, 4))
    images[1, 0, 3, 2] = np.nan
    with pytest.raises(NonFiniteInput):
        Dataset(images, [0, 1], 2)


def test_read_cifar10_batch_two_records(tmp_path):
    pixels0 = bytes(range(256)) * 12  # 3072 bytes
    pixels1 = bytes([255]) * 3072
    path = tmp_path / "data_batch_1.bin"
    _write_records(path, [(7, pixels0), (2, pixels1)])
    images, labels = read_cifar10_batch(str(path))
    assert images.shape == (2, 3, 32, 32)
    np.testing.assert_array_equal(labels, [7, 2])
    assert images[1].max() == 1.0  # byte 255 scales to 1.0
    assert images[0, 0, 0, 0] == 0.0  # first pixel byte is 0


def test_read_cifar10_batch_rejects_partial_record(tmp_path):
    path = tmp_path / "data_batch_1.bin"
    path.write_bytes(bytes(CIFAR_RECORD_BYTES + 1))
    with pytest.raises(CorruptRecord):
        read_cifar10_batch(str(path))


def test_read_cifar10_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        read_cifar10_batch(str(tmp_path / "nope.bin"))


def test_load_cifar10_standard_split(tmp_path):
    pixels = bytes([128]) * 3072
    for i in range(1, 6):
        _write_records(tmp_path / f"data_batch_{i}.bin", [(i % 10, pixels)] * 2)
    _write_records(tmp_path / "test_batch.bin", [(3, pixels)] * 4)
    split = load_cifar10(str(tmp_path))
    assert len(split.train) == 10
    assert len(split.test) == 4
    assert split.train.num_classes == 10


# ---------------------------------------------------------------------------
# pooling comparison harness
# ---------------------------------------------------------------------------

def test_pooling_comparison_ordering():
    results = pooling_comparison(seed=0, epochs=10)
    assert set(results) == {"avg", "max"}
    assert results["avg"] >= results["max"]


# ---------------------------------------------------------------------------
# full-model training paths
# ---------------------------------------------------------------------------

def _toy_residual_model(seed=0):
    from bcnn.layers import CgbnLayer
    from bcnn.models import (AvgPool, Flatten, ModelGraph,
                             build_complex_input_generator, validate_graph,
                             _block1, _block2, _init_complex_conv, _init_dense)

    rng = np.random.default_rng(seed)
    layers = [
        build_complex_input_generator(3, seed=seed),
        _init_complex_conv(rng, 3, 4, (3, 3), padding=(1, 1)),
        CgbnLayer.identity(4),
        _block1(rng, 4),
        _block2(rng, 4, 8),
        AvgPool((2, 2)),
        CgbnLayer.identity(8),
        Flatten(),
        _init_dense(rng, 2 * 8 * 2 * 2, 2),
    ]
    model = ModelGraph("toy-res", (3, 8, 8), 2, layers)
    validate_graph(model)
    return model


def test_residual_block_model_learns():
    data = make_separable_dataset(samples_per_class=40, seed=0)
    model = _toy_residual_model(seed=0)
    model, history = train(model, data,
                           TrainConfig(lr=0.05, epochs=12, batch_size=16, seed=0))
    assert history[-1]["loss"] < 0.5 * history[0]["loss"]
    _, accuracy = evaluate(model, data)
    assert accuracy >= 0.8


def _trainable_arrays(model):
    from bcnn.layers import CgbnLayer as Cgbn, ComplexConvLayer as Conv
    from bcnn.models import (BinaryConvLayer as BinConv, ComplexInputGenerator,
                             DenseLayer, ResidualBlock)

    def layer_arrays(layer):
        if isinstance(layer, ComplexInputGenerator):
            return [layer.w1, layer.b1, layer.w2, layer.b2]
        if isinstance(layer, Conv):
            arrs = [layer.w_re, layer.w_im]
            if layer.bias_re is not None:
                arrs += [layer.bias_re, layer.bias_im]
            return arrs
        if isinstance(layer, BinConv):
            return [layer.w_re, layer.w_im]
        if isinstance(layer, Cgbn):
            return [layer.gamma_re, layer.gamma_im, layer.beta_re, layer.beta_im]
        if isinstance(layer, DenseLayer):
            return [layer.weight, layer.bias]
        if isinstance(layer, ResidualBlock):
            return sum((layer_arrays(s) for s in
                        (layer.conv1, layer.bn1, layer.conv2, layer.bn2,
                         layer.side_conv, layer.side_bn)), [])
        return []

    return sum((layer_arrays(l) for l in model.layers), [])


def _cached_arrays(cache):
    """Every array a training cache holds, through tuples, lists and
    dataclasses (complex tensors, layers)."""
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, (tuple, list)):
        for item in cache:
            yield from _cached_arrays(item)
    elif dataclasses.is_dataclass(cache):
        for f in dataclasses.fields(cache):
            yield from _cached_arrays(getattr(cache, f.name))


@pytest.mark.parametrize("build", [build_toy_bcnn, every_node_kind_model],
                         ids=["toy", "every-kind"])
def test_training_caches_hold_no_array_larger_than_an_activation(build):
    """Convs cache their input, not im2col columns (9x an activation for a
    3x3 kernel), so no cached array outgrows the forward's largest activation."""
    model = build(seed=0)
    batch = 3
    x = np.random.default_rng(0).standard_normal((batch, *model.input_shape))
    _, caches = run_nodes(model.layers, x, Mode.TRAIN_STEP)
    largest = batch * max(math.prod(act.dims) for _, act in graph_nodes(model))
    sizes = [arr.size for arr in _cached_arrays(caches)]
    assert sizes and max(sizes) <= largest


def test_backward_covers_every_trainable_parameter():
    from bcnn.models import backprop_nodes

    model = _toy_residual_model(seed=1)
    data = make_separable_dataset(samples_per_class=8, seed=1)
    logits, caches = run_nodes(model.layers, data.images[:8], Mode.TRAIN_STEP)
    _, dlogits = softmax_cross_entropy(logits, data.labels[:8])
    grads = []
    backprop_nodes(model.layers, caches, dlogits, 1.0, grads)
    got = {id(arr) for arr, _ in grads}
    expected = _trainable_arrays(model)
    missing = [i for i, arr in enumerate(expected) if id(arr) not in got]
    assert not missing, f"parameters without gradients: {missing}"
    for arr, grad in grads:
        assert arr.shape == np.asarray(grad).shape


def test_train_step_on_nin_and_resnet():
    from bcnn.models import build_nin_bcnn, build_resnet18_bcnn
    from bcnn.training import train_step

    rng = np.random.default_rng(0)
    for build, batch in ((build_nin_bcnn, 4), (build_resnet18_bcnn, 2)):
        model = build(seed=0)
        xb = rng.random((batch, 3, 32, 32))
        yb = rng.integers(0, 10, batch)
        before = model.layers[-1].weight.copy()
        loss, _ = train_step(model, xb, yb, lr=0.01, clip=1.0)
        assert np.isfinite(loss)
        assert not np.array_equal(before, model.layers[-1].weight)


def test_batch_loss_leaves_every_running_statistic_unchanged():
    from bcnn.models import forward, graph_nodes
    from bcnn.training import batch_loss, train_step

    model = every_node_kind_model(seed=2)
    stats = [arr for node, _ in graph_nodes(model)
             for name, arr in vars(node).items() if name.startswith("running_")]
    assert len(stats) == 4 * 8  # eight CGBNs (five inside the blocks)
    arrays = [arr for node, _ in graph_nodes(model) for arr in vars(node).values()
              if isinstance(arr, np.ndarray)]
    before = [arr.copy() for arr in arrays]
    data = make_separable_dataset(samples_per_class=4, shape=(3, 16, 16), seed=2)
    # neither inference mode nor the loss changes any array of the model
    forward(model, data.images, packed=True)
    forward(model, data.images, packed=False)
    batch_loss(model, data.images, data.labels)
    for old, new in zip(before, arrays):
        np.testing.assert_array_equal(old, new)
    # a training step moves every running statistic
    before = [arr.copy() for arr in stats]
    train_step(model, data.images, data.labels, lr=0.0, clip=1.0)
    for old, new in zip(before, stats):
        assert not np.array_equal(old, new)


def _bad_batch(case):
    """A toy-model batch of four images and its labels, broken as ``case`` says."""
    data = make_separable_dataset(samples_per_class=2, seed=5)
    images, labels = data.images.copy(), data.labels.copy()
    if case == "nan_pixel":
        images[2, 1, 4, 4] = np.nan
    elif case == "inf_pixel":
        images[0, 0, 0, 0] = -np.inf
    elif case == "label_too_large":
        labels[1] = 5
    elif case == "negative_label":
        labels[3] = -1
    elif case == "three_labels":
        labels = labels[:3]
    elif case == "float_labels":
        labels = labels.astype(float)
    elif case == "image_9x9":
        images = np.zeros((4, 3, 9, 9))
    return images, labels


@pytest.mark.parametrize("entry", ["train_step", "batch_loss"])
@pytest.mark.parametrize("case, error, match", [
    ("nan_pixel", NonFiniteInput, "non-finite"), ("inf_pixel", NonFiniteInput, "non-finite"),
    ("label_too_large", ShapeMismatch, "outside"), ("negative_label", ShapeMismatch, "outside"),
    ("three_labels", ShapeMismatch, "one integer label per image"),
    ("float_labels", ShapeMismatch, "one integer label per image"),
    ("image_9x9", ShapeMismatch, "does not match model input"),
])
def test_training_entries_reject_a_bad_batch_before_changing_anything(entry, case, error, match):
    from bcnn import training

    model = build_toy_bcnn(seed=5)
    arrays = [arr for node, _ in graph_nodes(model) for arr in vars(node).values()
              if isinstance(arr, np.ndarray)]
    before = [arr.copy() for arr in arrays]
    images, labels = _bad_batch(case)
    args = (0.5, 1.0) if entry == "train_step" else ()
    with pytest.raises(error, match=match):
        getattr(training, entry)(model, images, labels, *args)
    for old, new in zip(before, arrays):
        np.testing.assert_array_equal(old, new)


def test_batch_loss_keeps_no_node_cache():
    """A NIN batch-8 loss peaks where a dense forward on the batch does
    (42.1 MiB each).  Keeping every node's cache, which nothing reads
    without a backward, reached 105.6 MiB."""
    from bcnn.models import build_nin_bcnn, forward
    from bcnn.training import batch_loss

    model = build_nin_bcnn(seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.random((8, 3, 32, 32)), rng.integers(0, 10, 8)
    dense = tracemalloc_peak_mib(lambda: forward(model, x, packed=False))
    assert tracemalloc_peak_mib(lambda: batch_loss(model, x, y)) < 1.1 * dense


def test_train_step_caches_one_copy_of_each_array():
    """A ResNet-18 batch-4 training step peaks at 126.6 MiB on one core and
    128.2 MiB on two, where a worker scatters the input gradients.  Caching
    each binary conv's float64 signed weights beside its input reached
    169.2 MiB, and copying float64 weights on every cast 135.6 MiB."""
    from bcnn.models import build_resnet18_bcnn
    from bcnn.training import train_step

    model = build_resnet18_bcnn(seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.random((4, 3, 32, 32)), rng.integers(0, 10, 4)
    assert tracemalloc_peak_mib(lambda: train_step(model, x, y, lr=0.0, clip=1.0)) < 131


def test_every_node_kind_trains_infers_and_round_trips():
    from bcnn.model_io import model_from_bytes, model_to_bytes
    from bcnn.models import backprop_nodes, forward
    from bcnn.training import train_step

    model = every_node_kind_model(seed=2)
    tags = {kind_of(layer).tag(layer) for layer in model.layers}
    assert tags == set(range(1, 16)) - {5, 8, 9, 10}  # every BCN1 layer tag
    data = make_separable_dataset(samples_per_class=4, shape=(3, 16, 16), seed=2)
    logits, caches = run_nodes(model.layers, data.images, Mode.TRAIN_STEP)
    _, dlogits = softmax_cross_entropy(logits, data.labels)
    grads = []
    backprop_nodes(model.layers, caches, dlogits, 1.0, grads)
    by_param = {id(arr): np.asarray(grad) for arr, grad in grads}
    for arr in _trainable_arrays(model):
        assert id(arr) in by_param
        assert by_param[id(arr)].shape == arr.shape

    loss, _ = train_step(model, data.images, data.labels, lr=0.05, clip=1.0)
    assert np.isfinite(loss)
    x = data.images[:3]
    np.testing.assert_array_equal(forward(model, x, packed=True),
                                  forward(model, x, packed=False))
    blob = model_to_bytes(model)
    assert model_to_bytes(model_from_bytes(blob)) == blob


def test_cgbn_backward_imaginary_plane_finite_differences():
    rng = np.random.default_rng(6)
    layer = CgbnLayer.identity(2, eps=1e-5)
    layer.gamma_re[:] = rng.standard_normal(2).astype(np.float32)
    layer.gamma_im[:] = rng.standard_normal(2).astype(np.float32)
    x = ComplexTensor(rng.standard_normal((3, 2, 4, 4)), rng.standard_normal((3, 2, 4, 4)))
    up = ComplexTensor(rng.standard_normal((3, 2, 4, 4)), rng.standard_normal((3, 2, 4, 4)))

    def loss_at(im_plane):
        y, _ = _fwd_cgbn(layer, ComplexTensor(x.re, im_plane), Mode.BATCH_LOSS)
        return (up.re * y.re).sum() + (up.im * y.im).sum()

    _, cache = _fwd_cgbn(layer, x, Mode.BATCH_LOSS)
    dx = _bwd_cgbn(layer, up, cache, grads=[])
    eps = 1e-6
    for idx in [(0, 0, 0, 0), (1, 1, 2, 3), (2, 0, 3, 1)]:
        xp = x.im.copy(); xp[idx] += eps
        xm = x.im.copy(); xm[idx] -= eps
        fd = (loss_at(xp) - loss_at(xm)) / (2 * eps)
        np.testing.assert_allclose(dx.im[idx], fd, rtol=1e-4, atol=1e-6)


def test_backward_computes_no_gradient_of_the_images():
    from bcnn.models import backprop_nodes

    model = build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=3)
    data = make_separable_dataset(samples_per_class=4, shape=(3, 8, 8), seed=3)
    logits, caches = run_nodes(model.layers, data.images, Mode.TRAIN_STEP)
    _, dlogits = softmax_cross_entropy(logits, data.labels)
    grads = []
    assert backprop_nodes(model.layers, caches, dlogits, 1.0, grads) is None
    # the same weight gradients as every node's backward, the generator's included
    g, full = dlogits, []
    for node, cache in zip(reversed(model.layers), reversed(caches)):
        g = kind_of(node).backward(node, g, cache, 1.0, full)
    assert g.shape == data.images.shape
    assert [id(arr) for arr, _ in grads] == [id(arr) for arr, _ in full]
    for (_, got), (_, want) in zip(grads, full):
        np.testing.assert_array_equal(got, want)
