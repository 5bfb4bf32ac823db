import numpy as np
import pytest

from bcnn.binary_ops import ConvGeometry, binary_complex_conv2d
from bcnn.errors import ShapeMismatch
from bcnn.layers import (
    CgbnLayer,
    ComplexConvLayer,
    avg_pool,
    cgbn_forward,
    complex_conv2d_fp,
    conv2d_real,
    fully_connected,
    hardtanh_backward,
    _bwd_pool,
    _tap_sum,
    _windows,
    max_pool,
    relu,
    spectral_pool,
)
from bcnn.tensors import ComplexTensor, pack
from helpers import (assert_close_relative, copied_avg_pool_backward, copied_windows,
                     einsum_complex_conv2d, einsum_conv2d_real, im2col, patch_mean_avg_pool,
                     random_pm1_tensor, reference_cgbn_eval)


# ---------------------------------------------------------------------------
# complex convolution
# ---------------------------------------------------------------------------

def _identity_conv(channels):
    w_re = np.zeros((channels, channels, 1, 1))
    for c in range(channels):
        w_re[c, c, 0, 0] = 1.0
    return ComplexConvLayer(w_re, np.zeros_like(w_re), ConvGeometry(channels, channels, (1, 1)))


def test_fp_conv_identity_weight():
    rng = np.random.default_rng(0)
    x = ComplexTensor(rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 3, 4, 4)))
    y = complex_conv2d_fp(x, _identity_conv(3))
    np.testing.assert_allclose(y.re, x.re, atol=1e-12)
    np.testing.assert_allclose(y.im, x.im, atol=1e-12)


def test_fp_conv_imaginary_unit_rotates():
    rng = np.random.default_rng(1)
    x = ComplexTensor(rng.standard_normal((1, 1, 3, 3)), rng.standard_normal((1, 1, 3, 3)))
    layer = ComplexConvLayer(
        np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)), ConvGeometry(1, 1, (1, 1))
    )
    y = complex_conv2d_fp(x, layer)
    # multiplying by i maps (re, im) to (-im, re)
    np.testing.assert_allclose(y.re, -x.im, atol=1e-12)
    np.testing.assert_allclose(y.im, x.re, atol=1e-12)


def test_fp_conv_equals_packed_kernel_on_pm1():
    rng = np.random.default_rng(2)
    x = random_pm1_tensor(rng, (2, 20, 6, 6))
    w = random_pm1_tensor(rng, (5, 20, 3, 3))
    g = ConvGeometry(20, 5, (3, 3), (1, 1), (1, 1))
    fp = complex_conv2d_fp(x, ComplexConvLayer(w.re, w.im, g, pad_value=-1.0))
    packed = binary_complex_conv2d(pack(x), pack(w), g)
    np.testing.assert_array_equal(fp.re, packed.re)
    np.testing.assert_array_equal(fp.im, packed.im)


def test_fp_conv_bias():
    x = ComplexTensor(np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 2)))
    layer = _identity_conv(2)
    layer.bias_re = np.array([1.0, 2.0])
    layer.bias_im = np.array([-1.0, 0.5])
    y = complex_conv2d_fp(x, layer)
    np.testing.assert_allclose(y.re[0, :, 0, 0], [1.0, 2.0])
    np.testing.assert_allclose(y.im[0, :, 0, 0], [-1.0, 0.5])


@pytest.mark.parametrize("kernel,stride,padding", [
    ((3, 3), (2, 2), (1, 1)),
    ((5, 5), (1, 1), (2, 2)),
    ((3, 1), (2, 1), (0, 2)),
])
def test_fp_conv_matches_einsum_reference(kernel, stride, padding):
    rng = np.random.default_rng(sum(kernel) + sum(stride))
    x = ComplexTensor(rng.standard_normal((3, 7, 9, 10)), rng.standard_normal((3, 7, 9, 10)))
    layer = ComplexConvLayer(
        rng.standard_normal((6, 7, *kernel)).astype(np.float32),
        rng.standard_normal((6, 7, *kernel)).astype(np.float32),
        ConvGeometry(7, 6, kernel, stride, padding),
        bias_re=rng.standard_normal(6).astype(np.float32),
        bias_im=rng.standard_normal(6).astype(np.float32),
        pad_value=0.25,
    )
    y = complex_conv2d_fp(x, layer)
    ref = einsum_complex_conv2d(x, layer)
    assert_close_relative(y.re, ref.re)
    assert_close_relative(y.im, ref.im)


@pytest.mark.parametrize("stride,padding", [((1, 1), (1, 1)), ((2, 2), (1, 1)), ((2, 1), (0, 2))])
def test_conv2d_real_matches_einsum_reference(stride, padding):
    rng = np.random.default_rng(stride[1] + padding[1])
    x = rng.standard_normal((2, 3, 8, 9))
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    y = conv2d_real(x, w, stride, padding, pad_value=-0.5)
    assert_close_relative(y, einsum_conv2d_real(x, w, stride, padding, pad_value=-0.5))


@pytest.mark.parametrize("kernel,stride,padding", [
    ((1, 1), (1, 1), (0, 0)),
    ((3, 3), (1, 1), (1, 1)),
    ((3, 3), (2, 2), (1, 1)),
    ((1, 3), (1, 2), (0, 1)),
])
def test_im2col_oracle_matches_per_window_gather(kernel, stride, padding):
    # the oracle the einsum references stand on, against one slice per window
    rng = np.random.default_rng(sum(kernel) + sum(stride) + sum(padding))
    x = rng.standard_normal((2, 3, 6, 7))
    cols, (h_out, w_out) = im2col(x, kernel, stride, padding, pad_value=-0.5)
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-0.5)
    assert (h_out, w_out) == ((6 + 2 * ph - kh) // sh + 1, (7 + 2 * pw - kw) // sw + 1)
    assert cols.shape == (2, 3 * kh * kw, h_out * w_out)
    for oy in range(h_out):
        for ox in range(w_out):
            window = xp[:, :, oy * sh:oy * sh + kh, ox * sw:ox * sw + kw]
            np.testing.assert_array_equal(cols[:, :, oy * w_out + ox], window.reshape(2, -1))


# ---------------------------------------------------------------------------
# CGBN
# ---------------------------------------------------------------------------

def test_cgbn_constant_input_gives_zero():
    layer = CgbnLayer.identity(3)
    x = ComplexTensor(np.full((4, 3, 5, 5), 2.0), np.full((4, 3, 5, 5), -1.0))
    y = cgbn_forward(x, layer, training=True)
    np.testing.assert_allclose(y.re, 0.0, atol=1e-12)
    np.testing.assert_allclose(y.im, 0.0, atol=1e-12)


def test_cgbn_constant_input_outputs_beta():
    layer = CgbnLayer.identity(2)
    layer.beta_re[:] = 2.0
    layer.beta_im[:] = -3.0
    x = ComplexTensor(np.full((4, 2, 5, 5), 7.0), np.full((4, 2, 5, 5), 0.5))
    y = cgbn_forward(x, layer, training=True)
    np.testing.assert_allclose(y.re, 2.0, atol=1e-12)
    np.testing.assert_allclose(y.im, -3.0, atol=1e-12)


def test_cgbn_training_statistics():
    rng = np.random.default_rng(3)
    layer = CgbnLayer.identity(3, eps=1e-5)
    x = ComplexTensor(rng.standard_normal((16, 3, 16, 16)) * 3 + 2,
                      rng.standard_normal((16, 3, 16, 16)) * 0.5 - 1)
    y = cgbn_forward(x, layer, training=True)
    for plane in (y.re, y.im):
        mean = plane.mean(axis=(0, 2, 3))
        var = plane.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-5
        np.testing.assert_allclose(var, 0.5, rtol=0.05)


def test_cgbn_complex_gamma():
    # gamma = i swaps the normalized planes: y = i * (xh_r + i xh_i)
    layer = CgbnLayer.identity(1)
    layer.gamma_re[:] = 0.0
    layer.gamma_im[:] = 1.0
    rng = np.random.default_rng(4)
    x = ComplexTensor(rng.standard_normal((2, 1, 8, 8)), rng.standard_normal((2, 1, 8, 8)))
    ident = CgbnLayer.identity(1)
    base = cgbn_forward(x, ident, training=True)
    y = cgbn_forward(x, layer, training=True)
    np.testing.assert_allclose(y.re, -base.im, atol=1e-12)
    np.testing.assert_allclose(y.im, base.re, atol=1e-12)


def test_cgbn_eval_uses_running_stats():
    layer = CgbnLayer.identity(1, eps=0.0 + 1e-12)
    layer.running_mean_re[:] = 1.0
    layer.running_var_re[:] = 0.5  # 2*var = 1
    x = ComplexTensor(np.full((1, 1, 1, 1), 3.0), np.zeros((1, 1, 1, 1)))
    y = cgbn_forward(x, layer, training=False)
    np.testing.assert_allclose(y.re, 2.0, rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cgbn_eval_bit_identical_to_whole_array_expression(dtype):
    rng = np.random.default_rng(9)
    c = 5
    layer = CgbnLayer.identity(c)
    for name in ("gamma_re", "gamma_im", "beta_re", "beta_im",
                 "running_mean_re", "running_mean_im"):
        getattr(layer, name)[:] = rng.standard_normal(c)
    layer.running_var_re[:] = rng.random(c) + 0.1
    layer.running_var_im[:] = rng.random(c) + 0.1
    assert np.all(layer.gamma_im != 0)
    x = ComplexTensor(rng.standard_normal((2, c, 4, 3)).astype(dtype),
                      rng.standard_normal((2, c, 4, 3)).astype(dtype))
    y = cgbn_forward(x, layer, training=False)
    ref = reference_cgbn_eval(x, layer)
    assert y.re.tobytes() == ref.re.tobytes()
    assert y.im.tobytes() == ref.im.tobytes()


def test_cgbn_running_stat_update():
    layer = CgbnLayer.identity(1, momentum=0.1)
    x = ComplexTensor(np.full((2, 1, 4, 4), 10.0), np.zeros((2, 1, 4, 4)))
    cgbn_forward(x, layer, training=True)
    np.testing.assert_allclose(layer.running_mean_re, 1.0)  # 0.9*0 + 0.1*10
    np.testing.assert_allclose(layer.running_var_re, 0.9)  # 0.9*1 + 0.1*0


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def test_avg_pool_example():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    assert avg_pool(x, (2, 2))[0, 0, 0, 0] == 2.5


def test_max_pool_example():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    assert max_pool(x, (2, 2))[0, 0, 0, 0] == 4.0


def test_avg_pool_commutes_with_plane_swap():
    rng = np.random.default_rng(8)
    x = ComplexTensor(rng.standard_normal((2, 3, 8, 8)), rng.standard_normal((2, 3, 8, 8)))
    pooled = avg_pool(x, (2, 2))
    swapped = avg_pool(ComplexTensor(x.im, x.re), (2, 2))
    np.testing.assert_array_equal(pooled.re, swapped.im)
    np.testing.assert_array_equal(pooled.im, swapped.re)


def test_avg_pool_preserves_global_mean():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 8, 8))
    y = avg_pool(x, (2, 2))
    assert y.shape == (2, 3, 4, 4)
    np.testing.assert_allclose(y.mean(), x.mean(), rtol=1e-12)


def test_pool_rejects_non_tiling_window():
    with pytest.raises(ShapeMismatch):
        avg_pool(np.zeros((1, 1, 5, 5)), (2, 2))


@pytest.mark.parametrize("pool", [avg_pool, max_pool])
@pytest.mark.parametrize("hw, window, stride", [
    ((2, 2), (3, 3), (1, 1)), ((1, 4), (3, 3), (1, 1)),
    ((4, 4), (2, 2), (0, 0)), ((4, 4), (2, 2), (-1, -1)),
])
def test_pool_rejects_a_window_it_cannot_place(pool, hw, window, stride):
    # the exact-cover test alone gave an empty result or a numpy error here
    with pytest.raises(ShapeMismatch, match="not covered exactly"):
        pool(np.zeros((1, 1, *hw)), window, stride)


def _bits(a):
    """The bytes of ``a`` as unsigned integers: equal bits, -0.0 kept apart."""
    return np.ascontiguousarray(a).view(f"u{a.itemsize}")


def _signed_zeros_and_magnitudes(rng, shape):
    """Normal draws scaled by 1e-8 to 1e8, about a tenth of them -0.0 and a
    tenth +0.0, and one image's first channel all -0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    u = rng.random(shape)
    x[u < 0.1] = -0.0
    x[(0.1 <= u) & (u < 0.2)] = 0.0
    x[0, 0] = -0.0
    return x


# window, stride (None: the window) and an input height and width it covers exactly
AVG_POOL_CASES = [
    ((1, 1), None, (5, 6)), ((2, 2), None, (8, 6)), ((2, 2), (1, 1), (5, 5)),
    ((3, 3), (1, 1), (6, 7)), ((3, 3), (2, 2), (9, 7)), ((3, 4), None, (9, 8)),
    ((4, 4), None, (8, 12)), ((5, 5), None, (10, 10)), ((12, 12), None, (12, 12)),
]


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("window, stride, hw", AVG_POOL_CASES)
def test_avg_pool_equals_the_patch_mean_bit_for_bit(window, stride, hw, complex_input):
    rng = np.random.default_rng(sum(window) + sum(hw))
    shape = (2, 3, *hw)
    x = _signed_zeros_and_magnitudes(rng, shape)
    if complex_input:
        x = ComplexTensor(x, _signed_zeros_and_magnitudes(rng, shape))
    y, ref = avg_pool(x, window, stride), patch_mean_avg_pool(x, window, stride or window)
    planes = zip((y.re, y.im), (ref.re, ref.im)) if complex_input else [(y, ref)]
    for got, want in planes:
        assert got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_tap_sum_is_the_stacked_sum_for_every_tap_count():
    # n < 8, one block of up to 128, and two levels of halving above 128
    rng = np.random.default_rng(3)
    for n in range(1, 300):
        taps = list(_signed_zeros_and_magnitudes(rng, (1, 1, 4, 4, n)).transpose(4, 0, 1, 2, 3))
        np.testing.assert_array_equal(_bits(_tap_sum(taps)), _bits(np.stack(taps, -1).sum(-1)))


@pytest.mark.parametrize("window, stride, hw", AVG_POOL_CASES)
def test_avg_pool_backward_equals_the_copied_gradient_bit_for_bit(window, stride, hw):
    rng = np.random.default_rng(sum(window) + sum(hw))
    stride = stride or window
    x = _signed_zeros_and_magnitudes(rng, (2, 3, *hw))
    ref_shape = patch_mean_avg_pool(x, window, stride).shape
    g = ComplexTensor(*(_signed_zeros_and_magnitudes(rng, ref_shape) for _ in range(2)))
    dx = _bwd_pool(g, ComplexTensor(x, x), window, stride, average=True)
    for got, gp in ((dx.re, g.re), (dx.im, g.im)):
        np.testing.assert_array_equal(_bits(got), _bits(copied_avg_pool_backward(gp, x.shape,
                                                                                 window, stride)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad_value", [0.0, -1.0])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv_windows_equal_the_padded_sliding_view(stride, padding, pad_value, dtype):
    rng = np.random.default_rng(stride + padding)
    x = _signed_zeros_and_magnitudes(rng, (2, 3, 9, 8)).astype(dtype)
    args = ((3, 2), (stride, stride), (padding, padding), pad_value)
    win, hw = _windows(x, *args)
    ref, ref_hw = copied_windows(x, *args)
    assert hw == ref_hw and win.shape == ref.shape and win.dtype == dtype
    assert not win.flags.writeable
    np.testing.assert_array_equal(_bits(win), _bits(ref))


# ---------------------------------------------------------------------------
# spectral pooling
# ---------------------------------------------------------------------------

def test_spectral_pool_constant_preserved():
    x = ComplexTensor(np.full((1, 2, 12, 12), 3.5), np.full((1, 2, 12, 12), -1.25))
    for crop in ((12, 12), (7, 5), (4, 4), (1, 1)):
        y = spectral_pool(x, crop)
        assert y.shape == (1, 2) + crop
        np.testing.assert_allclose(y.re, 3.5, atol=1e-12)
        np.testing.assert_allclose(y.im, -1.25, atol=1e-12)


def test_spectral_pool_identity_without_truncation():
    rng = np.random.default_rng(10)
    x = ComplexTensor(rng.standard_normal((2, 3, 16, 16)),
                      rng.standard_normal((2, 3, 16, 16)))
    y = spectral_pool(x, (16, 16))
    assert np.abs(y.re - x.re).max() < 1e-10
    assert np.abs(y.im - x.im).max() < 1e-10


def test_spectral_pool_preserves_low_frequency_exponentials():
    h = w = 16
    h2 = w2 = 8
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    y2, x2 = np.meshgrid(np.arange(h2), np.arange(w2), indexing="ij")
    for fy, fx in [(0, 0), (1, 2), (-3, 3), (2, -4), (-4, -4)]:
        z = np.exp(2j * np.pi * (fy * yy / h + fx * xx / w))
        out = spectral_pool(ComplexTensor(z.real[None, None], z.imag[None, None]),
                            (h2, w2))
        expected = np.exp(2j * np.pi * (fy * y2 / h2 + fx * x2 / w2))
        assert np.abs(out.re[0, 0] - expected.real).max() < 1e-8
        assert np.abs(out.im[0, 0] - expected.imag).max() < 1e-8


def test_spectral_pool_rejects_upsampling():
    x = ComplexTensor(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 4)))
    with pytest.raises(ShapeMismatch):
        spectral_pool(x, (8, 8))


# ---------------------------------------------------------------------------
# activations and fully connected
# ---------------------------------------------------------------------------

def test_relu_and_hardtanh_examples():
    assert relu(np.array([-2.0]))[0] == 0.0
    x = np.linspace(-1, 1, 21)
    np.testing.assert_array_equal(relu(x), np.maximum(x, 0.0))
    # the straight-through gradient passes where |x| < 1 only
    g = hardtanh_backward(np.ones(5), np.array([-3.0, -1.0, 0.5, 1.0, 3.0]))
    np.testing.assert_array_equal(g, [0.0, 0.0, 1.0, 0.0, 0.0])


def test_activations_apply_per_plane():
    x = ComplexTensor(np.array([[[[-2.0]]]]), np.array([[[[0.5]]]]))
    y = relu(x)
    assert y.re[0, 0, 0, 0] == 0.0 and y.im[0, 0, 0, 0] == 0.5


def test_fully_connected_identity_and_bias():
    x = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(fully_connected(x, np.eye(3), np.zeros(3)), x)
    b = np.array([1.0, -1.0, 0.5])
    np.testing.assert_array_equal(
        fully_connected(np.zeros((1, 3)), np.eye(3), b), b[None]
    )


def test_fully_connected_matches_double_loop():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 7))
    w = rng.standard_normal((5, 7))
    b = rng.standard_normal(5)
    expected = np.empty((4, 5))
    for n in range(4):
        for o in range(5):
            expected[n, o] = sum(w[o, k] * x[n, k] for k in range(7)) + b[o]
    np.testing.assert_allclose(fully_connected(x, w, b), expected, rtol=1e-12)


def test_fully_connected_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        fully_connected(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))


def test_spectral_pool_even_crop_keeps_extra_negative_bin():
    # crop length 4 from 12 retains frequencies [-2, 1]: the bin at -2 is
    # kept (extra slot on the negative side) while +2 is truncated
    h = w = 12
    yy, _ = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")

    def magnitude(fy, crop):
        z = np.exp(2j * np.pi * fy * yy / h)
        out = spectral_pool(
            ComplexTensor(z.real[None, None], z.imag[None, None]), (crop, crop)
        )
        return np.abs(out.re[0, 0] + 1j * out.im[0, 0]).max()

    assert magnitude(-2, 4) > 0.999
    assert magnitude(2, 4) < 1e-10
    assert magnitude(2, 5) > 0.999
    assert magnitude(-2, 5) > 0.999
    assert magnitude(3, 5) < 1e-10
