"""Shared test oracles: dense reference implementations kept independent of
the packed kernels they check."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from bcnn.tensors import ComplexTensor


def random_pm1_tensor(rng, shape) -> ComplexTensor:
    return ComplexTensor(
        np.where(rng.random(shape) > 0.5, 1.0, -1.0),
        np.where(rng.random(shape) > 0.5, 1.0, -1.0),
    )


def reference_pack_plane(plane) -> np.ndarray:
    """Pack one {+1,-1} NCHW plane bit by bit: bit j of word k is channel
    64*k + j, set for +1.  Deliberately written as an explicit bit loop."""
    n, c, h, w = plane.shape
    words = np.zeros((n, h, w, -(-c // 64)), dtype=np.uint64)
    for ch in range(c):
        bit = np.uint64(1) << np.uint64(ch % 64)
        words[..., ch // 64] |= np.where(plane[:, ch] > 0, bit, np.uint64(0))
    return words


def reference_complex_conv2d(x: ComplexTensor, w: ComplexTensor, stride, padding,
                             pad_value=-1.0):
    """Sliding-window complex convolution on dense planes.

    Padding uses ``pad_value`` on both planes (-1 matches the binary
    kernel's alphabet).  Deliberately written as an explicit window loop.
    """
    n, ic, h, wd = x.shape
    oc, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    pads = ((0, 0), (0, 0), (ph, ph), (pw, pw))
    xr = np.pad(x.re, pads, constant_values=pad_value)
    xi = np.pad(x.im, pads, constant_values=pad_value)
    h_out = (h + 2 * ph - kh) // sh + 1
    w_out = (wd + 2 * pw - kw) // sw + 1
    y_r = np.zeros((n, oc, h_out, w_out))
    y_i = np.zeros((n, oc, h_out, w_out))
    for oy in range(h_out):
        for ox in range(w_out):
            pr = xr[:, :, oy * sh : oy * sh + kh, ox * sw : ox * sw + kw]
            pi = xi[:, :, oy * sh : oy * sh + kh, ox * sw : ox * sw + kw]
            y_r[:, :, oy, ox] = (np.einsum("nckl,ockl->no", pr, w.re)
                                 - np.einsum("nckl,ockl->no", pi, w.im))
            y_i[:, :, oy, ox] = (np.einsum("nckl,ockl->no", pr, w.im)
                                 + np.einsum("nckl,ockl->no", pi, w.re))
    return ComplexTensor(y_r, y_i)


def random_conv_case(rng, max_channels=128):
    """One random binary convolution case (inputs, weights, geometry params)."""
    ic = int(rng.integers(1, max_channels + 1))
    oc = int(rng.integers(1, 17))
    k = int(rng.choice([1, 3]))
    s = int(rng.choice([1, 2]))
    p = int(rng.choice([0, 1]))
    h = int(rng.integers(k + s, 9))
    n = int(rng.integers(1, 3))
    x = random_pm1_tensor(rng, (n, ic, h, h))
    w = random_pm1_tensor(rng, (oc, ic, k, k))
    return x, w, (k, k), (s, s), (p, p)


def einsum_conv2d_real(x, w, stride=(1, 1), padding=(0, 0), pad_value=0.0):
    """Real 2D cross-correlation as one plain einsum over strided windows.

    The pre-GEMM formula of the full-precision convs: einsum without
    ``optimize`` never calls BLAS, so it sums in its own order.
    """
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=pad_value)
    win = sliding_window_view(xp, w.shape[2:], axis=(2, 3))[:, :, ::sh, ::sw]
    return np.einsum("nchwij,ocij->nohw", win, np.asarray(w, dtype=float))


def einsum_complex_conv2d(x: ComplexTensor, layer) -> ComplexTensor:
    """Four-einsum complex convolution of a ComplexConvLayer, bias included."""
    g = layer.geometry

    def conv(plane, w):
        return einsum_conv2d_real(plane, w, g.stride, g.padding, layer.pad_value)

    y_r = conv(x.re, layer.w_re) - conv(x.im, layer.w_im)
    y_i = conv(x.re, layer.w_im) + conv(x.im, layer.w_re)
    if layer.bias_re is not None:
        y_r = y_r + layer.bias_re.reshape(1, -1, 1, 1)
        y_i = y_i + layer.bias_im.reshape(1, -1, 1, 1)
    return ComplexTensor(y_r, y_i)


def reference_cgbn_eval(x: ComplexTensor, layer) -> ComplexTensor:
    """Eval-mode CGBN written as whole-array expressions, one temporary per
    operation, in the order the layer documents."""
    def per_channel(v):
        return np.asarray(v, dtype=float).reshape(1, -1, 1, 1)

    inv_r = 1.0 / np.sqrt(2.0 * per_channel(layer.running_var_re) + layer.eps)
    inv_i = 1.0 / np.sqrt(2.0 * per_channel(layer.running_var_im) + layer.eps)
    xh_r = (x.re - per_channel(layer.running_mean_re)) * inv_r
    xh_i = (x.im - per_channel(layer.running_mean_im)) * inv_i
    g_r = per_channel(layer.gamma_re)
    g_i = per_channel(layer.gamma_im)
    y_r = g_r * xh_r - g_i * xh_i + per_channel(layer.beta_re)
    y_i = g_r * xh_i + g_i * xh_r + per_channel(layer.beta_im)
    return ComplexTensor(y_r, y_i)
