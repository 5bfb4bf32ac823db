"""Full-precision complex layers and their gradients.

Convolution, the three batch-normalization variants, the three pooling
variants, activations, and the fully connected head.  Everything here
operates on dense planes; the packed kernels live in ``binary_ops``.
Convolutions are im2col followed by ``np.matmul``, so they run as BLAS
GEMMs: two per complex convolution, one per real convolution.

Each trainable op's backward sits beside its forward, including the
straight-through estimators of binarized weights and activations.  A
training forward returns ``(y, cache)`` and its backward consumes it.

Layers are safe to share between readers in eval mode.  Training-mode
batch-norm calls mutate the layer's running statistics and require a
single writer per layer per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binary_ops import ConvGeometry, out_size
from .errors import NonPsdCovariance, ShapeMismatch
from .tensors import ComplexTensor


# ---------------------------------------------------------------------------
# real 2D convolution plumbing (shared by the complex layer and the trainer)
# ---------------------------------------------------------------------------

def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    pad_value: float = 0.0,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Gather sliding windows into a (n, c*kh*kw, h_out*w_out) matrix."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    h_out, w_out = out_size(h, kh, sh, ph), out_size(w, kw, sw, pw)
    if h_out < 1 or w_out < 1:
        raise ShapeMismatch(f"kernel {kernel} does not fit a {h}x{w} input")
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=pad_value)
    cols = np.empty((n, c, kh, kw, h_out, w_out), dtype=float)
    for ky in range(kh):
        for kx in range(kw):
            cols[:, :, ky, kx] = xp[:, :, ky : ky + sh * h_out : sh,
                                    kx : kx + sw * w_out : sw]
    return cols.reshape(n, c * kh * kw, h_out * w_out), (h_out, w_out)


def _col2im(dcols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    h_out, w_out = out_size(h, kh, sh, ph), out_size(w, kw, sw, pw)
    dpad = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    d6 = dcols.reshape(n, c, kh, kw, h_out, w_out)
    for ky in range(kh):
        for kx in range(kw):
            dpad[:, :, ky : ky + sh * h_out : sh, kx : kx + sw * w_out : sw] += d6[:, :, ky, kx]
    return dpad[:, :, ph : ph + h, pw : pw + w]


def _weight_grad_gemm(g, cols):
    """Sum over the batch of ``g[i] @ cols[i]^T``, one GEMM per sample on a
    transposed view: no copy of ``cols`` and no (n, rows, K) stack of
    products, which would outgrow ``cols`` in deep layers."""
    acc = g[0] @ cols[0].T
    for i in range(1, len(g)):
        acc += g[i] @ cols[i].T
    return acc


def conv2d_real(
    x: np.ndarray,
    w: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    padding: tuple[int, int] = (0, 0),
    pad_value: float = 0.0,
) -> np.ndarray:
    """Plain real 2D convolution (cross-correlation), NCHW in, NCHW out."""
    if w.shape[1] != x.shape[1]:
        raise ShapeMismatch(f"weight expects {w.shape[1]} channels, input has {x.shape[1]}")
    return _real_conv_fwd(x, w, padding, stride, pad_value)[0]


def _real_conv_fwd(x, w, padding, stride=(1, 1), pad_value=0.0):
    """``conv2d_real`` that also returns the im2col columns for the backward."""
    cols, (h_out, w_out) = im2col(x, w.shape[2:], stride, padding, pad_value)
    y = np.matmul(w.reshape(w.shape[0], -1).astype(float), cols)
    return y.reshape(x.shape[0], w.shape[0], h_out, w_out), cols


def _real_conv_bwd(g, cols, x_shape, w, padding):
    n, out_c = g.shape[:2]
    gm = g.reshape(n, out_c, -1)
    dw = _weight_grad_gemm(gm, cols).reshape(w.shape)
    dcols = np.matmul(w.reshape(out_c, -1).astype(float).T, gm)
    dx = _col2im(dcols, x_shape, w.shape[2:], (1, 1), padding)
    return dw, dx


# ---------------------------------------------------------------------------
# complex convolution
# ---------------------------------------------------------------------------

@dataclass
class ComplexConvLayer:
    """Full-precision complex convolution weights.

    ``pad_value`` is applied to both planes; the default 0 matches ordinary
    full-precision layers while -1 reproduces the binary kernel's padding.
    """

    w_re: np.ndarray
    w_im: np.ndarray
    geometry: ConvGeometry
    bias_re: np.ndarray | None = None
    bias_im: np.ndarray | None = None
    pad_value: float = 0.0


def complex_im2col(x: ComplexTensor, layer: ComplexConvLayer):
    """Column matrices of both planes: (cols_r, cols_i, (h_out, w_out))."""
    g = layer.geometry
    if x.shape[1] != g.in_channels or layer.w_re.shape[1] != g.in_channels:
        raise ShapeMismatch(
            f"input has {x.shape[1]} channels, layer expects {g.in_channels}"
        )
    cols_r, out_hw = im2col(x.re, g.kernel, g.stride, g.padding, layer.pad_value)
    cols_i, _ = im2col(x.im, g.kernel, g.stride, g.padding, layer.pad_value)
    return cols_r, cols_i, out_hw


def complex_conv_gemm(cols_r, cols_i, out_hw, layer: ComplexConvLayer) -> ComplexTensor:
    """The two GEMMs of a complex convolution over ``complex_im2col`` columns.

    ``a = [w_r; w_i] @ cols_r`` and ``b = [w_i; w_r] @ cols_i``; their halves
    combine into ``y_r = a_top - b_top`` and ``y_i = a_bottom + b_bottom``.
    """
    n = cols_r.shape[0]
    out_c = layer.w_re.shape[0]
    mat_r = layer.w_re.reshape(out_c, -1)
    mat_i = layer.w_im.reshape(out_c, -1)
    a = np.matmul(np.concatenate([mat_r, mat_i]).astype(float), cols_r)
    b = np.matmul(np.concatenate([mat_i, mat_r]).astype(float), cols_i)
    y_r = np.subtract(a[:, :out_c], b[:, :out_c]).reshape(n, out_c, *out_hw)
    y_i = np.add(a[:, out_c:], b[:, out_c:]).reshape(n, out_c, *out_hw)
    if layer.bias_re is not None:
        y_r += layer.bias_re.reshape(1, -1, 1, 1)
        y_i += layer.bias_im.reshape(1, -1, 1, 1)
    return ComplexTensor(y_r, y_i)


def complex_conv2d_fp(x: ComplexTensor, layer: ComplexConvLayer) -> ComplexTensor:
    """Complex convolution: y = conv(x, w) with complex per-element products.

    y_r = conv(x_r, w_r) - conv(x_i, w_i) + b_r
    y_i = conv(x_r, w_i) + conv(x_i, w_r) + b_i

    computed as im2col of both planes followed by ``complex_conv_gemm``.
    """
    return complex_conv_gemm(*complex_im2col(x, layer), layer)


def _complex_conv_fwd(x: ComplexTensor, layer: ComplexConvLayer):
    cols_r, cols_i, out_hw = complex_im2col(x, layer)
    return complex_conv_gemm(cols_r, cols_i, out_hw, layer), (cols_r, cols_i, x.shape)


def _complex_conv_bwd(g: ComplexTensor, cache, layer: ComplexConvLayer):
    """Returns (dw_re, dw_im, db_re, db_im, dx).

    With ``G = [g_r; g_i]`` stacked along channels, the weight gradients are
    the halves of ``G @ cols_r^T`` and ``G @ cols_i^T`` summed over the
    batch, and ``dcols_r = [w_r; w_i]^T @ G``, ``dcols_i = [-w_i; w_r]^T @ G``.
    """
    cols_r, cols_i, x_shape = cache
    geo = layer.geometry
    n = x_shape[0]
    out_c = layer.w_re.shape[0]
    gs = np.concatenate([g.re.reshape(n, out_c, -1), g.im.reshape(n, out_c, -1)], axis=1)
    a = _weight_grad_gemm(gs, cols_r)
    b = _weight_grad_gemm(gs, cols_i)
    dw_re = (a[:out_c] + b[out_c:]).reshape(layer.w_re.shape)
    dw_im = (a[out_c:] - b[:out_c]).reshape(layer.w_im.shape)
    db_re = db_im = None
    if layer.bias_re is not None:
        db_re = g.re.sum(axis=(0, 2, 3))
        db_im = g.im.sum(axis=(0, 2, 3))
    mat_r = layer.w_re.reshape(out_c, -1).astype(float)
    mat_i = layer.w_im.reshape(out_c, -1).astype(float)
    dcols_r = np.matmul(np.concatenate([mat_r, mat_i]).T, gs)
    dcols_i = np.matmul(np.concatenate([-mat_i, mat_r]).T, gs)
    dx_r = _col2im(dcols_r, x_shape, geo.kernel, geo.stride, geo.padding)
    dx_i = _col2im(dcols_i, x_shape, geo.kernel, geo.stride, geo.padding)
    return dw_re, dw_im, db_re, db_im, ComplexTensor(dx_r, dx_i)


def ste_backward(
    grad_out_re: np.ndarray,
    grad_out_im: np.ndarray,
    w_re: np.ndarray,
    w_im: np.ndarray,
    clip: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Straight-through gradient for quadrant-binarized weights.

    Each plane passes its upstream gradient where the latent magnitude is
    below ``clip`` and blocks it elsewhere; the two planes are gated
    independently.
    """
    if grad_out_re.shape != w_re.shape or grad_out_im.shape != w_im.shape:
        raise ShapeMismatch("gradient and weight shapes differ")
    return (
        grad_out_re * (np.abs(w_re) < clip),
        grad_out_im * (np.abs(w_im) < clip),
    )


# ---------------------------------------------------------------------------
# batch normalization variants
# ---------------------------------------------------------------------------

@dataclass
class CgbnLayer:
    """Complex Gaussian batch normalization.

    Each plane is normalized by its own mean and by sqrt(2*var + eps); the
    factor 2 makes each normalized plane carry variance ~1/2 so the complex
    magnitude stays ~1.  gamma and beta are complex per-channel scalars.
    """

    gamma_re: np.ndarray
    gamma_im: np.ndarray
    beta_re: np.ndarray
    beta_im: np.ndarray
    running_mean_re: np.ndarray
    running_mean_im: np.ndarray
    running_var_re: np.ndarray
    running_var_im: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    @classmethod
    def identity(cls, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        return cls(
            gamma_re=np.ones(channels, dtype=np.float32),
            gamma_im=np.zeros(channels, dtype=np.float32),
            beta_re=np.zeros(channels, dtype=np.float32),
            beta_im=np.zeros(channels, dtype=np.float32),
            running_mean_re=np.zeros(channels, dtype=np.float32),
            running_mean_im=np.zeros(channels, dtype=np.float32),
            running_var_re=np.ones(channels, dtype=np.float32),
            running_var_im=np.ones(channels, dtype=np.float32),
            eps=eps,
            momentum=momentum,
        )

    @property
    def channels(self) -> int:
        return self.gamma_re.shape[0]


def _per_channel(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(1, -1, 1, 1)


def cgbn_normalize(
    x: ComplexTensor, layer: CgbnLayer, training: bool = False,
    update_running: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normalized planes and the inverse scales, before gamma/beta."""
    if x.shape[1] != layer.channels:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, layer has {layer.channels}")
    if training:
        mean_r = x.re.mean(axis=(0, 2, 3))
        mean_i = x.im.mean(axis=(0, 2, 3))
        var_r = x.re.var(axis=(0, 2, 3))
        var_i = x.im.var(axis=(0, 2, 3))
        if update_running:
            m = layer.momentum
            layer.running_mean_re[:] = (1 - m) * layer.running_mean_re + m * mean_r
            layer.running_mean_im[:] = (1 - m) * layer.running_mean_im + m * mean_i
            layer.running_var_re[:] = (1 - m) * layer.running_var_re + m * var_r
            layer.running_var_im[:] = (1 - m) * layer.running_var_im + m * var_i
    else:
        mean_r = np.asarray(layer.running_mean_re, dtype=float)
        mean_i = np.asarray(layer.running_mean_im, dtype=float)
        var_r = np.asarray(layer.running_var_re, dtype=float)
        var_i = np.asarray(layer.running_var_im, dtype=float)
    inv_r = 1.0 / np.sqrt(2.0 * var_r + layer.eps)
    inv_i = 1.0 / np.sqrt(2.0 * var_i + layer.eps)
    # one fresh array per plane, scaled in place
    xh_r = np.subtract(x.re, mean_r.reshape(1, -1, 1, 1))
    xh_r *= inv_r.reshape(1, -1, 1, 1)
    xh_i = np.subtract(x.im, mean_i.reshape(1, -1, 1, 1))
    xh_i *= inv_i.reshape(1, -1, 1, 1)
    return xh_r, xh_i, inv_r, inv_i


def cgbn_forward(x: ComplexTensor, layer: CgbnLayer, training: bool = False) -> ComplexTensor:
    """CGBN: per-plane normalization followed by a complex affine transform.

    Training mode uses mini-batch statistics over (n, h, w) and updates the
    running statistics by exponential moving average; eval mode uses the
    running statistics.
    """
    xh_r, xh_i, _, _ = cgbn_normalize(x, layer, training)
    return _cgbn_affine(xh_r, xh_i, layer, out_i=xh_i)


def _cgbn_affine(xh_r, xh_i, layer: CgbnLayer, out_i=None) -> ComplexTensor:
    """y_r = g_r*xh_r - g_i*xh_i + b_r and y_i = g_r*xh_i + g_i*xh_r + b_i,
    in that order; ``y_i`` is written to ``out_i`` when given."""
    g_r = _per_channel(layer.gamma_re)
    g_i = _per_channel(layer.gamma_im)
    y_r = np.multiply(g_r, xh_r)
    tmp = np.multiply(g_i, xh_i)
    y_r -= tmp
    y_r += _per_channel(layer.beta_re)
    np.multiply(g_i, xh_r, out=tmp)
    y_i = np.multiply(g_r, xh_i, out=out_i)
    y_i += tmp
    y_i += _per_channel(layer.beta_im)
    return ComplexTensor(y_r, y_i)


def _fwd_cgbn(layer: CgbnLayer, x: ComplexTensor, update_stats: bool):
    xh_r, xh_i, inv_r, inv_i = cgbn_normalize(x, layer, training=True,
                                              update_running=update_stats)
    return _cgbn_affine(xh_r, xh_i, layer), (xh_r, xh_i, inv_r, inv_i)


def _bwd_cgbn(layer: CgbnLayer, g: ComplexTensor, cache, grads):
    xh_r, xh_i, inv_r, inv_i = cache
    gam_r = layer.gamma_re.reshape(1, -1, 1, 1).astype(float)
    gam_i = layer.gamma_im.reshape(1, -1, 1, 1).astype(float)
    d_gamma_re = (g.re * xh_r + g.im * xh_i).sum(axis=(0, 2, 3))
    d_gamma_im = (-g.re * xh_i + g.im * xh_r).sum(axis=(0, 2, 3))
    grads.append((layer.gamma_re, d_gamma_re))
    grads.append((layer.gamma_im, d_gamma_im))
    grads.append((layer.beta_re, g.re.sum(axis=(0, 2, 3))))
    grads.append((layer.beta_im, g.im.sum(axis=(0, 2, 3))))
    gh_r = g.re * gam_r + g.im * gam_i
    gh_i = -g.re * gam_i + g.im * gam_r

    def plane_bwd(gh, xh, inv):
        # x_hat = (x - mu) / sqrt(2 var + eps); the factor 2 doubles the
        # usual variance-path term.
        mean_gh = gh.mean(axis=(0, 2, 3), keepdims=True)
        mean_ghx = (gh * xh).mean(axis=(0, 2, 3), keepdims=True)
        return inv.reshape(1, -1, 1, 1) * (gh - mean_gh - 2.0 * xh * mean_ghx)

    return ComplexTensor(plane_bwd(gh_r, xh_r, inv_r), plane_bwd(gh_i, xh_i, inv_i))


@dataclass
class CovComplexBnLayer:
    """Whitening complex batch normalization with a per-channel 2x2 covariance.

    Reference implementation kept for comparison against CGBN; gamma is a
    real 2x2 matrix per channel, beta a complex number per channel.
    """

    gamma: np.ndarray  # (c, 2, 2)
    beta_re: np.ndarray
    beta_im: np.ndarray
    running_mean: np.ndarray  # (c, 2)
    running_cov: np.ndarray  # (c, 2, 2)
    eps: float = 1e-5
    momentum: float = 0.1

    @classmethod
    def identity(cls, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        return cls(
            gamma=np.tile(np.eye(2, dtype=np.float32), (channels, 1, 1)),
            beta_re=np.zeros(channels, dtype=np.float32),
            beta_im=np.zeros(channels, dtype=np.float32),
            running_mean=np.zeros((channels, 2), dtype=np.float32),
            running_cov=np.tile(np.eye(2, dtype=np.float32), (channels, 1, 1)),
            eps=eps,
            momentum=momentum,
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def _inverse_sqrt_2x2(mats: np.ndarray) -> np.ndarray:
    """Closed-form symmetric inverse square root of SPD 2x2 matrices.

    For M = [[a, b], [b, c]] with s = sqrt(det M), t = sqrt(tr M + 2s):
    M^{-1/2} = [[c+s, -b], [-b, a+s]] / (s*t).
    """
    a = mats[:, 0, 0]
    b = mats[:, 0, 1]
    c = mats[:, 1, 1]
    s = np.sqrt(a * c - b * b)
    t = np.sqrt(a + c + 2.0 * s)
    out = np.empty_like(mats, dtype=float)
    out[:, 0, 0] = c + s
    out[:, 0, 1] = -b
    out[:, 1, 0] = -b
    out[:, 1, 1] = a + s
    return out / (s * t)[:, None, None]


def cov_complex_bn_forward(
    x: ComplexTensor, layer: CovComplexBnLayer, training: bool = False
) -> ComplexTensor:
    """Whitening form: x_hat = gamma . V^{-1/2} (x - E[x]) + beta."""
    if x.shape[1] != layer.channels:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, layer has {layer.channels}")
    if training:
        r = x.re.transpose(1, 0, 2, 3).reshape(layer.channels, -1)
        i = x.im.transpose(1, 0, 2, 3).reshape(layer.channels, -1)
        mean = np.stack([r.mean(axis=1), i.mean(axis=1)], axis=1)
        dr = r - mean[:, 0:1]
        di = i - mean[:, 1:2]
        cov = np.empty((layer.channels, 2, 2), dtype=float)
        cov[:, 0, 0] = (dr * dr).mean(axis=1)
        cov[:, 0, 1] = cov[:, 1, 0] = (dr * di).mean(axis=1)
        cov[:, 1, 1] = (di * di).mean(axis=1)
        m = layer.momentum
        layer.running_mean[:] = (1 - m) * layer.running_mean + m * mean
        layer.running_cov[:] = (1 - m) * layer.running_cov + m * cov
    else:
        mean = np.asarray(layer.running_mean, dtype=float)
        cov = np.asarray(layer.running_cov, dtype=float)

    tr = cov[:, 0, 0] + cov[:, 1, 1]
    det = cov[:, 0, 0] * cov[:, 1, 1] - cov[:, 0, 1] * cov[:, 1, 0]
    lam_min = (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))) / 2.0
    if np.any(lam_min < -1e-6):
        raise NonPsdCovariance(f"minimum covariance eigenvalue {lam_min.min():g}")

    reg = cov + layer.eps * np.eye(2)
    w = np.einsum("cij,cjk->cik", np.asarray(layer.gamma, dtype=float),
                  _inverse_sqrt_2x2(reg))
    dr = x.re - mean[:, 0].reshape(1, -1, 1, 1)
    di = x.im - mean[:, 1].reshape(1, -1, 1, 1)
    y_r = w[:, 0, 0].reshape(1, -1, 1, 1) * dr + w[:, 0, 1].reshape(1, -1, 1, 1) * di
    y_i = w[:, 1, 0].reshape(1, -1, 1, 1) * dr + w[:, 1, 1].reshape(1, -1, 1, 1) * di
    return ComplexTensor(y_r + _per_channel(layer.beta_re),
                         y_i + _per_channel(layer.beta_im))


@dataclass
class RealBnLayer:
    """Standard per-channel batch normalization on a real tensor."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    @classmethod
    def identity(cls, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        return cls(
            gamma=np.ones(channels, dtype=np.float32),
            beta=np.zeros(channels, dtype=np.float32),
            running_mean=np.zeros(channels, dtype=np.float32),
            running_var=np.ones(channels, dtype=np.float32),
            eps=eps,
            momentum=momentum,
        )


def real_bn_forward(x: np.ndarray, layer: RealBnLayer, training: bool = False) -> np.ndarray:
    if x.ndim != 4 or x.shape[1] != layer.gamma.shape[0]:
        raise ShapeMismatch(f"input shape {x.shape} does not match {layer.gamma.shape[0]} channels")
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        m = layer.momentum
        layer.running_mean[:] = (1 - m) * layer.running_mean + m * mean
        layer.running_var[:] = (1 - m) * layer.running_var + m * var
    else:
        mean = np.asarray(layer.running_mean, dtype=float)
        var = np.asarray(layer.running_var, dtype=float)
    xh = (x - mean.reshape(1, -1, 1, 1)) / np.sqrt(var.reshape(1, -1, 1, 1) + layer.eps)
    return _per_channel(layer.gamma) * xh + _per_channel(layer.beta)


def _fwd_real_bn(layer: RealBnLayer, x, update_stats: bool = True):
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    if update_stats:
        m = layer.momentum
        layer.running_mean[:] = (1 - m) * layer.running_mean + m * mean
        layer.running_var[:] = (1 - m) * layer.running_var + m * var
    inv = 1.0 / np.sqrt(var + layer.eps)
    xh = (x - mean.reshape(1, -1, 1, 1)) * inv.reshape(1, -1, 1, 1)
    y = layer.gamma.reshape(1, -1, 1, 1) * xh + layer.beta.reshape(1, -1, 1, 1)
    return y, (xh, inv)


def _bwd_real_bn(layer: RealBnLayer, g, cache, grads):
    xh, inv = cache
    grads.append((layer.gamma, (g * xh).sum(axis=(0, 2, 3))))
    grads.append((layer.beta, g.sum(axis=(0, 2, 3))))
    gh = g * layer.gamma.reshape(1, -1, 1, 1).astype(float)
    mean_gh = gh.mean(axis=(0, 2, 3), keepdims=True)
    mean_ghx = (gh * xh).mean(axis=(0, 2, 3), keepdims=True)
    return inv.reshape(1, -1, 1, 1) * (gh - mean_gh - xh * mean_ghx)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def _pool_patches(x: np.ndarray, window, stride) -> np.ndarray:
    n, c, h, w = x.shape
    kh, kw = window
    sh, sw = stride
    if (h - kh) % sh != 0 or (w - kw) % sw != 0:
        raise ShapeMismatch(
            f"{h}x{w} input is not covered exactly by {window} windows at stride {stride}"
        )
    h_out, w_out = out_size(h, kh, sh, 0), out_size(w, kw, sw, 0)
    patches = np.empty((n, c, h_out, w_out, kh * kw), dtype=float)
    for ky in range(kh):
        for kx in range(kw):
            patches[..., ky * kw + kx] = x[:, :, ky : ky + sh * h_out : sh,
                                           kx : kx + sw * w_out : sw]
    return patches


def avg_pool(x, window: tuple[int, int], stride: tuple[int, int] | None = None):
    """Window-mean pooling; complex inputs are pooled per plane."""
    stride = stride or window
    return _planewise(lambda p: _pool_patches(p, window, stride).mean(axis=-1), x)


def max_pool(x, window: tuple[int, int], stride: tuple[int, int] | None = None):
    """Window-max pooling; complex inputs are pooled independently per plane."""
    stride = stride or window
    return _planewise(lambda p: _pool_patches(p, window, stride).max(axis=-1), x)


def _bwd_pool(g: ComplexTensor, x: ComplexTensor, window, stride, average: bool) -> ComplexTensor:
    """Avg- and max-pool backward: per-tap gradients scattered by ``_col2im``.

    Avg pooling spreads ``g / (kh*kw)`` over every tap; max pooling routes
    ``g`` to the argmax of each window, recomputed from the cached input in
    the forward's tap order.
    """
    taps = window[0] * window[1]

    def plane(gp, xp):
        if average:
            per_tap = np.broadcast_to((gp / taps)[..., None], gp.shape + (taps,))
        else:
            idx = _pool_patches(xp, window, stride).argmax(axis=-1)
            per_tap = gp[..., None] * (idx[..., None] == np.arange(taps))
        return _col2im(np.moveaxis(per_tap, -1, 2), xp.shape, window, stride, (0, 0))

    return _planewise(plane, g, x)


def spectral_pool(x: ComplexTensor, out_hw: tuple[int, int]) -> ComplexTensor:
    """Downsample by keeping the centered low-frequency block of the 2D DFT.

    Each (batch, channel) pair is transformed as one complex plane.  The
    zero-frequency bin is centered; for even crop lengths the extra bin is
    kept on the negative-frequency side.  The result is rescaled by
    (h'*w')/(h*w) so constant inputs map to the same constant.
    """
    h2, w2 = out_hw
    _, _, h, w = x.shape
    if h2 > h or w2 > w or h2 < 1 or w2 < 1:
        raise ShapeMismatch(f"cannot crop {h}x{w} spectrum to {h2}x{w2}")
    z = x.re.astype(complex) + 1j * x.im.astype(complex)
    spec = np.fft.fftshift(np.fft.fft2(z, axes=(2, 3)), axes=(2, 3))
    y0 = h // 2 - h2 // 2
    x0 = w // 2 - w2 // 2
    crop = spec[:, :, y0 : y0 + h2, x0 : x0 + w2]
    y = np.fft.ifft2(np.fft.ifftshift(crop, axes=(2, 3)), axes=(2, 3))
    y = y * (h2 * w2 / (h * w))
    return ComplexTensor(y.real, y.imag)


def _bwd_spectral_pool(g: ComplexTensor, x_shape) -> ComplexTensor:
    """Adjoint of ``spectral_pool``: FFT, centre, zero-pad the cropped block
    back to the input size, uncentre, inverse FFT.  The forward's
    (h'*w')/(h*w) rescale cancels the two transforms' normalizations."""
    h, w = x_shape[2:]
    h2, w2 = g.shape[2:]
    spec = np.fft.fftshift(np.fft.fft2(g.re + 1j * g.im, axes=(2, 3)), axes=(2, 3))
    full = np.zeros(x_shape, dtype=complex)
    y0, x0 = h // 2 - h2 // 2, w // 2 - w2 // 2
    full[:, :, y0 : y0 + h2, x0 : x0 + w2] = spec
    dz = np.fft.ifft2(np.fft.ifftshift(full, axes=(2, 3)), axes=(2, 3))
    return ComplexTensor(dz.real, dz.imag)


# ---------------------------------------------------------------------------
# activations and fully connected
# ---------------------------------------------------------------------------

def _planewise(f, x, *more):
    """``f`` on real arrays, or plane by plane on complex tensors."""
    if isinstance(x, ComplexTensor):
        return ComplexTensor(f(x.re, *(m.re for m in more)), f(x.im, *(m.im for m in more)))
    return f(x, *more)


def relu(x):
    return _planewise(lambda p: np.maximum(np.asarray(p, dtype=float), 0.0), x)


def relu_backward(g, x):
    return _planewise(lambda gp, xp: gp * (xp > 0), g, x)


def hardtanh(x):
    return _planewise(lambda p: np.clip(np.asarray(p, dtype=float), -1.0, 1.0), x)


def hardtanh_backward(g, x):
    """Also the straight-through gradient of binarized activations: the
    gradient passes where |x| < 1."""
    return _planewise(lambda gp, xp: gp * (np.abs(xp) < 1), g, x)


def fully_connected(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = W x + b on flattened real vectors (batched or single)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != weight.shape[1]:
        raise ShapeMismatch(
            f"input dim {x.shape[-1]} does not match weight columns {weight.shape[1]}"
        )
    return x @ np.asarray(weight, dtype=float).T + np.asarray(bias, dtype=float)
