"""Full-precision complex layers.

Convolution, the three batch-normalization variants, the three pooling
variants, activations, and the fully connected head.  Everything here
operates on dense planes; the packed kernels live in ``binary_ops``.
Convolutions are im2col followed by ``np.matmul``, so they run as BLAS
GEMMs: two per complex convolution, one per real convolution.

Layers are safe to share between readers in eval mode.  Training-mode
batch-norm calls mutate the layer's running statistics and require a
single writer per layer per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binary_ops import ConvGeometry
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
    h_out = (h + 2 * ph - kh) // sh + 1
    w_out = (w + 2 * pw - kw) // sw + 1
    if h_out < 1 or w_out < 1:
        raise ShapeMismatch(f"kernel {kernel} does not fit a {h}x{w} input")
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=pad_value)
    cols = np.empty((n, c, kh, kw, h_out, w_out), dtype=float)
    for ky in range(kh):
        for kx in range(kw):
            cols[:, :, ky, kx] = xp[:, :, ky : ky + sh * h_out : sh,
                                    kx : kx + sw * w_out : sw]
    return cols.reshape(n, c * kh * kw, h_out * w_out), (h_out, w_out)


def conv2d_real(
    x: np.ndarray,
    w: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    padding: tuple[int, int] = (0, 0),
    pad_value: float = 0.0,
) -> np.ndarray:
    """Plain real 2D convolution (cross-correlation), NCHW in, NCHW out."""
    n = x.shape[0]
    out_c = w.shape[0]
    if w.shape[1] != x.shape[1]:
        raise ShapeMismatch(f"weight expects {w.shape[1]} channels, input has {x.shape[1]}")
    cols, (h_out, w_out) = im2col(x, w.shape[2:], stride, padding, pad_value)
    y = np.matmul(w.reshape(out_c, -1).astype(float), cols)
    return y.reshape(n, out_c, h_out, w_out)


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
    g_r = _per_channel(layer.gamma_re)
    g_i = _per_channel(layer.gamma_im)
    # y_r = g_r*xh_r - g_i*xh_i + b_r and y_i = g_r*xh_i + g_i*xh_r + b_i,
    # evaluated in that order with two new arrays; xh_i is overwritten
    y_r = np.multiply(g_r, xh_r)
    tmp = np.multiply(g_i, xh_i)
    y_r -= tmp
    y_r += _per_channel(layer.beta_re)
    np.multiply(g_i, xh_r, out=tmp)
    y_i = np.multiply(g_r, xh_i, out=xh_i)
    y_i += tmp
    y_i += _per_channel(layer.beta_im)
    return ComplexTensor(y_r, y_i)


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
    h_out = (h - kh) // sh + 1
    w_out = (w - kw) // sw + 1
    patches = np.empty((n, c, h_out, w_out, kh * kw), dtype=float)
    for ky in range(kh):
        for kx in range(kw):
            patches[..., ky * kw + kx] = x[:, :, ky : ky + sh * h_out : sh,
                                           kx : kx + sw * w_out : sw]
    return patches


def avg_pool(x, window: tuple[int, int], stride: tuple[int, int] | None = None):
    """Window-mean pooling; complex inputs are pooled per plane."""
    stride = stride or window
    if isinstance(x, ComplexTensor):
        return ComplexTensor(
            _pool_patches(x.re, window, stride).mean(axis=-1),
            _pool_patches(x.im, window, stride).mean(axis=-1),
        )
    return _pool_patches(x, window, stride).mean(axis=-1)


def max_pool(x, window: tuple[int, int], stride: tuple[int, int] | None = None):
    """Window-max pooling; complex inputs are pooled independently per plane."""
    stride = stride or window
    if isinstance(x, ComplexTensor):
        return ComplexTensor(
            _pool_patches(x.re, window, stride).max(axis=-1),
            _pool_patches(x.im, window, stride).max(axis=-1),
        )
    return _pool_patches(x, window, stride).max(axis=-1)


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


# ---------------------------------------------------------------------------
# activations and fully connected
# ---------------------------------------------------------------------------

def relu(x):
    if isinstance(x, ComplexTensor):
        return ComplexTensor(np.maximum(x.re, 0.0), np.maximum(x.im, 0.0))
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def hardtanh(x):
    if isinstance(x, ComplexTensor):
        return ComplexTensor(np.clip(x.re, -1.0, 1.0), np.clip(x.im, -1.0, 1.0))
    return np.clip(np.asarray(x, dtype=float), -1.0, 1.0)


def fully_connected(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = W x + b on flattened real vectors (batched or single)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != weight.shape[1]:
        raise ShapeMismatch(
            f"input dim {x.shape[-1]} does not match weight columns {weight.shape[1]}"
        )
    return x @ np.asarray(weight, dtype=float).T + np.asarray(bias, dtype=float)
