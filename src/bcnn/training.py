"""Desk-scale training: complex STE, SGD, losses, and dataset ingestion.

The forward graph is differentiated layer-locally (no autodiff tape):
every node has a matching backward that consumes the cache its forward
produced.  Binarized convolutions use quadrant binarization in the forward
pass and the straight-through estimator in the backward pass -- the
gradient with respect to a latent weight plane passes through unchanged
where the plane's magnitude is below the clip threshold and is zeroed
elsewhere, with the real and imaginary planes gated independently.
Latent weights are never binarized in storage.

Convolutions and their gradients are BLAS GEMMs (``np.matmul``); the
forward conv is eval inference's own ``layers.complex_im2col`` plus
``layers.complex_conv_gemm``, keeping the columns for the backward.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .binary_ops import binarize_deterministic, quadrant_binarize
from .errors import (
    CorruptRecord,
    DataExhausted,
    DivergedLoss,
    InvalidConfig,
    MissingFile,
    ShapeMismatch,
)
from .layers import (
    CgbnLayer,
    ComplexConvLayer,
    RealBnLayer,
    _pool_patches,
    cgbn_normalize,
    complex_conv_gemm,
    complex_im2col,
    im2col,
)
from .models import (
    AvgPool,
    Binarize,
    BinaryConvLayer,
    ComplexInputGenerator,
    DenseLayer,
    Flatten,
    MaxPool,
    ModelGraph,
    Relu,
    Hardtanh,
    ResidualBlock,
    SpectralPool,
    _layer_forward,
    active_output_channels,
    build_toy_bcnn,
    forward as model_forward,
    mask_pruned_channels,
)
from .tensors import ComplexTensor

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3*32*32 image bytes
_ACT_CLIP = 1.0  # straight-through gate width for binarized activations


# ---------------------------------------------------------------------------
# configuration and datasets
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 32
    clip: float = 1.0
    seed: int = 0
    loss: str = "cross_entropy"

    def __post_init__(self):
        # lr == 0 is allowed so a vacuous run leaves the model untouched
        if self.lr < 0:
            raise InvalidConfig("lr must be >= 0")
        if self.clip <= 0:
            raise InvalidConfig("clip must be > 0")
        if self.loss != "cross_entropy":
            raise InvalidConfig(f"unsupported loss {self.loss!r}")


@dataclass
class Dataset:
    images: np.ndarray  # (N, c, h, w)
    labels: np.ndarray  # (N,)
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4 or len(self.labels) != len(self.images):
            raise ShapeMismatch("images must be (N, c, h, w) with one label each")
        if len(self.labels) and self.labels.max() >= self.num_classes:
            raise ShapeMismatch("label out of range")

    def __len__(self) -> int:
        return len(self.labels)


class Cifar10Split(NamedTuple):
    train: Dataset
    test: Dataset


def read_cifar10_batch(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse one binary batch file of 3073-byte records.

    Byte 0 of each record is the label; the remaining 3072 bytes are the
    3x32x32 image, scaled to [0, 1].
    """
    if not os.path.exists(path):
        raise MissingFile(path)
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % CIFAR_RECORD_BYTES != 0:
        raise CorruptRecord(
            f"{path}: {raw.size} bytes is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    records = raw.reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(float) / 255.0
    return images, labels


def load_cifar10(directory: str) -> Cifar10Split:
    """Load the standard binary-format batches from ``directory``."""
    train_parts = [
        read_cifar10_batch(os.path.join(directory, f"data_batch_{i}.bin"))
        for i in range(1, 6)
    ]
    test_images, test_labels = read_cifar10_batch(
        os.path.join(directory, "test_batch.bin")
    )
    return Cifar10Split(
        train=Dataset(
            np.concatenate([p[0] for p in train_parts]),
            np.concatenate([p[1] for p in train_parts]),
            10,
        ),
        test=Dataset(test_images, test_labels, 10),
    )


def make_synthetic_dataset(
    num_classes: int = 10,
    samples_per_class: int = 20,
    shape: tuple[int, int, int] = (3, 32, 32),
    seed: int = 0,
    noise: float = 0.25,
) -> Dataset:
    """Gaussian-blob classification set: one fixed sign pattern per class."""
    rng = np.random.default_rng(seed)
    patterns = np.sign(rng.standard_normal((num_classes,) + shape)) * 0.5
    images, labels = [], []
    for cls in range(num_classes):
        images.append(patterns[cls] + noise * rng.standard_normal(
            (samples_per_class,) + shape))
        labels.append(np.full(samples_per_class, cls))
    return Dataset(np.concatenate(images), np.concatenate(labels), num_classes)


def make_separable_dataset(
    samples_per_class: int = 50,
    shape: tuple[int, int, int] = (3, 8, 8),
    seed: int = 0,
    margin: float = 0.8,
    noise: float = 0.25,
) -> Dataset:
    """Linearly separable 2-class set: opposite-sign means along one pattern."""
    rng = np.random.default_rng(seed)
    pattern = np.sign(rng.standard_normal(shape))
    xs = np.concatenate([
        margin * pattern + noise * rng.standard_normal((samples_per_class,) + shape),
        -margin * pattern + noise * rng.standard_normal((samples_per_class,) + shape),
    ])
    ys = np.concatenate([
        np.zeros(samples_per_class, dtype=np.int64),
        np.ones(samples_per_class, dtype=np.int64),
    ])
    return Dataset(xs, ys, 2)


# ---------------------------------------------------------------------------
# STE, SGD, loss
# ---------------------------------------------------------------------------

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


def sgd_step(weights, grads, lr: float):
    """In-place w <- w - lr*g on one array or a list of arrays."""
    if isinstance(weights, np.ndarray):
        weights -= (lr * np.asarray(grads)).astype(weights.dtype)
        return weights
    for w, g in zip(weights, grads):
        w -= (lr * np.asarray(g)).astype(w.dtype)
    return weights


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient with respect to the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


# ---------------------------------------------------------------------------
# convolution gradients (shared real-plane plumbing)
# ---------------------------------------------------------------------------

def _col2im(dcols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    h_out = (h + 2 * ph - kh) // sh + 1
    w_out = (w + 2 * pw - kw) // sw + 1
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


def _real_conv_fwd(x, w, padding):
    cols, (h_out, w_out) = im2col(x, w.shape[2:], (1, 1), padding, 0.0)
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
# per-layer training forward/backward
# ---------------------------------------------------------------------------

def _fwd_cgbn(layer: CgbnLayer, x: ComplexTensor, update_stats: bool):
    xh_r, xh_i, inv_r, inv_i = cgbn_normalize(x, layer, training=True,
                                              update_running=update_stats)
    g_r = layer.gamma_re.reshape(1, -1, 1, 1).astype(float)
    g_i = layer.gamma_im.reshape(1, -1, 1, 1).astype(float)
    y_r = g_r * xh_r - g_i * xh_i + layer.beta_re.reshape(1, -1, 1, 1)
    y_i = g_r * xh_i + g_i * xh_r + layer.beta_im.reshape(1, -1, 1, 1)
    return ComplexTensor(y_r, y_i), (xh_r, xh_i, inv_r, inv_i)


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


def _fwd_real_bn(layer: RealBnLayer, x):
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
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


def _bwd_pool(layer, g: ComplexTensor, x: ComplexTensor) -> ComplexTensor:
    """Avg- and max-pool backward: per-tap gradients scattered by ``_col2im``.

    Avg pooling spreads ``g / (kh*kw)`` over every tap; max pooling routes
    ``g`` to the argmax of each window, recomputed from the cached input in
    the forward's tap order.
    """
    taps = layer.window[0] * layer.window[1]
    stride = layer.stride or layer.window

    def plane(gp, xp):
        if isinstance(layer, AvgPool):
            per_tap = np.broadcast_to((gp / taps)[..., None], gp.shape + (taps,))
        else:
            idx = _pool_patches(xp, layer.window, stride).argmax(axis=-1)
            per_tap = gp[..., None] * (idx[..., None] == np.arange(taps))
        return _col2im(np.moveaxis(per_tap, -1, 2), xp.shape, layer.window, stride, (0, 0))

    return ComplexTensor(plane(g.re, x.re), plane(g.im, x.im))


def _bwd_spectral_pool(g: ComplexTensor, x_shape) -> ComplexTensor:
    """Adjoint of ``layers.spectral_pool``: FFT, centre, zero-pad the cropped
    block back to the input size, uncentre, inverse FFT.  The forward's
    (h'*w')/(h*w) rescale cancels the two transforms' normalizations."""
    h, w = x_shape[2:]
    h2, w2 = g.shape[2:]
    spec = np.fft.fftshift(np.fft.fft2(g.re + 1j * g.im, axes=(2, 3)), axes=(2, 3))
    full = np.zeros(x_shape, dtype=complex)
    y0, x0 = h // 2 - h2 // 2, w // 2 - w2 // 2
    full[:, :, y0 : y0 + h2, x0 : x0 + w2] = spec
    dz = np.fft.ifft2(np.fft.ifftshift(full, axes=(2, 3)), axes=(2, 3))
    return ComplexTensor(dz.real, dz.imag)


def _fwd_binary_conv(layer: BinaryConvLayer, x: ComplexTensor):
    wb = ComplexConvLayer(
        binarize_deterministic(layer.w_re),
        binarize_deterministic(layer.w_im),
        layer.geometry,
        pad_value=-1.0,
    )
    y, conv_cache = _complex_conv_fwd(x, wb)
    mask = active_output_channels(layer)
    return mask_pruned_channels(y, mask), (wb, conv_cache, mask)


def _bwd_binary_conv(layer: BinaryConvLayer, g: ComplexTensor, cache, clip, grads):
    wb, conv_cache, mask = cache
    if not mask.all():
        # pruned channels emit a forced zero: no gradient flows through them
        m = mask.reshape(1, -1, 1, 1)
        g = ComplexTensor(g.re * m, g.im * m)
    dwb_re, dwb_im, _, _, dx = _complex_conv_bwd(g, conv_cache, wb)
    dw_re, dw_im = ste_backward(dwb_re, dwb_im, layer.w_re, layer.w_im, clip)
    grads.append((layer.w_re, dw_re))
    grads.append((layer.w_im, dw_im))
    return dx


def _fwd_layer(layer, x, update_stats):
    """Training forward of one node; returns (output, cache).

    Only nodes that keep training state have their own step: the convs
    cache their columns, the batch norms use batch statistics, and a block
    runs its paths through ``_forward_train``.  Every other node runs the
    inference op and caches its input.
    """
    if isinstance(layer, ComplexInputGenerator):
        z1, cols_x = _real_conv_fwd(x, layer.w1, (1, 1))
        z1 = z1 + layer.b1.reshape(1, -1, 1, 1)
        h1 = np.maximum(z1, 0.0)
        s = h1 + x
        im, cols_s = _real_conv_fwd(s, layer.w2, (1, 1))
        im = im + layer.b2.reshape(1, -1, 1, 1)
        return ComplexTensor(x.astype(float), im), (x, z1, s, cols_x, cols_s)
    if isinstance(layer, ComplexConvLayer):
        return _complex_conv_fwd(x, layer)
    if isinstance(layer, BinaryConvLayer):
        return _fwd_binary_conv(layer, x)
    if isinstance(layer, CgbnLayer):
        return _fwd_cgbn(layer, x, update_stats)
    if isinstance(layer, RealBnLayer):
        return _fwd_real_bn(layer, x)
    if isinstance(layer, ResidualBlock):
        b = quadrant_binarize(x)
        y, main = _forward_train(layer.main, b, update_stats)
        skip, side = _forward_train(layer.side, b, update_stats) if layer.side else (x, [])
        return ComplexTensor(y.re + skip.re, y.im + skip.im), (x, main, side)
    return _layer_forward(layer, x, packed=False, debug=False), x


def _binarize_bwd(g: ComplexTensor, x: ComplexTensor) -> ComplexTensor:
    return ComplexTensor(
        g.re * (np.abs(x.re) < _ACT_CLIP),
        g.im * (np.abs(x.im) < _ACT_CLIP),
    )


def _bwd_layer(layer, g, cache, clip, grads):
    if isinstance(layer, ComplexInputGenerator):
        x, z1, s, cols_x, cols_s = cache
        grads.append((layer.b2, g.im.sum(axis=(0, 2, 3))))
        dw2, ds = _real_conv_bwd(g.im, cols_s, s.shape, layer.w2, (1, 1))
        grads.append((layer.w2, dw2))
        dz1 = ds * (z1 > 0)
        grads.append((layer.b1, dz1.sum(axis=(0, 2, 3))))
        dw1, dx1 = _real_conv_bwd(dz1, cols_x, x.shape, layer.w1, (1, 1))
        grads.append((layer.w1, dw1))
        return g.re + ds + dx1
    if isinstance(layer, ComplexConvLayer):
        dw_re, dw_im, db_re, db_im, dx = _complex_conv_bwd(g, cache, layer)
        grads.append((layer.w_re, dw_re))
        grads.append((layer.w_im, dw_im))
        if db_re is not None:
            grads.append((layer.bias_re, db_re))
            grads.append((layer.bias_im, db_im))
        return dx
    if isinstance(layer, BinaryConvLayer):
        return _bwd_binary_conv(layer, g, cache, clip, grads)
    if isinstance(layer, CgbnLayer):
        return _bwd_cgbn(layer, g, cache, grads)
    if isinstance(layer, RealBnLayer):
        return _bwd_real_bn(layer, g, cache, grads)
    if isinstance(layer, (AvgPool, MaxPool)):
        return _bwd_pool(layer, g, cache)
    if isinstance(layer, SpectralPool):
        return _bwd_spectral_pool(g, cache.shape)
    if isinstance(layer, Relu):
        x = cache
        if isinstance(x, ComplexTensor):
            return ComplexTensor(g.re * (x.re > 0), g.im * (x.im > 0))
        return g * (x > 0)
    if isinstance(layer, Hardtanh):
        x = cache
        if isinstance(x, ComplexTensor):
            return ComplexTensor(
                g.re * (np.abs(x.re) < 1), g.im * (np.abs(x.im) < 1)
            )
        return g * (np.abs(x) < 1)
    if isinstance(layer, Binarize):
        return _binarize_bwd(g, cache)
    if isinstance(layer, Flatten):
        n, c, h, w = cache.shape
        return ComplexTensor.from_planes(g.reshape(n, 2 * c, h, w))
    if isinstance(layer, DenseLayer):
        x = cache
        grads.append((layer.weight, g.T @ x))
        grads.append((layer.bias, g.sum(axis=0)))
        return g @ layer.weight.astype(float)
    if isinstance(layer, ResidualBlock):
        x, main, side = cache
        gb = _backward_train(layer.main, main, g, clip, grads)
        if layer.side:
            gs = _backward_train(layer.side, side, g, clip, grads)
            return _binarize_bwd(ComplexTensor(gb.re + gs.re, gb.im + gs.im), x)
        dx = _binarize_bwd(gb, x)
        return ComplexTensor(dx.re + g.re, dx.im + g.im)
    raise TypeError(f"cannot backprop through layer {type(layer).__name__}")


def _forward_train(layers, x, update_stats: bool = True):
    """Training forward over a node sequence (a model's or a block path's)."""
    caches = []
    for layer in layers:
        x, cache = _fwd_layer(layer, x, update_stats)
        caches.append(cache)
    return x, caches


def _backward_train(layers, caches, g, clip: float, grads):
    for layer, cache in zip(reversed(layers), reversed(caches)):
        g = _bwd_layer(layer, g, cache, clip, grads)
    return g


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def batch_loss(model: ModelGraph, xb, yb) -> float:
    """Training-mode loss on one batch without touching running statistics."""
    logits, _ = _forward_train(model.layers, np.asarray(xb, dtype=float), update_stats=False)
    loss, _ = softmax_cross_entropy(logits, yb)
    return loss


def train_step(model: ModelGraph, xb, yb, lr: float, clip: float,
               extra_grads=None) -> tuple[float, int]:
    """One SGD step; returns (batch loss, correct predictions).

    ``extra_grads`` is a list of (parameter, gradient) pairs added on top of
    the loss gradients, e.g. multiplier and penalty terms during pruning.
    """
    logits, caches = _forward_train(model.layers, np.asarray(xb, dtype=float))
    loss, dlogits = softmax_cross_entropy(logits, yb)
    grads = []
    _backward_train(model.layers, caches, dlogits, clip, grads)
    if extra_grads:
        grads.extend(extra_grads)
    for arr, grad in grads:
        sgd_step(arr, grad, lr)
    correct = int((logits.argmax(axis=1) == yb).sum())
    return loss, correct


def train(model: ModelGraph, dataset: Dataset, cfg: TrainConfig):
    """STE + SGD training on latent full-precision weights.

    Batch order is drawn once from ``cfg.seed`` and kept fixed across
    epochs, so runs are reproducible and a zero-step run leaves the loss
    curve constant.  Returns (model, per-epoch history).
    """
    n = len(dataset)
    if n == 0:
        raise DataExhausted("dataset has no samples")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n)
    history = []
    for epoch in range(cfg.epochs):
        total_loss = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, ncorr = train_step(
                model, dataset.images[idx], dataset.labels[idx], cfg.lr, cfg.clip
            )
            if not np.isfinite(loss):
                raise DivergedLoss(f"loss became {loss} at epoch {epoch}")
            total_loss += loss * len(idx)
            correct += ncorr
        history.append(
            {"epoch": epoch, "loss": total_loss / n, "accuracy": correct / n}
        )
    return model, history


def evaluate(model: ModelGraph, dataset: Dataset, batch_size: int = 64,
             packed: bool = True) -> tuple[float, float]:
    """Eval-mode loss and accuracy over a dataset."""
    n = len(dataset)
    if n == 0:
        raise DataExhausted("dataset has no samples")
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        xb = dataset.images[start : start + batch_size]
        yb = dataset.labels[start : start + batch_size]
        logits = model_forward(model, xb, packed=packed)
        loss, _ = softmax_cross_entropy(logits, yb)
        total_loss += loss * len(yb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return total_loss / n, correct / n


def pooling_comparison(seed: int = 0, epochs: int = 15) -> dict[str, float]:
    """Small-scale pooling comparison on the synthetic task.

    Trains the same toy BCNN with average and max pooling under identical
    seeds and returns the eval-mode train-set accuracies.  The expected
    ordering on this task is average >= max.
    """
    data = make_separable_dataset(samples_per_class=40, seed=seed,
                                  margin=0.6, noise=0.35)
    results = {}
    for pool in ("avg", "max"):
        model = build_toy_bcnn(pool=pool, seed=seed)
        cfg = TrainConfig(lr=0.05, epochs=epochs, batch_size=16, seed=seed)
        train(model, data, cfg)
        _, acc = evaluate(model, data)
        results[pool] = acc
    return results
