"""Full-precision complex layers and their gradients.

Convolution, complex Gaussian batch normalization (CGBN), the three
pooling variants, the ReLU of the input generator, the straight-through
gradient of binarized activations, and the fully connected head.
Everything here operates on dense planes; the packed kernels live in
``binary_ops``.
There is one convolution routine, ``conv2d_real``: one strided window
gather over the padded batch, then per image a copy of that image's
(c*kh*kw, h_out*w_out) columns into a reused buffer and one BLAS GEMM.
The columns of the whole batch (k*k times an activation) never exist, and
one image's columns stay in cache for their GEMM.  A complex convolution is
two real ones, on ``[w_r; w_i]`` and on ``[w_i; w_r]`` stacked along output
channels, and ``_real_conv_bwd`` is the one convolution backward, streaming
the same way.  Both spread their images over the cores (``run_tasks``),
each sum in one task, so float results do not depend on the core count;
the batch norm's statistics stay on the calling thread.

Each trainable op's backward sits beside its forward, including the
straight-through estimators of binarized weights and activations.  A
training forward returns ``(y, cache)``; only a training step keeps it for
the backward.  Convolutions cache their input, not its columns or their
weights: the backward rebuilds those, so a cached array is never larger
than an activation.  CGBN normalizes each plane with ``_bn_plane`` and
``_bn_plane_backward``, in a ``Mode``.

Layers are safe to share between readers in the inference modes.  A
``TRAIN_STEP`` batch norm mutates the layer's running statistics and
requires a single writer per layer per step.  A packed forward makes the
arrays its plan reads read-only (``_freeze``); every in-place writer of the
engine calls ``_thaw`` first, which makes the model's next forward plan anew.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .binary_ops import ConvGeometry, out_size
from .errors import ShapeMismatch
from .tensors import ComplexTensor
from .workers import run_tasks


class Mode(Enum):
    """How a forward runs.  The inference modes normalize by the running
    statistics and keep no cache; the training modes normalize by the batch's
    statistics and return a cache, which only ``TRAIN_STEP``'s loop keeps."""

    PACKED = "packed"  # inference, binarized segments on the bit-packed kernel
    DENSE = "dense"  # inference on the dense reference path
    BATCH_LOSS = "batch_loss"  # the loss on batch statistics: running statistics untouched
    TRAIN_STEP = "train_step"  # a training step: running statistics updated

    @property
    def training(self) -> bool:
        return self is Mode.BATCH_LOSS or self is Mode.TRAIN_STEP


# the arrays a kept packed plan made read-only, by id: the only ones ``_thaw``
# makes writeable again
_frozen = weakref.WeakValueDictionary()


def _freeze(a: np.ndarray) -> bool:
    """Make a parameter array read-only for a kept plan (``models._model_plan``);
    False, and the array left as it is, if it was read-only already."""
    if not a.flags.writeable:
        return False
    a.flags.writeable = False
    _frozen[id(a)] = a
    return True


def _thaw(*arrays):
    """Make parameter arrays writeable before the engine writes them in
    place, where a kept plan made them read-only (``_freeze``); a writeable
    array makes the next forward plan anew.  An array the caller made
    read-only stays so, and the write raises."""
    for a in arrays:
        if _frozen.pop(id(a), None) is a:
            a.flags.writeable = True


# ---------------------------------------------------------------------------
# real 2D convolution: the one GEMM convolution and its backward
# ---------------------------------------------------------------------------

def _windows(x, kernel, stride, padding, pad_value):
    """The padded batch's sliding windows as an (n, c, kh, kw, h_out, w_out)
    view, and (h_out, w_out): the one window gather of both convolution
    directions, which ``_image_columns`` copies image by image."""
    h, w = x.shape[2:]
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    h_out, w_out = out_size(h, kh, sh, ph), out_size(w, kw, sw, pw)
    if h_out < 1 or w_out < 1:
        raise ShapeMismatch(f"kernel {kernel} does not fit a {h}x{w} input")
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=pad_value)
    win = sliding_window_view(xp, kernel, axis=(2, 3))[:, :, ::sh, ::sw]
    return win.transpose(0, 1, 4, 5, 2, 3), (h_out, w_out)


# Images per task of a split convolution: a chunk scatters its input
# gradient in one ``_col2im`` call, where each image took one of its own.
CONV_CHUNK_IMAGES = 4


def _chunks(n: int) -> list[slice]:
    """An n-image batch as slices of at most ``CONV_CHUNK_IMAGES`` images."""
    return [slice(i, i + CONV_CHUNK_IMAGES) for i in range(0, n, CONV_CHUNK_IMAGES)]


def _image_columns(win):
    """Each image's (c*kh*kw, h_out*w_out) columns in turn, copied from the
    window view ``win`` into one buffer that the next image overwrites."""
    cols = np.empty(win.shape[1:])
    flat = cols.reshape(math.prod(win.shape[1:4]), -1)
    for image in win:
        np.copyto(cols, image)
        yield flat


def _col2im(dcols, x_shape, kernel, stride, padding):
    """Scatter-add columns back onto the input: ``dcols`` is
    (..., c*kh*kw, h_out*w_out) for an input of shape ``x_shape`` (..., c, h, w)."""
    *lead, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    h_out, w_out = out_size(h, kh, sh, ph), out_size(w, kw, sw, pw)
    dpad = np.zeros((*lead, h + 2 * ph, w + 2 * pw))
    d6 = dcols.reshape(*lead, kh, kw, h_out, w_out)
    for ky in range(kh):
        for kx in range(kw):
            tap = d6[..., ky, kx, :, :]
            dpad[..., ky : ky + sh * h_out : sh, kx : kx + sw * w_out : sw] += tap
    return dpad[..., ph : ph + h, pw : pw + w]


def conv2d_real(
    x: np.ndarray,
    w: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    padding: tuple[int, int] = (0, 0),
    pad_value: float = 0.0,
) -> np.ndarray:
    """Plain real 2D convolution (cross-correlation), NCHW in, NCHW out:
    per image, one GEMM of the flattened weights with that image's columns,
    on chunks of ``CONV_CHUNK_IMAGES`` images spread over the cores, each
    chunk with a column buffer of its own."""
    if w.shape[1] != x.shape[1]:
        raise ShapeMismatch(f"weight expects {w.shape[1]} channels, input has {x.shape[1]}")
    win, (h_out, w_out) = _windows(x, w.shape[2:], stride, padding, pad_value)
    wm = w.reshape(w.shape[0], -1).astype(float, copy=False)
    y = np.empty((x.shape[0], w.shape[0], h_out * w_out))

    def chunk(images):
        for y_i, cols in zip(y[images], _image_columns(win[images])):
            np.matmul(wm, cols, out=y_i)

    run_tasks([functools.partial(chunk, images) for images in _chunks(len(x))])
    return y.reshape(x.shape[0], w.shape[0], h_out, w_out)


def _real_conv_bwd(g, x, w, stride=(1, 1), padding=(0, 0), pad_value=0.0, input_grad=True):
    """(dw, dx) of ``conv2d_real(x, w, stride, padding, pad_value)`` for the
    output gradient ``g``; with ``input_grad`` False, ``dx`` is None and
    never computed.  Two independent streams, spread over the cores: one
    rebuilds each image's columns from the cached input and adds
    ``g_i @ cols_i^T`` to ``dw`` in image order, and one task per chunk of
    ``CONV_CHUNK_IMAGES`` images scatters ``w^T @ g`` of its images back
    into ``dx``, each element adding its taps in the same order.  A batch
    of one image runs inline."""
    n, out_c = g.shape[:2]
    gm = g.reshape(n, out_c, -1)
    wm = w.reshape(out_c, -1).astype(float, copy=False)
    win, _ = _windows(x, w.shape[2:], stride, padding, pad_value)
    dw, dx = None, np.empty(x.shape) if input_grad else None

    def weight_grad():
        nonlocal dw
        for i, cols in enumerate(_image_columns(win)):
            part = gm[i] @ cols.T
            if i == 0:
                dw = part
            else:
                dw += part

    def input_grad_chunk(images):
        dx[images] = _col2im(wm.T @ gm[images], dx[images].shape, w.shape[2:], stride, padding)

    tasks = [weight_grad]
    if input_grad:
        tasks += [functools.partial(input_grad_chunk, images) for images in _chunks(n)]
    if n > 1:
        run_tasks(tasks)
    else:
        for task in tasks:
            task()
    return dw.reshape(w.shape), dx


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


def complex_conv2d_fp(x: ComplexTensor, layer: ComplexConvLayer) -> ComplexTensor:
    """Complex convolution: y = conv(x, w) with complex per-element products.

    y_r = conv(x_r, w_r) - conv(x_i, w_i) + b_r
    y_i = conv(x_r, w_i) + conv(x_i, w_r) + b_i

    Two real convolutions, ``a = conv(x_r, [w_r; w_i])`` and
    ``b = conv(x_i, [w_i; w_r])`` with the weights stacked along output
    channels, whose halves combine into ``y_r = a_top - b_top`` and
    ``y_i = a_bottom + b_bottom``, written over ``a``'s halves.
    """
    g = layer.geometry
    if x.shape[1] != g.in_channels or layer.w_re.shape[1] != g.in_channels:
        raise ShapeMismatch(
            f"input has {x.shape[1]} channels, layer expects {g.in_channels}"
        )
    out_c = layer.w_re.shape[0]
    args = (g.stride, g.padding, layer.pad_value)
    a = conv2d_real(x.re, np.concatenate([layer.w_re, layer.w_im]), *args)
    b = conv2d_real(x.im, np.concatenate([layer.w_im, layer.w_re]), *args)
    y_r = np.subtract(a[:, :out_c], b[:, :out_c], out=a[:, :out_c])
    y_i = np.add(a[:, out_c:], b[:, out_c:], out=a[:, out_c:])
    if layer.bias_re is not None:
        y_r += layer.bias_re.reshape(1, -1, 1, 1)
        y_i += layer.bias_im.reshape(1, -1, 1, 1)
    return ComplexTensor(y_r, y_i)


def _complex_conv_bwd(g: ComplexTensor, x: ComplexTensor, layer: ComplexConvLayer):
    """Returns (dw_re, dw_im, db_re, db_im, dx) for the cached input ``x``.

    With ``G = [g_r; g_i]`` stacked along channels, two real-conv backwards:
    ``G`` through ``conv(x_r, [w_r; w_i])`` gives ``a`` and ``dx_r``, and
    through ``conv(x_i, [-w_i; w_r])`` gives ``b`` and ``dx_i``; the weight
    gradients are ``dw_r = a_top + b_bottom`` and ``dw_i = a_bottom - b_top``.
    """
    geo = layer.geometry
    out_c = layer.w_re.shape[0]
    gs = np.concatenate([g.re, g.im], axis=1)
    args = (geo.stride, geo.padding, layer.pad_value)
    a, dx_r = _real_conv_bwd(gs, x.re, np.concatenate([layer.w_re, layer.w_im]), *args)
    b, dx_i = _real_conv_bwd(gs, x.im, np.concatenate([-layer.w_im, layer.w_re]), *args)
    db_re = db_im = None
    if layer.bias_re is not None:
        db_re = g.re.sum(axis=(0, 2, 3))
        db_im = g.im.sum(axis=(0, 2, 3))
    return a[:out_c] + b[out_c:], a[out_c:] - b[:out_c], db_re, db_im, ComplexTensor(dx_r, dx_i)


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
# complex Gaussian batch normalization
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


def _bn_plane(x, running_mean, running_var, layer, mode: Mode):
    """One (n, c, h, w) plane normalized per channel, ``(x - mean) / sqrt(2*var + eps)``,
    and the inverse scales.  Inference reads the running statistics, the
    training modes the batch's over (n, h, w); ``TRAIN_STEP`` also moves the
    running statistics toward them by ``layer.momentum``."""
    if mode.training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        if mode is Mode.TRAIN_STEP:
            _thaw(running_mean, running_var)
            m = layer.momentum
            running_mean[:] = (1 - m) * running_mean + m * mean
            running_var[:] = (1 - m) * running_var + m * var
    else:
        mean = np.asarray(running_mean, dtype=float)
        var = np.asarray(running_var, dtype=float)
    inv = 1.0 / np.sqrt(2.0 * var + layer.eps)
    xh = np.subtract(x, mean.reshape(1, -1, 1, 1))  # fresh, scaled in place
    xh *= inv.reshape(1, -1, 1, 1)
    return xh, inv


def _bn_plane_backward(gh, xh, inv):
    """Input gradient of a ``_bn_plane`` on batch statistics, for the
    gradient ``gh`` of its normalized plane ``xh``; the variance-path term
    carries the variance's factor 2.  The gradient is written into ``gh``,
    which the caller owns, in the order of
    ``inv * (gh - mean(gh) - 2 * xh * mean(gh * xh))``."""
    mean_gh = gh.mean(axis=(0, 2, 3), keepdims=True)
    tmp = np.multiply(gh, xh)
    mean_ghx = tmp.mean(axis=(0, 2, 3), keepdims=True)
    np.multiply(2.0, xh, out=tmp)
    tmp *= mean_ghx
    gh -= mean_gh
    gh -= tmp
    gh *= inv.reshape(1, -1, 1, 1)
    return gh


def cgbn_forward(x: ComplexTensor, layer: CgbnLayer, training: bool = False) -> ComplexTensor:
    """CGBN: per-plane normalization followed by a complex affine transform.

    Training mode uses mini-batch statistics over (n, h, w) and updates the
    running statistics by exponential moving average; eval mode uses the
    running statistics.
    """
    return _fwd_cgbn(layer, x, Mode.TRAIN_STEP if training else Mode.DENSE)[0]


def _fwd_cgbn(layer: CgbnLayer, x: ComplexTensor, mode: Mode):
    """CGBN in ``mode``: the output and, in the training modes, the cache
    ``_bwd_cgbn`` reads (None in inference).  The affine transform is
    y_r = g_r*xh_r - g_i*xh_i + b_r and y_i = g_r*xh_i + g_i*xh_r + b_i,
    in that order."""
    if x.shape[1] != layer.channels:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, layer has {layer.channels}")
    xh_r, inv_r = _bn_plane(x.re, layer.running_mean_re, layer.running_var_re, layer, mode)
    xh_i, inv_i = _bn_plane(x.im, layer.running_mean_im, layer.running_var_im, layer, mode)
    g_r = _per_channel(layer.gamma_re)
    g_i = _per_channel(layer.gamma_im)
    y_r = np.multiply(g_r, xh_r)
    tmp = np.multiply(g_i, xh_i)
    y_r -= tmp
    y_r += _per_channel(layer.beta_re)
    np.multiply(g_i, xh_r, out=tmp)
    # in inference nothing reads xh_i again, so y_i takes its place
    y_i = np.multiply(g_r, xh_i, out=None if mode.training else xh_i)
    y_i += tmp
    y_i += _per_channel(layer.beta_im)
    return ComplexTensor(y_r, y_i), ((xh_r, xh_i, inv_r, inv_i) if mode.training else None)


def _bwd_cgbn(layer: CgbnLayer, g: ComplexTensor, cache, grads):
    xh_r, xh_i, inv_r, inv_i = cache
    gam_r = layer.gamma_re.reshape(1, -1, 1, 1).astype(float)
    gam_i = layer.gamma_im.reshape(1, -1, 1, 1).astype(float)
    # two reused activation-sized buffers; every sum keeps its operation order
    a = np.multiply(g.re, xh_r)
    b = np.multiply(g.im, xh_i)
    a += b
    grads.append((layer.gamma_re, a.sum(axis=(0, 2, 3))))
    np.negative(g.re, out=a)
    a *= xh_i
    np.multiply(g.im, xh_r, out=b)
    a += b
    grads.append((layer.gamma_im, a.sum(axis=(0, 2, 3))))
    grads.append((layer.beta_re, g.re.sum(axis=(0, 2, 3))))
    grads.append((layer.beta_im, g.im.sum(axis=(0, 2, 3))))
    gh_r = np.multiply(g.re, gam_r, out=a)
    np.multiply(g.im, gam_i, out=b)
    gh_r += b
    gh_i = np.negative(g.re)
    gh_i *= gam_i
    np.multiply(g.im, gam_r, out=b)
    gh_i += b
    return ComplexTensor(_bn_plane_backward(gh_r, xh_r, inv_r),
                         _bn_plane_backward(gh_i, xh_i, inv_i))


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
