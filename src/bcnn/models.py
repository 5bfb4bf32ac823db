"""Model graphs: complex-input generator, binarized NIN, binarized ResNet-18.

A model is an ordered list of layer nodes executed front to back, forming
one pipeline: a real prefix of pools on the image, then the generator
making it complex, then the complex and binarized body, then Flatten and
the Dense head.  The hardware-path convention is:
convolution, then pooling (where scheduled), then batch normalization, then
binarization.  The first and last compute layers stay full precision; every
binarized convolution consumes {+1,-1} activations produced by a preceding
binarize step (explicit in plain sequences, internal to residual blocks).
``validate_graph`` enforces all of this with one shape walk, and every
graph it accepts infers, trains and round-trips BCN1.

A node kind is one ``NODE_KINDS`` entry: its forward, backward, output
shape, BCN1 tag and codec, and ``bcnn export`` text.  Every per-node loop
dispatches through that table, block paths included.  Each kind has one
forward, ``(node, x, mode) -> (y, cache)``, and ``run_nodes`` is the one loop
over a node sequence, in one of four ``Mode`` values: packed or dense
inference on running statistics (``forward``), the loss on batch statistics
(``batch_loss``), or a training step that also moves the running statistics
(``train_step``).  Only the training step keeps the caches its backward
reads; a binary conv, like every conv, caches only its input.  Every kind
is one a model builder makes.

The per-stage channel widths are the real-valued NIN / ResNet-18 baselines
with every width halved, so the complex model matches the baseline's
parameter count.  They are collected in module-level constants so the
schedule is auditable in one place.

Inference is pure and may run on many images concurrently; ``forward``
itself spreads a batch's images over the cores, with the logits of one
unsplit pass.  A model's first packed forward plans its body once and keeps
the plan with the model; the arrays the plan read become read-only, so an
in-place edit of them raises instead of serving stale logits.  To edit a
forwarded model, make the array writeable first and leave it so until the
next forward (the engine's training and pruning do), or load the model
again.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import threading
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, NamedTuple

import numpy as np

from .binary_ops import (ConvGeometry, binarize_deterministic, binary_complex_conv2d,
                         mismatch_counts, out_size, quadrant_binarize)
from .errors import CorruptModelFile, NonFiniteInput, NonFiniteParameter, ShapeMismatch
from .layers import (CgbnLayer, ComplexConvLayer, Mode, _bwd_cgbn, _bwd_pool, _complex_conv_bwd,
                     _freeze, _fwd_cgbn, _real_conv_bwd, avg_pool, cgbn_forward,
                     complex_conv2d_fp, conv2d_real, fully_connected, hardtanh_backward, max_pool,
                     relu as _relu, ste_backward)
from .layers import spectral_pool  # noqa: F401  (perfbench/spans.py patches it; see ROADMAP item 2)
from .tensors import (BitplaneTensor, ComplexTensor, _pack_bits, _unpack_plane, channel_mask,
                      pack_signs, unpack, words_per_pixel)
from .tensors import pack  # noqa: F401  (perfbench/spans.py patches it; see ROADMAP item 2)
from .workers import cores, keep_freed_heap, run_tasks

# Halved widths of the public real-valued NIN baseline
# (192/160/96 | 192/192/192 | 192/192).
NIN_WIDTHS = (96, 80, 48, 96, 96, 96, 96, 96)

# Halved ResNet-18 stage widths (64/128/256/512) and the block schedule:
# two blocks per stage, stages 2-4 open with a stride-2 downsampling block.
RESNET18_STEM = 32
RESNET18_STAGES = (32, 64, 128, 256)

# Images per chunk of a split forward (a batch of at most this many runs
# inline): smaller chunks lose more to per-call costs than a core gains.
CHUNK_IMAGES = 8


# ---------------------------------------------------------------------------
# layer nodes
# ---------------------------------------------------------------------------

@dataclass
class ComplexInputGenerator:
    """Two-layer residual CNN that learns the imaginary plane.

    im = conv2(relu(conv1(x)) + x); the original image is the real plane.
    Both convolutions are full precision, 3x3, padding 1, channel-preserving.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class BinaryConvLayer:
    """Binarized complex convolution holding latent full-precision weights.

    An output channel whose latent planes are all exactly zero is a pruned
    channel: the packed kernel skips its rows, the dense path masks its
    output to zero, and it receives no gradient, so hard-pruned channels
    survive both further training and the packed file format.
    """

    w_re: np.ndarray
    w_im: np.ndarray
    geometry: ConvGeometry


@dataclass
class _Pool:
    window: tuple[int, int]
    stride: tuple[int, int] | None = None  # stored as the window when omitted

    def __post_init__(self):
        if self.stride is None:
            self.stride = self.window


class AvgPool(_Pool):
    """Window-mean pooling."""


class MaxPool(_Pool):
    """Window-max pooling."""


@dataclass
class Binarize:
    """Quadrant binarization of the activations; in packed inference it
    emits the sign-packed words directly."""


@dataclass
class Flatten:
    """Complex NCHW to a flat real vector (real channels, then imaginary)."""


@dataclass
class DenseLayer:
    weight: np.ndarray
    bias: np.ndarray


@dataclass
class ResidualBlock:
    """Residual block: two binarized complex convolutions plus a skip path.

    The block binarizes its input once.  The ``main`` path is conv1, bn1,
    binarize, conv2, bn2.  The skip is the untouched input (identity block)
    or, in a downsampling block, the ``side`` path of a convolution and a
    CGBN on the binarized input.  The two are added in the real domain,
    before the next block's binarization.
    """

    conv1: BinaryConvLayer
    bn1: CgbnLayer
    conv2: BinaryConvLayer
    bn2: CgbnLayer
    side_conv: BinaryConvLayer | None = None
    side_bn: CgbnLayer | None = None

    @property
    def main(self) -> tuple:
        return (self.conv1, self.bn1, Binarize(), self.conv2, self.bn2)

    @property
    def side(self) -> tuple:
        return () if self.side_conv is None else (self.side_conv, self.side_bn)


@dataclass
class ModelGraph:
    name: str
    input_shape: tuple[int, int, int]
    num_classes: int
    layers: list = field(default_factory=list)

    def __getstate__(self):
        """A copy or a pickle leaves the packed plan behind (``_model_plan``)."""
        return {k: v for k, v in self.__dict__.items() if k != "_packed_plan"}

    def __setstate__(self, state):
        """Every array comes back writeable and owning its memory, as a
        plan kept with the model needs (``_model_plan``): a pickle of
        protocol 5 restores arrays as views of its buffers, read-only where
        the plan had made them so, and those are copied."""
        self.__dict__.update(state)
        for node, name, value in _fields_of(self.layers):
            if isinstance(value, np.ndarray) and not value.flags.owndata:
                setattr(node, name, value.copy())


# ---------------------------------------------------------------------------
# per-kind operations
# ---------------------------------------------------------------------------

class Activation(NamedTuple):
    """One image's activation as the shape walk sees it."""

    dims: tuple  # (channels, height, width), or (features,) once flattened
    domain: str = "real"  # "real", "complex", or "binarized": straight from a binarize step


def _image(act: Activation, channels: int | None = None, domains=("complex", "binarized")):
    """(c, h, w) of an image input in one of ``domains`` (None: any domain)."""
    if len(act.dims) != 3:
        raise ShapeMismatch(f"expects an image input, got flat features {act.dims}")
    if domains is not None and act.domain not in domains:
        raise ShapeMismatch(f"expects a {' or '.join(domains)} input, got a {act.domain} one")
    if channels is not None and act.dims[0] != channels:
        raise ShapeMismatch(f"input has {act.dims[0]} channels, layer expects {channels}")
    return act.dims


def _keep(act: Activation, dims=None) -> Activation:
    """The output of an op that changes values: real stays real, else complex."""
    return Activation(act.dims if dims is None else dims,
                      "real" if act.domain == "real" else "complex")


def _check_params(node, shapes: dict):
    """Each named parameter array of ``node`` must have the shape ``shapes``
    gives it; a missing (None) array never does."""
    for name, want in shapes.items():
        arr = getattr(node, name)
        got = None if arr is None else np.shape(arr)
        if got != want:
            raise ShapeMismatch(f"{name} has shape {got}, expected {want}")


def active_output_channels(layer: BinaryConvLayer) -> np.ndarray:
    """Boolean mask of output channels that are not hard-pruned to zero."""
    out_c = layer.w_re.shape[0]
    energy = (np.abs(layer.w_re).reshape(out_c, -1).sum(axis=1)
              + np.abs(layer.w_im).reshape(out_c, -1).sum(axis=1))
    return energy > 0


def mask_pruned_channels(y: ComplexTensor, mask: np.ndarray) -> ComplexTensor:
    if mask.all():
        return y
    m = mask.reshape(1, -1, 1, 1)
    return ComplexTensor(y.re * m, y.im * m)


def _describe_conv(g: ConvGeometry, precision: str) -> str:
    return (f"{g.in_channels}->{g.out_channels} kernel {g.kernel} "
            f"stride {g.stride} pad {g.padding} ({precision})")


# BCN1 payload arrays: full-precision planes as little-endian f32, packed
# sign words as little-endian u64; ``cur`` is a cursor with take(n)/unpack(fmt)

def _f32(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)


def _read_array(cur, shape, dtype=np.float32) -> np.ndarray:
    stored = np.dtype(dtype).newbyteorder("<")
    n = math.prod(shape)  # exact: np.prod wraps on corrupt huge shapes
    return np.frombuffer(cur.take(stored.itemsize * n), dtype=stored).reshape(shape).astype(dtype)


def _geometry_bytes(g: ConvGeometry) -> bytes:
    return struct.pack("<8I", g.out_channels, g.in_channels, *g.kernel, *g.stride, *g.padding)


def _read_geometry(cur) -> ConvGeometry:
    oc, ic, kh, kw, sh, sw, ph, pw = cur.unpack("<8I")
    return ConvGeometry(ic, oc, (kh, kw), (sh, sw), (ph, pw))


def _generator_forward(gen: ComplexInputGenerator, x: np.ndarray):
    """The generated complex tensor and the cache its backward reads."""
    z1 = conv2d_real(x, gen.w1, padding=(1, 1)) + gen.b1.reshape(1, -1, 1, 1)
    s = _relu(z1) + x
    im = conv2d_real(s, gen.w2, padding=(1, 1)) + gen.b2.reshape(1, -1, 1, 1)
    return ComplexTensor(x.astype(float), im), (x, z1, s)


def _generator_backward(gen: ComplexInputGenerator, g, cache, clip, grads, input_grad=True):
    x, z1, s = cache
    grads.append((gen.b2, g.im.sum(axis=(0, 2, 3))))
    dw2, ds = _real_conv_bwd(g.im, s, gen.w2, padding=(1, 1))
    grads.append((gen.w2, dw2))
    dz1 = ds * (z1 > 0)
    grads.append((gen.b1, dz1.sum(axis=(0, 2, 3))))
    dw1, dx1 = _real_conv_bwd(dz1, x, gen.w1, padding=(1, 1), input_grad=input_grad)
    grads.append((gen.w1, dw1))
    return g.re + ds + dx1 if input_grad else None


def _generator_shape(gen: ComplexInputGenerator, act: Activation, visit) -> Activation:
    c = np.size(gen.b1)
    _image(act, c, ("real",))
    _check_params(gen, {"w1": (c, c, 3, 3), "b1": (c,), "w2": (c, c, 3, 3), "b2": (c,)})
    return Activation(act.dims, "complex")


def _encode_generator(gen: ComplexInputGenerator, desc: bytearray, payload: bytearray):
    desc += struct.pack("<I", gen.w1.shape[0])
    payload += _f32(gen.w1, gen.b1, gen.w2, gen.b2)


def _decode_generator(desc, payload, variant) -> ComplexInputGenerator:
    (c,) = desc.unpack("<I")
    return ComplexInputGenerator(_read_array(payload, (c, c, 3, 3)), _read_array(payload, (c,)),
                                 _read_array(payload, (c, c, 3, 3)), _read_array(payload, (c,)))


def _conv_backward(layer: ComplexConvLayer, g, x, clip, grads):
    dw_re, dw_im, db_re, db_im, dx = _complex_conv_bwd(g, x, layer)
    grads.append((layer.w_re, dw_re))
    grads.append((layer.w_im, dw_im))
    if db_re is not None:
        grads.append((layer.bias_re, db_re))
        grads.append((layer.bias_im, db_im))
    return dx


def _conv_shape(layer, act: Activation, domains=("complex", "binarized")) -> Activation:
    g = layer.geometry
    _, h, w = _image(act, g.in_channels, domains)
    w_shape = (g.out_channels, g.in_channels, *g.kernel)
    shapes = {"w_re": w_shape, "w_im": w_shape}
    if getattr(layer, "bias_re", None) is not None or getattr(layer, "bias_im", None) is not None:
        shapes.update(bias_re=(g.out_channels,), bias_im=(g.out_channels,))
    _check_params(layer, shapes)
    return Activation((g.out_channels, *g.out_hw(h, w)), "complex")


def _encode_conv(layer: ComplexConvLayer, desc: bytearray, payload: bytearray):
    has_bias = layer.bias_re is not None
    desc += _geometry_bytes(layer.geometry) + struct.pack("<Bd", has_bias, layer.pad_value)
    payload += _f32(layer.w_re, layer.w_im)
    if has_bias:
        payload += _f32(layer.bias_re, layer.bias_im)


def _decode_conv(desc, payload, variant) -> ComplexConvLayer:
    g = _read_geometry(desc)
    has_bias, pad_value = desc.unpack("<Bd")
    shape = (g.out_channels, g.in_channels, *g.kernel)
    layer = ComplexConvLayer(_read_array(payload, shape), _read_array(payload, shape), g,
                             pad_value=pad_value)
    if has_bias:
        layer.bias_re = _read_array(payload, (g.out_channels,))
        layer.bias_im = _read_array(payload, (g.out_channels,))
    return layer


def _sign_weights(layer: BinaryConvLayer) -> ComplexConvLayer:
    """The quadrant-binarized weights as a dense conv with the kernel's -1 padding."""
    return ComplexConvLayer(binarize_deterministic(layer.w_re),
                            binarize_deterministic(layer.w_im), layer.geometry, pad_value=-1.0)


def _binary_conv_forward(layer: BinaryConvLayer, x, mode: Mode):
    """The dense conv: the signed weights as a full-precision conv with -1
    padding, pruned channels masked to zero, and its input as the cache.
    Packed inference never calls it: ``run_nodes`` runs every packed binary
    conv as a planned step (``_plan``)."""
    y = complex_conv2d_fp(x, _sign_weights(layer))
    return mask_pruned_channels(y, active_output_channels(layer)), x


# packed inference runs each binary conv, with the CGBN and Binarize right
# after it, as one step prepared once per model (``_plan``, ``_model_plan``)

def _bn_channels(bn: CgbnLayer, idx: np.ndarray) -> CgbnLayer:
    """The CGBN restricted to the channels ``idx``."""
    return CgbnLayer(*(a[idx] for a in _bn_arrays(bn)), eps=bn.eps, momentum=bn.momentum)


def _sign_thresholds(bn: CgbnLayer, row_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a real-gamma CGBN (``gamma_im == 0``) fed by mismatch counts
    ``m`` in [0, row_bits]: per plane and channel an integer ``t`` in
    [-1, row_bits], and per channel ``flip``, such that the binarized
    output is ``(m <= t) != flip``; and per channel whether both planes'
    ``t`` were found.

    With a real gamma each plane's output depends on its own dot
    ``row_bits - 2m`` only (the cross term is +-0, or NaN for every input),
    and it is monotone in that dot because correctly rounded float ops are
    monotone, so each bit is one step in ``m``.  One ``cgbn_forward`` call
    evaluates the exact output at a closed-form estimate of the step and
    its neighbours.  A channel whose step lies elsewhere (statistics so
    large that the float output is a staircase in ``m``) is not found.
    """
    k = row_bits
    flip = np.asarray(bn.gamma_re) < 0  # then the output rises with m
    mean, var, beta = np.array([[bn.running_mean_re, bn.running_mean_im],
                                [bn.running_var_re, bn.running_var_im],
                                [bn.beta_re, bn.beta_im]], dtype=float)
    with np.errstate(all="ignore"):
        slope = np.asarray(bn.gamma_re, dtype=float) / np.sqrt(2.0 * var + bn.eps)
        # the last count whose dot is on the high side of the output's zero
        step = np.floor((k - mean + beta / slope) / 2)
    step = np.fmax(np.fmin(step, k), -1).astype(np.int64)  # NaN (0 / 0): the output is +-0
    probe = step[..., None] + np.arange(-1, 3)  # (2, channels, 4) counts
    dots = (k - 2 * np.fmin(np.fmax(probe, 0), k)).astype(float)
    y = cgbn_forward(ComplexTensor(dots[0, None, :, None], dots[1, None, :, None]), bn)
    # whether the bit is the unflipped one; counts below 0 keep it, above k do not
    up = (np.stack([y.re[0, :, 0], y.im[0, :, 0]]) >= 0) != flip[:, None]
    up = (up | (probe < 0)) & (probe <= k)
    edge = up[..., :-1] & ~up[..., 1:]  # at most one per row: the bit is monotone
    return probe[..., 0] + edge.argmax(axis=-1), flip, edge.any(axis=-1).all(axis=0)


def _input_channels(conv: BinaryConvLayer, keep=None):
    """Geometry and sign-packed weights of the conv on its input channels ``keep`` alone."""
    g, w = conv.geometry, (conv.w_re, conv.w_im)
    if keep is not None:  # a mask; None keeps every channel
        w = [np.compress(keep, plane, axis=1) for plane in w]
    return (ConvGeometry(w[0].shape[1], g.out_channels, g.kernel, g.stride, g.padding),
            pack_signs(ComplexTensor(*w)))


def _constant_dots(conv: BinaryConvLayer, const: np.ndarray, signs: np.ndarray, hw, active):
    """(2, live, h_out, w_out) exact dots of the input channels ``const``
    alone, one sign per plane (``signs``, (2, channels) booleans) at every
    pixel of an ``hw`` input and -1 in the padding, for the ``active``
    output channels: the packed kernel on one image of those signs."""
    g, w = _input_channels(conv, const)
    shape = (1, g.in_channels, *hw)
    x = BitplaneTensor(shape, *(_pack_bits(np.broadcast_to(s[None, :, None, None], shape))
                                for s in signs))
    return g.row_bits - 2.0 * mismatch_counts(x, w, g, active)[:, :, 0]


class _ConvStep(NamedTuple):
    """A binary conv prepared for a packed forward (``_prepare_step``), with
    the CGBN, and the Binarize after that, that run with it as one step."""

    geometry: ConvGeometry  # the conv's, over the live input channels when cut
    weights: BitplaneTensor  # the sign-packed weights of those input channels
    active: np.ndarray  # the live output channels
    live: np.ndarray | None  # their indices; None when every channel is live
    bias: np.ndarray | None  # (2, live, h_out, w_out): the cut input channels' dots
    fold: tuple | None  # the fold rule's edge per plane and channel, and flip per channel
    bn: CgbnLayer | None  # the float rule's CGBN on the live channels
    const: np.ndarray | None  # (2, pruned) outputs; None where y's +0.0 stands
    signs: np.ndarray | None  # (2, pruned) bits, with a Binarize
    binarize: bool
    emit_live: bool  # words of the live channels only, for a cut conv


class _PlannedBlock(NamedTuple):
    """A residual block's paths as a packed forward's steps."""

    main: list
    side: list


def _prepare_step(conv: BinaryConvLayer, bn: CgbnLayer | None = None, binarize: bool = False,
                  cut=None, feeds_conv: bool = False) -> _ConvStep:
    """The per-forward work of a packed conv step: the live-output mask, the
    sign-packed weights and the CGBN's rule.  Fold: with a Binarize after a
    CGBN whose every ``gamma_im`` is 0 and whose every channel
    ``_sign_thresholds`` settles, each plane's bit is one compare of the
    conv's integer dot with an edge; a pruned channel's +0.0 is the dot of
    count ``row_bits / 2``.  Float: otherwise the CGBN runs on the live
    channels and each pruned one is the constant CGBN gives for +0.0.

    ``cut = (live, signs, hw)`` says that the conv's input channels outside
    ``live`` are constant, one sign per plane, on an ``hw`` image: the
    weights keep the live input channels, and ``bias`` adds the dots of the
    others.  With ``feeds_conv`` (a Binarize after the CGBN, then a binary
    conv) and some but not all output channels pruned, the step emits the
    live channels' words only, for that conv to take as its cut."""
    active = active_output_channels(conv)
    pruned = ~active
    live = None if active.all() else np.flatnonzero(active)
    keep = None if cut is None else cut[0]
    g, weights = _input_channels(conv, keep)
    bias = None if cut is None else _constant_dots(conv, ~keep, *cut[1:], active)
    fold = const = signs = None
    if bn is not None and binarize and not np.any(bn.gamma_im):
        k = conv.geometry.row_bits
        t, flip, found = _sign_thresholds(bn, k)
        if found.all():
            # (m <= t) != flip for the count m = (k - dot) / 2 is (dot >= k - 2t) != flip
            edge = k - 2 * t
            fold = (edge[..., None, None], flip[:, None, None])
            signs = (0 >= edge[:, pruned]) != flip[pruned]
    if bn is not None and fold is None:  # the float rule
        if pruned.any():
            zero = np.zeros((1, int(pruned.sum()), 1, 1))
            c = cgbn_forward(ComplexTensor(zero, zero), _bn_channels(bn, np.flatnonzero(pruned)))
            const = np.stack([c.re[0, :, 0, 0], c.im[0, :, 0, 0]])
            signs = const >= 0
        if live is not None:  # with no live channel, no CGBN runs
            bn = _bn_channels(bn, live) if live.size else None
    else:
        bn = None
    emit_live = feeds_conv and live is not None and live.size > 0
    return _ConvStep(g, weights, active, live, bias, fold, bn, const, signs, binarize, emit_live)


def _run_step(step: _ConvStep, x: BitplaneTensor):
    """A prepared conv step on a binarize step's words ``x``: the CGBN's
    output planes, its binarized words with ``binarize``, or the conv's
    planes without a CGBN; bit-identical to the node-by-node forward."""
    y = binary_complex_conv2d(x, step.weights, step.geometry, active=step.active)  # fresh planes
    live = slice(None) if step.live is None else step.live
    if step.bias is not None and step.bn is None:  # no float CGBN reads the live channels alone
        y.re[:, live] += step.bias[0]
        y.im[:, live] += step.bias[1]
    if step.fold is not None:  # every channel: a pruned one's +0.0 is the dot of count k / 2
        edge, flip = step.fold
        re, im = (y.re >= edge[0]) != flip, (y.im >= edge[1]) != flip
        if step.emit_live:
            re, im = re[:, live], im[:, live]
        return BitplaneTensor(re.shape, _pack_bits(re), _pack_bits(im))
    if step.bn is None and step.const is None:
        return y  # a lone conv: a pruned channel keeps the kernel's +0.0
    re, im = y.re[:, live], y.im[:, live]  # a copy, or y itself when every channel is live
    if step.bn is not None:
        if step.bias is not None:
            re += step.bias[0]
            im += step.bias[1]
        z = cgbn_forward(ComplexTensor(re, im), step.bn)
        re, im = z.re, z.im
    if step.live is not None and not step.emit_live:  # in y: live, then pruned channels
        y.re[:, step.live], y.im[:, step.live] = re, im
        pruned = ~step.active
        y.re[:, pruned], y.im[:, pruned] = (c[:, None, None] for c in step.const)
        re, im = y.re, y.im
    if step.binarize:
        return BitplaneTensor(re.shape, _pack_bits(re >= 0), _pack_bits(im >= 0))
    return ComplexTensor(re, im)


def _plan(nodes, act: Activation | None = None, read: list | None = None) -> list:
    """A packed forward's steps for a node sequence: each binary conv, with
    the CGBN right after it and a Binarize after that, as one prepared
    ``_ConvStep``; each residual block as a ``_PlannedBlock`` of its paths'
    steps; every other node, a plan's own steps included, as it is.  The
    steps only read what they hold, so one plan serves every chunk of every
    forward of the model it was made for (``_model_plan``).

    Given the sequence's input ``act``, a binary conv -> CGBN -> Binarize
    with some but not all output channels pruned, followed by a binary conv,
    emits its live channels' words only, and that conv reads them with the
    pruned channels' constant signs as its cut (``_prepare_step``).  Given
    a list ``read``, each array a step is prepared from (the conv's weight
    planes, its CGBN's arrays) is appended to it."""
    steps, cut, i = [], None, 0
    walked = 0  # act is the input of nodes[walked], walked up to where it is read
    while i < len(nodes):
        node, covers = nodes[i], 1
        if type(node) is BinaryConvLayer:
            follow = [type(nxt) for nxt in nodes[i + 1 : i + 4]]
            bn = nodes[i + 1] if follow[:1] == [CgbnLayer] else None
            binarize = follow[:2] == [CgbnLayer, Binarize]
            feeds_conv = act is not None and follow == [CgbnLayer, Binarize, BinaryConvLayer]
            covers = 1 + (bn is not None) + binarize
            if read is not None:
                read += [node.w_re, node.w_im] + _bn_arrays(bn)
            node = _prepare_step(node, bn, binarize, cut, feeds_conv)
        elif type(node) is ResidualBlock:
            b = None
            if act is not None:
                act, walked = walk_shapes(nodes[walked:i], act), i
                b = Activation(act.dims, "binarized")
            node = _PlannedBlock(_plan(node.main, b, read), _plan(node.side, b, read))
        cut = None
        if act is not None and type(node) is _ConvStep and node.emit_live:
            act, walked = walk_shapes(nodes[walked : i + covers], act), i + covers
            cut = (node.active, node.signs, act.dims[1:])
        steps.append(node)
        i += covers
    return steps


def _fields_of(nodes):
    """(node, name, value) for every field of every node, block paths' nodes
    included."""
    for node in nodes:
        for f in fields(node) if is_dataclass(node) else ():
            yield node, f.name, getattr(node, f.name)
        if type(node) is ResidualBlock:
            yield from _fields_of(node.main + node.side)


def check_parameters(nodes):
    """Every float field of ``nodes`` must be finite as a BCN1 file stores
    it (arrays as 32-bit, scalars as 64-bit reals); the first that is not
    raises ``NonFiniteParameter``, naming the node kind and the field."""
    with np.errstate(over="ignore"):  # a float64 beyond the 32-bit range is stored as inf
        for node, name, value in _fields_of(nodes):
            a = np.asarray(value)
            stored = a.astype(np.float32, copy=False) if a.dtype.kind == "f" and a.ndim else a
            if a.dtype.kind == "f" and not np.isfinite(stored).all():
                raise NonFiniteParameter(f"{type(node).__name__} {name} holds a non-finite value")


class _Plan(NamedTuple):
    """A model's packed body steps (``_plan``), kept with the model, and what
    they were planned from."""

    layers: tuple  # the model's nodes
    input_shape: tuple
    fields: list  # (node, name, value) of every body node, block paths' nodes included
    read: list  # the arrays the steps were prepared from, all read-only
    generation: int  # ``_generation`` once they were
    steps: list

    def holds(self, model: ModelGraph) -> bool:
        return (self.generation == _generation
                and len(model.layers) == len(self.layers)
                and all(map(operator.is_, model.layers, self.layers))
                and tuple(model.input_shape) == self.input_shape
                and all(getattr(node, name) is value for node, name, value in self.fields)
                and not any(a.flags.writeable for a in self.read))


# bumped by each planning that freezes a writeable array: the array may have
# been written since another kept plan read it (that plan's model shares the
# node, or a caller made the array writeable), so every kept plan made before
# is dropped
_generation = 0
_generation_lock = threading.Lock()


def _model_plan(model: ModelGraph, body: list) -> list:
    """The packed steps of ``body``, the model's nodes before its Dense head.

    They are planned on the model's first packed forward and kept with it
    while the plan holds: the model has the same nodes and input shape,
    every field of every body node is the same object, every array the
    steps were prepared from is still read-only, and no planning has frozen
    a writeable array since (``_generation``).  Planning makes those arrays
    read-only (``layers._freeze``; one the caller made read-only stays the
    caller's), and the engine's in-place writers make them writeable again
    (``layers._thaw``), so the forward after a training step or an SLR
    write, of this model or of one sharing its nodes, plans anew, and an
    outside in-place write raises.  Two edits go unseen: one through a view
    taken before planning (numpy cannot freeze it), and one made while the
    caller had the array writeable if the caller makes it read-only again
    before the next forward.  A plan that read an array not owning its
    memory (a view, whose base stays writeable) is used for this forward
    only."""
    global _generation
    kept = model.__dict__.get("_packed_plan")
    if kept is not None and kept.holds(model):
        return kept.steps
    check_parameters(model.layers)
    fields_now = list(_fields_of(body))  # taken first: a node replaced while planning misses
    read = []
    steps = _plan(body, Activation(tuple(model.input_shape)), read)
    if all(type(a) is np.ndarray and a.flags.owndata for a in read):
        with _generation_lock:
            if any([_freeze(a) for a in read]):  # every array frozen, not the first only
                _generation += 1
            generation = _generation
        model._packed_plan = _Plan(tuple(model.layers), tuple(model.input_shape), fields_now,
                                   read, generation, steps)
    else:
        model.__dict__.pop("_packed_plan", None)
    return steps


def _binary_conv_backward(layer: BinaryConvLayer, g: ComplexTensor, x, clip, grads):
    """Rebuilds the signed weights and mask: a step moves weights after its backward."""
    g = mask_pruned_channels(g, active_output_channels(layer))  # pruned: forced 0, no gradient
    dwb_re, dwb_im, _, _, dx = _complex_conv_bwd(g, x, _sign_weights(layer))
    dw_re, dw_im = ste_backward(dwb_re, dwb_im, layer.w_re, layer.w_im, clip)
    grads.append((layer.w_re, dw_re))
    grads.append((layer.w_im, dw_im))
    return dx


def _encode_binary_conv(layer: BinaryConvLayer, desc: bytearray, payload: bytearray):
    desc += _geometry_bytes(layer.geometry)
    wb = pack_signs(ComplexTensor(layer.w_re, layer.w_im))
    # one byte per output channel: 0 marks a hard-pruned (all-zero) channel
    payload += active_output_channels(layer).astype(np.uint8).tobytes()
    for words in (wb.re_words, wb.im_words):
        payload += np.ascontiguousarray(words, dtype="<u8").tobytes()


def _decode_binary_conv(desc, payload, variant) -> BinaryConvLayer:
    g = _read_geometry(desc)
    mask = np.frombuffer(payload.take(g.out_channels), dtype=np.uint8)
    wshape = (g.out_channels, *g.kernel, words_per_pixel(g.in_channels))
    re_words = _read_array(payload, wshape, np.uint64)
    im_words = _read_array(payload, wshape, np.uint64)
    # refuse what the encoder never writes, so a loaded file re-saves to its own bytes
    if np.any(mask > 1):
        raise CorruptModelFile(f"pruned-channel mask byte {mask.max()}, expected 0 or 1")
    valid = channel_mask(g.in_channels)  # a pruned channel's zero weights pack as all +1
    for words in (re_words, im_words):
        if np.any(words & ~valid):
            raise CorruptModelFile(f"a weight word sets a bit beyond {g.in_channels} channels")
        if np.any(words[mask == 0] != valid):
            raise CorruptModelFile("a pruned channel's packed weights are not all +1")
    # packed layout is (oc, kh, kw, words); planes come back (oc, ic, kh, kw)
    scale = mask.astype(np.float32).reshape(-1, 1, 1, 1)
    w_re = _unpack_plane(re_words, g.in_channels).astype(np.float32) * scale
    w_im = _unpack_plane(im_words, g.in_channels).astype(np.float32) * scale
    return BinaryConvLayer(w_re, w_im, g)


# CGBN: every dataclass field but eps and momentum is a per-channel array

def _bn_arrays(bn: CgbnLayer | None) -> list:
    """A CGBN's per-channel arrays; none for no CGBN (None)."""
    return [] if bn is None else [getattr(bn, f.name) for f in fields(bn)[:-2]]


def _encode_bn(layer: CgbnLayer, desc: bytearray, payload: bytearray):
    arrays = _bn_arrays(layer)
    desc += struct.pack("<Idd", len(arrays[0]), layer.eps, layer.momentum)
    payload += _f32(*arrays)


def _decode_bn(desc, payload, variant) -> CgbnLayer:
    c, eps, momentum = desc.unpack("<Idd")
    return CgbnLayer(*(_read_array(payload, (c,)) for _ in range(8)), eps=eps, momentum=momentum)


def _bn_shape(bn: CgbnLayer, act: Activation, visit) -> Activation:
    """Every per-channel vector has as many entries as gamma_re, and as the
    complex or binarized input has channels."""
    c = np.size(bn.gamma_re)
    _image(act, c)
    _check_params(bn, {f.name: (c,) for f in fields(bn)[:-2]})
    return _keep(act)


def _pool_shape(pool: _Pool, act: Activation, visit) -> Activation:
    c, h, w = _image(act, domains=None)
    (kh, kw), (sh, sw) = pool.window, pool.stride
    if min(kh, kw, sh, sw) < 1:
        raise ShapeMismatch(f"window {pool.window} and stride {pool.stride} must be >= 1")
    if h < kh or w < kw or (h - kh) % sh or (w - kw) % sw:
        raise ShapeMismatch(f"{h}x{w} input is not covered exactly by {pool.window} "
                            f"windows at stride {pool.stride}")
    return _keep(act, (c, out_size(h, kh, sh, 0), out_size(w, kw, sw, 0)))


def _encode_pool(pool: _Pool, desc: bytearray, payload: bytearray):
    desc += struct.pack("<4I", *pool.window, *pool.stride)


def _decode_pool(cls, desc):
    kh, kw, sh, sw = desc.unpack("<4I")
    return cls((kh, kw), (sh, sw))


def _dense_backward(layer: DenseLayer, g, x, clip, grads):
    grads.append((layer.weight, g.T @ x))
    grads.append((layer.bias, g.sum(axis=0)))
    return g @ layer.weight.astype(float)


def _dense_shape(layer: DenseLayer, act: Activation, visit) -> Activation:
    if np.ndim(layer.weight) != 2:
        raise ShapeMismatch(f"weight has shape {np.shape(layer.weight)}, expected a matrix")
    out_dim, in_dim = np.shape(layer.weight)
    if act.dims != (in_dim,):
        raise ShapeMismatch(f"expects {in_dim} flat features, got {act.dims}")
    _check_params(layer, {"bias": (out_dim,)})
    return Activation((out_dim,))


def _encode_dense(layer: DenseLayer, desc: bytearray, payload: bytearray):
    desc += struct.pack("<2I", *layer.weight.shape)
    payload += _f32(layer.weight, layer.bias)


def _decode_dense(desc, payload, variant) -> DenseLayer:
    out_dim, in_dim = desc.unpack("<2I")
    return DenseLayer(_read_array(payload, (out_dim, in_dim)), _read_array(payload, (out_dim,)))


def _binarize_forward(x: ComplexTensor, mode: Mode):
    """Quadrant binarization; packed, the signs go straight to words."""
    return pack_signs(x) if mode is Mode.PACKED else quadrant_binarize(x)


def _cgbn_forward(bn: CgbnLayer, x: ComplexTensor, mode: Mode):
    """Inference calls ``cgbn_forward`` by this module's name, so a wrapper
    installed on it sees every CGBN that runs outside the fused step."""
    if mode.training:
        return _fwd_cgbn(bn, x, mode)
    return cgbn_forward(x, bn), None


# residual block: both paths run through the table on the binarized input

def _block_forward(block: ResidualBlock, x: ComplexTensor, mode: Mode):
    b = _binarize_forward(x, mode)  # packed once, read by both paths
    y, main = run_nodes(block.main, b, mode)
    skip, side = run_nodes(block.side, b, mode) if block.side else (x, [])
    return ComplexTensor(y.re + skip.re, y.im + skip.im), (x, main, side)


def _block_backward(block: ResidualBlock, g: ComplexTensor, cache, clip, grads):
    x, main, side = cache
    gb = backprop_nodes(block.main, main, g, clip, grads)
    if block.side:
        gs = backprop_nodes(block.side, side, g, clip, grads)
        return hardtanh_backward(ComplexTensor(gb.re + gs.re, gb.im + gs.im), x)
    dx = hardtanh_backward(gb, x)
    return ComplexTensor(dx.re + g.re, dx.im + g.im)


def _block_shape(block: ResidualBlock, act: Activation, visit) -> Activation:
    b = Activation(_image(act), "binarized")
    y = walk_shapes(block.main, b, visit)
    skip = walk_shapes(block.side, b, visit) if block.side else act
    if y.dims != skip.dims:
        raise ShapeMismatch(f"main path gives {y.dims}, skip path {skip.dims}")
    return Activation(y.dims, "complex")


def _encode_block(block: ResidualBlock, desc: bytearray, payload: bytearray):
    # the block's binarize step is implicit: only convs and CGBNs are stored
    for sub in (block.conv1, block.bn1, block.conv2, block.bn2) + block.side:
        encode_node(sub, desc, payload)


def _decode_block(desc, payload, variant) -> ResidualBlock:
    kinds = (BinaryConvLayer, CgbnLayer) * (2 + variant)  # variant 1 has a side path
    subs = [decode_node(desc, payload) for _ in kinds]
    for sub, kind in zip(subs, kinds):
        if not isinstance(sub, kind):
            raise CorruptModelFile(
                f"residual block holds a {type(sub).__name__} "
                f"where a {kind.__name__} belongs"
            )
    return ResidualBlock(*subs)


# ---------------------------------------------------------------------------
# the node table
# ---------------------------------------------------------------------------

@dataclass
class NodeKind:
    """Everything the engine knows about one node class."""

    tags: tuple[int, ...]  # BCN1 tags; a node is stored under tags[variant(node)]
    decode: Callable  # (desc, payload, variant) -> node, reading what encode wrote
    forward: Callable  # (node, x, mode) -> (y, cache); the cache is what backward reads
    backward: Callable  # (node, g, cache, clip, grads) -> dx; appends (param, grad) pairs
    out_shape: Callable  # (node, act, visit) -> output act; checks the input
    encode: Callable = lambda node, desc, payload: None  # appends fields and arrays
    describe: Callable = lambda node: ""  # the `bcnn export` details
    variant: Callable = lambda node: 0
    weight_layers: int = 0  # main-path convolutions and fully connected layers

    def tag(self, node) -> int:
        return self.tags[self.variant(node)]


NODE_KINDS = {
    ComplexInputGenerator: NodeKind(
        tags=(1,), encode=_encode_generator, decode=_decode_generator,
        forward=lambda n, x, mode: _generator_forward(n, x), backward=_generator_backward,
        out_shape=_generator_shape,
        describe=lambda n: f"{n.w1.shape[0]} channels",
    ),
    ComplexConvLayer: NodeKind(
        tags=(2,), encode=_encode_conv, decode=_decode_conv,
        forward=lambda n, x, mode: (complex_conv2d_fp(x, n), x), backward=_conv_backward,
        out_shape=lambda n, act, visit: _conv_shape(n, act),
        describe=lambda n: _describe_conv(n.geometry, "full precision"),
        weight_layers=1,
    ),
    BinaryConvLayer: NodeKind(
        tags=(3,), encode=_encode_binary_conv, decode=_decode_binary_conv,
        forward=_binary_conv_forward, backward=_binary_conv_backward,
        out_shape=lambda n, act, visit: _conv_shape(n, act, ("binarized",)),
        describe=lambda n: _describe_conv(n.geometry, "binarized"),
        weight_layers=1,
    ),
    CgbnLayer: NodeKind(
        tags=(4,), encode=_encode_bn, decode=_decode_bn, forward=_cgbn_forward,
        backward=lambda n, g, cache, clip, grads: _bwd_cgbn(n, g, cache, grads),
        out_shape=_bn_shape, describe=lambda n: f"{n.channels} complex channels",
    ),
    AvgPool: NodeKind(
        tags=(6,), encode=_encode_pool,
        decode=lambda desc, payload, variant: _decode_pool(AvgPool, desc),
        forward=lambda n, x, mode: (avg_pool(x, n.window, n.stride), x),
        backward=lambda n, g, x, clip, grads: _bwd_pool(g, x, n.window, n.stride, average=True),
        out_shape=_pool_shape, describe=lambda n: f"window {n.window} stride {n.stride}",
    ),
    MaxPool: NodeKind(
        tags=(7,), encode=_encode_pool,
        decode=lambda desc, payload, variant: _decode_pool(MaxPool, desc),
        forward=lambda n, x, mode: (max_pool(x, n.window, n.stride), x),
        backward=lambda n, g, x, clip, grads: _bwd_pool(g, x, n.window, n.stride, average=False),
        out_shape=_pool_shape, describe=lambda n: f"window {n.window} stride {n.stride}",
    ),
    Binarize: NodeKind(
        tags=(11,), decode=lambda desc, payload, variant: Binarize(),
        forward=lambda n, x, mode: (_binarize_forward(x, mode), x),
        backward=lambda n, g, x, clip, grads: hardtanh_backward(g, x),
        out_shape=lambda n, act, visit: Activation(_image(act), "binarized"),
    ),
    Flatten: NodeKind(
        tags=(12,), decode=lambda desc, payload, variant: Flatten(),
        forward=lambda n, x, mode: (x.to_planes().reshape(x.shape[0], -1), x),
        backward=lambda n, g, x, clip, grads: ComplexTensor.from_planes(
            g.reshape(len(g), 2 * x.shape[1], *x.shape[2:])),
        out_shape=lambda n, act, visit: Activation((2 * math.prod(_image(act)),)),
    ),
    DenseLayer: NodeKind(
        tags=(13,), encode=_encode_dense, decode=_decode_dense,
        forward=lambda n, x, mode: (fully_connected(x, n.weight, n.bias), x),
        backward=_dense_backward, out_shape=_dense_shape,
        describe=lambda n: f"{n.weight.shape[1]}->{n.weight.shape[0]}", weight_layers=1,
    ),
    ResidualBlock: NodeKind(
        tags=(14, 15), variant=lambda n: int(bool(n.side)),
        encode=_encode_block, decode=_decode_block,
        forward=_block_forward, backward=_block_backward,
        out_shape=_block_shape,
        describe=lambda n: (f"{n.conv1.geometry.in_channels}->{n.conv2.geometry.out_channels}"
                            f" stride {n.conv1.geometry.stride}"),
        weight_layers=2,
    ),
}

# tag -> (node kind, variant): a kind's i-th tag is its variant i
_KIND_BY_TAG = {tag: (kind, variant) for kind in NODE_KINDS.values()
                for variant, tag in enumerate(kind.tags)}


# ---------------------------------------------------------------------------
# dispatch: every loop goes through the table
# ---------------------------------------------------------------------------

def kind_of(node) -> NodeKind:
    if type(node) not in NODE_KINDS:
        raise ShapeMismatch(f"unknown layer node {type(node).__name__}")
    return NODE_KINDS[type(node)]


def encode_node(node, desc: bytearray, payload: bytearray):
    """Append a node's BCN1 tag and fields to ``desc``, its arrays to ``payload``."""
    kind = kind_of(node)
    desc += struct.pack("<B", kind.tag(node))
    kind.encode(node, desc, payload)


def decode_node(desc, payload):
    """Read one node back from the descriptor and payload cursors."""
    (tag,) = desc.unpack("<B")
    if tag not in _KIND_BY_TAG:
        raise CorruptModelFile(f"unknown layer tag {tag}")
    kind, variant = _KIND_BY_TAG[tag]
    return kind.decode(desc, payload, variant)


def run_nodes(nodes, x, mode: Mode):
    """A node sequence (a model's or a block path's) of a graph its engine
    entry has checked, run in ``mode``; returns (output, caches), the caches
    in node order for a training step and empty in every other mode.

    In packed mode the sequence runs as its plan's steps: ``forward``
    passes the model's kept plan (``_model_plan``), and any other sequence
    is planned here, per call (``_plan``; a plan's own steps run as they
    are).  Each binary conv, with the CGBN right after it and a Binarize
    after that, is one ``_run_step``.  A binarize step emits a
    BitplaneTensor, the only input a binary conv reads; every other node
    sees it unpacked to the same +-1 planes.  ``Mode.TRAIN_STEP`` writes
    the batch norms' running statistics in place, first making writeable
    those a kept plan made read-only, so the model's next packed forward
    plans anew.
    """
    if mode is Mode.PACKED:
        nodes = _plan(nodes)
    caches = []
    for node in nodes:
        if isinstance(x, BitplaneTensor) and type(node) is not _ConvStep:
            x = unpack(x)
        if type(node) is _ConvStep:
            x = _run_step(node, x)
            continue
        if type(node) is _PlannedBlock:
            x = _block_forward(node, x, mode)[0]
            continue
        x, cache = kind_of(node).forward(node, x, mode)
        if mode is Mode.TRAIN_STEP:
            caches.append(cache)
        del cache  # often the node's input: without a backward it must not outlive the node
    return x, caches


def backprop_nodes(nodes, caches, g, clip: float, grads):
    """Backward through a node sequence; returns the input gradient, or None
    when the sequence starts with the ComplexInputGenerator (as every built
    model does): nothing reads a gradient of the input images, so the
    generator computes only its weight gradients."""
    for i in reversed(range(len(nodes))):
        if i == 0 and type(nodes[0]) is ComplexInputGenerator:
            return _generator_backward(nodes[0], g, caches[0], clip, grads, input_grad=False)
        g = kind_of(nodes[i]).backward(nodes[i], g, caches[i], clip, grads)
    return g


def walk_shapes(nodes, act: Activation, visit=lambda node, act: None) -> Activation:
    """Output activation of a node sequence, checking every node's input;
    ``visit(node, act)`` sees each node and its input, block paths included
    (main path first).  A ShapeMismatch names the node it came from."""
    for idx, node in enumerate(nodes):
        visit(node, act)
        try:
            act = kind_of(node).out_shape(node, act, visit)
        except ShapeMismatch as exc:
            raise ShapeMismatch(f"layer {idx} ({type(node).__name__}): {exc}") from None
    return act


def forward(model: ModelGraph, batch: np.ndarray, packed: bool = True) -> np.ndarray:
    """Run inference; returns (n, num_classes) logits.

    ``packed=True`` routes binarized segments through the bit-packed
    XOR/popcount kernel (each binarize step sign-packs its input once, and
    pruned output channels are skipped), ``packed=False`` through the dense
    reference path; the two are integer-exact equals.  In packed mode the
    body is planned once per model, on the calling thread of its first
    packed forward, and the plan is kept with the model for every later one
    (``_model_plan``): each binary conv's live-output mask, sign-packed
    weights and CGBN rule (a real-gamma CGBN with thresholds for every
    channel folds into one integer compare per plane; otherwise the CGBN
    runs on the live channels only).  A binary conv fed by a partly pruned
    conv -> CGBN -> Binarize reads only the live input channels and adds
    the constant ones' dots as an integer bias map.  The arrays the plan
    read are left read-only, so an in-place edit of them raises; to edit a
    forwarded model, make the array writeable first and leave it so until
    the next forward, or load the model again.  A replaced node or array,
    or a training step or SLR write (they make what they write writeable),
    makes the next forward plan anew, of this model and of any model
    sharing the node.
    Batch-norm layers use running statistics, so per-image outputs do not
    depend on batch composition.  The graph and then the batch are checked
    first (``check_batch``; a ShapeMismatch names the layer), so a packed
    binary conv reads only binarize words; ``check_parameters`` runs on each
    dense forward and each packed one that plans.  The nodes before the first
    Dense layer run on chunks of the batch (``_run_chunks``), the rest once.
    """
    x = check_batch(model, batch)
    mode = Mode.PACKED if packed else Mode.DENSE
    head = next((i for i, node in enumerate(model.layers) if type(node) is DenseLayer),
                len(model.layers))
    body = model.layers[:head]
    if packed:  # the chunks only read the plan
        body = _model_plan(model, body)
    else:
        check_parameters(model.layers)
    body = _run_chunks(body, x, mode)
    return run_nodes(model.layers[head:], body, mode)[0]


def _run_chunks(nodes, x: np.ndarray, mode: Mode) -> np.ndarray:
    """``run_nodes(nodes, x, mode)[0]`` of per-image nodes, on chunks of at
    most ``CHUNK_IMAGES`` images spread over the cores (``run_tasks``).  On
    one core, or for at most one chunk's images, the batch runs in one pass
    on the calling thread, and its convolutions do not split it again."""
    if cores() < 2 or len(x) <= CHUNK_IMAGES:
        chunks = [x]
    else:
        chunks = [x[i : i + CHUNK_IMAGES] for i in range(0, len(x), CHUNK_IMAGES)]
    parts = [None] * len(chunks)

    def run(k):
        parts[k] = run_nodes(nodes, chunks[k], mode)[0]

    run_tasks([functools.partial(run, k) for k in range(len(chunks))])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def check_batch(model: ModelGraph, batch, labels=None) -> np.ndarray:
    """The check every engine entry makes before it runs or changes anything:
    the graph (``validate_graph``), then the batch, returned as a float
    (n, c, h, w) array; a single (c, h, w) image gets a batch axis.  A batch
    whose image shape is not the model's, or labels that are not one integer
    in [0, num_classes) per image, raise ``ShapeMismatch``; a NaN or infinite
    pixel raises ``NonFiniteInput``.  The first check in a process also has
    the C library keep the heap the engine frees (``keep_freed_heap``)."""
    keep_freed_heap()
    validate_graph(model)
    x = np.asarray(batch, dtype=float)
    if x.ndim == 3:
        x = x[None]
    if x.shape[1:] != tuple(model.input_shape):
        raise ShapeMismatch(
            f"input shape {x.shape[1:]} does not match model input {model.input_shape}"
        )
    if not np.isfinite(x).all():
        raise NonFiniteInput("the batch has non-finite pixels")
    if labels is not None:
        y = np.asarray(labels)
        if y.shape != (len(x),) or not np.issubdtype(y.dtype, np.integer):
            raise ShapeMismatch(f"labels of shape {y.shape} for {len(x)} images: "
                                "expected one integer label per image")
        if y.size and not 0 <= y.min() <= y.max() < model.num_classes:
            raise ShapeMismatch(f"labels span [{y.min()}, {y.max()}], "
                                f"outside [0, {model.num_classes})")
    return x


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def _init_complex_conv(rng, in_c, out_c, kernel, stride=(1, 1), padding=(0, 0), bias=True):
    kh, kw = kernel
    std = 1.0 / np.sqrt(2.0 * in_c * kh * kw)
    g = ConvGeometry(in_c, out_c, kernel, stride, padding)
    layer = ComplexConvLayer(
        w_re=(rng.standard_normal((out_c, in_c, kh, kw)) * std).astype(np.float32),
        w_im=(rng.standard_normal((out_c, in_c, kh, kw)) * std).astype(np.float32),
        geometry=g,
    )
    if bias:
        layer.bias_re = np.zeros(out_c, dtype=np.float32)
        layer.bias_im = np.zeros(out_c, dtype=np.float32)
    return layer


def _init_binary_conv(rng, in_c, out_c, kernel, stride=(1, 1), padding=(0, 0)):
    conv = _init_complex_conv(rng, in_c, out_c, kernel, stride, padding, bias=False)
    return BinaryConvLayer(conv.w_re, conv.w_im, conv.geometry)


def _init_dense(rng, in_dim, out_dim):
    std = 1.0 / np.sqrt(in_dim)
    return DenseLayer(
        weight=(rng.standard_normal((out_dim, in_dim)) * std).astype(np.float32),
        bias=np.zeros(out_dim, dtype=np.float32),
    )


def build_complex_input_generator(channels: int = 3, seed: int = 0) -> ComplexInputGenerator:
    """Generator fragment turning a real image into a complex tensor."""
    rng = np.random.default_rng(seed)
    std = 1.0 / np.sqrt(channels * 9)
    return ComplexInputGenerator(
        w1=(rng.standard_normal((channels, channels, 3, 3)) * std).astype(np.float32),
        b1=np.zeros(channels, dtype=np.float32),
        w2=(rng.standard_normal((channels, channels, 3, 3)) * std).astype(np.float32),
        b2=np.zeros(channels, dtype=np.float32),
    )


def build_nin_bcnn(num_classes: int = 10, seed: int = 0) -> ModelGraph:
    """NIN-style binarized complex network for 3x32x32 inputs.

    First block full precision, remaining blocks binarized; average pooling
    on the hardware path; fully connected head.
    """
    rng = np.random.default_rng(seed)
    c1, c2, c3, c4, c5, c6, c7, c8 = NIN_WIDTHS
    layers = [
        build_complex_input_generator(3, seed=rng.integers(2**32)),
        _init_complex_conv(rng, 3, c1, (5, 5), padding=(2, 2)),
        CgbnLayer.identity(c1),
        Binarize(),
        _init_binary_conv(rng, c1, c2, (1, 1)),
        CgbnLayer.identity(c2),
        Binarize(),
        _init_binary_conv(rng, c2, c3, (1, 1)),
        AvgPool((2, 2)),  # 32 -> 16
        CgbnLayer.identity(c3),
        Binarize(),
        _init_binary_conv(rng, c3, c4, (5, 5), padding=(2, 2)),
        CgbnLayer.identity(c4),
        Binarize(),
        _init_binary_conv(rng, c4, c5, (1, 1)),
        CgbnLayer.identity(c5),
        Binarize(),
        _init_binary_conv(rng, c5, c6, (1, 1)),
        AvgPool((2, 2)),  # 16 -> 8
        CgbnLayer.identity(c6),
        Binarize(),
        _init_binary_conv(rng, c6, c7, (3, 3), padding=(1, 1)),
        CgbnLayer.identity(c7),
        Binarize(),
        _init_binary_conv(rng, c7, c8, (1, 1)),
        AvgPool((2, 2)),  # 8 -> 4
        CgbnLayer.identity(c8),
        Flatten(),
        _init_dense(rng, 2 * c8 * 4 * 4, num_classes),
    ]
    model = ModelGraph("nin-bcnn", (3, 32, 32), num_classes, layers)
    validate_graph(model)
    return model


def _block1(rng, channels):
    return ResidualBlock(
        conv1=_init_binary_conv(rng, channels, channels, (3, 3), padding=(1, 1)),
        bn1=CgbnLayer.identity(channels),
        conv2=_init_binary_conv(rng, channels, channels, (3, 3), padding=(1, 1)),
        bn2=CgbnLayer.identity(channels),
    )


def _block2(rng, in_c, out_c):
    return ResidualBlock(
        conv1=_init_binary_conv(rng, in_c, out_c, (3, 3), stride=(2, 2), padding=(1, 1)),
        bn1=CgbnLayer.identity(out_c),
        conv2=_init_binary_conv(rng, out_c, out_c, (3, 3), padding=(1, 1)),
        bn2=CgbnLayer.identity(out_c),
        side_conv=_init_binary_conv(rng, in_c, out_c, (1, 1), stride=(2, 2)),
        side_bn=CgbnLayer.identity(out_c),
    )


def build_resnet18_bcnn(num_classes: int = 10, seed: int = 0) -> ModelGraph:
    """ResNet-18 style binarized complex network for 3x32x32 inputs.

    Four stages of two residual blocks; stages 2-4 open with a
    two-path downsampling block, all other blocks use identity skips.
    """
    rng = np.random.default_rng(seed)
    s1, s2, s3, s4 = RESNET18_STAGES
    layers = [
        build_complex_input_generator(3, seed=rng.integers(2**32)),
        _init_complex_conv(rng, 3, RESNET18_STEM, (3, 3), padding=(1, 1)),
        CgbnLayer.identity(RESNET18_STEM),
        _block1(rng, s1),
        _block1(rng, s1),
        _block2(rng, s1, s2),  # 32 -> 16
        _block1(rng, s2),
        _block2(rng, s2, s3),  # 16 -> 8
        _block1(rng, s3),
        _block2(rng, s3, s4),  # 8 -> 4
        _block1(rng, s4),
        AvgPool((4, 4)),  # global
        Flatten(),
        _init_dense(rng, 2 * s4, num_classes),
    ]
    model = ModelGraph("resnet18-bcnn", (3, 32, 32), num_classes, layers)
    validate_graph(model)
    return model


def build_toy_bcnn(
    input_shape: tuple[int, int, int] = (3, 8, 8),
    num_classes: int = 2,
    channels: tuple[int, int] = (4, 4),
    pool: str = "avg",
    seed: int = 0,
) -> ModelGraph:
    """Small BCNN for desk-scale training, pruning and pooling experiments."""
    rng = np.random.default_rng(seed)
    c_in, h, w = input_shape
    c1, c2 = channels
    pool_layer = {"avg": AvgPool((2, 2)), "max": MaxPool((2, 2))}[pool]
    layers = [
        build_complex_input_generator(c_in, seed=rng.integers(2**32)),
        _init_complex_conv(rng, c_in, c1, (3, 3), padding=(1, 1)),
        CgbnLayer.identity(c1),
        Binarize(),
        _init_binary_conv(rng, c1, c2, (3, 3), padding=(1, 1)),
        pool_layer,
        CgbnLayer.identity(c2),
        Flatten(),
        _init_dense(rng, 2 * c2 * (h // 2) * (w // 2), num_classes),
    ]
    model = ModelGraph(f"toy-bcnn-{pool}", input_shape, num_classes, layers)
    validate_graph(model)
    return model


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def graph_nodes(model: ModelGraph) -> list:
    """Every node of the graph with its input ``Activation``, block paths
    included (main path first).  Raises ShapeMismatch on a misshaped graph."""
    seen = []
    walk_shapes(model.layers, Activation(tuple(model.input_shape)),
                lambda node, act: seen.append((node, act)))
    return seen


def iter_binary_convs(model: ModelGraph):
    """Yield every binarized convolution, including those inside blocks."""
    yield from (node for node, _ in graph_nodes(model) if isinstance(node, BinaryConvLayer))


def count_weight_layers(model: ModelGraph) -> int:
    """Weight-layer count by the usual convention: convolutions on the main
    path plus fully connected layers; projection shortcuts are not counted."""
    return sum(kind_of(layer).weight_layers for layer in model.layers)


def validate_graph(model: ModelGraph):
    """Check that a graph is one BCNN pipeline, by a shape walk.

    The pipeline is a real prefix of pools, then the generator (the only
    node making the real image complex), then the complex and binarized
    body, then Flatten and the Dense head.  Every
    node's input, from ``input_shape`` to ``num_classes`` logits, must have
    the channels, size and domain it expects, and every parameter array the
    shape its node's geometry or channel count gives: a binarized
    convolution needs a binarize step right before it (blocks binarize
    internally), and a block's paths must agree.  The last compute layer
    is full precision.  Every graph this accepts infers, trains and
    round-trips BCN1.
    """
    if min(model.input_shape) < 1:
        raise ShapeMismatch(f"input shape {tuple(model.input_shape)} has an empty dimension")
    out = walk_shapes(model.layers, Activation(tuple(model.input_shape)))
    weighted = [layer for layer in model.layers if kind_of(layer).weight_layers]
    if not weighted:
        raise ShapeMismatch("model has no compute layer")
    if isinstance(weighted[-1], (BinaryConvLayer, ResidualBlock)):
        raise ShapeMismatch("the last compute layer must be full precision")
    if out.dims != (model.num_classes,):
        raise ShapeMismatch(f"graph outputs {out.dims}, not {model.num_classes} logits")
