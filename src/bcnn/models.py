"""Model graphs: complex-input generator, binarized NIN, binarized ResNet-18.

A model is an ordered list of layer nodes executed front to back.  The
hardware-path convention is: convolution, then pooling (where scheduled),
then batch normalization, then binarization.  The first and last compute
layers stay full precision; every binarized convolution consumes {+1,-1}
activations produced by a preceding binarize step (explicit in plain
sequences, internal to residual blocks).

The per-stage channel widths are the real-valued NIN / ResNet-18 baselines
with every width halved, so the complex model matches the baseline's
parameter count.  They are collected in module-level constants so the
schedule is auditable in one place.

Models are immutable after construction; inference is pure and may run on
many images concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binary_ops import ConvGeometry, binary_complex_conv2d, quadrant_binarize
from .errors import NonBinaryEntry, ShapeMismatch
from .layers import (
    CgbnLayer,
    ComplexConvLayer,
    RealBnLayer,
    avg_pool,
    cgbn_forward,
    complex_conv2d_fp,
    conv2d_real,
    fully_connected,
    hardtanh as _hardtanh,
    max_pool,
    real_bn_forward,
    relu as _relu,
    spectral_pool,
)
from .tensors import ComplexTensor, pack, pack_signs

# Halved widths of the public real-valued NIN baseline
# (192/160/96 | 192/192/192 | 192/192).
NIN_WIDTHS = (96, 80, 48, 96, 96, 96, 96, 96)

# Halved ResNet-18 stage widths (64/128/256/512) and the block schedule:
# two blocks per stage, stages 2-4 open with a stride-2 downsampling block.
RESNET18_STEM = 32
RESNET18_STAGES = (32, 64, 128, 256)


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
    channel: it is skipped at binarization time, its output stays zero, and
    it receives no gradient, so hard-pruned channels survive both further
    training and the packed file format.
    """

    w_re: np.ndarray
    w_im: np.ndarray
    geometry: ConvGeometry


@dataclass
class AvgPool:
    window: tuple[int, int]
    stride: tuple[int, int] | None = None


@dataclass
class MaxPool:
    window: tuple[int, int]
    stride: tuple[int, int] | None = None


@dataclass
class SpectralPool:
    out_hw: tuple[int, int]


@dataclass
class Relu:
    pass


@dataclass
class Hardtanh:
    pass


@dataclass
class Binarize:
    """Quadrant binarization of the activations."""


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


# ---------------------------------------------------------------------------
# forward execution
# ---------------------------------------------------------------------------

def _assert_binary(x: ComplexTensor):
    if not (np.all(np.abs(x.re) == 1) and np.all(np.abs(x.im) == 1)):
        raise NonBinaryEntry("binarized convolution received non {+1,-1} activations")


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


def _binary_conv_forward(
    layer: BinaryConvLayer, x: ComplexTensor, packed: bool, debug: bool
) -> ComplexTensor:
    if debug:
        _assert_binary(x)
    w = ComplexTensor(layer.w_re, layer.w_im)
    if packed:
        # pack_signs(w) is pack(quadrant_binarize(w)) without the float +-1 planes;
        # weights are packed per call because training and pruning edit them in place
        y = binary_complex_conv2d(pack(x), pack_signs(w), layer.geometry)
    else:
        wb = quadrant_binarize(w)
        ref = ComplexConvLayer(wb.re, wb.im, layer.geometry, pad_value=-1.0)
        y = complex_conv2d_fp(x, ref)
    return mask_pruned_channels(y, active_output_channels(layer))


def _generator_forward(gen: ComplexInputGenerator, x: np.ndarray) -> ComplexTensor:
    h1 = _relu(conv2d_real(x, gen.w1, padding=(1, 1)) + gen.b1.reshape(1, -1, 1, 1))
    im = conv2d_real(h1 + x, gen.w2, padding=(1, 1)) + gen.b2.reshape(1, -1, 1, 1)
    return ComplexTensor(x.astype(float), im)


def _layer_forward(layer, x, packed: bool, debug: bool):
    if isinstance(layer, ComplexInputGenerator):
        return _generator_forward(layer, x)
    if isinstance(layer, ComplexConvLayer):
        return complex_conv2d_fp(x, layer)
    if isinstance(layer, BinaryConvLayer):
        return _binary_conv_forward(layer, x, packed, debug)
    if isinstance(layer, CgbnLayer):
        return cgbn_forward(x, layer, training=False)
    if isinstance(layer, RealBnLayer):
        return real_bn_forward(x, layer, training=False)
    if isinstance(layer, AvgPool):
        return avg_pool(x, layer.window, layer.stride)
    if isinstance(layer, MaxPool):
        return max_pool(x, layer.window, layer.stride)
    if isinstance(layer, SpectralPool):
        return spectral_pool(x, layer.out_hw)
    if isinstance(layer, Relu):
        return _relu(x)
    if isinstance(layer, Hardtanh):
        return _hardtanh(x)
    if isinstance(layer, Binarize):
        return quadrant_binarize(x)
    if isinstance(layer, Flatten):
        planes = x.to_planes() if isinstance(x, ComplexTensor) else x
        return planes.reshape(planes.shape[0], -1)
    if isinstance(layer, DenseLayer):
        return fully_connected(x, layer.weight, layer.bias)
    if isinstance(layer, ResidualBlock):
        b = quadrant_binarize(x)
        y = _forward_nodes(layer.main, b, packed, debug)
        skip = _forward_nodes(layer.side, b, packed, debug) if layer.side else x
        return ComplexTensor(y.re + skip.re, y.im + skip.im)
    raise TypeError(f"unknown layer node {type(layer).__name__}")


def _forward_nodes(nodes, x, packed: bool, debug: bool):
    for node in nodes:
        x = _layer_forward(node, x, packed, debug)
    return x


def forward(
    model: ModelGraph, batch: np.ndarray, packed: bool = True, debug: bool = False
) -> np.ndarray:
    """Run inference; returns (n, num_classes) logits.

    ``packed=True`` routes binarized segments through the bit-packed
    XOR/popcount kernel, ``packed=False`` through the dense reference path;
    the two are integer-exact equals.  Batch-norm layers use running
    statistics, so per-image outputs do not depend on batch composition.
    """
    x = np.asarray(batch, dtype=float)
    if x.ndim == 3:
        x = x[None]
    if x.shape[1:] != tuple(model.input_shape):
        raise ShapeMismatch(
            f"input shape {x.shape[1:]} does not match model input {model.input_shape}"
        )
    return _forward_nodes(model.layers, x, packed, debug)


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
    kh, kw = kernel
    std = 1.0 / np.sqrt(2.0 * in_c * kh * kw)
    return BinaryConvLayer(
        w_re=(rng.standard_normal((out_c, in_c, kh, kw)) * std).astype(np.float32),
        w_im=(rng.standard_normal((out_c, in_c, kh, kw)) * std).astype(np.float32),
        geometry=ConvGeometry(in_c, out_c, kernel, stride, padding),
    )


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

def iter_binary_convs(model: ModelGraph):
    """Yield every binarized convolution, including those inside blocks."""
    for layer in model.layers:
        nodes = layer.main + layer.side if isinstance(layer, ResidualBlock) else (layer,)
        yield from (node for node in nodes if isinstance(node, BinaryConvLayer))


def count_weight_layers(model: ModelGraph) -> int:
    """Weight-layer count by the usual convention: convolutions on the main
    path plus fully connected layers; projection shortcuts are not counted."""
    count = 0
    for layer in model.layers:
        if isinstance(layer, (ComplexConvLayer, DenseLayer, BinaryConvLayer)):
            count += 1
        elif isinstance(layer, ResidualBlock):
            count += 2
    return count


def validate_graph(model: ModelGraph):
    """Check the structural invariants of a BCNN graph.

    Every top-level binarized convolution must directly follow a Binarize
    node (blocks binarize internally); the first and last compute layers
    must be full precision.
    """
    layers = model.layers
    if not layers:
        raise ShapeMismatch("model has no layers")
    for idx, layer in enumerate(layers):
        if isinstance(layer, BinaryConvLayer):
            if idx == 0 or not isinstance(layers[idx - 1], Binarize):
                raise ShapeMismatch(
                    f"binarized convolution at position {idx} is not preceded "
                    "by a binarize step"
                )
    first = next(
        (l for l in layers
         if isinstance(l, (ComplexInputGenerator, ComplexConvLayer, BinaryConvLayer, DenseLayer))),
        None,
    )
    if first is None:
        raise ShapeMismatch("model has no compute layer")
    last = next(
        l for l in reversed(layers)
        if isinstance(l, (ComplexInputGenerator, ComplexConvLayer, BinaryConvLayer,
                          DenseLayer, ResidualBlock))
    )
    if isinstance(first, BinaryConvLayer) or isinstance(last, BinaryConvLayer):
        raise ShapeMismatch("first and last compute layers must be full precision")
