"""Binary model file format.

Layout (all integers little-endian):

    magic   4 bytes  "BCN1"
    version u32      currently 1
    name    u16 length + utf-8 bytes
    input   u32 x3   (channels, height, width)
    classes u32
    desc    u32 byte length + layer entries (kinds + shapes, recursive
            for residual blocks)
    payload per-layer parameter bytes, in descriptor order

Full-precision planes are stored as little-endian 32-bit reals.  Binarized
convolutions store their quadrant-binarized weights as packed 64-bit words
(32x smaller than a full-precision plane) plus one byte per output channel
marking hard-pruned channels, so structured pruning survives the sign-only
packing.  Scalar hyperparameters (eps, momentum, pad value) are 64-bit
reals.

Payload lengths are derivable from the descriptor; a well-formed file has
no trailing bytes.  Loading never returns a partial model: a residual
block must hold binarized convolutions and CGBN layers in the encoded
order, and the loaded graph must pass ``validate_graph``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .binary_ops import ConvGeometry
from .errors import (BadMagic, CorruptModelFile, ShapeMismatch, TruncatedFile,
                     UnsupportedVersion)
from .layers import CgbnLayer, ComplexConvLayer, RealBnLayer
from .models import (
    AvgPool,
    Binarize,
    BinaryConvLayer,
    ComplexInputGenerator,
    DenseLayer,
    Flatten,
    Hardtanh,
    MaxPool,
    ModelGraph,
    Relu,
    ResidualBlock,
    SpectralPool,
    active_output_channels,
    validate_graph,
)
from .tensors import ComplexTensor, pack_signs, words_per_pixel, _unpack_plane

MAGIC = b"BCN1"
VERSION = 1

_TAG_GENERATOR = 1
_TAG_COMPLEX_CONV = 2
_TAG_BINARY_CONV = 3
_TAG_CGBN = 4
_TAG_REAL_BN = 5
_TAG_AVG_POOL = 6
_TAG_MAX_POOL = 7
_TAG_SPECTRAL_POOL = 8
_TAG_RELU = 9
_TAG_HARDTANH = 10
_TAG_BINARIZE = 11
_TAG_FLATTEN = 12
_TAG_DENSE = 13
_TAG_BLOCK1 = 14
_TAG_BLOCK2 = 15

# block tag -> sub-layer types in encoding order: the main path's convs and
# CGBNs, then the side path's (tag 15 only)
_BLOCK_PARTS = {
    _TAG_BLOCK1: (BinaryConvLayer, CgbnLayer) * 2,
    _TAG_BLOCK2: (BinaryConvLayer, CgbnLayer) * 3,
}


class _Cursor:
    def __init__(self, buf: bytes, what: str):
        self.buf = buf
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedFile(f"{self.what} ended {self.pos + n - len(self.buf)} bytes early")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def exhausted(self) -> bool:
        return self.pos == len(self.buf)


def _f32_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _read_f32(cur: _Cursor, shape) -> np.ndarray:
    n = math.prod(shape)  # exact: np.prod wraps on corrupt huge shapes
    raw = cur.take(4 * n)
    return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)


def _words_bytes(words: np.ndarray) -> bytes:
    return np.ascontiguousarray(words, dtype="<u8").tobytes()


def _read_words(cur: _Cursor, shape) -> np.ndarray:
    n = math.prod(shape)
    raw = cur.take(8 * n)
    return np.frombuffer(raw, dtype="<u8").reshape(shape).astype(np.uint64)


def _geometry_fields(g: ConvGeometry):
    return (
        g.out_channels, g.in_channels, g.kernel[0], g.kernel[1],
        g.stride[0], g.stride[1], g.padding[0], g.padding[1],
    )


def _geometry_from_fields(fields) -> ConvGeometry:
    oc, ic, kh, kw, sh, sw, ph, pw = fields
    return ConvGeometry(ic, oc, (kh, kw), (sh, sw), (ph, pw))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _encode_layer(layer, desc: bytearray, payload: bytearray):
    if isinstance(layer, ComplexInputGenerator):
        desc += struct.pack("<BI", _TAG_GENERATOR, layer.w1.shape[0])
        for arr in (layer.w1, layer.b1, layer.w2, layer.b2):
            payload += _f32_bytes(arr)
    elif isinstance(layer, ComplexConvLayer):
        has_bias = layer.bias_re is not None
        desc += struct.pack(
            "<B8IBd", _TAG_COMPLEX_CONV, *_geometry_fields(layer.geometry),
            int(has_bias), float(layer.pad_value),
        )
        payload += _f32_bytes(layer.w_re) + _f32_bytes(layer.w_im)
        if has_bias:
            payload += _f32_bytes(layer.bias_re) + _f32_bytes(layer.bias_im)
    elif isinstance(layer, BinaryConvLayer):
        desc += struct.pack("<B8I", _TAG_BINARY_CONV, *_geometry_fields(layer.geometry))
        wb = pack_signs(ComplexTensor(layer.w_re, layer.w_im))
        # one byte per output channel: 0 marks a hard-pruned (all-zero) channel
        payload += active_output_channels(layer).astype(np.uint8).tobytes()
        payload += _words_bytes(wb.re_words) + _words_bytes(wb.im_words)
    elif isinstance(layer, CgbnLayer):
        desc += struct.pack("<BIdd", _TAG_CGBN, layer.channels,
                            float(layer.eps), float(layer.momentum))
        for arr in (layer.gamma_re, layer.gamma_im, layer.beta_re, layer.beta_im,
                    layer.running_mean_re, layer.running_mean_im,
                    layer.running_var_re, layer.running_var_im):
            payload += _f32_bytes(arr)
    elif isinstance(layer, RealBnLayer):
        desc += struct.pack("<BIdd", _TAG_REAL_BN, layer.gamma.shape[0],
                            float(layer.eps), float(layer.momentum))
        for arr in (layer.gamma, layer.beta, layer.running_mean, layer.running_var):
            payload += _f32_bytes(arr)
    elif isinstance(layer, (AvgPool, MaxPool)):
        tag = _TAG_AVG_POOL if isinstance(layer, AvgPool) else _TAG_MAX_POOL
        stride = layer.stride or layer.window
        desc += struct.pack("<B4I", tag, *layer.window, *stride)
    elif isinstance(layer, SpectralPool):
        desc += struct.pack("<B2I", _TAG_SPECTRAL_POOL, *layer.out_hw)
    elif isinstance(layer, Relu):
        desc += struct.pack("<B", _TAG_RELU)
    elif isinstance(layer, Hardtanh):
        desc += struct.pack("<B", _TAG_HARDTANH)
    elif isinstance(layer, Binarize):
        desc += struct.pack("<B", _TAG_BINARIZE)
    elif isinstance(layer, Flatten):
        desc += struct.pack("<B", _TAG_FLATTEN)
    elif isinstance(layer, DenseLayer):
        desc += struct.pack("<B2I", _TAG_DENSE, *layer.weight.shape)
        payload += _f32_bytes(layer.weight) + _f32_bytes(layer.bias)
    elif isinstance(layer, ResidualBlock):
        desc += struct.pack("<B", _TAG_BLOCK2 if layer.side else _TAG_BLOCK1)
        for sub in layer.main + layer.side:
            if not isinstance(sub, Binarize):  # the block binarizes implicitly
                _encode_layer(sub, desc, payload)
    else:
        raise TypeError(f"cannot serialize layer {type(layer).__name__}")


def _decode_layer(desc: _Cursor, payload: _Cursor):
    (tag,) = desc.unpack("<B")
    if tag == _TAG_GENERATOR:
        (c,) = desc.unpack("<I")
        w1 = _read_f32(payload, (c, c, 3, 3))
        b1 = _read_f32(payload, (c,))
        w2 = _read_f32(payload, (c, c, 3, 3))
        b2 = _read_f32(payload, (c,))
        return ComplexInputGenerator(w1, b1, w2, b2)
    if tag == _TAG_COMPLEX_CONV:
        fields = desc.unpack("<8I")
        has_bias, pad_value = desc.unpack("<Bd")
        g = _geometry_from_fields(fields)
        shape = (g.out_channels, g.in_channels, *g.kernel)
        layer = ComplexConvLayer(
            _read_f32(payload, shape), _read_f32(payload, shape), g,
            pad_value=pad_value,
        )
        if has_bias:
            layer.bias_re = _read_f32(payload, (g.out_channels,))
            layer.bias_im = _read_f32(payload, (g.out_channels,))
        return layer
    if tag == _TAG_BINARY_CONV:
        g = _geometry_from_fields(desc.unpack("<8I"))
        mask = np.frombuffer(payload.take(g.out_channels), dtype=np.uint8)
        wshape = (g.out_channels, *g.kernel, words_per_pixel(g.in_channels))
        re_words = _read_words(payload, wshape)
        im_words = _read_words(payload, wshape)
        # packed layout is (oc, kh, kw, words); planes come back (oc, ic, kh, kw)
        scale = mask.astype(np.float32).reshape(-1, 1, 1, 1)
        w_re = _unpack_plane(re_words, g.in_channels).astype(np.float32) * scale
        w_im = _unpack_plane(im_words, g.in_channels).astype(np.float32) * scale
        return BinaryConvLayer(w_re, w_im, g)
    if tag == _TAG_CGBN:
        c, eps, momentum = desc.unpack("<Idd")
        arrs = [_read_f32(payload, (c,)) for _ in range(8)]
        return CgbnLayer(*arrs, eps=eps, momentum=momentum)
    if tag == _TAG_REAL_BN:
        c, eps, momentum = desc.unpack("<Idd")
        arrs = [_read_f32(payload, (c,)) for _ in range(4)]
        return RealBnLayer(*arrs, eps=eps, momentum=momentum)
    if tag in (_TAG_AVG_POOL, _TAG_MAX_POOL):
        kh, kw, sh, sw = desc.unpack("<4I")
        cls = AvgPool if tag == _TAG_AVG_POOL else MaxPool
        return cls((kh, kw), (sh, sw))
    if tag == _TAG_SPECTRAL_POOL:
        h, w = desc.unpack("<2I")
        return SpectralPool((h, w))
    if tag == _TAG_RELU:
        return Relu()
    if tag == _TAG_HARDTANH:
        return Hardtanh()
    if tag == _TAG_BINARIZE:
        return Binarize()
    if tag == _TAG_FLATTEN:
        return Flatten()
    if tag == _TAG_DENSE:
        out_dim, in_dim = desc.unpack("<2I")
        return DenseLayer(_read_f32(payload, (out_dim, in_dim)),
                          _read_f32(payload, (out_dim,)))
    if tag in _BLOCK_PARTS:
        kinds = _BLOCK_PARTS[tag]
        subs = [_decode_layer(desc, payload) for _ in kinds]
        for sub, kind in zip(subs, kinds):
            if not isinstance(sub, kind):
                raise CorruptModelFile(
                    f"residual block holds a {type(sub).__name__} "
                    f"where a {kind.__name__} belongs"
                )
        return ResidualBlock(*subs)
    raise CorruptModelFile(f"unknown layer tag {tag}")


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def model_to_bytes(model: ModelGraph) -> bytes:
    desc = bytearray()
    payload = bytearray()
    for layer in model.layers:
        _encode_layer(layer, desc, payload)
    name = model.name.encode("utf-8")
    head = MAGIC + struct.pack("<I", VERSION)
    head += struct.pack("<H", len(name)) + name
    head += struct.pack("<3I", *model.input_shape)
    head += struct.pack("<I", model.num_classes)
    head += struct.pack("<I", len(desc))
    return head + bytes(desc) + bytes(payload)


def model_from_bytes(data: bytes) -> ModelGraph:
    cur = _Cursor(data, "model file")
    if cur.take(4) != MAGIC:
        raise BadMagic("not a model file (bad magic)")
    (version,) = cur.unpack("<I")
    if version != VERSION:
        raise UnsupportedVersion(f"file version {version}, reader supports {VERSION}")
    (name_len,) = cur.unpack("<H")
    try:
        name = cur.take(name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptModelFile(f"model name is not valid UTF-8: {exc}") from None
    input_shape = cur.unpack("<3I")
    (num_classes,) = cur.unpack("<I")
    (desc_len,) = cur.unpack("<I")
    desc = _Cursor(cur.take(desc_len), "topology descriptor")
    payload = _Cursor(data[cur.pos :], "payload")
    layers = []
    while not desc.exhausted():
        layers.append(_decode_layer(desc, payload))
    if not payload.exhausted():
        raise CorruptModelFile(
            f"{len(payload.buf) - payload.pos} trailing bytes after payloads"
        )
    model = ModelGraph(name, tuple(input_shape), num_classes, layers)
    try:
        validate_graph(model)
    except ShapeMismatch as exc:
        raise CorruptModelFile(f"invalid model graph: {exc}") from exc
    return model


def save_model(model: ModelGraph, path: str):
    """Write a model; saving the same model twice is byte-identical."""
    data = model_to_bytes(model)
    with open(path, "wb") as fh:
        fh.write(data)


def load_model(path: str) -> ModelGraph:
    """Read a model; raises BadMagic/UnsupportedVersion/TruncatedFile/CorruptModelFile."""
    with open(path, "rb") as fh:
        data = fh.read()
    return model_from_bytes(data)
