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

Each node's entries are written and read by its ``bcnn.models.NODE_KINDS``
entry; this module holds the framing.  Payload lengths are derivable from
the descriptor; a well-formed file has no trailing bytes.  Loading never
returns a partial model: a residual block must hold binarized convolutions
and CGBN layers in the encoded order, and the loaded graph must pass
``validate_graph``, as a graph must before it is saved.  Every stored float
must be finite (``check_parameters``, which ``forward`` runs too) and every
batch-norm ``eps`` positive, on save and on load.
"""

from __future__ import annotations

import struct

from .errors import (BadMagic, CorruptModelFile, ShapeMismatch, TruncatedFile,
                     UnsupportedVersion)
from .models import (ModelGraph, _fields_of, check_parameters, decode_node, encode_node,
                     validate_graph)

MAGIC = b"BCN1"
VERSION = 1


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


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def model_to_bytes(model: ModelGraph) -> bytes:
    """Encode a model.  A graph ``validate_graph`` rejects raises
    ShapeMismatch, and a non-finite parameter or a batch-norm eps <= 0
    CorruptModelFile, rather than being written as a file no loader accepts."""
    validate_graph(model)
    _check_parameters(model)
    return _encode_graph(model)


def _check_parameters(model: ModelGraph):
    """Every float of a node must be finite as stored (``check_parameters``)
    and a batch norm's ``eps`` must be > 0; this is not part of
    ``validate_graph`` because it reads every parameter."""
    check_parameters(model.layers)
    for node, name, value in _fields_of(model.layers):
        if name == "eps" and not value > 0:
            raise CorruptModelFile(f"{type(node).__name__} eps must be > 0, got {value}")


def _encode_graph(model: ModelGraph) -> bytes:
    """The BCN1 framing of any graph, valid or not."""
    desc = bytearray()
    payload = bytearray()
    for layer in model.layers:
        encode_node(layer, desc, payload)
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
        layers.append(decode_node(desc, payload))
    if not payload.exhausted():
        raise CorruptModelFile(
            f"{len(payload.buf) - payload.pos} trailing bytes after payloads"
        )
    model = ModelGraph(name, tuple(input_shape), num_classes, layers)
    try:
        validate_graph(model)
    except ShapeMismatch as exc:
        raise CorruptModelFile(f"invalid model graph: {exc}") from exc
    _check_parameters(model)
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
