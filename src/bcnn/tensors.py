"""Dense complex tensors and the packed bitplane representation.

Conventions used across the package:

* Real tensors are plain ``numpy`` ndarrays in NCHW order.
* A complex tensor stores two aligned real planes.  When flattened to a
  single real tensor, channels ``[0, c)`` hold the real parts and channels
  ``[c, 2c)`` the imaginary parts.
* Bitplane packing is channel-major and LSB-first: at pixel ``(n, y, x)``,
  bit ``j`` of word ``k`` holds channel ``64*k + j``.  Bit value 1 encodes
  +1 and bit value 0 encodes -1.  Pad bits beyond the channel count are
  always zero so word buffers of equal tensors compare byte-for-byte.

All tensor values are treated as immutable once constructed; instances can
be shared freely across concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonBinaryEntry, ShapeMismatch

WORD_BITS = 64

_BIT_SHIFTS = np.arange(WORD_BITS, dtype=np.uint64)
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def words_per_pixel(channels: int) -> int:
    """Number of 64-bit words needed to hold one pixel's channels."""
    return -(-channels // WORD_BITS)


def channel_mask(channels: int) -> np.ndarray:
    """Per-word masks selecting the valid channel bits (pad bits are 0)."""
    masks = np.full(words_per_pixel(channels), _ALL_ONES, dtype=np.uint64)
    rem = channels % WORD_BITS
    if rem:
        masks[-1] = (np.uint64(1) << np.uint64(rem)) - np.uint64(1)
    return masks


@dataclass(frozen=True, eq=False)
class ComplexTensor:
    """Complex NCHW tensor stored as two real planes of identical shape."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.re)
        im = np.asarray(self.im)
        if re.ndim != 4 or im.ndim != 4:
            raise ShapeMismatch(
                f"complex tensor planes must be 4-D NCHW, got {re.shape} / {im.shape}"
            )
        if re.shape != im.shape:
            raise ShapeMismatch(
                f"real/imaginary plane shapes differ: {re.shape} vs {im.shape}"
            )
        if min(re.shape) < 1:
            raise ShapeMismatch(f"all dimensions must be >= 1, got {re.shape}")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.re.shape

    def to_planes(self) -> np.ndarray:
        """Flatten to one real tensor: channels [0, c) real, [c, 2c) imaginary."""
        return np.concatenate([self.re, self.im], axis=1)

    @classmethod
    def from_planes(cls, planes: np.ndarray) -> "ComplexTensor":
        """Inverse of :meth:`to_planes`; splits a 2c-channel real tensor at c."""
        planes = np.asarray(planes)
        if planes.ndim != 4 or planes.shape[1] % 2 != 0:
            raise ShapeMismatch(
                f"expected NCHW tensor with an even channel count, got {planes.shape}"
            )
        c = planes.shape[1] // 2
        return cls(planes[:, :c], planes[:, c:])


@dataclass(frozen=True, eq=False)
class BitplaneTensor:
    """Packed {+1,-1} complex tensor: one word buffer per plane.

    ``re_words`` / ``im_words`` have shape ``(n, h, w, words_per_pixel(c))``
    so a scan over a pixel's input channels is a contiguous word walk.
    """

    shape: tuple[int, int, int, int]
    re_words: np.ndarray
    im_words: np.ndarray

    def __post_init__(self):
        n, c, h, w = self.shape
        expected = (n, h, w, words_per_pixel(c))
        for name, buf in (("re_words", self.re_words), ("im_words", self.im_words)):
            buf = np.asarray(buf, dtype=np.uint64)
            if buf.shape != expected:
                raise ShapeMismatch(
                    f"{name} must have shape {expected} for tensor shape "
                    f"{self.shape}, got {buf.shape}"
                )
            object.__setattr__(self, name, buf)
        object.__setattr__(self, "shape", (n, c, h, w))

    @property
    def words_per_pixel(self) -> int:
        return words_per_pixel(self.shape[1])


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """(n, c, h, w) booleans as (n, h, w, words) words, bit 1 where True."""
    n, c, h, w = bits.shape
    nw = words_per_pixel(c)
    padded = np.zeros((n, h, w, nw * WORD_BITS), dtype=bool)
    padded[..., :c] = np.moveaxis(bits, 1, -1)
    # LSB-first bytes read as little-endian words give bit j of word k = channel 64k+j
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def _unpack_plane(words: np.ndarray, channels: int) -> np.ndarray:
    n, h, w, nw = words.shape
    bits = (words[..., None] >> _BIT_SHIFTS) & np.uint64(1)
    bits = bits.reshape(n, h, w, nw * WORD_BITS)[..., :channels]
    return np.moveaxis(np.where(bits.astype(bool), 1.0, -1.0), -1, 1)


def pack(t: ComplexTensor) -> BitplaneTensor:
    """Pack a {+1,-1} complex tensor into bitplanes.

    Raises NonBinaryEntry if any entry of either plane is not exactly +-1.
    Packing is deterministic: equal tensors produce byte-identical buffers.
    """
    if not (np.all(np.abs(t.re) == 1) and np.all(np.abs(t.im) == 1)):
        raise NonBinaryEntry("plane contains entries other than +1 and -1")
    return pack_signs(t)


def pack_signs(t: ComplexTensor) -> BitplaneTensor:
    """Pack the signs of any real-valued complex tensor: bit 1 where x >= 0.

    Byte-identical to ``pack(quadrant_binarize(t))`` (so -0.0 and all-zero
    planes pack as +1) without building the {+1,-1} planes or checking them.
    """
    return BitplaneTensor(t.shape, _pack_bits(t.re >= 0), _pack_bits(t.im >= 0))


def unpack(b: BitplaneTensor) -> ComplexTensor:
    """Inverse of :func:`pack`; pad bits are ignored."""
    _, c, _, _ = b.shape
    return ComplexTensor(_unpack_plane(b.re_words, c), _unpack_plane(b.im_words, c))
