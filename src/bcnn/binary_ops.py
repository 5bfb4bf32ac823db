"""Binarization functions and exact XOR/popcount convolution kernels.

A {+1,-1} dot product over packed bitplanes reduces to
``n - 2 * popcount(xor(a, b))``: XOR marks positions where the signs
differ and every mismatch loses 2 relative to the all-match total ``n``.
A binary complex product is two such real dots over the joint vector
``[x_r | x_i]``, with ``~`` (bitwise NOT) negating a packed vector,

    y_r = <x_r, w_r> - <x_i, w_i> = <[x_r | x_i], [w_r | ~w_i]>
    y_i = <x_r, w_i> + <x_i, w_r> = <[x_r | x_i], [w_i | w_r]>

and the 2D convolution is one such dot per output pixel over a dense row:
the ``[x_r | x_i]`` vectors of all kh*kw taps back to back, packed into
whole 64-bit words (``ceil(row_bits / 64)`` of them whenever ``2c mod 64``
is 0 or divides 64, as on every model this package builds), against the weight
rows ``[w_r | ~w_i]`` and ``[w_i | w_r]`` in the same bit order.  A dot
does not depend on bit order, so the counts are those of any other layout.
Spatial padding uses the value -1 on both planes (all-zero words),
consistent with the {+1,-1} alphabet.  The convolution's optional
``active`` mask names the output channels to compute: a hard-pruned
channel's weight rows never enter the XOR/popcount loop, and its output
is exactly +0.0.

``mismatch_counts`` is the kernel itself: integer XOR/popcount mismatch
counts of the live output channels only, in one pass over the row words
(the FPGA's unroll factors are modelled in ``accel.KernelConfig``, not
here).  ``binary_complex_conv2d`` is those counts as float dots,
``row_bits - 2 * count`` (exact integers), with every pruned channel +0.0.

All results are integer-exact: the packed kernel must agree bit-for-bit
with a dense reference convolution for any valid input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidConfig, ShapeMismatch
from .tensors import (WORD_BITS, BitplaneTensor, ComplexTensor, channel_mask,
                      words_per_pixel)


def binarize_deterministic(x: np.ndarray) -> np.ndarray:
    """Sign binarization: +1 where x >= 0, else -1."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


def quadrant_binarize(x: ComplexTensor) -> ComplexTensor:
    """Binarize real and imaginary parts independently by sign."""
    return ComplexTensor(binarize_deterministic(x.re), binarize_deterministic(x.im))


def out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Window positions along one axis: the output size of a conv or pool."""
    return (size + 2 * pad - kernel) // stride + 1


@dataclass(frozen=True)
class ConvGeometry:
    """Kernel/stride/padding and channel counts of a complex convolution.

    ``in_channels`` / ``out_channels`` count complex channels.  Padding
    pixels carry the value -1 on both bitplanes.
    """

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        if min(kh, kw, sh, sw) < 1 or min(ph, pw) < 0:
            raise InvalidConfig(f"invalid conv geometry {self}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise InvalidConfig("channel counts must be >= 1")

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        h_out = out_size(h, self.kernel[0], self.stride[0], self.padding[0])
        w_out = out_size(w, self.kernel[1], self.stride[1], self.padding[1])
        if h_out < 1 or w_out < 1:
            raise ShapeMismatch(
                f"kernel {self.kernel} with stride {self.stride}, padding "
                f"{self.padding} does not fit a {h}x{w} input"
            )
        return h_out, w_out

    @property
    def row_bits(self) -> int:
        """Bits in one joint ``[re | im]`` weight row: the all-match dot."""
        return 2 * self.in_channels * self.kernel[0] * self.kernel[1]


def _joint_words(re: np.ndarray, im: np.ndarray, c: int, pad: tuple[int, int]) -> np.ndarray:
    """Word-major (words, n, h, w) planes of the 2c-bit vector ``[re | im]``
    at every pixel of two (n, h, w, words) planes, packed tightly (bit
    ``c + j`` holds channel j of ``im``) with pad bits cleared, inside
    ``pad`` rows and columns of all-zero words (pixels of all -1 channels)
    on each side."""
    n, h, w, nw = re.shape
    ph, pw = pad
    q, s = divmod(c, WORD_BITS)
    joint = np.zeros((words_per_pixel(2 * c), n, h + 2 * ph, w + 2 * pw), dtype=np.uint64)
    inner = joint[:, :, ph : ph + h, pw : pw + w]
    mask = channel_mask(c).reshape(nw, 1, 1, 1)
    np.bitwise_and(re.transpose(3, 0, 1, 2), mask, out=inner[:nw])
    im = im.transpose(3, 0, 1, 2) & mask
    inner[q : q + nw] |= im << np.uint64(s)
    if s:  # the bits that cross into the next word
        inner[q + 1 :] |= (im >> np.uint64(WORD_BITS - s))[: len(inner) - q - 1]
    return joint


def _dense_rows(taps: np.ndarray, c: int) -> np.ndarray:
    """One dense row per trailing index: the joint 2c-bit vectors of a
    (kh, kw, joint words, ...) tap grid, back to back, as (row words, ...).

    Each tap's full words are copied in tap order; the partial last words,
    of ``rho = 2c mod 64`` bits, follow, packed ``64 // rho`` to a word.
    Unused bits stay zero on both operands, so they never mismatch.
    """
    kh, kw, _, *rest = taps.shape
    t = kh * kw
    full, rho = divmod(2 * c, WORD_BITS)
    per = WORD_BITS // rho if rho else 1
    lanes = -(-t // per) if rho else 0
    rows = np.empty((t * full + lanes, *rest), dtype=np.uint64)
    rows[: t * full].reshape(kh, kw, full, *rest)[...] = taps[:, :, :full]
    if rho:
        part = np.zeros((lanes * per, *rest), dtype=np.uint64)
        part[:t].reshape(kh, kw, *rest)[...] = taps[:, :, full]
        part = part.reshape(lanes, per, *rest)
        shifts = np.arange(per, dtype=np.uint64) * np.uint64(rho)
        np.left_shift(part, shifts.reshape(per, *[1] * len(rest)), out=part)
        np.bitwise_or.reduce(part, axis=1, out=rows[t * full :])
    return rows


def mismatch_counts(
    x: BitplaneTensor,
    w: BitplaneTensor,
    geometry: ConvGeometry,
    active: np.ndarray | None,
) -> np.ndarray:
    """Integer XOR/popcount mismatch counts of a binary complex convolution.

    Returns an array of shape (2, live, n, h_out, w_out): plane 0 counts the
    mismatches of each output pixel's dense row (the ``[x_r | x_i]`` vectors
    of every tap, back to back) against the matching ``[w_r | ~w_i]`` row
    (the real output), plane 1 against ``[w_i | w_r]`` (the imaginary
    output), for the ``live`` output channels that ``active`` (a boolean
    mask, None for all) names, in channel order.  A count ``m`` is the dot
    ``geometry.row_bits - 2 * m``.  Counts are ``uint16`` while
    ``row_bits < 2**16``, else ``uint32``, which is exact for every count.
    The kernel runs on the calling thread: ``models.forward`` spreads a
    batch over the cores by images, not rows.
    """
    n, c, h, wd = x.shape
    out_c, in_c, kh, kw = w.shape
    if c != geometry.in_channels or in_c != geometry.in_channels:
        raise ShapeMismatch(
            f"input has {c} channels, weights expect {in_c}, geometry says "
            f"{geometry.in_channels}"
        )
    if out_c != geometry.out_channels or (kh, kw) != geometry.kernel:
        raise ShapeMismatch(f"weight shape {w.shape} does not match {geometry}")
    h_out, w_out = geometry.out_hw(h, wd)

    active = np.ones(out_c, dtype=bool) if active is None else np.asarray(active, dtype=bool)
    if active.shape != (out_c,):
        raise ShapeMismatch(f"active mask has shape {active.shape}, expected ({out_c},)")
    live = np.flatnonzero(active)

    sh, sw = geometry.stride
    xp = _joint_words(x.re_words, x.im_words, c, geometry.padding)
    s0, s1, s2, s3 = xp.strides
    # the (kh, kw, joint words, n, h_out, w_out) tap grid, a view of xp
    taps = as_strided(xp, (kh, kw, len(xp), n, h_out, w_out),
                      (s2, s3, s0, s1, sh * s2, sw * s3), writeable=False)
    cols = _dense_rows(taps, c)
    # rows[:, 0] yields y_r from [w_r | ~w_i], rows[:, 1] yields y_i from [w_i | w_r];
    # only the computed output channels' rows are built
    w_re, w_im = w.re_words[live], w.im_words[live]
    joint = _joint_words(np.concatenate([w_re, w_im]), np.concatenate([~w_im, w_re]), c, (0, 0))
    rows = _dense_rows(joint.reshape(len(joint), 2, live.size, kh, kw).transpose(3, 4, 0, 1, 2), c)

    # popcounts land in the accumulator's dtype: no widening add per word
    counts = np.empty((2, live.size, n, h_out, w_out),
                      dtype=np.uint16 if geometry.row_bits < 2**16 else np.uint32)
    _count_rows(cols, rows, counts)
    return counts


def _count_rows(cols, rows, counts):
    """Mismatch counts of ``rows`` (row words, 2, r) against ``cols`` (row
    words, n, h_out, w_out) into ``counts`` (2, r, n, h_out, w_out), one row
    word at a time, through one XOR buffer and one popcount buffer."""
    xor = np.empty(counts.shape, dtype=np.uint64)
    pop = np.empty(counts.shape, dtype=counts.dtype)
    for j, col in enumerate(cols):
        np.bitwise_xor(col, rows[j, :, :, None, None, None], out=xor)
        if j == 0:  # the first word's popcounts start the counts
            np.bitwise_count(xor, out=counts)
        else:
            np.bitwise_count(xor, out=pop)
            counts += pop


def binary_complex_conv2d(
    x: BitplaneTensor,
    w: BitplaneTensor,
    geometry: ConvGeometry,
    active: np.ndarray | None = None,
) -> ComplexTensor:
    """Exact bias-free binary complex 2D convolution on packed operands.

    ``w`` packs the weight tensor with shape (out_c, in_c, kh, kw); its
    batch axis is the output channel.  The result is the float form of
    :func:`mismatch_counts` (same ``active`` mask): every output channel
    outside ``active`` is exactly +0.0, and every other one is the same for
    every mask.
    """
    counts = mismatch_counts(x, w, geometry, active)
    # each row is a real dot over row_bits bits: all matches minus 2 per mismatch
    dots = np.moveaxis(counts, 2, 1).astype(float, order="C")
    dots *= -2
    dots += geometry.row_bits
    if counts.shape[1] < geometry.out_channels:
        _, n, _, h_out, w_out = dots.shape
        planes = np.zeros((2, n, geometry.out_channels, h_out, w_out))
        planes[:, :, np.asarray(active, dtype=bool)] = dots
        dots = planes
    return ComplexTensor(dots[0], dots[1])
