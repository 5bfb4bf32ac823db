"""Binarization functions and exact XOR/popcount convolution kernels.

A {+1,-1} dot product over packed bitplanes reduces to
``n - 2 * popcount(xor(a, b))``: XOR marks positions where the signs
differ and every mismatch loses 2 relative to the all-match total ``n``.
A binary complex product is two such real dots over the joint vector
``[x_r | x_i]``, with ``~`` (bitwise NOT) negating a packed vector,

    y_r = <x_r, w_r> - <x_i, w_i> = <[x_r | x_i], [w_r | ~w_i]>
    y_i = <x_r, w_i> + <x_i, w_r> = <[x_r | x_i], [w_i | w_r]>

and the 2D convolution accumulates them over kernel taps and joint words.
Spatial padding uses the value -1 on both planes (all-zero words),
consistent with the {+1,-1} alphabet.

All results are integer-exact: the packed kernel must agree bit-for-bit
with a dense reference convolution for any valid input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidParallelism, LengthMismatch, ShapeMismatch
from .tensors import (WORD_BITS, BitplaneTensor, ComplexTensor, channel_mask,
                      words_per_pixel)


def binarize_deterministic(x: np.ndarray) -> np.ndarray:
    """Sign binarization: +1 where x >= 0, else -1."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


def binarize_stochastic(x: np.ndarray, seed: int) -> np.ndarray:
    """Stochastic binarization: +1 with probability clip((x+1)/2, 0, 1).

    The draw is a pure function of (x, seed); the same seed reproduces the
    same output.
    """
    x = np.asarray(x, dtype=float)
    p = np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    draws = np.random.default_rng(seed).random(x.shape)
    return np.where(draws < p, 1.0, -1.0)


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


def xnor_dot(a_words: np.ndarray, b_words: np.ndarray, n: int) -> int:
    """Dot product of two packed {+1,-1} vectors of n elements.

    Computes ``n - 2 * popcount((a ^ b) & valid_mask)``; pad bits never
    contribute.
    """
    a = np.asarray(a_words, dtype=np.uint64).ravel()
    b = np.asarray(b_words, dtype=np.uint64).ravel()
    expected = words_per_pixel(n)
    if a.size != expected or b.size != expected:
        raise LengthMismatch(
            f"expected {expected} words for {n} elements, got {a.size} and {b.size}"
        )
    mismatches = int(np.bitwise_count((a ^ b) & channel_mask(n)).sum())
    return n - 2 * mismatches


def binary_complex_dot(
    x: tuple[np.ndarray, np.ndarray],
    w: tuple[np.ndarray, np.ndarray],
    n: int,
) -> tuple[int, int]:
    """Complex dot product of two packed complex vectors of n elements.

    ``x`` and ``w`` are (real_words, imag_words) pairs; returns the integer
    pair (y_r, y_i).
    """
    xr, xi = x
    wr, wi = w
    rr = xnor_dot(xr, wr, n)
    ii = xnor_dot(xi, wi, n)
    ri = xnor_dot(xr, wi, n)
    ir = xnor_dot(xi, wr, n)
    return rr - ii, ri + ir


def _joint_words(re: np.ndarray, im: np.ndarray, c: int) -> np.ndarray:
    """Per-pixel words of the 2c-bit vector ``[re | im]`` with pad bits
    cleared; one shared word when ``2c <= 64``."""
    mask = channel_mask(c)
    re, im = re & mask, im & mask
    if 2 * c <= WORD_BITS:
        return re | (im << np.uint64(c))
    return np.concatenate([re, im], axis=-1)


def binary_complex_conv2d(
    x: BitplaneTensor,
    w: BitplaneTensor,
    geometry: ConvGeometry,
    parallelism: tuple[int, int] | None = None,
) -> ComplexTensor:
    """Exact bias-free binary complex 2D convolution on packed operands.

    ``w`` packs the weight tensor with shape (out_c, in_c, kh, kw); its
    batch axis is the output channel.  ``parallelism = (p_out, p_in)``
    selects how many output channels and joint re|im words (``p_in`` at
    most the words per plane) are processed per inner step; the result is
    bit-identical for every valid choice (int32 accumulation is exact while
    ``2*c*kh*kw < 2**31``), defaulting to the widest.
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
    nw = words_per_pixel(c)

    p_out, p_in = parallelism if parallelism is not None else (out_c, nw)
    if p_out < 1 or out_c % p_out != 0:
        raise InvalidParallelism(f"p_out={p_out} must divide out_channels={out_c}")
    if p_in < 1 or p_in > nw:
        raise InvalidParallelism(f"p_in={p_in} must be in [1, {nw}]")

    sh, sw = geometry.stride
    ph, pw = geometry.padding
    # zero words encode pixels of all -1 channels, the declared pad value
    xp = np.pad(_joint_words(x.re_words, x.im_words, c),
                ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    # rows[0] yields y_r from [w_r | ~w_i], rows[1] yields y_i from [w_i | w_r]
    rows = np.stack([_joint_words(w.re_words, ~w.im_words, c),
                     _joint_words(w.im_words, w.re_words, c)])
    nwj = xp.shape[-1]

    acc = np.zeros((2, out_c, n, h_out, w_out), dtype=np.int32)
    buf = np.empty((2, p_out, n, h_out, w_out), dtype=np.uint64)
    cnt = np.empty(buf.shape, dtype=np.uint8)
    for oc0 in range(0, out_c, p_out):
        ocs = slice(oc0, oc0 + p_out)
        for w0 in range(0, nwj, p_in):
            for ky, kx in np.ndindex(kh, kw):
                for j in range(w0, min(w0 + p_in, nwj)):
                    # a contiguous tap window lets each row XOR one long run
                    xv = xp[:, ky : ky + sh * h_out : sh, kx : kx + sw * w_out : sw, j]
                    tap = rows[:, ocs, ky, kx, j, None, None, None]
                    np.bitwise_xor(np.ascontiguousarray(xv), tap, out=buf)
                    np.bitwise_count(buf, out=cnt)
                    acc[:, ocs] += cnt

    # each row is a real dot over 2*c*kh*kw bits: all matches minus 2 per mismatch
    planes = np.moveaxis(acc, 2, 1).astype(float, order="C")
    planes *= -2
    planes += 2 * c * kh * kw
    return ComplexTensor(planes[0], planes[1])
