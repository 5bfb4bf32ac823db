import sys

import numpy as np
import pytest

from bcnn.binary_ops import (
    ConvGeometry,
    _dense_rows,
    binarize_deterministic,
    binary_complex_conv2d,
    mismatch_counts,
    quadrant_binarize,
)
from bcnn.errors import ShapeMismatch
from bcnn.models import build_nin_bcnn, build_resnet18_bcnn, build_toy_bcnn, iter_binary_convs
from bcnn.tensors import BitplaneTensor, ComplexTensor, channel_mask, pack, words_per_pixel
from helpers import (random_conv_case, random_pm1_tensor, reference_complex_conv2d,
                     unrolled_binary_conv)


# ---------------------------------------------------------------------------
# binarization
# ---------------------------------------------------------------------------

def test_binarize_deterministic_signs():
    out = binarize_deterministic(np.array([0.3, -0.7, 0.0]))
    np.testing.assert_array_equal(out, [1.0, -1.0, 1.0])


def test_quadrant_binarize_examples():
    t = ComplexTensor(np.array([[[[0.2]]], [[[-1.0]]]]),
                      np.array([[[[-0.4]]], [[[0.0]]]]))
    out = quadrant_binarize(t)
    # (0.2 - 0.4i) -> (1 - i); (-1 + 0i) -> (-1 + i) since 0 maps to +1
    assert (out.re[0, 0, 0, 0], out.im[0, 0, 0, 0]) == (1.0, -1.0)
    assert (out.re[1, 0, 0, 0], out.im[1, 0, 0, 0]) == (-1.0, 1.0)


def test_quadrant_binarize_idempotent():
    rng = np.random.default_rng(0)
    t = ComplexTensor(rng.standard_normal((2, 5, 4, 4)),
                      rng.standard_normal((2, 5, 4, 4)))
    once = quadrant_binarize(t)
    twice = quadrant_binarize(once)
    np.testing.assert_array_equal(once.re, twice.re)
    np.testing.assert_array_equal(once.im, twice.im)


# ---------------------------------------------------------------------------
# packed dot products: a 1x1 convolution of one pixel is a dot over channels
# ---------------------------------------------------------------------------

def _pixel(re, im):
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    return ComplexTensor(re.reshape(1, -1, 1, 1), im.reshape(1, -1, 1, 1))


def _xnor_dot(a, b):
    """The real dot a . b of two {+1,-1} vectors from the kernel's XOR/popcount
    count: the imaginary halves of both dense rows always agree."""
    n = len(a)
    x, w = _pixel(a, np.ones(n)), _pixel(b, -np.ones(n))  # [a | 1] against [b | ~(-1)]
    m = mismatch_counts(pack(x), pack(w), ConvGeometry(n, 1, (1, 1)), None)
    return n - 2 * int(m[0, 0, 0, 0, 0])


def _complex_dot(x, w):
    y = binary_complex_conv2d(pack(x), pack(w), ConvGeometry(x.shape[1], 1, (1, 1)))
    return int(y.re[0, 0, 0, 0]), int(y.im[0, 0, 0, 0])


def test_xnor_dot_identical_vectors():
    v = np.ones(64)
    assert _xnor_dot(v, v) == 64


def test_xnor_dot_negated_vectors():
    v = np.ones(64)
    assert _xnor_dot(v, -v) == -64


def test_xnor_dot_matches_naive_loop():
    rng = np.random.default_rng(21)
    a = np.where(rng.random(200) > 0.5, 1.0, -1.0)
    b = np.where(rng.random(200) > 0.5, 1.0, -1.0)
    naive = int(sum(int(x) * int(y) for x, y in zip(a, b)))
    assert _xnor_dot(a, b) == naive


def test_xnor_dot_self_is_n():
    rng = np.random.default_rng(3)
    for n in (1, 63, 64, 65, 200):
        a = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        assert _xnor_dot(a, a) == n


def test_xnor_dot_length_mismatch():
    # 128 input channels fill two words, 64 weight channels one
    x, w = _pixel(np.ones(128), np.ones(128)), _pixel(np.ones(64), np.ones(64))
    with pytest.raises(ShapeMismatch):
        mismatch_counts(pack(x), pack(w), ConvGeometry(128, 1, (1, 1)), None)


def test_binary_complex_dot_unit_cases():
    # x = 1+i, w = 1+i -> (0, 2)
    assert _complex_dot(_pixel([1.0], [1.0]), _pixel([1.0], [1.0])) == (0, 2)
    # x = 1+i, w = 1-i -> (2, 0)
    assert _complex_dot(_pixel([1.0], [1.0]), _pixel([1.0], [-1.0])) == (2, 0)


def test_binary_complex_dot_matches_complex_oracle():
    rng = np.random.default_rng(8)
    n = 128
    xr, xi = (np.where(rng.random(n) > 0.5, 1.0, -1.0) for _ in range(2))
    wr, wi = (np.where(rng.random(n) > 0.5, 1.0, -1.0) for _ in range(2))
    expected = ((xr + 1j * xi) * (wr + 1j * wi)).sum()
    got = _complex_dot(_pixel(xr, xi), _pixel(wr, wi))
    assert got == (int(expected.real), int(expected.imag))


# ---------------------------------------------------------------------------
# packed convolution
# ---------------------------------------------------------------------------

def test_conv_1x1_single_channel():
    x = ComplexTensor(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)))
    w = ComplexTensor(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
    g = ConvGeometry(1, 1, (1, 1))
    y = binary_complex_conv2d(pack(x), pack(w), g)
    np.testing.assert_array_equal(y.re, np.zeros((1, 1, 3, 3)))
    np.testing.assert_array_equal(y.im, np.full((1, 1, 3, 3), 2.0))


def test_conv_64_channels_all_ones():
    x = ComplexTensor(np.ones((1, 64, 2, 2)), np.ones((1, 64, 2, 2)))
    w = ComplexTensor(np.ones((3, 64, 1, 1)), np.ones((3, 64, 1, 1)))
    g = ConvGeometry(64, 3, (1, 1))
    y = binary_complex_conv2d(pack(x), pack(w), g)
    np.testing.assert_array_equal(y.re, np.zeros((1, 3, 2, 2)))
    np.testing.assert_array_equal(y.im, np.full((1, 3, 2, 2), 128.0))


def test_conv_matches_reference_3x3_padded():
    rng = np.random.default_rng(17)
    x = random_pm1_tensor(rng, (1, 16, 8, 8))
    w = random_pm1_tensor(rng, (8, 16, 3, 3))
    g = ConvGeometry(16, 8, (3, 3), (1, 1), (1, 1))
    y = binary_complex_conv2d(pack(x), pack(w), g)
    ref = reference_complex_conv2d(x, w, (1, 1), (1, 1))
    np.testing.assert_array_equal(y.re, ref.re)
    np.testing.assert_array_equal(y.im, ref.im)


def test_conv_matches_reference_many_cases():
    rng = np.random.default_rng(100)
    for _ in range(25):
        x, w, kernel, stride, padding = random_conv_case(rng)
        g = ConvGeometry(x.shape[1], w.shape[0], kernel, stride, padding)
        y = binary_complex_conv2d(pack(x), pack(w), g)
        ref = reference_complex_conv2d(x, w, stride, padding)
        np.testing.assert_array_equal(y.re, ref.re)
        np.testing.assert_array_equal(y.im, ref.im)


def test_conv_parallelism_neutral():
    # out channels 8 = 8 trips of 1 ... 3 trips of 3 (the last one short), and
    # 130 input channels = 3 words per plane in 3, 2 (one short) or 1 blocks
    rng = np.random.default_rng(33)
    x = random_pm1_tensor(rng, (1, 130, 5, 5))
    w = random_pm1_tensor(rng, (8, 130, 3, 3))
    g = ConvGeometry(130, 8, (3, 3), (1, 1), (1, 1))
    base = binary_complex_conv2d(pack(x), pack(w), g)
    for p_out in (1, 2, 3, 4, 8):
        for p_in in (1, 2, 3):
            y = unrolled_binary_conv(x, w, (1, 1), (1, 1), p_out, p_in)
            np.testing.assert_array_equal(y.re, base.re)
            np.testing.assert_array_equal(y.im, base.im)


@pytest.mark.parametrize("c", [31, 32, 33, 63, 64, 65, 127, 128, 129])
def test_conv_matches_reference_at_word_boundaries(c):
    # 2c <= 64 shares one joint word; beyond that every plane word boundary
    rng = np.random.default_rng(c)
    x = random_pm1_tensor(rng, (3, c, 7, 6))
    for k in (1, 3, 5):
        w = random_pm1_tensor(rng, (4, c, k, k))
        g = ConvGeometry(c, 4, (k, k), (2, 2), (2, 2))
        y = binary_complex_conv2d(pack(x), pack(w), g)
        ref = reference_complex_conv2d(x, w, (2, 2), (2, 2))
        np.testing.assert_array_equal(y.re, ref.re)
        np.testing.assert_array_equal(y.im, ref.im)


@pytest.mark.parametrize("c", [96, 129, 200])
def test_conv_parallelism_neutral_across_input_words(c):
    # 2, 3 and 4 words per plane, so most p_in end on a partial last block
    # and the largest takes the whole input; a 3x3 row holds 27, 37 and 57
    # joint words
    rng = np.random.default_rng(c)
    x = random_pm1_tensor(rng, (2, c, 5, 5))
    w = random_pm1_tensor(rng, (6, c, 3, 3))
    g = ConvGeometry(c, 6, (3, 3), (2, 2), (1, 1))
    ref = reference_complex_conv2d(x, w, (2, 2), (1, 1))
    assert _row_words(c, 3, 3) == {96: 27, 129: 37, 200: 57}[c]
    y = binary_complex_conv2d(pack(x), pack(w), g)
    np.testing.assert_array_equal(y.re, ref.re)
    np.testing.assert_array_equal(y.im, ref.im)
    for p_out in (1, 2, 3, 6):
        for p_in in range(1, words_per_pixel(c) + 1):
            y = unrolled_binary_conv(x, w, (2, 2), (1, 1), p_out, p_in)
            np.testing.assert_array_equal(y.re, ref.re)
            np.testing.assert_array_equal(y.im, ref.im)


def _set_pad_bits(b: BitplaneTensor) -> BitplaneTensor:
    pads = ~channel_mask(b.shape[1])
    return BitplaneTensor(b.shape, b.re_words | pads, b.im_words | pads)


@pytest.mark.parametrize("c", [5, 40, 70])
def test_conv_ignores_pad_bits(c):
    rng = np.random.default_rng(c)
    xb = pack(random_pm1_tensor(rng, (2, c, 5, 5)))
    wb = pack(random_pm1_tensor(rng, (3, c, 3, 3)))
    g = ConvGeometry(c, 3, (3, 3), (1, 1), (1, 1))
    clean = binary_complex_conv2d(xb, wb, g)
    dirty = binary_complex_conv2d(_set_pad_bits(xb), _set_pad_bits(wb), g)
    np.testing.assert_array_equal(dirty.re, clean.re)
    np.testing.assert_array_equal(dirty.im, clean.im)


def test_conv_shape_mismatch():
    rng = np.random.default_rng(4)
    x = random_pm1_tensor(rng, (1, 32, 3, 3))
    w = random_pm1_tensor(rng, (6, 16, 1, 1))
    g = ConvGeometry(32, 6, (1, 1))
    with pytest.raises(ShapeMismatch):
        binary_complex_conv2d(pack(x), pack(w), g)


_ACTIVE_MASKS = {
    "none_pruned": [True] * 6,
    "first_pruned": [False] + [True] * 5,
    "last_pruned": [True] * 5 + [False],
    "alternate_pruned": [True, False] * 3,
    "all_pruned": [False] * 6,
}


@pytest.mark.parametrize("c", [1, 33, 65])
@pytest.mark.parametrize("mask", list(_ACTIVE_MASKS))
def test_conv_active_mask_skips_pruned_rows(c, mask):
    # stride 2 and padding 1; 65 channels span two words per plane
    active = np.array(_ACTIVE_MASKS[mask])
    rng = np.random.default_rng(c)
    xb = pack(random_pm1_tensor(rng, (2, c, 7, 6)))
    wb = pack(random_pm1_tensor(rng, (6, c, 3, 3)))
    g = ConvGeometry(c, 6, (3, 3), (2, 2), (1, 1))
    full = binary_complex_conv2d(xb, wb, g)
    keep = active.reshape(1, -1, 1, 1)
    y = binary_complex_conv2d(xb, wb, g, active=active)
    for plane, ref in ((y.re, full.re), (y.im, full.im)):
        np.testing.assert_array_equal(plane, np.where(keep, ref, 0.0))
        assert not np.signbit(plane[:, ~active]).any()  # pruned rows are +0.0


def test_conv_active_mask_shape_checked():
    rng = np.random.default_rng(6)
    xb = pack(random_pm1_tensor(rng, (1, 4, 3, 3)))
    wb = pack(random_pm1_tensor(rng, (6, 4, 1, 1)))
    g = ConvGeometry(4, 6, (1, 1))
    np.testing.assert_array_equal(
        binary_complex_conv2d(xb, wb, g, active=np.ones(6, bool)).re,
        binary_complex_conv2d(xb, wb, g).re)
    with pytest.raises(ShapeMismatch):
        binary_complex_conv2d(xb, wb, g, active=np.ones(5, bool))


def test_conv_parity_and_magnitude_bounds():
    rng = np.random.default_rng(55)
    for _ in range(10):
        x, w, kernel, stride, padding = random_conv_case(rng, max_channels=40)
        ic = x.shape[1]
        g = ConvGeometry(ic, w.shape[0], kernel, stride, padding)
        y = binary_complex_conv2d(pack(x), pack(w), g)
        n = ic * kernel[0] * kernel[1]
        assert np.abs(y.re).max() <= 2 * n
        assert np.abs(y.im).max() <= 2 * n
        if n % 2 == 0:
            assert np.all(np.mod(y.re, 2) == 0)
            assert np.all(np.mod(y.im, 2) == 0)


@pytest.mark.parametrize("c, dtype", [(32767, np.uint16), (32768, np.uint32)])
def test_counts_widen_past_uint16_and_stay_exact(c, dtype):
    # row_bits = 2c for a 1x1 kernel: 65534 fits uint16, 65536 does not;
    # images equal to weight row 0 (as [w_r | ~w_i]) and to its negation
    # reach counts 0 and row_bits
    rng = np.random.default_rng(c)
    w = random_pm1_tensor(rng, (2, c, 1, 1))
    x = ComplexTensor(np.concatenate([w.re[:1], -w.re[:1], random_pm1_tensor(rng, (1, c, 1, 1)).re]),
                      np.concatenate([-w.im[:1], w.im[:1], random_pm1_tensor(rng, (1, c, 1, 1)).im]))
    g = ConvGeometry(c, 2, (1, 1))
    counts = mismatch_counts(pack(x), pack(w), g, None)
    assert counts.dtype == dtype
    assert counts[0, 0, :2].ravel().tolist() == [0, g.row_bits]
    y = binary_complex_conv2d(pack(x), pack(w), g)
    ref = reference_complex_conv2d(x, w, (1, 1), (0, 0))
    np.testing.assert_array_equal(y.re, ref.re)
    np.testing.assert_array_equal(y.im, ref.im)


# ---------------------------------------------------------------------------
# dense rows: every tap's [x_r | x_i] vector back to back
# ---------------------------------------------------------------------------

# 2c mod 64 is 16, 32, 32 and 0: partial words packed four or two to a word, or none
@pytest.mark.parametrize("c", [8, 48, 80, 96])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_dense_rows_match_reference(c, k):
    rng = np.random.default_rng(c * 10 + k)
    x = random_pm1_tensor(rng, (2, c, 7, 6))
    w = random_pm1_tensor(rng, (4, c, k, k))
    xb, wb = pack(x), pack(w)
    active = np.array([True, False, True, True])
    keep = active.reshape(1, -1, 1, 1)
    for stride in (1, 2):
        for pad in (0, 1, 2):
            g = ConvGeometry(c, 4, (k, k), (stride, stride), (pad, pad))
            ref = reference_complex_conv2d(x, w, (stride, stride), (pad, pad))
            y = binary_complex_conv2d(xb, wb, g)
            np.testing.assert_array_equal(y.re, ref.re)
            np.testing.assert_array_equal(y.im, ref.im)
            y = binary_complex_conv2d(xb, wb, g, active=active)
            np.testing.assert_array_equal(y.re, np.where(keep, ref.re, 0.0))
            np.testing.assert_array_equal(y.im, np.where(keep, ref.im, 0.0))


def _row_words(c: int, kh: int, kw: int) -> int:
    taps = np.zeros((kh, kw, words_per_pixel(2 * c), 1), dtype=np.uint64)
    return _dense_rows(taps, c).shape[0]


def test_model_rows_are_dense():
    models = (build_nin_bcnn(10), build_resnet18_bcnn(10), build_toy_bcnn((3, 8, 8), 2, (8, 8)))
    convs = [conv.geometry for m in models for conv in iter_binary_convs(m)]
    assert len(convs) == 7 + 19 + 1
    for g in convs:
        assert _row_words(g.in_channels, *g.kernel) == -(-g.row_bits // 64), g


def test_dense_rows_never_wider_than_per_plane_words():
    # the earlier layout: one shared word per tap while 2c <= 64, else each
    # plane's words in full
    for c in range(1, 301):
        per_tap = 1 if 2 * c <= 64 else 2 * words_per_pixel(c)
        for kh in range(1, 6):
            for kw in range(1, 6):
                words = _row_words(c, kh, kw)
                assert -(-2 * c * kh * kw // 64) <= words <= kh * kw * per_tap, (c, kh, kw)


def _calls_made(fn, *args) -> int:
    """Python and C function calls made while ``fn(*args)`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("c", [8, 48, 96])
def test_building_rows_makes_no_call_per_tap(c):
    rng = np.random.default_rng(c)
    xb = pack(random_pm1_tensor(rng, (1, c, 9, 9)))
    calls = []
    for k in (1, 3, 5):
        wb = pack(random_pm1_tensor(rng, (2, c, k, k)))
        g = ConvGeometry(c, 2, (k, k), (1, 1), (k // 2, k // 2))
        # the kernel loop's ufuncs make no profiled call per row word, so
        # every call counted builds the columns and rows
        calls.append(_calls_made(mismatch_counts, xb, wb, g, None))
    assert calls[0] == calls[1] == calls[2], calls
