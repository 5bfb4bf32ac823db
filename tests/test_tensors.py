import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcnn.binary_ops import quadrant_binarize
from bcnn.errors import NonBinaryEntry, ShapeMismatch
from bcnn.tensors import (
    BitplaneTensor,
    ComplexTensor,
    channel_mask,
    pack,
    pack_signs,
    unpack,
    words_per_pixel,
)
from helpers import random_pm1_tensor, reference_pack_plane


def test_pack_single_value_encoding():
    # value (+1 - i): re bit0 = 1, im bit0 = 0
    t = ComplexTensor(np.full((1, 1, 1, 1), 1.0), np.full((1, 1, 1, 1), -1.0))
    b = pack(t)
    assert b.re_words[0, 0, 0, 0] == 1
    assert b.im_words[0, 0, 0, 0] == 0


def test_pack_full_word():
    t = ComplexTensor(np.ones((1, 64, 1, 1)), np.ones((1, 64, 1, 1)))
    b = pack(t)
    assert b.re_words[0, 0, 0, 0] == 0xFFFF_FFFF_FFFF_FFFF
    assert b.im_words[0, 0, 0, 0] == 0xFFFF_FFFF_FFFF_FFFF


def test_unpack_single_value():
    b = BitplaneTensor(
        (1, 1, 1, 1),
        np.array([[[[1]]]], dtype=np.uint64),
        np.array([[[[0]]]], dtype=np.uint64),
    )
    t = unpack(b)
    assert t.re[0, 0, 0, 0] == 1.0
    assert t.im[0, 0, 0, 0] == -1.0


def test_unpack_all_zero_words():
    b = BitplaneTensor(
        (1, 64, 1, 1),
        np.zeros((1, 1, 1, 1), dtype=np.uint64),
        np.zeros((1, 1, 1, 1), dtype=np.uint64),
    )
    t = unpack(b)
    assert np.all(t.re == -1.0)
    assert np.all(t.im == -1.0)


def test_roundtrip_random_tensor():
    rng = np.random.default_rng(11)
    t = random_pm1_tensor(rng, (2, 100, 3, 3))
    u = unpack(pack(t))
    np.testing.assert_array_equal(u.re, t.re)
    np.testing.assert_array_equal(u.im, t.im)


def test_pack_is_deterministic():
    rng = np.random.default_rng(5)
    t = random_pm1_tensor(rng, (1, 70, 2, 2))
    b1 = pack(t)
    b2 = pack(ComplexTensor(t.re.copy(), t.im.copy()))
    assert b1.re_words.tobytes() == b2.re_words.tobytes()
    assert b1.im_words.tobytes() == b2.im_words.tobytes()


def test_pad_bits_are_zero():
    t = ComplexTensor(np.ones((1, 65, 1, 1)), np.ones((1, 65, 1, 1)))
    b = pack(t)
    assert b.re_words.shape[-1] == 2
    assert b.re_words[0, 0, 0, 1] == 1  # only bit 0 of the second word


@pytest.mark.parametrize("c", [1, 63, 64, 65, 130])
def test_pack_matches_per_bit_reference(c):
    t = random_pm1_tensor(np.random.default_rng(c), (2, c, 3, 4))
    b = pack(t)
    assert b.re_words.tobytes() == reference_pack_plane(t.re).tobytes()
    assert b.im_words.tobytes() == reference_pack_plane(t.im).tobytes()


@pytest.mark.parametrize("c", [1, 63, 64, 65, 130])
def test_pack_signs_matches_pack_of_binarized(c):
    rng = np.random.default_rng(c)
    shape = (5, c, 3, 3)  # laid out like conv weights: (out_c, in_c, kh, kw)
    planes = rng.standard_normal((2, *shape)).astype(np.float32)
    planes[rng.random(planes.shape) < 0.2] = 0.0
    planes[rng.random(planes.shape) < 0.2] = -0.0
    planes[:, 1] = 0.0  # a hard-pruned output channel
    planes[0, 3] = -0.0
    t = ComplexTensor(planes[0], planes[1])
    b = pack_signs(t)
    expected = pack(quadrant_binarize(t))
    assert b.shape == expected.shape
    assert b.re_words.tobytes() == expected.re_words.tobytes()
    assert b.im_words.tobytes() == expected.im_words.tobytes()


@pytest.mark.parametrize("value", [0.5, 0.0, -2.0, np.nan])
@pytest.mark.parametrize("plane", ["re", "im"])
def test_pack_rejects_non_binary(plane, value):
    planes = {"re": np.ones((1, 2, 1, 1)), "im": -np.ones((1, 2, 1, 1))}
    planes[plane][0, 1, 0, 0] = value
    with pytest.raises(NonBinaryEntry):
        pack(ComplexTensor(planes["re"], planes["im"]))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    c=st.integers(1, 150),
    h=st.integers(1, 4),
)
def test_roundtrip_property(seed, n, c, h):
    rng = np.random.default_rng(seed)
    t = random_pm1_tensor(rng, (n, c, h, h))
    u = unpack(pack(t))
    assert np.array_equal(u.re, t.re) and np.array_equal(u.im, t.im)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 150))
def test_pack_unpack_identity_on_word_buffers(seed, c):
    # pack(unpack(b)) == b for arbitrary word buffers with zero pad bits
    rng = np.random.default_rng(seed)
    nw = words_per_pixel(c)
    mask = channel_mask(c)
    words_re = rng.integers(0, 2**63, (1, 2, 2, nw)).astype(np.uint64) & mask
    words_im = rng.integers(0, 2**63, (1, 2, 2, nw)).astype(np.uint64) & mask
    b = BitplaneTensor((1, c, 2, 2), words_re, words_im)
    b2 = pack(unpack(b))
    assert np.array_equal(b2.re_words, b.re_words)
    assert np.array_equal(b2.im_words, b.im_words)


def test_plane_concatenation_convention():
    rng = np.random.default_rng(2)
    t = ComplexTensor(rng.standard_normal((2, 3, 4, 4)),
                      rng.standard_normal((2, 3, 4, 4)))
    planes = t.to_planes()
    assert planes.shape == (2, 6, 4, 4)
    np.testing.assert_array_equal(planes[:, :3], t.re)
    np.testing.assert_array_equal(planes[:, 3:], t.im)
    back = ComplexTensor.from_planes(planes)
    np.testing.assert_array_equal(back.re, t.re)
    np.testing.assert_array_equal(back.im, t.im)


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        ComplexTensor(np.ones((1, 2, 3, 3)), np.ones((1, 2, 3, 4)))
    with pytest.raises(ShapeMismatch):
        ComplexTensor(np.ones((2, 3, 3)), np.ones((2, 3, 3)))
    with pytest.raises(ShapeMismatch):
        BitplaneTensor((1, 1, 1, 1), np.zeros((1, 1, 1, 2), np.uint64),
                       np.zeros((1, 1, 1, 1), np.uint64))


def test_pack_vector_roundtrip():
    # one pixel of 200 channels packs as one contiguous vector of words
    rng = np.random.default_rng(9)
    v = np.where(rng.random(200) > 0.5, 1.0, -1.0)
    t = ComplexTensor(v.reshape(1, 200, 1, 1), -v.reshape(1, 200, 1, 1))
    b = pack(t)
    assert b.re_words.shape == (1, 1, 1, words_per_pixel(200))
    back = unpack(b)
    np.testing.assert_array_equal(back.re.ravel(), v)
    np.testing.assert_array_equal(back.im.ravel(), -v)
