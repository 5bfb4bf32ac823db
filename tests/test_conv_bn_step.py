"""The packed conv -> CGBN (-> Binarize) step against the node-by-node forward.

``models._conv_bn_forward`` runs the CGBN on a binary conv's live channels
only and, when a Binarize follows, folds a real-gamma CGBN into one integer
threshold per plane on the conv's dots.  Every case must give float
planes equal to ``cgbn_forward(binary_complex_conv2d(...))`` with equal
sign bits, and words byte-identical to ``pack_signs`` of those planes.
"""

import numpy as np
import pytest

from bcnn.binary_ops import ConvGeometry, binary_complex_conv2d, mismatch_counts
from bcnn.layers import CgbnLayer, cgbn_forward
from bcnn.models import BinaryConvLayer, _conv_bn_forward, active_output_channels
from bcnn.tensors import ComplexTensor, pack, pack_signs
from helpers import random_pm1_tensor

OUT_C = 6

MASKS = {
    "none_pruned": [True] * OUT_C,
    "alternate_pruned": [True, False] * (OUT_C // 2),
    "all_but_one_pruned": [False, False, False, True, False, False],
}


def _conv(rng, in_c, mask, kernel=3, stride=1, pad=1):
    w_re = rng.standard_normal((OUT_C, in_c, kernel, kernel)).astype(np.float32)
    w_im = rng.standard_normal((OUT_C, in_c, kernel, kernel)).astype(np.float32)
    w_re[~np.array(mask)] = 0.0
    w_im[~np.array(mask)] = 0.0
    g = ConvGeometry(in_c, OUT_C, (kernel, kernel), (stride, stride), (pad, pad))
    return BinaryConvLayer(w_re, w_im, g)


def _counts(conv, xb):
    w = pack_signs(ComplexTensor(conv.w_re, conv.w_im))
    return mismatch_counts(xb, w, conv.geometry, None, active_output_channels(conv))


def _bn(rng, kind, conv, xb):
    """A CGBN over the conv's output channels, moved off identity as ``kind`` says."""
    c = OUT_C
    bn = CgbnLayer.identity(c)
    k = conv.geometry.row_bits
    bn.running_mean_re[:] = rng.integers(-k // 4, k // 4 + 1, c)
    bn.running_mean_im[:] = rng.standard_normal(c) * k / 8
    bn.running_var_re[:] = rng.uniform(0.3, k, c)
    bn.running_var_im[:] = rng.uniform(0.3, k, c)
    bn.beta_re[:] = rng.standard_normal(c)
    bn.beta_im[:] = rng.standard_normal(c)
    if kind == "gamma_positive":
        bn.gamma_re[:] = rng.uniform(0.1, 3.0, c)
    elif kind == "gamma_negative":
        bn.gamma_re[:] = -rng.uniform(0.1, 3.0, c)
    elif kind == "gamma_zero":
        bn.gamma_re[:] = 0.0
        bn.beta_re[::2] = 0.0  # the output is then exactly +-0
    elif kind == "gamma_mixed_signs":
        bn.gamma_re[:] = [1.5, -0.7, 0.0, -2.0, 0.3, 0.0]
    elif kind == "complex_gamma_on_some":
        bn.gamma_re[:] = rng.standard_normal(c)
        bn.gamma_im[:] = [0.0, 0.8, 0.0, -1.2, 0.4, 0.0]
    elif kind == "large_beta":
        bn.gamma_re[:] = rng.standard_normal(c)
        bn.beta_re[:] = [1e6, -1e6, 3e4, -3e4, 1e9, -1e9]
        bn.beta_im[:] = [-1e6, 1e6, -3e4, 3e4, -1e9, 1e9]
    elif kind == "mean_on_a_count":
        # beta 0 and the mean on a count the conv produces: the output there is +-0
        bn.gamma_re[:] = rng.choice([-1.0, 1.0], c)
        bn.beta_re[:] = 0.0
        bn.beta_im[:] = 0.0
        counts = _counts(conv, xb)
        for ch, live in enumerate(np.flatnonzero(active_output_channels(conv))):
            bn.running_mean_re[live] = k - 2 * int(counts[0, ch].flat[0])
            bn.running_mean_im[live] = k - 2 * int(counts[1, ch].flat[-1])
    return bn


def _check(conv, bn, xb):
    w = pack_signs(ComplexTensor(conv.w_re, conv.w_im))
    ref = cgbn_forward(binary_complex_conv2d(xb, w, conv.geometry,
                                             active=active_output_channels(conv)), bn)
    y = _conv_bn_forward(conv, bn, xb, binarize=False)
    for plane, want in ((y.re, ref.re), (y.im, ref.im)):
        np.testing.assert_array_equal(plane, want)
        np.testing.assert_array_equal(np.signbit(plane), np.signbit(want))
    words, want = _conv_bn_forward(conv, bn, xb, binarize=True), pack_signs(ref)
    assert words.shape == want.shape
    assert words.re_words.tobytes() == want.re_words.tobytes()
    assert words.im_words.tobytes() == want.im_words.tobytes()


BN_KINDS = ("gamma_positive", "gamma_negative", "gamma_zero", "gamma_mixed_signs",
            "complex_gamma_on_some", "large_beta", "mean_on_a_count")


@pytest.mark.parametrize("in_c", [1, 31, 32, 33, 65])  # 2*in_c crosses a 64-bit word
@pytest.mark.parametrize("mask", sorted(MASKS))
@pytest.mark.parametrize("kind", BN_KINDS)
def test_conv_bn_step_matches_node_by_node(kind, mask, in_c):
    rng = np.random.default_rng(in_c * 7 + len(mask))
    conv = _conv(rng, in_c, MASKS[mask])
    xb = pack(random_pm1_tensor(rng, (2, in_c, 5, 4)))
    _check(conv, _bn(rng, kind, conv, xb), xb)


@pytest.mark.parametrize("in_c", [3, 33])
@pytest.mark.parametrize("mask", sorted(MASKS))
@pytest.mark.parametrize("kind", BN_KINDS)
def test_conv_bn_step_at_counts_zero_and_all(kind, mask, in_c):
    # a window as large as the input: each image is one dot per channel, and
    # images equal to a weight row or to its negation give counts 0 and K
    rng = np.random.default_rng(in_c)
    conv = _conv(rng, in_c, MASKS[mask], kernel=3, pad=0)
    live = int(np.flatnonzero(MASKS[mask])[0])
    w_re, w_im = np.sign(conv.w_re[live]), np.sign(conv.w_im[live])
    w_re[w_re == 0], w_im[w_im == 0] = 1.0, 1.0
    re = np.stack([w_re, -w_re, w_im, -w_im, np.ones_like(w_re)])
    im = np.stack([-w_im, w_im, w_re, -w_re, -np.ones_like(w_re)])
    xb = pack(ComplexTensor(re, im))
    counts = _counts(conv, xb)
    k = conv.geometry.row_bits
    assert counts[0, 0, :2].ravel().tolist() == [0, k]  # [x_r | x_i] vs [w_r | ~w_i]
    assert counts[1, 0, 2:4].ravel().tolist() == [0, k]  # vs [w_i | w_r]
    _check(conv, _bn(rng, kind, conv, xb), xb)
    # a threshold sitting exactly on either end of the count range
    bn = _bn(rng, "gamma_positive", conv, xb)
    for mean in (k, -k, k - 2, 2 - k):
        bn.running_mean_re[:] = mean
        bn.running_mean_im[:] = -mean
        bn.beta_re[:] = bn.beta_im[:] = 0.0
        _check(conv, bn, xb)


@pytest.mark.parametrize("staircase", [slice(None), slice(None, None, 2)],
                         ids=["all_channels", "alternate_channels"])
def test_conv_bn_step_falls_back_to_float_cgbn_where_the_estimate_misses(staircase,
                                                                        monkeypatch):
    # x - mean rounds to multiples of 256 when |mean| = 2**60: the float
    # output is a staircase whose zero lies tens of counts from the estimate,
    # so the probe does not settle those channels and they take the float CGBN
    import bcnn.models as models

    rng = np.random.default_rng(3)
    conv = _conv(rng, 40, MASKS["none_pruned"])
    xb = pack(random_pm1_tensor(rng, (3, 40, 6, 6)))
    bn = CgbnLayer.identity(OUT_C, eps=0.0)
    bn.running_var_re[:] = bn.running_var_im[:] = 0.5  # 1 / sqrt(2 var + eps) == 1
    bn.running_mean_re[staircase] = -(2.0**60)
    bn.beta_re[staircase] = -(2.0**60)
    bn.running_mean_im[staircase] = 2.0**60
    bn.beta_im[staircase] = 2.0**60
    _check(conv, bn, xb)
    unsettled = np.flatnonzero(~models._sign_thresholds(bn, conv.geometry.row_bits)[2])
    np.testing.assert_array_equal(unsettled, np.arange(OUT_C)[staircase])
    calls = []
    cgbn = models.cgbn_forward
    monkeypatch.setattr(models, "cgbn_forward", lambda x, layer: calls.append(x.shape)
                        or cgbn(x, layer))
    _conv_bn_forward(conv, bn, xb, binarize=True)
    assert calls == [(1, OUT_C, 1, 4), (3, unsettled.size, 6, 6)]  # the probe, one float pass


NON_FINITE = {
    "negative_var": ("running_var_re", -1.0),  # 1 / sqrt(negative): NaN on both planes
    "zero_var": ("running_var_im", 0.0),  # with eps 0: an infinite scale
    "infinite_mean": ("running_mean_im", np.inf),
    "nan_mean": ("running_mean_re", np.nan),
    "infinite_gamma": ("gamma_re", np.inf),
    "negative_infinite_gamma": ("gamma_re", -np.inf),
    "infinite_beta": ("beta_re", np.inf),
    "negative_infinite_beta": ("beta_im", -np.inf),
    "nan_beta": ("beta_re", np.nan),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_conv_bn_step_with_non_finite_statistics(case):
    rng = np.random.default_rng(4)
    conv = _conv(rng, 8, MASKS["alternate_pruned"])
    xb = pack(random_pm1_tensor(rng, (2, 8, 4, 4)))
    bn = _bn(rng, "gamma_mixed_signs", conv, xb)
    bn.eps = 0.0
    field, value = NON_FINITE[case]
    for channels in (slice(None, None, 2), slice(None)):  # the live ones, then the pruned too
        getattr(bn, field)[channels] = value
        with np.errstate(all="ignore"):
            _check(conv, bn, xb)


@pytest.mark.parametrize("kind", [k for k in BN_KINDS if k != "complex_gamma_on_some"])
def test_conv_bn_step_probes_each_real_gamma_layer_once(kind, monkeypatch):
    # the closed-form estimate lands on the step: one small CGBN evaluation
    # for the thresholds, one for the pruned channels' constants
    import bcnn.models as models

    rng = np.random.default_rng(5)
    conv = _conv(rng, 33, MASKS["alternate_pruned"])
    xb = pack(random_pm1_tensor(rng, (2, 33, 5, 5)))
    bn = _bn(rng, kind, conv, xb)
    calls = []
    cgbn = models.cgbn_forward
    monkeypatch.setattr(models, "cgbn_forward", lambda x, layer: calls.append(x.shape)
                        or cgbn(x, layer))
    _conv_bn_forward(conv, bn, xb, binarize=True)
    assert calls == [(1, 3, 1, 1), (1, 3, 1, 4)]
