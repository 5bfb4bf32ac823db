"""The packed conv -> CGBN (-> Binarize) step against the node-by-node forward.

The step, run by ``run_nodes`` in ``Mode.PACKED`` as ``forward`` runs it,
has two rules.  Skip: when a Binarize follows a CGBN that keeps every
dot's sign (``models._keeps_signs``), the step binarizes the conv's
integer dots and runs no CGBN, pruned channels included.
Float: otherwise the CGBN runs on the live channels only.  Every case must
give float planes equal to ``cgbn_forward(binary_complex_conv2d(...))``
with equal sign bits, and words byte-identical to ``pack_signs`` of those
planes.  A conv fed by a partly pruned conv -> CGBN -> Binarize reads only
the live input channels, plus the constant ones' dots as a bias map: every
such forward's logits must equal the dense path's, ``signbit`` included.
"""

import numpy as np
import pytest

from bcnn.binary_ops import ConvGeometry, binary_complex_conv2d, mismatch_counts
from bcnn.layers import CgbnLayer, cgbn_forward
from bcnn.models import (Binarize, BinaryConvLayer, Mode, active_output_channels, run_nodes,
                         _keeps_signs)
from bcnn.tensors import ComplexTensor, pack, pack_signs, unpack
from helpers import CGBN_KINDS, cut_convs, random_pm1_tensor

OUT_C = 6

MASKS = {
    "none_pruned": [True] * OUT_C,
    "alternate_pruned": [True, False] * (OUT_C // 2),
    "all_but_one_pruned": [False, False, False, True, False, False],
    "all_pruned": [False] * OUT_C,
}


def _conv(rng, in_c, mask, kernel=3, stride=1, pad=1):
    w_re = rng.standard_normal((OUT_C, in_c, kernel, kernel)).astype(np.float32)
    w_im = rng.standard_normal((OUT_C, in_c, kernel, kernel)).astype(np.float32)
    w_re[~np.array(mask)] = 0.0
    w_im[~np.array(mask)] = 0.0
    g = ConvGeometry(in_c, OUT_C, (kernel, kernel), (stride, stride), (pad, pad))
    return BinaryConvLayer(w_re, w_im, g)


@pytest.fixture
def cgbn_calls(monkeypatch):
    """The input shape of every ``models.cgbn_forward`` call, in call order."""
    import bcnn.models as models

    calls = []
    cgbn = models.cgbn_forward
    monkeypatch.setattr(models, "cgbn_forward", lambda x, layer: calls.append(x.shape)
                        or cgbn(x, layer))
    return calls


def _counts(conv, xb):
    w = pack_signs(ComplexTensor(conv.w_re, conv.w_im))
    return mismatch_counts(xb, w, conv.geometry, active_output_channels(conv))


def _step(conv, bn, xb, binarize):
    """The packed conv -> CGBN step on ``xb``, with a Binarize after it if
    ``binarize``: one prepared step of ``run_nodes``."""
    return run_nodes([conv, bn] + [Binarize()] * binarize, xb, Mode.PACKED)[0]


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
    elif kind == "identity":
        bn = CgbnLayer.identity(c)
    elif kind == "keeps_signs":
        # a positive gamma on any scale, and every shift +-0.0: the CGBN keeps each dot's sign
        bn.gamma_re[:] = rng.uniform(0.1, 3.0, c)
        bn.eps = float(rng.uniform(1e-6, 10.0))
        for a in (bn.running_mean_re, bn.running_mean_im, bn.beta_re, bn.beta_im, bn.gamma_im):
            a[:] = rng.choice([0.0, -0.0], c)
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
    y = _step(conv, bn, xb, False)
    for plane, want in ((y.re, ref.re), (y.im, ref.im)):
        np.testing.assert_array_equal(plane, want)
        np.testing.assert_array_equal(np.signbit(plane), np.signbit(want))
    words, want = _step(conv, bn, xb, True), pack_signs(ref)
    assert words.shape == want.shape
    assert words.re_words.tobytes() == want.re_words.tobytes()
    assert words.im_words.tobytes() == want.im_words.tobytes()


# the kinds whose CGBN moves the sign of some dot, then those that keep every sign
SIGN_MOVING_KINDS = ("gamma_positive", "gamma_negative", "gamma_zero", "gamma_mixed_signs",
                     "complex_gamma_on_some", "large_beta", "mean_on_a_count")
SIGN_KEEPING_KINDS = ("identity", "keeps_signs")
BN_KINDS = SIGN_MOVING_KINDS + SIGN_KEEPING_KINDS


@pytest.mark.parametrize("in_c", [1, 31, 32, 33, 65])  # 2*in_c crosses a 64-bit word
@pytest.mark.parametrize("mask", sorted(MASKS))
@pytest.mark.parametrize("kind", BN_KINDS)
def test_conv_bn_step_matches_node_by_node(kind, mask, in_c):
    rng = np.random.default_rng(in_c * 7 + len(mask))
    conv = _conv(rng, in_c, MASKS[mask])
    xb = pack(random_pm1_tensor(rng, (2, in_c, 5, 4)))
    bn = _bn(rng, kind, conv, xb)
    assert _keeps_signs(bn) == (kind in SIGN_KEEPING_KINDS)
    _check(conv, bn, xb)


@pytest.mark.parametrize("in_c", [3, 33])
@pytest.mark.parametrize("mask", sorted(m for m in MASKS if any(MASKS[m])))
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
    # the output's zero sitting exactly on either end of the count range
    bn = _bn(rng, "gamma_positive", conv, xb)
    for mean in (k, -k, k - 2, 2 - k):
        bn.running_mean_re[:] = mean
        bn.running_mean_im[:] = -mean
        bn.beta_re[:] = bn.beta_im[:] = 0.0
        _check(conv, bn, xb)


@pytest.mark.parametrize("staircase", [slice(None), slice(None, None, 2)],
                         ids=["all_channels", "alternate_channels"])
def test_staircase_statistics_take_the_float_cgbn(staircase, cgbn_calls):
    # x - mean rounds to multiples of 256 when |mean| = 2**60: the float
    # output is a staircase in the dots whose zero lies far from dot 0, so
    # the two-point check fails and the whole layer takes the float CGBN
    rng = np.random.default_rng(3)
    conv = _conv(rng, 40, MASKS["none_pruned"])
    xb = pack(random_pm1_tensor(rng, (3, 40, 6, 6)))
    bn = CgbnLayer.identity(OUT_C, eps=1e-5)
    bn.running_var_re[:] = bn.running_var_im[:] = 0.5
    bn.running_mean_re[staircase] = -(2.0**60)
    bn.beta_re[staircase] = -(2.0**60)
    bn.running_mean_im[staircase] = 2.0**60
    bn.beta_im[staircase] = 2.0**60
    _check(conv, bn, xb)
    assert not _keeps_signs(bn)
    cgbn_calls.clear()
    _step(conv, bn, xb, True)
    assert cgbn_calls == [(1, OUT_C, 1, 2), (3, OUT_C, 6, 6)]  # the check, one float pass


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


@pytest.mark.parametrize("kind", [k for k in SIGN_MOVING_KINDS if k != "complex_gamma_on_some"])
def test_conv_bn_step_checks_each_real_gamma_layer_once(kind, cgbn_calls):
    # a real-gamma CGBN that moves a sign: one two-point check on every
    # channel, pruned ones included, then the float rule
    rng = np.random.default_rng(5)
    conv = _conv(rng, 33, MASKS["alternate_pruned"])
    xb = pack(random_pm1_tensor(rng, (2, 33, 5, 5)))
    bn = _bn(rng, kind, conv, xb)
    _step(conv, bn, xb, True)
    # the check, the pruned channels' constants, then the live channels
    assert cgbn_calls == [(1, OUT_C, 1, 2), (1, 3, 1, 1), (2, 3, 5, 5)]


@pytest.mark.parametrize("kind", SIGN_KEEPING_KINDS)
@pytest.mark.parametrize("mask", sorted(MASKS))
def test_a_sign_keeping_cgbn_runs_only_its_check(kind, mask, cgbn_calls):
    # the step binarizes the dots, and a pruned channel's +0.0 gives +1
    rng = np.random.default_rng(10)
    active = np.array(MASKS[mask])
    conv = _conv(rng, 9, active)
    xb = pack(random_pm1_tensor(rng, (2, 9, 4, 4)))
    bn = _bn(rng, kind, conv, xb)
    bits = unpack(_step(conv, bn, xb, True))
    assert cgbn_calls == [(1, OUT_C, 1, 2)]
    assert np.all(bits.re[:, ~active] == 1.0) and np.all(bits.im[:, ~active] == 1.0)
    _check(conv, bn, xb)


NEAR_MISSES = {  # one channel off a sign-keeping CGBN: (field, value)
    "beta_below_zero": ("beta_re", -1e-30),  # the dot 0 binarizes to -1
    "mean_one_half": ("running_mean_im", 0.5),  # so does the dot 0
    "gamma_zero": ("gamma_re", 0.0),  # every dot binarizes to +1
    "complex_gamma": ("gamma_im", 0.5),  # the two-point check alone passes this
}


@pytest.mark.parametrize("channel", [0, 1], ids=["live", "pruned"])
@pytest.mark.parametrize("case", sorted(NEAR_MISSES))
def test_a_near_miss_of_a_sign_keeping_cgbn_takes_the_float_rule(case, channel):
    rng = np.random.default_rng(11)
    conv = _conv(rng, 9, MASKS["alternate_pruned"])  # channel 0 is live, channel 1 pruned
    xb = pack(random_pm1_tensor(rng, (2, 9, 4, 4)))
    bn = CgbnLayer.identity(OUT_C)
    field, value = NEAR_MISSES[case]
    getattr(bn, field)[channel] = value
    assert not _keeps_signs(bn)
    _check(conv, bn, xb)


def test_one_complex_gamma_channel_sends_the_whole_layer_to_float_cgbn(cgbn_calls):
    rng = np.random.default_rng(6)
    conv = _conv(rng, 33, MASKS["alternate_pruned"])
    xb = pack(random_pm1_tensor(rng, (2, 33, 5, 5)))
    bn = _bn(rng, "gamma_positive", conv, xb)
    bn.gamma_im[3] = 0.25
    _check(conv, bn, xb)
    cgbn_calls.clear()
    _step(conv, bn, xb, True)
    # no sign check: the pruned channels' constants, then the live channels
    assert cgbn_calls == [(1, 3, 1, 1), (2, 3, 5, 5)]


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_pruned_channel_binarizes_to_the_sign_of_cgbn_of_zero(signs, cgbn_calls):
    # a pruned channel's conv output is +0.0, so the step gives it the sign
    # CGBN gives +0.0 on each plane, at every pixel
    rng = np.random.default_rng(7)
    mask = np.array(MASKS["alternate_pruned"])
    conv = _conv(rng, 9, mask)
    xb = pack(random_pm1_tensor(rng, (2, 9, 4, 4)))
    bn = _bn(rng, "gamma_positive", conv, xb)
    bn.running_mean_re[~mask] = -signs[0] * 5.0
    bn.running_mean_im[~mask] = -signs[1] * 5.0
    bn.beta_re[:] = bn.beta_im[:] = 0.0
    _check(conv, bn, xb)
    cgbn_calls.clear()
    bits = unpack(_step(conv, bn, xb, True))
    # the check, the pruned channels' constants, then the live channels
    assert cgbn_calls == [(1, OUT_C, 1, 2), (1, 3, 1, 1), (2, 3, 4, 4)]
    zero = np.zeros((1, OUT_C, 1, 1))
    const = cgbn_forward(ComplexTensor(zero, zero), bn)
    for plane, want, sign in ((bits.re, const.re, signs[0]), (bits.im, const.im, signs[1])):
        assert np.all(np.where(want[0, ~mask] >= 0, 1.0, -1.0) == sign)
        assert np.all(plane[:, ~mask] == sign)


SCALES = {"gamma_re": [5e-324, 1e-30, 1e30], "running_var_re": [0.0, 3e38, 1e-300, -0.25],
          "running_var_im": [0.0, 3e38, 1e-300, -0.25]}
SHIFTS = [("gamma_re", [0.0, -1.0, -5e-324]), ("gamma_im", [0.5, -1e-30]),
          ("beta_re", [-1e-30, 1e-30, -2.0]), ("beta_im", [-1e-30, 3.0]),
          ("running_mean_re", [0.5, -1.0, 1e-300]), ("running_mean_im", [-0.5, 2.0])]


def _near_sign_keeping_cgbn(rng):
    """A CGBN drawn on and next to the sign-keeping ones: float32 or float64
    fields, signed zeros, eps of 0, 1e-300, 1e-5 or 1e10, in some draws one
    channel with a subnormal or huge scale or a zero or negative variance
    (``SCALES``), and in half the draws one field of one channel moved by a
    near miss (``SHIFTS``)."""
    fields = {name: rng.choice([0.0, -0.0], OUT_C) for name in
              ("gamma_im", "beta_re", "beta_im", "running_mean_re", "running_mean_im")}
    fields["gamma_re"] = rng.uniform(0.1, 3.0, OUT_C)
    fields["running_var_re"] = rng.uniform(0.1, 10.0, OUT_C)
    fields["running_var_im"] = rng.uniform(0.1, 10.0, OUT_C)
    edits = [edit for edit in SCALES.items() if rng.random() < 0.3]
    if rng.random() < 0.5:
        edits.append(SHIFTS[rng.integers(len(SHIFTS))])
    for name, values in edits:
        fields[name][rng.integers(OUT_C)] = rng.choice(values)
    dtype = rng.choice([np.float32, np.float64])
    return CgbnLayer(**{name: a.astype(dtype) for name, a in fields.items()},
                     eps=float(rng.choice([0.0, 1e-300, 1e-5, 1e10])), momentum=0.1)


def test_a_seeded_sweep_of_near_sign_keeping_cgbns_gives_the_node_by_node_words():
    # each draw: a conv with random pruning and geometry, a CGBN from
    # ``_near_sign_keeping_cgbn``, and the step's words against pack_signs
    # of the node-by-node planes; both rules must run
    rng = np.random.default_rng(12)
    skipped = 0
    for _ in range(400):
        in_c, kernel = int(rng.integers(1, 5)), int(rng.choice([1, 3]))
        conv = _conv(rng, in_c, rng.random(OUT_C) < 0.7, kernel=kernel, pad=kernel // 2)
        xb = pack(random_pm1_tensor(rng, (2, in_c, 3, 3)))
        bn = _near_sign_keeping_cgbn(rng)
        with np.errstate(all="ignore"):
            skipped += _keeps_signs(bn)
            w = pack_signs(ComplexTensor(conv.w_re, conv.w_im))
            want = pack_signs(cgbn_forward(binary_complex_conv2d(
                xb, w, conv.geometry, active=active_output_channels(conv)), bn))
            words = _step(conv, bn, xb, True)
        assert words.re_words.tobytes() == want.re_words.tobytes()
        assert words.im_words.tobytes() == want.im_words.tobytes()
    assert 100 < skipped < 300, skipped


# ---------------------------------------------------------------------------
# live input channels: a conv fed by a partly pruned conv -> CGBN -> Binarize
# ---------------------------------------------------------------------------

MID_C = 70  # conv A's output channels take two words per pixel; half of them, one

A_MASKS = {
    "half_pruned": lambda rng: np.arange(MID_C) % 2 == rng.integers(2),
    "random_pruned": lambda rng: rng.random(MID_C) < 0.6,
    "all_but_one_pruned": lambda rng: np.arange(MID_C) == rng.integers(MID_C),
    "all_pruned": lambda rng: np.zeros(MID_C, dtype=bool),
    "none_pruned": lambda rng: np.ones(MID_C, dtype=bool),
}
B_GEOMETRIES = {  # (kernel, stride, padding) of conv B on a 7x7 input
    "3x3_pad1_stride1": ((3, 3), (1, 1), (1, 1)),
    "3x3_pad1_stride2": ((3, 3), (2, 2), (1, 1)),
    "1x1": ((1, 1), (1, 1), (0, 0)),
}
B_TAILS = ("cgbn_binarize_conv", "cgbn", "none")  # what follows conv B


def _prune(conv, live):
    conv.w_re[~live] = 0.0
    conv.w_im[~live] = 0.0


def _live_input_model(seed, mask, kind, geometry, tail, b_pruned=np.arange(9) % 3 == 0):
    """generator -> fp conv -> CGBN -> Binarize -> conv A (``mask`` pruned) ->
    CGBN -> Binarize -> conv B (``geometry``, its ``b_pruned`` outputs
    pruned) -> ``tail``, then Flatten and a Dense head, every CGBN moved as
    ``CGBN_KINDS[kind]`` says."""
    from bcnn.models import (Activation, Binarize, Flatten, ModelGraph,
                             build_complex_input_generator, validate_graph, walk_shapes,
                             _init_binary_conv, _init_complex_conv, _init_dense)

    rng = np.random.default_rng(seed)
    conv_a = _init_binary_conv(rng, 4, MID_C, (3, 3), padding=(1, 1))
    _prune(conv_a, A_MASKS[mask](rng))
    conv_b = _init_binary_conv(rng, MID_C, 9, *B_GEOMETRIES[geometry])
    _prune(conv_b, ~b_pruned)
    layers = [build_complex_input_generator(3, seed=seed),
              _init_complex_conv(rng, 3, 4, (3, 3), padding=(1, 1)), CgbnLayer.identity(4),
              Binarize(), conv_a, CgbnLayer.identity(MID_C), Binarize(), conv_b]
    if tail != "none":
        layers.append(CgbnLayer.identity(9))
    if tail == "cgbn_binarize_conv":  # B is a partly pruned first conv in turn: C is cut too
        conv_c = _init_binary_conv(rng, 9, 5, (3, 3), padding=(1, 1))
        _prune(conv_c, np.arange(5) != 2)
        layers += [Binarize(), conv_c, CgbnLayer.identity(5)]
    layers.append(Flatten())
    features = walk_shapes(layers, Activation((3, 7, 7))).dims[0]
    model = ModelGraph("live-input", (3, 7, 7), 2, layers + [_init_dense(rng, features, 2)])
    validate_graph(model)
    return CGBN_KINDS[kind](model, rng)


@pytest.mark.parametrize("tail", B_TAILS)
@pytest.mark.parametrize("geometry", sorted(B_GEOMETRIES))
@pytest.mark.parametrize("kind", ["identity", "real_gamma", "complex_gamma"])
@pytest.mark.parametrize("mask", sorted(A_MASKS))
def test_a_conv_reads_only_the_live_input_channels(mask, kind, geometry, tail):
    from bcnn.models import forward

    seed = sorted(A_MASKS).index(mask) * 97 + len(kind) * 13 + len(geometry) + len(tail)
    model = _live_input_model(seed, mask, kind, geometry, tail)
    partial = mask not in ("all_pruned", "none_pruned")
    # B is cut when A is partly pruned; C is cut too, since a third of B is pruned
    assert cut_convs(model) == partial + (tail == "cgbn_binarize_conv")
    for batch in (1, 20):  # 20 images run as a split forward
        x = np.random.default_rng(batch).random((batch, 3, 7, 7))
        packed, dense = forward(model, x), forward(model, x, packed=False)
        np.testing.assert_array_equal(packed, dense)
        np.testing.assert_array_equal(np.signbit(packed), np.signbit(dense))


@pytest.mark.parametrize("tail", B_TAILS)
@pytest.mark.parametrize("kind", ["real_gamma", "complex_gamma"])
def test_a_cut_conv_with_every_output_channel_pruned(kind, tail):
    from bcnn.models import forward

    model = _live_input_model(9, "half_pruned", kind, "3x3_pad1_stride2", tail,
                              b_pruned=np.ones(9, dtype=bool))
    assert cut_convs(model) == 1  # B is cut; with no live output, B cuts nothing
    x = np.random.default_rng(9).random((20, 3, 7, 7))
    packed, dense = forward(model, x), forward(model, x, packed=False)
    np.testing.assert_array_equal(packed, dense)
    np.testing.assert_array_equal(np.signbit(packed), np.signbit(dense))


CONST_SETS = {  # (conv input channels, the constant ones)
    "random_of_11": (11, lambda rng: rng.random(11) < 0.5),
    "70_of_80": (80, lambda rng: np.arange(80) % 8 != 0),  # across a word boundary, 2 words
}


@pytest.mark.parametrize("const_set", sorted(CONST_SETS))
@pytest.mark.parametrize("geometry", sorted(B_GEOMETRIES))
def test_the_bias_map_is_the_constant_channels_dot_with_border_padding(geometry, const_set):
    # on each output pixel the cut conv's dots plus the bias are the whole
    # conv's dots: the constant channels add one integer inside the image and
    # others where a window covers the -1 padding
    from bcnn.models import _constant_dots

    (kernel, _), (stride, _), (pad, _) = B_GEOMETRIES[geometry]
    in_c, const_of = CONST_SETS[const_set]
    rng = np.random.default_rng(8)
    conv = _conv(rng, in_c, MASKS["alternate_pruned"], kernel=kernel, stride=stride, pad=pad)
    const = const_of(rng)
    signs = rng.random((2, in_c)) < 0.5
    active = np.array(MASKS["alternate_pruned"])
    x = random_pm1_tensor(rng, (1, in_c, 7, 7))
    x.re[:, const] = np.where(signs[0, const], 1.0, -1.0)[:, None, None]
    x.im[:, const] = np.where(signs[1, const], 1.0, -1.0)[:, None, None]
    whole = binary_complex_conv2d(pack(x), pack_signs(ComplexTensor(conv.w_re, conv.w_im)),
                                  conv.geometry, active=active)
    keep = ~const
    part = ComplexTensor(x.re[:, keep], x.im[:, keep])
    g = ConvGeometry(int(keep.sum()), OUT_C, *B_GEOMETRIES[geometry])
    cut = binary_complex_conv2d(pack(part), pack_signs(ComplexTensor(conv.w_re[:, keep],
                                                                     conv.w_im[:, keep])),
                                g, active=active)
    bias = _constant_dots(conv, const, signs[:, const], (7, 7), active)
    assert bias.shape == (2, active.sum(), *g.out_hw(7, 7))
    np.testing.assert_array_equal(cut.re[:, active] + bias[0], whole.re[:, active])
    np.testing.assert_array_equal(cut.im[:, active] + bias[1], whole.im[:, active])
    # the border rows and columns differ where a window covers the padding
    assert (len(np.unique(bias[0, 0])) > 1) == (pad > 0)
