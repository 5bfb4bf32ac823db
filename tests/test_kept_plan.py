"""A model keeps its packed plan (``models._model_plan``) only while the plan
still describes it: every action that changes the model, from the engine or
from a caller, must leave the next packed forward equal to the dense path.
The plan compares the body with copies of its arrays, so no edit needs a
gate, and a packed forward leaves every array as writeable as it was."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from bcnn.errors import ReadOnlyParameter
from bcnn.layers import CgbnLayer
from bcnn.model_io import model_to_bytes
from bcnn.models import (ComplexInputGenerator, Mode, ModelGraph, build_nin_bcnn, build_toy_bcnn,
                         check_batch, forward, iter_binary_convs, run_nodes, _fields_of,
                         _init_binary_conv)
from bcnn.slr import SlrConfig, budgets_from_ratio, slr_prune
from bcnn.training import Dataset, train_step
from helpers import hard_prune, real_gamma_cgbn


def _toy():
    return build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=41)


def _nin():
    # real-gamma CGBNs with moved statistics take the float rule, and
    # half-pruned convs cut the conv they feed
    return hard_prune(real_gamma_cgbn(build_nin_bcnn(4, seed=42), np.random.default_rng(42)), 0.5)


def _data(model, n=8, seed=43) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, *model.input_shape)), np.arange(n) % model.num_classes,
                   model.num_classes)


def _arrays(model):
    return [v for _, _, v in _fields_of(model.layers) if isinstance(v, np.ndarray)]


def _assert_serves(model, x):
    """Packed logits equal the dense path's, a fresh copy's and the kept plan's on a second
    forward, sign bits included."""
    packed = forward(model, x)
    for other in (forward(model, x, packed=False), forward(copy.deepcopy(model), x),
                  forward(model, x)):
        np.testing.assert_array_equal(packed, other)
        np.testing.assert_array_equal(np.signbit(packed), np.signbit(other))
    return packed


def _first_conv(model):
    return next(iter_binary_convs(model))


def _first_conv_index(model):
    return next(i for i, node in enumerate(model.layers) if node is _first_conv(model))


def _step_cgbn(model):
    """The CGBN right after the first binary conv, read by its step; None if a pool is between."""
    nxt = model.layers[_first_conv_index(model) + 1]
    return nxt if type(nxt) is CgbnLayer else None


def _cgbn_after_conv(model):
    """The first CGBN after the first binary conv: its step's on NIN, after a pool on the toy."""
    return next(node for node in model.layers[_first_conv_index(model):]
                if type(node) is CgbnLayer)


def _train(model, data):
    train_step(model, data.images, data.labels, lr=0.5, clip=1.0)


def _train_mode_forward(model, data):
    run_nodes(model.layers, check_batch(model, data.images), Mode.TRAIN_STEP)


def _slr_iteration(model, data):
    budgets = budgets_from_ratio(model, 0.5)
    slr_prune(model, data, SlrConfig(budgets=budgets, max_iters=1, inner_lr=0.5, batch_size=4))


def _outside_edit(model, data):
    # a caller edits the forwarded model in place: prune channel 0, flip channel 1, move a mean
    conv = _first_conv(model)
    for a in (conv.w_re, conv.w_im):
        a[0] = 0.0
        a[1] *= -1
    bn = _step_cgbn(model)
    if bn is not None:
        bn.running_mean_re[:] += 1.0


def _replace_array(model, data):
    conv = _first_conv(model)
    conv.w_im = -conv.w_im


def _replace_node(model, data):
    conv = _first_conv(model)
    g = conv.geometry
    fresh = _init_binary_conv(np.random.default_rng(44), g.in_channels, g.out_channels,
                              g.kernel, g.stride, g.padding)
    model.layers[next(i for i, node in enumerate(model.layers) if node is conv)] = fresh


def _packed_forward(model, data):
    forward(model, data.images)


ACTIONS = [("train_step", _train), ("forward", _packed_forward),
           ("run_nodes_train_step", _train_mode_forward), ("slr_prune", _slr_iteration),
           ("outside_edit", _outside_edit), ("forward", _packed_forward),
           ("replace_array", _replace_array), ("train_step", _train),
           ("replace_node", _replace_node), ("run_nodes_train_step", _train_mode_forward)]


@pytest.mark.parametrize("build", [_toy, _nin], ids=["toy", "nin"])
def test_every_change_to_a_planned_model_reaches_its_next_packed_forward(build):
    model = build()
    data = _data(model)
    x = np.random.default_rng(45).random((5, *model.input_shape))
    before = _assert_serves(model, x)
    for name, action in ACTIONS:
        action(model, data)
        after = _assert_serves(model, x)
        if name != "forward":  # each change moves the logits, so a stale plan would show
            assert not np.array_equal(after, before), name
        before = after


@pytest.mark.parametrize("build", [_toy, _nin], ids=["toy", "nin"])
def test_a_planned_model_copies_and_pickles_to_a_writeable_model(build):
    model = build()
    model.note = "kept by copies"
    x = np.random.default_rng(46).random((3, *model.input_shape))
    want, blob = forward(model, x), model_to_bytes(model)
    assert all(a.flags.writeable for a in _arrays(model))
    copies = [copy.deepcopy(model)] + [pickle.loads(pickle.dumps(model, protocol))
                                       for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for clone in copies:
        assert "_packed_plan" not in vars(clone) and clone.note == model.note
        assert all(a.flags.writeable for a in _arrays(clone))
        assert model_to_bytes(clone) == blob
        np.testing.assert_array_equal(forward(clone, x), want)
        assert "_packed_plan" in vars(clone)  # kept, on arrays that view a pickle's buffers too
        _train(clone, _data(clone))  # its arrays are its own: the original is untouched
    assert model_to_bytes(model) == blob
    np.testing.assert_array_equal(forward(model, x), want)


def test_a_plan_that_read_views_sees_an_edit_of_their_base():
    model = _toy()
    conv = _first_conv(model)
    stacked = np.stack([conv.w_re, conv.w_im])
    conv.w_re, conv.w_im = stacked[0], stacked[1]
    x = np.random.default_rng(47).random((2, *model.input_shape))
    before = forward(model, x)
    plan = model._packed_plan
    stacked[:, 0] *= -1
    assert not np.array_equal(_assert_serves(model, x), before)
    assert model._packed_plan is not plan


def test_an_edit_through_a_view_taken_before_the_first_forward_reaches_the_next():
    model = _toy()
    v = _first_conv(model).w_re[0]
    x = np.random.default_rng(52).random((3, *model.input_shape))
    before = forward(model, x)
    v[...] = -v
    assert not np.array_equal(_assert_serves(model, x), before)


def _flip_conv_plane(model):
    _first_conv(model).w_re[1] *= -1


def _scale_running_var(model):
    _cgbn_after_conv(model).running_var_re[:] *= 4.0


def _flip_generator_w1(model):
    generator = model.layers[0]
    assert type(generator) is ComplexInputGenerator
    generator.w1[...] *= -1


@pytest.mark.parametrize("edit", [_flip_conv_plane, _scale_running_var, _flip_generator_w1],
                         ids=["conv_w_re", "cgbn_running_var", "generator_w1"])
@pytest.mark.parametrize("build", [_toy, _nin], ids=["toy", "nin"])
def test_an_in_place_edit_after_a_packed_forward_reaches_the_next(build, edit):
    model = build()
    x = np.random.default_rng(53).random((3, *model.input_shape))
    before = _assert_serves(model, x)
    edit(model)
    assert not np.array_equal(_assert_serves(model, x), before)


def test_a_signed_zero_flip_in_a_step_cgbn_plans_anew():
    model = build_nin_bcnn(4, seed=42)
    bn = _step_cgbn(model)
    assert bn is not None and not np.signbit(bn.beta_re[0]) and bn.beta_re[0] == 0.0
    x = np.random.default_rng(54).random((2, *model.input_shape))
    _assert_serves(model, x)
    plan = model._packed_plan
    bn.beta_re[0] = -0.0
    _assert_serves(model, x)
    assert model._packed_plan is not plan


@pytest.mark.parametrize("dtype", [np.float16, np.float64, np.longdouble, object])
def test_an_edit_of_an_array_of_any_dtype_reaches_the_next_packed_forward(dtype):
    # every dtype compares by its bytes, but an array of Python objects, whose bytes
    # are addresses, plans anew on every forward
    model = _toy()
    generator = model.layers[0]
    generator.b1 = generator.b1.astype(dtype)
    x = np.random.default_rng(57).random((2, *model.input_shape))
    before = _assert_serves(model, x)
    plan = model._packed_plan
    forward(model, x)
    assert (model._packed_plan is plan) == (dtype is not object)
    generator.b1[0] = 0.5
    assert not np.array_equal(_assert_serves(model, x), before)


@pytest.mark.parametrize("build", [_toy, _nin], ids=["toy", "nin"])
def test_a_packed_forward_never_changes_which_arrays_are_writeable(build):
    model = build()
    arrays = _arrays(model)
    for a in arrays[1::2]:  # every other array, the caller's to keep read-only
        a.flags.writeable = False
    flags = [a.flags.writeable for a in arrays]
    x = np.random.default_rng(55).random((2, *model.input_shape))
    forward(model, x)
    assert [a.flags.writeable for a in arrays] == flags
    writeable = next(a for a in arrays if a.flags.writeable and a.size)
    writeable.flat[0] += 1.0  # the next forward plans anew
    _assert_serves(model, x)
    assert [a.flags.writeable for a in arrays] == flags


@pytest.mark.parametrize("build", [_toy, _nin], ids=["toy", "nin"])
def test_an_unchanged_model_keeps_its_plan(build):
    model = build()
    rng = np.random.default_rng(56)
    forward(model, rng.random((1, *model.input_shape)))
    plan = model._packed_plan
    for batch in (3, 20):  # 20 images run as chunks on every core
        x = rng.random((batch, *model.input_shape))
        forward(model, x, packed=False)
        model_to_bytes(model)
        forward(model, x)
        assert model._packed_plan is plan


def _edit_in_place(model, data):
    _first_conv(model).w_re[:] *= -1


SHARERS = [copy.copy, lambda m: dataclasses.replace(m, name="sharer"),
           lambda m: ModelGraph("sharer", m.input_shape, m.num_classes, m.layers)]


@pytest.mark.parametrize("edit", [_train, _edit_in_place], ids=["train_step", "edit_in_place"])
@pytest.mark.parametrize("share", SHARERS, ids=["copy", "replace", "same_layers"])
def test_a_model_sharing_the_nodes_of_a_planned_model_leaves_no_stale_plan(share, edit):
    model = _toy()
    x = np.random.default_rng(48).random((3, *model.input_shape))
    before = forward(model, x)
    sharer = share(model)
    edit(sharer, _data(sharer))
    forward(sharer, x)  # plans the sharer anew; the model's own plan still holds the old copies
    after = _assert_serves(model, x)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(forward(sharer, x), after)


def test_arrays_the_caller_made_read_only_stay_so_through_training():
    model = _toy()
    for a in _arrays(model):
        a.flags.writeable = False
    x = np.random.default_rng(49).random((2, *model.input_shape))
    want, blob = _assert_serves(model, x), model_to_bytes(model)
    with pytest.raises(ValueError, match="read-only"):
        _train(model, _data(model))
    assert not any(a.flags.writeable for a in _arrays(model))
    assert model_to_bytes(model) == blob
    np.testing.assert_array_equal(forward(model, x), want)


def _snapshot(model):
    return [a.copy() for a in _arrays(model)], model_to_bytes(model)


def _assert_unchanged(model, snapshot):
    arrays, blob = snapshot
    for a, was in zip(_arrays(model), arrays, strict=True):
        np.testing.assert_array_equal(a, was)
    assert model_to_bytes(model) == blob


def test_a_training_step_on_one_read_only_array_writes_nothing():
    # the step wrote the 27 other arrays, running statistics included, then raised
    model = _toy()
    model.layers[0].w1.flags.writeable = False
    snapshot = _snapshot(model)
    with pytest.raises(ReadOnlyParameter, match="^ComplexInputGenerator w1 is read-only"):
        _train(model, _data(model))
    _assert_unchanged(model, snapshot)


def test_an_slr_write_on_one_read_only_plane_writes_nothing():
    # the write zeroed channels of w_re, then raised on w_im: a half-pruned conv
    model = _toy()
    _first_conv(model).w_im.flags.writeable = False
    snapshot = _snapshot(model)
    budgets = budgets_from_ratio(model, 0.5)
    with pytest.raises(ReadOnlyParameter, match="^BinaryConvLayer w_im is read-only"):
        slr_prune(model, _data(model), SlrConfig(budgets=budgets, max_iters=0))
    _assert_unchanged(model, snapshot)


@pytest.mark.parametrize("build", [_toy, _nin], ids=["toy", "nin"])
def test_a_refused_training_step_leaves_the_kept_plan_in_place(build):
    # the check covers every array before any write, so a read-only array late in field
    # order leaves every array as the plan copied it, and the plan holding
    model = build()
    last_bn = [node for node in model.layers if type(node) is CgbnLayer][-1]
    last_bn.running_var_im.flags.writeable = False
    x = np.random.default_rng(50).random((2, *model.input_shape))
    want = forward(model, x)
    plan = model._packed_plan
    flags = [a.flags.writeable for a in _arrays(model)]
    assert flags.count(False) == 1
    with pytest.raises(ReadOnlyParameter, match="^CgbnLayer running_var_im is read-only"):
        _train(model, _data(model))
    assert [a.flags.writeable for a in _arrays(model)] == flags
    np.testing.assert_array_equal(forward(model, x), want)
    assert model._packed_plan is plan
