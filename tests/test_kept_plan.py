"""A model keeps its packed plan (``models._model_plan``) only while the plan
still describes it: every action that changes the model, from the engine or
from a caller, must leave the next packed forward equal to the dense path."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from bcnn.layers import CgbnLayer
from bcnn.model_io import model_to_bytes
from bcnn.models import (Mode, ModelGraph, build_nin_bcnn, build_toy_bcnn, check_batch, forward,
                         iter_binary_convs, run_nodes, _fields_of, _init_binary_conv)
from bcnn.slr import SlrConfig, budgets_from_ratio, slr_prune
from bcnn.training import Dataset, train_step
from helpers import hard_prune, real_gamma_cgbn


def _toy():
    return build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=41)


def _nin():
    # real-gamma CGBNs fold, and half-pruned convs cut the conv they feed
    return hard_prune(real_gamma_cgbn(build_nin_bcnn(4, seed=42), np.random.default_rng(42)), 0.5)


def _data(model, n=8, seed=43) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, *model.input_shape)), np.arange(n) % model.num_classes,
                   model.num_classes)


def _arrays(model):
    return [v for _, _, v in _fields_of(model.layers) if isinstance(v, np.ndarray)]


def _assert_serves(model, x):
    """Packed logits equal the dense path's and a fresh copy's, sign bits included.  The
    copy's planning drops the model's plan, so the last forward plans the model again: its
    plan is then the newest, and only its own checks can find the next action's change."""
    packed = forward(model, x)
    for other in (forward(model, x, packed=False), forward(copy.deepcopy(model), x),
                  forward(model, x)):
        np.testing.assert_array_equal(packed, other)
        np.testing.assert_array_equal(np.signbit(packed), np.signbit(other))
    return packed


def _first_conv(model):
    return next(iter_binary_convs(model))


def _step_cgbn(model):
    """The CGBN right after the first binary conv, read by its step; None if a pool is between."""
    i = next(i for i, node in enumerate(model.layers) if node is _first_conv(model))
    return model.layers[i + 1] if type(model.layers[i + 1]) is CgbnLayer else None


def _train(model, data):
    train_step(model, data.images, data.labels, lr=0.5, clip=1.0)


def _train_mode_forward(model, data):
    run_nodes(model.layers, check_batch(model, data.images), Mode.TRAIN_STEP)


def _slr_iteration(model, data):
    budgets = budgets_from_ratio(model, 0.5)
    slr_prune(model, data, SlrConfig(budgets=budgets, max_iters=1, inner_lr=0.5, batch_size=4))


def _outside_edit(model, data):
    conv = _first_conv(model)
    with pytest.raises(ValueError, match="read-only"):
        conv.w_re[0] = 1.0
    bn = _step_cgbn(model)
    if bn is not None:
        with pytest.raises(ValueError, match="read-only"):
            bn.running_mean_re[:] += 1.0
    # a caller who makes the arrays writeable may edit them: prune channel 0, flip channel 1
    for a in (conv.w_re, conv.w_im):
        a.flags.writeable = True
        a[0] = 0.0
        a[1] *= -1


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
    assert any(not a.flags.writeable for a in _arrays(model))
    copies = [copy.deepcopy(model)] + [pickle.loads(pickle.dumps(model, protocol))
                                       for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for clone in copies:
        assert "_packed_plan" not in vars(clone) and clone.note == model.note
        assert all(a.flags.writeable for a in _arrays(clone))
        assert model_to_bytes(clone) == blob
        np.testing.assert_array_equal(forward(clone, x), want)
        assert "_packed_plan" in vars(clone)  # its arrays own their memory: the plan is kept
        _train(clone, _data(clone))  # its arrays are its own: the original is untouched
    assert model_to_bytes(model) == blob
    np.testing.assert_array_equal(forward(model, x), want)


def test_a_plan_that_read_a_view_is_not_kept():
    model = _toy()
    conv = _first_conv(model)
    stacked = np.stack([conv.w_re, conv.w_im])
    conv.w_re, conv.w_im = stacked[0], stacked[1]  # views: stacked stays writeable
    x = np.random.default_rng(47).random((2, *model.input_shape))
    forward(model, x)
    assert "_packed_plan" not in vars(model) and conv.w_re.flags.writeable
    stacked[:, 0] *= -1
    _assert_serves(model, x)


def _thaw_and_edit(model, data):
    conv = _first_conv(model)
    conv.w_re.flags.writeable = True
    conv.w_re[:] *= -1


SHARERS = [copy.copy, lambda m: dataclasses.replace(m, name="sharer"),
           lambda m: ModelGraph("sharer", m.input_shape, m.num_classes, m.layers)]


@pytest.mark.parametrize("edit", [_train, _thaw_and_edit], ids=["train_step", "thaw_and_edit"])
@pytest.mark.parametrize("share", SHARERS, ids=["copy", "replace", "same_layers"])
def test_a_model_sharing_the_nodes_of_a_planned_model_leaves_no_stale_plan(share, edit):
    model = _toy()
    x = np.random.default_rng(48).random((3, *model.input_shape))
    before = forward(model, x)
    sharer = share(model)
    edit(sharer, _data(sharer))
    forward(sharer, x)  # plans the sharer, freezing the written arrays again
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
