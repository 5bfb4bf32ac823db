"""The shape walk is the graph contract.

Seeded random graphs drawn from every node kind: each graph that
``validate_graph`` accepts must infer (packed == dense, exactly), train,
keep its running statistics under ``batch_loss`` and round-trip BCN1
byte-identically; each graph it rejects must also be refused by saving and,
framed without validation, by loading.
"""

from dataclasses import fields

import numpy as np
import pytest

from bcnn.errors import CorruptModelFile, ShapeMismatch
from bcnn.layers import CgbnLayer
from bcnn.model_io import _encode_graph, model_from_bytes, model_to_bytes
from bcnn.models import (NODE_KINDS, AvgPool, Binarize, BinaryConvLayer, ComplexInputGenerator,
                         Flatten, MaxPool, Mode, ModelGraph, SpectralPool,
                         backprop_nodes, build_complex_input_generator, forward, graph_nodes,
                         kind_of, run_nodes, validate_graph, _block1, _block2, _init_binary_conv,
                         _init_complex_conv, _init_dense)
from bcnn.training import batch_loss, softmax_cross_entropy, train_step
from helpers import cut_convs, every_node_kind_model

GRAPHS = 300
BATCH = 3
SPLIT_BATCH = 20  # more than one chunk of images: a split forward
NUM_CLASSES = 2
PRUNED = 0.4  # the share of a binary conv's output channels pruned at random

REAL_PREFIX = ("avg", "max", "conv", "binarize", "cgbn")
REAL_PREFIX_P = (0.35, 0.35, 0.1, 0.1, 0.1)
BODY = ("conv", "bin+binconv", "binconv", "binarize", "cgbn", "avg", "max", "spectral",
        "block1", "block2", "gen")
BODY_P = (0.16, 0.2, 0.03, 0.05, 0.12, 0.08, 0.08, 0.06, 0.1, 0.1, 0.02)


class _Draft:
    """A graph under construction and the (c, h, w) it should have reached."""

    def __init__(self, rng):
        self.rng = rng
        self.c = int(rng.integers(1, 4))
        self.h, self.w = (int(v) for v in rng.integers(1, 9, size=2))
        self.input_shape = (self.c, self.h, self.w)
        self.complex = False  # a generator has run: Flatten doubles the features
        self.layers = []

    def _channels(self) -> int:
        return int(self.rng.integers(1, 5))

    def _conv_geometry(self):
        k = int(self.rng.choice([1, 3]))
        s = int(self.rng.choice([1, 2]))
        p = int(self.rng.choice([0, 1]))
        self.h = max(1, (self.h + 2 * p - k) // s + 1)
        self.w = max(1, (self.w + 2 * p - k) // s + 1)
        return (k, k), (s, s), (p, p)

    def add(self, what: str):
        rng, c = self.rng, self.c
        if what == "gen":
            self.layers.append(build_complex_input_generator(c, seed=int(rng.integers(99))))
            self.complex = True
        elif what in ("conv", "binconv", "bin+binconv"):
            out_c = self._channels()
            if what == "bin+binconv":
                self.layers.append(Binarize())
            init = _init_complex_conv if what == "conv" else _init_binary_conv
            self.layers.append(init(rng, c, out_c, *self._conv_geometry()))
            self.c = out_c
        elif what in ("avg", "max"):
            # a window and stride in 1..3 that tile the size reached
            tiling = [(k, s) for k in range(1, 4) for s in range(1, 4)
                      if k <= min(self.h, self.w) and (self.h - k) % s == (self.w - k) % s == 0]
            k, s = tiling[rng.integers(len(tiling))]
            self.layers.append({"avg": AvgPool, "max": MaxPool}[what]((k, k), (s, s)))
            self.h, self.w = (self.h - k) // s + 1, (self.w - k) // s + 1
        elif what == "spectral":
            self.h, self.w = int(rng.integers(1, self.h + 1)), int(rng.integers(1, self.w + 1))
            self.layers.append(SpectralPool((self.h, self.w)))
        elif what == "block1":
            self.layers.append(_block1(rng, c))
        elif what == "block2":
            self.c = self._channels()
            self.layers.append(_block2(rng, c, self.c))
            self.h, self.w = (self.h - 1) // 2 + 1, (self.w - 1) // 2 + 1
        else:
            self.layers.append({"cgbn": lambda: CgbnLayer.identity(c),
                                "binarize": Binarize}[what]())

    def head(self):
        flatten = self.rng.random() > 0.03
        if flatten:
            self.layers.append(Flatten())
        features = self.c * self.h * self.w * (2 if self.complex and flatten else 1)
        if self.rng.random() < 0.2:
            self.layers.append(_init_dense(self.rng, features, 3))
            features = 3
        self.layers.append(_init_dense(self.rng, features, NUM_CLASSES))


def random_graph(rng) -> ModelGraph:
    """Mostly well-shaped graphs: a real prefix, usually the generator, a
    complex body and a Flatten + Dense head, with occasional misplacements."""
    d = _Draft(rng)
    for _ in range(rng.integers(0, 3)):
        d.add(rng.choice(REAL_PREFIX, p=REAL_PREFIX_P))
    if rng.random() < 0.85:
        d.add("gen")
    for _ in range(rng.integers(0, 5)):
        d.add(rng.choice(BODY, p=BODY_P))
    d.head()
    return ModelGraph("random", d.input_shape, NUM_CLASSES, d.layers)


def _arrays(node, running: bool):
    """A node's running statistics, or its trainable arrays."""
    return [getattr(node, f.name) for f in fields(node)
            if isinstance(getattr(node, f.name), np.ndarray)
            and f.name.startswith("running_") == running]


def _draw_statistics_and_pruning(model: ModelGraph, rng) -> dict:
    """Move every CGBN off identity, with a real gamma or a complex one, and
    hard-prune about ``PRUNED`` of each binary conv's output channels (one
    conv in ten entirely); returns what was drawn, for the test's coverage
    checks."""
    drawn = {"complex_gamma": 0, "real_gamma": 0, "all_pruned": 0, "partly_pruned": 0}
    for node, _ in graph_nodes(model):
        if isinstance(node, CgbnLayer):
            c = node.channels
            for plane in ("re", "im"):
                getattr(node, f"running_mean_{plane}")[:] = rng.standard_normal(c) * 3
                getattr(node, f"running_var_{plane}")[:] = rng.uniform(0.2, 20.0, c)
                getattr(node, f"beta_{plane}")[:] = rng.standard_normal(c)
            node.gamma_re[:] = rng.standard_normal(c)
            complex_gamma = rng.random() < 0.5
            node.gamma_im[:] = rng.standard_normal(c) * (rng.random(c) < 0.5) * complex_gamma
            drawn["complex_gamma" if complex_gamma else "real_gamma"] += 1
        elif isinstance(node, BinaryConvLayer):
            pruned = np.ones(node.geometry.out_channels, dtype=bool)
            if rng.random() > 0.1:
                pruned = rng.random(node.geometry.out_channels) < PRUNED
            node.w_re[pruned] = 0.0
            node.w_im[pruned] = 0.0
            drawn["all_pruned"] += int(pruned.all())
            drawn["partly_pruned"] += int(pruned.any() and not pruned.all())
    return drawn


def _check_accepted(model: ModelGraph, rng):
    x = rng.random((BATCH, *model.input_shape))
    y = rng.integers(0, NUM_CLASSES, BATCH)
    for xs in (x, np.random.default_rng(len(x)).random((SPLIT_BATCH, *model.input_shape))):
        packed, dense = forward(model, xs, packed=True), forward(model, xs, packed=False)
        np.testing.assert_array_equal(packed, dense)
        np.testing.assert_array_equal(np.signbit(packed), np.signbit(dense))

    nodes = [node for node, _ in graph_nodes(model)]
    stats = [a.copy() for node in nodes for a in _arrays(node, running=True)]
    assert np.isfinite(batch_loss(model, x, y))
    for before, after in zip(stats, (a for node in nodes for a in _arrays(node, running=True))):
        np.testing.assert_array_equal(before, after)

    blob = model_to_bytes(model)
    assert model_to_bytes(model_from_bytes(blob)) == blob

    logits, caches = run_nodes(model.layers, x, Mode.TRAIN_STEP)
    _, dlogits = softmax_cross_entropy(logits, y)
    grads = []
    backprop_nodes(model.layers, caches, dlogits, 1.0, grads)
    for arr, grad in grads:
        assert np.shape(grad) == arr.shape
    with_grad = {id(arr) for arr, _ in grads}
    assert all(id(a) in with_grad for node in nodes for a in _arrays(node, running=False))

    loss, _ = train_step(model, x, y, lr=0.05, clip=1.0)
    assert np.isfinite(loss)
    return {kind_of(node).tag(node) for node in nodes}


def test_every_accepted_graph_runs_and_every_rejected_graph_fails_to_load():
    rng, draws = np.random.default_rng(2024), np.random.default_rng(2025)
    accepted, rejected, cut = 0, 0, 0
    drawn = dict.fromkeys(("complex_gamma", "real_gamma", "all_pruned", "partly_pruned"), 0)
    tags_run = set()
    real_prefix_run = False
    for _ in range(GRAPHS):
        model = random_graph(rng)
        try:
            validate_graph(model)
        except ShapeMismatch:
            rejected += 1
            with pytest.raises(ShapeMismatch):
                model_to_bytes(model)
            try:
                model_from_bytes(_encode_graph(model))
            except CorruptModelFile:
                continue
            raise AssertionError(f"a graph validate_graph rejects loads: {model.layers}")
        accepted += 1
        # drawn from a stream of its own, so the graphs drawn stay the same
        for key, count in _draw_statistics_and_pruning(model, draws).items():
            drawn[key] += count
        cut += cut_convs(model)
        tags_run |= _check_accepted(model, rng)
        real_prefix_run |= not isinstance(model.layers[0], ComplexInputGenerator)
    print(f"{accepted} graphs accepted, {rejected} rejected, {cut} convs cut to live inputs, "
          f"drawn: {drawn}")
    assert accepted and rejected
    assert all(drawn.values()) and cut  # every drawn case and the live-input rule ran
    assert tags_run == {tag for kind in NODE_KINDS.values() for tag in kind.tags}
    assert real_prefix_run


def test_every_misshaped_parameter_array_is_rejected_naming_its_layer():
    model = every_node_kind_model()
    cut = 0
    for node, _ in graph_nodes(model):
        for f in fields(node):
            arr = getattr(node, f.name)
            if not isinstance(arr, np.ndarray):
                continue
            setattr(node, f.name, arr[..., :-1])  # one kernel column, feature or channel short
            with pytest.raises(ShapeMismatch, match=rf"\({type(node).__name__}\): "):
                validate_graph(model)
            setattr(node, f.name, arr)
            cut += 1
    assert cut == 86  # every parameter of every kind, block paths included
    validate_graph(model)
