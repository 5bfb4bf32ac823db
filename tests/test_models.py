import numpy as np
import pytest

from bcnn.binary_ops import ConvGeometry
from bcnn.errors import NonFiniteInput, ShapeMismatch
from bcnn.layers import CgbnLayer
from bcnn.models import (
    AvgPool,
    Binarize,
    BinaryConvLayer,
    Flatten,
    MaxPool,
    Mode,
    ModelGraph,
    ResidualBlock,
    build_complex_input_generator,
    build_nin_bcnn,
    build_resnet18_bcnn,
    build_toy_bcnn,
    count_weight_layers,
    forward,
    iter_binary_convs,
    validate_graph,
    _block1,
    _block2,
    _generator_forward,
    _init_binary_conv,
    _init_complex_conv,
    _init_dense,
    kind_of,
    run_nodes,
)
from bcnn.tensors import ComplexTensor, pack
from helpers import (CGBN_KINDS, cut_convs, hard_prune, perturb_cgbn, random_pm1_tensor,
                     real_gamma_cgbn, tracemalloc_peak_mib)


# ---------------------------------------------------------------------------
# complex input generator
# ---------------------------------------------------------------------------

def test_generator_zero_weights_gives_zero_imaginary():
    gen = build_complex_input_generator(3, seed=0)
    gen.w1[:] = 0.0
    gen.w2[:] = 0.0
    x = np.random.default_rng(0).random((2, 3, 8, 8))
    out, _ = _generator_forward(gen, x)
    np.testing.assert_array_equal(out.re, x)
    np.testing.assert_array_equal(out.im, 0.0)


def test_generator_output_shape():
    gen = build_complex_input_generator(3, seed=1)
    x = np.random.default_rng(1).random((1, 3, 32, 32))
    out, _ = _generator_forward(gen, x)
    assert out.shape == (1, 3, 32, 32)


def test_generator_deterministic():
    gen = build_complex_input_generator(3, seed=2)
    x = np.random.default_rng(2).random((1, 3, 8, 8))
    a, _ = _generator_forward(gen, x)
    b, _ = _generator_forward(gen, x)
    np.testing.assert_array_equal(a.im, b.im)


# ---------------------------------------------------------------------------
# NIN
# ---------------------------------------------------------------------------

def test_nin_output_length():
    model = build_nin_bcnn(num_classes=10, seed=0)
    x = np.random.default_rng(0).random((1, 3, 32, 32))
    logits = forward(model, x)
    assert logits.shape == (1, 10)


def test_nin_forward_reproducible_bit_for_bit():
    x = np.random.default_rng(5).random((1, 3, 32, 32))
    a = forward(build_nin_bcnn(seed=9), x)
    b = forward(build_nin_bcnn(seed=9), x)
    np.testing.assert_array_equal(a, b)


def test_nin_rejects_wrong_input_shape():
    model = build_nin_bcnn(seed=0)
    with pytest.raises(ShapeMismatch):
        forward(model, np.zeros((1, 3, 16, 16)))


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nin_rejects_a_non_finite_image(value, packed):
    x = np.random.default_rng(6).random((2, 3, 32, 32))
    x[1, 2, 17, 5] = value  # one pixel of the second image
    with pytest.raises(NonFiniteInput):
        forward(build_nin_bcnn(seed=0), x, packed=packed)


# (toy model layer, field) of one parameter of each kind
NON_FINITE_PARAMETERS = {"generator": (0, "w1"), "conv": (1, "w_re"), "cgbn": (2, "gamma_re"),
                         "binary_conv": (4, "w_im"), "dense": (8, "weight")}


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "dense"])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_PARAMETERS))
def test_forward_rejects_a_non_finite_parameter(kind, packed):
    # a NaN binary weight or a NaN before a binarize step would binarize to
    # -1 and give finite logits
    from bcnn.errors import NonFiniteParameter

    model = build_toy_bcnn(seed=0)
    at, name = NON_FINITE_PARAMETERS[kind]
    node = model.layers[at]
    getattr(node, name).flat[1] = np.nan
    with pytest.raises(NonFiniteParameter, match=f"^{type(node).__name__} {name} holds a non-"):
        forward(model, np.zeros((2, 3, 8, 8)), packed=packed)


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "dense"])
@pytest.mark.parametrize("shape", [(2, 8, 8), (3, 9, 8), (3, 8, 7)],
                         ids=["channels", "height", "width"])
def test_forward_rejects_an_image_shape_that_is_not_the_models(shape, packed):
    x = np.zeros((2, *shape))
    with pytest.raises(ShapeMismatch, match=r"input shape .* does not match model input"):
        forward(build_toy_bcnn(seed=0), x, packed=packed)


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "dense"])
def test_forward_takes_a_single_image_as_a_batch_of_one(packed):
    model = build_toy_bcnn(seed=0)
    x = np.random.default_rng(4).random((3, 8, 8))
    logits = forward(model, x, packed=packed)
    assert logits.shape == (1, model.num_classes)
    np.testing.assert_array_equal(logits, forward(model, x[None], packed=packed))


# ---------------------------------------------------------------------------
# ResNet-18
# ---------------------------------------------------------------------------

def test_resnet18_weight_layer_count():
    model = build_resnet18_bcnn(seed=0)
    assert count_weight_layers(model) == 18


def test_resnet18_stage_structure():
    model = build_resnet18_bcnn(seed=0)
    blocks = [l for l in model.layers if isinstance(l, ResidualBlock)]
    assert len(blocks) == 8
    downsampling = [b for b in blocks if b.side_conv is not None]
    assert len(downsampling) == 3
    widths = [b.conv2.geometry.out_channels for b in blocks]
    assert widths == [32, 32, 64, 64, 128, 128, 256, 256]
    for b in downsampling:
        assert b.conv1.geometry.stride == (2, 2)
        assert b.side_conv.geometry.stride == (2, 2)


def test_resnet18_logits():
    model = build_resnet18_bcnn(num_classes=10, seed=3)
    x = np.random.default_rng(3).random((1, 3, 32, 32))
    assert forward(model, x).shape == (1, 10)


def test_block1_adds_skip_to_cgbn_output():
    # the block output is the second CGBN output plus the untouched input,
    # added in the real domain before any further binarization
    from bcnn.binary_ops import quadrant_binarize
    from bcnn.layers import cgbn_forward

    rng = np.random.default_rng(4)
    g = ConvGeometry(4, 4, (3, 3), (1, 1), (1, 1))

    def conv():
        return BinaryConvLayer(
            rng.standard_normal((4, 4, 3, 3)).astype(np.float32),
            rng.standard_normal((4, 4, 3, 3)).astype(np.float32), g,
        )

    block = ResidualBlock(conv(), CgbnLayer.identity(4),
                          conv(), CgbnLayer.identity(4))
    x = random_pm1_tensor(rng, (1, 4, 8, 8))
    out = kind_of(block).forward(block, x, Mode.PACKED)[0]
    b = quadrant_binarize(x)
    path = cgbn_forward(run_nodes([block.conv1], pack(b), Mode.PACKED)[0], block.bn1)
    path = quadrant_binarize(path)
    path = cgbn_forward(run_nodes([block.conv2], pack(path), Mode.PACKED)[0], block.bn2)
    np.testing.assert_array_equal(out.re, path.re + x.re)
    np.testing.assert_array_equal(out.im, path.im + x.im)


def test_block_with_side_path_adds_side_cgbn_output():
    # a downsampling block adds the side CGBN output, computed from the same
    # binarized input as the main path, in place of the untouched input
    from bcnn.binary_ops import quadrant_binarize
    from bcnn.layers import cgbn_forward

    rng = np.random.default_rng(4)

    def conv(in_c, out_c, kernel, stride, padding):
        return BinaryConvLayer(
            rng.standard_normal((out_c, in_c) + kernel).astype(np.float32),
            rng.standard_normal((out_c, in_c) + kernel).astype(np.float32),
            ConvGeometry(in_c, out_c, kernel, stride, padding),
        )

    block = ResidualBlock(conv(4, 8, (3, 3), (2, 2), (1, 1)), CgbnLayer.identity(8),
                          conv(8, 8, (3, 3), (1, 1), (1, 1)), CgbnLayer.identity(8),
                          conv(4, 8, (1, 1), (2, 2), (0, 0)), CgbnLayer.identity(8))
    x = ComplexTensor(rng.standard_normal((1, 4, 8, 8)), rng.standard_normal((1, 4, 8, 8)))
    out = kind_of(block).forward(block, x, Mode.PACKED)[0]
    b = quadrant_binarize(x)
    path = cgbn_forward(run_nodes([block.conv1], pack(b), Mode.PACKED)[0], block.bn1)
    path = quadrant_binarize(path)
    path = cgbn_forward(run_nodes([block.conv2], pack(path), Mode.PACKED)[0], block.bn2)
    side = cgbn_forward(run_nodes([block.side_conv], pack(b), Mode.PACKED)[0],
                        block.side_bn)
    np.testing.assert_array_equal(out.re, path.re + side.re)
    np.testing.assert_array_equal(out.im, path.im + side.im)


def test_block_output_is_input_when_path_is_zero():
    # with gamma=0 the CGBN output is exactly beta=0, so block(x) == x
    def conv(c):
        return BinaryConvLayer(
            np.ones((c, c, 3, 3), np.float32), np.ones((c, c, 3, 3), np.float32),
            ConvGeometry(c, c, (3, 3), (1, 1), (1, 1)),
        )

    block = ResidualBlock(conv(4), CgbnLayer.identity(4), conv(4), CgbnLayer.identity(4))
    block.bn2.gamma_re[:] = 0.0
    x = random_pm1_tensor(np.random.default_rng(5), (1, 4, 6, 6))
    out = kind_of(block).forward(block, x, Mode.PACKED)[0]
    np.testing.assert_allclose(out.re, x.re, atol=1e-12)
    np.testing.assert_allclose(out.im, x.im, atol=1e-12)


# ---------------------------------------------------------------------------
# forward invariants
# ---------------------------------------------------------------------------

def test_batch_independence():
    model = build_toy_bcnn(seed=6)
    rng = np.random.default_rng(6)
    image = rng.random((3, 8, 8))
    batch = np.stack([image] + [rng.random((3, 8, 8)) for _ in range(7)])
    single = forward(model, image[None])
    batched = forward(model, batch)
    # eval-mode BN removes all batch coupling; the residual tolerance only
    # covers BLAS summation-order differences between batch sizes
    np.testing.assert_allclose(single[0], batched[0], rtol=1e-12, atol=1e-12)


def test_packed_and_unpacked_forward_agree():
    x = np.random.default_rng(7).random((2, 3, 32, 32))
    for build in (build_nin_bcnn, build_resnet18_bcnn):
        model = build(seed=7)
        np.testing.assert_array_equal(
            forward(model, x, packed=True), forward(model, x, packed=False)
        )


def test_forward_deterministic():
    model = build_toy_bcnn(seed=8)
    x = np.random.default_rng(8).random((2, 3, 8, 8))
    np.testing.assert_array_equal(forward(model, x), forward(model, x))


def _toy_without(index):
    model = build_toy_bcnn(seed=0)
    del model.layers[index]
    return model


def _toy_cut(index, names, cut):
    """The toy BCNN with the parameter arrays ``names`` of layer ``index``
    sliced by ``cut``."""
    model = build_toy_bcnn(seed=0)
    node = model.layers[index]
    for name in names:
        setattr(node, name, getattr(node, name)[cut])
    return model


# graphs the shape walk rejects, with the layer their ShapeMismatch names
INVALID_GRAPHS = {
    "binarize_removed": (lambda: _toy_without(3), r"layer 3 \(BinaryConvLayer\)"),
    "generator_after_generator": (
        lambda: _toy_with(1, build_complex_input_generator(3), insert=True),
        r"layer 1 \(ComplexInputGenerator\): expects a real input"),
    # misshaped parameters: unchecked, the one-element bias broadcasts into
    # both logits and saves a file that fails to reload, the narrow weights
    # fail naming no layer, the short beta with a bare numpy ValueError
    "dense_bias_cut": (lambda: _toy_cut(8, ("bias",), slice(1)), r"layer 8 \(DenseLayer\): bias"),
    "binary_conv_weights_cut": (
        lambda: _toy_cut(4, ("w_re", "w_im"), (slice(None), slice(3))),
        r"layer 4 \(BinaryConvLayer\): w_re"),
    "cgbn_beta_cut": (lambda: _toy_cut(2, ("beta_re",), slice(2)),
                      r"layer 2 \(CgbnLayer\): beta_re"),
}


@pytest.mark.parametrize("case", sorted(INVALID_GRAPHS))
def test_every_engine_entry_rejects_an_invalid_graph(case):
    from bcnn.model_io import model_to_bytes
    from bcnn.training import batch_loss, train_step

    build, layer = INVALID_GRAPHS[case]
    model = build()
    x = np.random.default_rng(0).random((4, 3, 8, 8))
    y = np.array([0, 1, 0, 1])
    params = [(a, a.copy()) for node in model.layers for a in vars(node).values()
              if isinstance(a, np.ndarray)]
    assert params
    entries = {
        "packed forward": lambda: forward(model, x, packed=True),
        "dense forward": lambda: forward(model, x, packed=False),
        "train_step": lambda: train_step(model, x, y, lr=0.1, clip=1.0),
        "batch_loss": lambda: batch_loss(model, x, y),
        "model_to_bytes": lambda: model_to_bytes(model),
    }
    for name, entry in entries.items():
        with pytest.raises(ShapeMismatch, match=layer):
            entry()
        for a, before in params:  # nothing trained, no running statistic moved
            np.testing.assert_array_equal(a, before, err_msg=name)


def test_unknown_node_is_a_shape_mismatch_naming_the_layer():
    from bcnn.model_io import model_to_bytes

    model = _toy_with(2, "relu", insert=True)
    x = np.random.default_rng(0).random((1, 3, 8, 8))
    for entry in (lambda: validate_graph(model), lambda: forward(model, x, packed=True),
                  lambda: forward(model, x, packed=False), lambda: model_to_bytes(model)):
        with pytest.raises(ShapeMismatch, match=r"layer 2 \(str\): unknown layer node str"):
            entry()


def test_validate_graph_requires_binarize_before_binary_conv():
    bad = ModelGraph(
        "bad", (3, 8, 8), 2,
        [
            build_complex_input_generator(3, seed=0),
            BinaryConvLayer(np.ones((4, 3, 1, 1), np.float32),
                            np.ones((4, 3, 1, 1), np.float32),
                            ConvGeometry(3, 4, (1, 1))),
            Flatten(),
        ],
    )
    with pytest.raises(ShapeMismatch):
        validate_graph(bad)


def _toy_with(index, node, insert=False):
    """The toy BCNN (3x8x8, channels (4, 4)) with ``node`` replacing, or
    inserted before, the layer at ``index``."""
    model = build_toy_bcnn(seed=0)
    if insert:
        model.layers.insert(index, node)
    else:
        model.layers[index] = node
    return model


def _identity_block_graph(input_hw, out_c, stride, dense_in):
    """Generator, 3->4 conv, CGBN, an identity block whose main path goes
    4 -> ``out_c`` channels at ``stride``, Flatten, Dense."""
    from bcnn.models import (_init_binary_conv, _init_complex_conv, _init_dense,
                             build_complex_input_generator as generator)

    rng = np.random.default_rng(0)
    block = ResidualBlock(
        _init_binary_conv(rng, 4, out_c, (3, 3), (stride, stride), (1, 1)),
        CgbnLayer.identity(out_c),
        _init_binary_conv(rng, out_c, out_c, (3, 3), padding=(1, 1)),
        CgbnLayer.identity(out_c),
    )
    layers = [generator(3, seed=0), _init_complex_conv(rng, 3, 4, (3, 3), padding=(1, 1)),
              CgbnLayer.identity(4), block, Flatten(), _init_dense(rng, dense_in, 2)]
    return ModelGraph("block", (3, *input_hw), 2, layers)


# Each graph is framed correctly and loaded before the shape walk existed:
# it failed late (a bare numpy or ZeroDivisionError) or returned logits.
MISSHAPED_GRAPHS = {
    "pool-stride-0": (lambda: _toy_with(5, AvgPool((2, 2), (0, 0))), "stride"),
    "pool-window-0": (lambda: _toy_with(5, AvgPool((0, 0), (2, 2))), "window"),
    "cgbn-channels": (lambda: _toy_with(2, CgbnLayer.identity(5)), "channels"),
    "block-main-changes-channels": (
        lambda: _identity_block_graph((4, 4), 8, 1, 2 * 8 * 4 * 4), "skip"),
    # the 1x1 main-path output would broadcast over the 2x2 skip
    "block-main-stride-2": (lambda: _identity_block_graph((2, 2), 4, 2, 2 * 4 * 2 * 2), "skip"),
    "pool-after-flatten": (lambda: _toy_with(8, AvgPool((2, 2)), insert=True), "image"),
}


@pytest.mark.parametrize("case", sorted(MISSHAPED_GRAPHS))
def test_misshaped_graph_is_rejected_by_validation_and_loading(case):
    from bcnn.errors import CorruptModelFile
    from bcnn.model_io import _encode_graph, model_from_bytes, model_to_bytes

    build, reason = MISSHAPED_GRAPHS[case]
    with pytest.raises(ShapeMismatch, match=reason):
        validate_graph(build())
    with pytest.raises(ShapeMismatch, match=reason):
        model_to_bytes(build())
    with pytest.raises(CorruptModelFile, match=reason):
        model_from_bytes(_encode_graph(build()))


def test_builders_order_pool_between_conv_and_bn():
    # hardware-path ordering: conv -> pool -> CGBN -> binarize
    model = build_nin_bcnn(seed=0)
    kinds = [type(l).__name__ for l in model.layers]
    i = kinds.index("AvgPool")
    assert kinds[i - 1] == "BinaryConvLayer"
    assert kinds[i + 1] == "CgbnLayer"
    assert kinds[i + 2] == "Binarize"


def test_iter_binary_convs_covers_blocks():
    model = build_resnet18_bcnn(seed=0)
    convs = list(iter_binary_convs(model))
    # 8 blocks x 2 main convs + 3 projection convs
    assert len(convs) == 19


def test_pruned_channels_are_skipped_at_binarization():
    from bcnn.models import active_output_channels
    from bcnn.tensors import ComplexTensor

    rng = np.random.default_rng(10)
    layer = BinaryConvLayer(
        rng.standard_normal((4, 2, 1, 1)).astype(np.float32),
        rng.standard_normal((4, 2, 1, 1)).astype(np.float32),
        ConvGeometry(2, 4, (1, 1)),
    )
    layer.w_re[1] = 0.0
    layer.w_im[1] = 0.0
    np.testing.assert_array_equal(active_output_channels(layer), [True, False, True, True])
    x = ComplexTensor(np.ones((1, 2, 3, 3)), -np.ones((1, 2, 3, 3)))
    for packed in (True, False):
        y = run_nodes([layer], pack(x) if packed else x,
                      Mode.PACKED if packed else Mode.DENSE)[0]
        np.testing.assert_array_equal(y.re[:, 1], 0.0)
        np.testing.assert_array_equal(y.im[:, 1], 0.0)
        assert np.any(y.re[:, 0] != 0.0) or np.any(y.im[:, 0] != 0.0)


@pytest.mark.parametrize("packed, bound_mib", [(True, 32), (False, 56)],
                         ids=["packed", "dense"])
def test_inference_keeps_no_node_cache_alive(packed, bound_mib):
    """The tracemalloc peak of a half-pruned ResNet-18 forward at batch 16:
    28.5 MiB packed and 48.2 MiB dense.  A loop that kept a node's cache (its
    input) alive while the next node ran reached 36.5 and 64.2 MiB."""
    import tracemalloc

    model = hard_prune(build_resnet18_bcnn(seed=0), 0.5)
    x = np.random.default_rng(0).random((16, 3, 32, 32))
    forward(model, x[:1], packed=packed)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        forward(model, x, packed=packed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_dense_forward_casts_no_float64_weight_into_a_copy():
    """A half-pruned ResNet-18 dense forward at batch 4 peaks at 20.3 MiB.
    Casting each float64 signed-weight stack to float64 again, a copy per
    real convolution, reached 29.3 MiB; the packed path stays at 7.2 MiB."""
    model = hard_prune(build_resnet18_bcnn(seed=0), 0.5)
    x = np.random.default_rng(0).random((4, 3, 32, 32))
    assert tracemalloc_peak_mib(lambda: forward(model, x, packed=False)) < 24


def test_forward_is_thread_safe_on_shared_model():
    from concurrent.futures import ThreadPoolExecutor

    model = build_toy_bcnn(seed=11)
    rng = np.random.default_rng(11)
    images = [rng.random((1, 3, 8, 8)) for _ in range(8)]
    serial = [forward(model, img) for img in images]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda img: forward(model, img), images))
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# packed activations: each binarize step sign-packs once
# ---------------------------------------------------------------------------

def _half_pruned(model):
    for layer in iter_binary_convs(model):
        layer.w_re[::2] = 0.0
        layer.w_im[::2] = 0.0
    return model


def _raise(*args, **kwargs):
    raise AssertionError("the packed forward built or checked +-1 planes")


@pytest.mark.parametrize("build", [build_nin_bcnn,
                                   lambda seed: _half_pruned(build_resnet18_bcnn(seed=seed))])
def test_packed_forward_never_builds_pm1_planes(build, monkeypatch):
    import bcnn.models as models

    model = build(seed=12)
    x = np.random.default_rng(12).random((2, 3, 32, 32))
    dense = forward(model, x, packed=False)
    monkeypatch.setattr(models, "pack", _raise)
    monkeypatch.setattr(models, "quadrant_binarize", _raise)
    np.testing.assert_array_equal(forward(model, x), dense)


def test_downsampling_block_sign_packs_its_input_once(monkeypatch):
    import bcnn.models as models

    rng = np.random.default_rng(13)
    model = ModelGraph("down", (3, 8, 8), 2, [
        build_complex_input_generator(3, seed=13),
        _init_complex_conv(rng, 3, 4, (3, 3), padding=(1, 1)), CgbnLayer.identity(4),
        _block2(rng, 4, 8), AvgPool((4, 4)), Flatten(), _init_dense(rng, 2 * 8, 2)])
    validate_graph(model)
    batch = 5  # no weight tensor has 5 output channels
    packed_shapes = []

    def recording(fn):
        def record(t):
            packed_shapes.append(t.shape)
            return fn(t)
        return record

    for name in ("pack", "pack_signs", "_pack_bits"):
        monkeypatch.setattr(models, name, recording(getattr(models, name)))
    forward(model, np.random.default_rng(13).random((batch, 3, 8, 8)))
    # the block input (read by the main and the side conv), then the inner
    # binarize, folded into its conv -> CGBN step: one bit array per plane
    assert [s for s in packed_shapes if s[0] == batch] == [(batch, 4, 8, 8), (batch, 8, 4, 4),
                                                           (batch, 8, 4, 4)]


def _binarize_feeds(*tail):
    """Generator, 3->4 conv, a CGBN with moved statistics, Binarize, then
    ``tail``, Flatten and a Dense head sized by the shape walk."""
    from bcnn.models import Activation, walk_shapes

    rng = np.random.default_rng(14)
    bn = CgbnLayer.identity(4)
    bn.running_mean_re[:] = rng.standard_normal(4) * 0.3
    bn.gamma_im[:] = rng.standard_normal(4)
    layers = [build_complex_input_generator(3, seed=14),
              _init_complex_conv(rng, 3, 4, (3, 3), padding=(1, 1)), bn, Binarize(), *tail,
              Flatten()]
    features = walk_shapes(layers, Activation((3, 8, 8))).dims[0]
    model = ModelGraph("binarize-feeds", (3, 8, 8), 2, layers + [_init_dense(rng, features, 2)])
    validate_graph(model)
    return model


def _binary_conv(seed):
    return _init_binary_conv(np.random.default_rng(seed), 4, 4, (3, 3), padding=(1, 1))


BINARIZE_CONSUMERS = {
    "avg_pool": lambda: (AvgPool((2, 2)), CgbnLayer.identity(4), Binarize(), _binary_conv(1),
                         CgbnLayer.identity(4)),
    "max_pool": lambda: (MaxPool((2, 2)),),
    "cgbn": lambda: (CgbnLayer.identity(4), Binarize(), _binary_conv(2), CgbnLayer.identity(4)),
    "flatten": lambda: (),
    "binarize": lambda: (Binarize(), _binary_conv(3), CgbnLayer.identity(4)),
    "block": lambda: (_block1(np.random.default_rng(4), 4),),
}


@pytest.mark.parametrize("case", sorted(BINARIZE_CONSUMERS))
def test_binarize_feeding_a_dense_consumer_gives_packed_equal_dense(case, monkeypatch):
    import bcnn.models as models

    model = _binarize_feeds(*BINARIZE_CONSUMERS[case]())
    x = np.random.default_rng(15).random((3, 3, 8, 8))
    unpacked = []
    unpack = models.unpack
    monkeypatch.setattr(models, "unpack", lambda b: unpacked.append(b) or unpack(b))
    np.testing.assert_array_equal(forward(model, x), forward(model, x, packed=False))
    assert unpacked  # the packed binarize output reached a node that reads planes


# ---------------------------------------------------------------------------
# conv -> CGBN (-> Binarize) as one packed step
# ---------------------------------------------------------------------------

# sha256 prefixes of the logits bytes as the node-by-node forward gave them
# before the step existed (packed and dense agreed), from the seeded models
# below: (model, kept channel ratio, batch) -> digest
GOLDEN_LOGITS = {
    ("nin", 1.0, 1): "164358265f79f6de8a075cbee13fae75",
    ("nin", 1.0, 4): "19b26d03493379edf7aa2ed837e799f8",
    ("nin", 0.5, 1): "ed0d2eb90147c65cb1594e2d7286a5d9",
    ("nin", 0.5, 4): "89cfdf2f50ecd2481e822c27a6e9b702",
    ("resnet18", 1.0, 1): "becda38999730386f2f797c7db9cff2a",
    ("resnet18", 1.0, 4): "552c3017b9823e1204b5d989956c1468",
    ("resnet18", 0.5, 1): "2fc8738d6f64fa9a4e71f62cfca40105",
    ("resnet18", 0.5, 4): "a2b51edcef68edbff79e3429e8cbe9bb",
    # batch 20 runs as chunks of 8, 8 and 4 images on every core; these were
    # taken from the one-thread forward before the split existed
    ("nin", 1.0, 20): "120650a2f7a9e79d495f8b076b817fc4",
    ("nin", 0.5, 20): "c02f7cbedb04438e9a1560514ffa6548",
    ("resnet18", 1.0, 20): "9610474f701f05c77a94bf1cf84dd872",
    ("resnet18", 0.5, 20): "be3ae6d0df67c65bdefaf86e5537e49a",
}
BUILDERS = {"nin": build_nin_bcnn, "resnet18": build_resnet18_bcnn}


@pytest.mark.parametrize("name, ratio, batch", sorted(GOLDEN_LOGITS))
def test_fused_forward_equals_dense_and_golden_logits(name, ratio, batch):
    import hashlib

    model = hard_prune(perturb_cgbn(BUILDERS[name](seed=21), np.random.default_rng(21)), ratio)
    x = np.random.default_rng(batch).random((batch, 3, 32, 32))
    packed, dense = forward(model, x), forward(model, x, packed=False)
    np.testing.assert_array_equal(packed, dense)
    np.testing.assert_array_equal(np.signbit(packed), np.signbit(dense))
    assert hashlib.sha256(packed.tobytes()).hexdigest()[:32] == GOLDEN_LOGITS[name, ratio, batch]


def _staircase_statistics(model, rng):
    """Every CGBN gets a real gamma; on every other one, about a third of the
    channels have means at +-2**60 that beta cancels, so the output is a
    staircase in the dots whose zero the closed-form estimate misses: those
    layers take the float CGBN, the others fold."""
    from bcnn.models import graph_nodes

    bns = [node for node, _ in graph_nodes(model) if isinstance(node, CgbnLayer)]
    for i, node in enumerate(bns):
        node.gamma_im[:] = 0.0
        sel = (rng.random(node.channels) < 0.3) & (i % 2 == 0)
        node.eps = 0.0
        node.gamma_re[sel] = rng.choice([-1.0, 1.0], sel.sum())
        for mean, var, beta in ((node.running_mean_re, node.running_var_re, node.beta_re),
                                (node.running_mean_im, node.running_var_im, node.beta_im)):
            var[sel] = 0.5  # 1 / sqrt(2 var + eps) == 1
            mean[sel] = rng.choice([-1.0, 1.0], sel.sum()) * 2.0**60
            beta[sel] = node.gamma_re[sel] * mean[sel]
    return model


def test_fused_forward_equals_dense_where_the_threshold_probe_misses(monkeypatch):
    import bcnn.models as models

    model = perturb_cgbn(build_nin_bcnn(seed=23), np.random.default_rng(23))
    _staircase_statistics(model, np.random.default_rng(24))
    settled = []
    thresholds = models._sign_thresholds

    def probe(bn, row_bits):
        t, flip, found = thresholds(bn, row_bits)
        settled.append(bool(found.all()))
        return t, flip, found

    monkeypatch.setattr(models, "_sign_thresholds", probe)
    x = np.random.default_rng(25).random((2, 3, 32, 32))
    packed, dense = forward(model, x), forward(model, x, packed=False)
    assert True in settled and False in settled  # layers of both rules ran
    np.testing.assert_array_equal(packed, dense)
    np.testing.assert_array_equal(np.signbit(packed), np.signbit(dense))


def test_cgbn_after_a_binary_conv_sees_only_live_channels(monkeypatch):
    # as in a trained model, every CGBN has a complex gamma on every channel,
    # so none folds and each runs as a float CGBN on the conv's live channels
    import bcnn.models as models
    from bcnn.models import graph_nodes

    model = hard_prune(build_resnet18_bcnn(seed=22), 0.5)
    rng = np.random.default_rng(22)
    for node, _ in graph_nodes(model):
        if isinstance(node, CgbnLayer):
            node.gamma_im[:] = rng.uniform(0.1, 1.0, node.channels)
    events = []
    conv2d, cgbn = models.binary_complex_conv2d, models.cgbn_forward

    def conv(x, w, geometry, *args, **kwargs):
        events.append(("conv", geometry.out_channels))
        return conv2d(x, w, geometry, *args, **kwargs)

    def bn(x, layer, *args, **kwargs):
        events.append(("cgbn", x.shape[1]))
        return cgbn(x, layer, *args, **kwargs)

    monkeypatch.setattr(models, "binary_complex_conv2d", conv)
    monkeypatch.setattr(models, "cgbn_forward", bn)
    forward(model, np.random.default_rng(22).random((2, 3, 32, 32)))
    assert sum(kind == "conv" for kind, _ in events) == 19
    out_c, after_conv = None, 0
    for kind, channels in events:
        if kind == "conv":
            out_c = channels
        elif out_c is not None:
            assert channels <= out_c // 2  # every conv keeps half its channels
            after_conv += 1
    assert after_conv >= 19


# ---------------------------------------------------------------------------
# live input channels of a conv fed by a pruned conv -> CGBN -> Binarize
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", [1, 20])
@pytest.mark.parametrize("kind", sorted(CGBN_KINDS))
@pytest.mark.parametrize("ratio", [1.0, 0.5, 0.05])  # 0%, 50% and 95% pruned
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_live_input_forward_equals_dense(name, ratio, kind, batch):
    # NIN cuts the four binary convs right after a binary conv -> CGBN ->
    # Binarize, ResNet-18 each block's conv2; nothing is cut unpruned
    rng = np.random.default_rng(31)
    model = hard_prune(CGBN_KINDS[kind](BUILDERS[name](seed=31), rng), ratio)
    assert cut_convs(model) == (0 if ratio == 1.0 else {"nin": 4, "resnet18": 8}[name])
    x = np.random.default_rng(batch).random((batch, 3, 32, 32))
    packed, dense = forward(model, x), forward(model, x, packed=False)
    np.testing.assert_array_equal(packed, dense)
    np.testing.assert_array_equal(np.signbit(packed), np.signbit(dense))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_live_input_forward_equals_dense_with_staircase_statistics(name):
    model = hard_prune(_staircase_statistics(BUILDERS[name](seed=32),
                                             np.random.default_rng(32)), 0.5)
    assert cut_convs(model)
    x = np.random.default_rng(33).random((3, 3, 32, 32))
    packed, dense = forward(model, x), forward(model, x, packed=False)
    np.testing.assert_array_equal(packed, dense)
    np.testing.assert_array_equal(np.signbit(packed), np.signbit(dense))


# ---------------------------------------------------------------------------
# image chunks on every core
# ---------------------------------------------------------------------------

@pytest.fixture
def chunks(monkeypatch):
    """(thread id, images, live thread count) of every chunk a forward's body
    runs on; block paths and the head are not chunks."""
    import threading

    import bcnn.models as models

    calls = []
    run_nodes = models.run_nodes

    def record(nodes, x, mode):
        if type(x) is np.ndarray and x.ndim == 4:
            calls.append((threading.get_ident(), len(x), threading.active_count()))
        return run_nodes(nodes, x, mode)

    monkeypatch.setattr(models, "run_nodes", record)
    return calls


def _threads(chunks) -> int:
    return len({thread for thread, _, _ in chunks})


SPLIT_MODELS = {
    "nin": lambda: build_nin_bcnn(seed=23),
    "resnet18": lambda: hard_prune(build_resnet18_bcnn(seed=23), 0.5),
    "toy": lambda: build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=23),
}


@pytest.fixture(scope="module")
def split_model():
    built = {}
    return lambda name: built.setdefault(name, SPLIT_MODELS[name]())


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "dense"])
@pytest.mark.parametrize("batch", [9, 20, 64])
@pytest.mark.parametrize("name", sorted(SPLIT_MODELS))
def test_split_forward_equals_one_pass(cores, chunks, split_model, name, batch, packed):
    from bcnn.models import run_nodes

    model = split_model(name)
    x = np.random.default_rng(batch).random((batch, *model.input_shape))
    want = run_nodes(model.layers, x, Mode.PACKED if packed else Mode.DENSE)[0]
    # one core runs inline, more split into the same chunks; the slower
    # dense path takes one count of 2-4 per batch
    for count in (1, 2, 3, 4) if packed else ({9: 4, 20: 3, 64: 2}[batch],):
        cores(count)
        chunks.clear()
        np.testing.assert_array_equal(forward(model, x, packed=packed), want)
        assert [images for _, images, _ in chunks] == (
            [batch] if count == 1 else [min(8, batch - i) for i in range(0, batch, 8)])
        assert _threads(chunks) <= count


@pytest.mark.parametrize("batch", [8, 20])
def test_fewer_chunks_than_cores_take_one_thread_each(cores, chunks, batch):
    import threading

    import bcnn.workers as workers

    cores(4)
    model = build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=24)
    forward(model, np.random.default_rng(batch).random((batch, 3, 8, 8)))
    assert sorted(images for _, images, _ in chunks) == ([8] if batch == 8 else [4, 8, 8])
    if batch == 8:  # one chunk runs inline
        assert chunks[0][0] == threading.get_ident() and workers._pool is None
    else:  # three chunks start two tasks, never a third worker
        assert workers._pool._max_workers == 3 and len(workers._pool._threads) <= 2


def test_one_core_runs_inline(cores, chunks):
    import threading

    import bcnn.workers as workers

    cores(1)
    model = build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=25)
    forward(model, np.random.default_rng(25).random((20, 3, 8, 8)))
    assert [(thread, images) for thread, images, _ in chunks] == [(threading.get_ident(), 20)]
    assert workers._pool is None


@pytest.mark.parametrize("batch", [1, 8])
def test_small_batches_run_inline(cores, chunks, batch):
    import threading

    import bcnn.workers as workers

    cores(2)
    model = build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=26)
    forward(model, np.random.default_rng(26).random((batch, 3, 8, 8)))
    assert [(thread, images) for thread, images, _ in chunks] == [(threading.get_ident(), batch)]
    assert workers._pool is None


def test_forward_threads_never_outnumber_the_cores(cores, chunks):
    import sys
    import threading

    from bcnn.models import run_nodes

    cores(3)
    model = build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=27)
    x = np.random.default_rng(27).random((40, 3, 8, 8))
    before = set(threading.enumerate())
    want = run_nodes(model.layers, x, Mode.PACKED)[0]  # its convolutions may start the pool
    chunks.clear()
    results = []
    callers = [threading.Thread(target=lambda: results.extend(
        forward(model, x) for _ in range(3))) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over often
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    results.append(forward(model, x))
    assert len(results) == 7 and len(chunks) == 5 * 7
    for logits in results:
        np.testing.assert_array_equal(logits, want)
    # the two callers share one pool of cores - 1 workers
    assert max(active for _, _, active in chunks) - len(before) <= 2 + 2
    assert 1 <= len(set(threading.enumerate()) - before) <= 2


def test_worker_exceptions_reach_the_caller_and_nothing_runs_after(cores, monkeypatch):
    import threading
    import time

    import bcnn.models as models

    cores(2)
    model = build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=28)
    x = np.random.default_rng(28).random((24, 3, 8, 8))
    caller, started, writes = threading.get_ident(), threading.Event(), []
    run_nodes = models.run_nodes

    def fail_off_caller(nodes, xs, mode):
        if threading.get_ident() == caller:
            assert started.wait(10)  # the worker has taken a chunk
            return run_nodes(nodes, xs, mode)
        started.set()
        time.sleep(0.2)  # the caller drains the other chunks meanwhile
        writes.append(time.perf_counter())
        raise RuntimeError("worker failed")

    monkeypatch.setattr(models, "run_nodes", fail_off_caller)
    with pytest.raises(RuntimeError, match="worker failed"):
        forward(model, x)
    returned = time.perf_counter()
    time.sleep(0.3)
    assert len(writes) == 1 and writes[0] < returned


def _train_and_split_forward_in_child(model, x, want, labels, want_step):
    import copy
    import threading

    import bcnn.models as models
    import bcnn.workers as workers
    from bcnn.training import train_step

    # the step's convolutions start the child's own pool
    assert workers._pool is None
    assert train_step(copy.deepcopy(model), x, labels, lr=0.1, clip=1.0) == want_step
    assert workers._pool is not None
    caller, started, threads = threading.get_ident(), threading.Event(), set()
    run_nodes = models.run_nodes

    def record(nodes, xs, mode):
        threads.add(threading.get_ident())
        if threading.get_ident() == caller:
            assert started.wait(10)  # a worker of the child's own pool has taken a chunk
        else:
            started.set()
        return run_nodes(nodes, xs, mode)

    models.run_nodes = record
    np.testing.assert_array_equal(forward(model, x), want)
    assert len(threads) == 2


def test_a_forked_child_starts_its_own_workers(cores):
    import copy
    import multiprocessing

    import bcnn.workers as workers
    from bcnn.training import train_step

    cores(2)
    model = build_toy_bcnn((3, 8, 8), 2, (4, 4), seed=29)
    x = np.random.default_rng(29).random((40, 3, 8, 8))
    labels = np.arange(40) % 2
    want = forward(model, x)  # starts the parent's pool
    assert workers._pool is not None
    want_step = train_step(copy.deepcopy(model), x, labels, lr=0.1, clip=1.0)
    child = multiprocessing.get_context("fork").Process(
        target=_train_and_split_forward_in_child, args=(model, x, want, labels, want_step))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung on its parent's worker pool")
    assert child.exitcode == 0


def test_a_split_forward_prepares_each_binary_conv_once(cores, chunks, monkeypatch):
    # the plan is built once per model, before the first forward's chunks
    # run: however many chunks and forwards, each layer's step, mask, weight
    # packing and threshold probe run once
    import bcnn.models as models

    cores(2)
    model = hard_prune(build_resnet18_bcnn(seed=34), 0.5)
    calls = {"steps": 0, "active": 0, "weights": 0, "thresholds": 0}

    def counting(name, fn, counts=lambda *args: True):
        def count(*args):
            calls[name] += bool(counts(*args))
            return fn(*args)
        return count

    monkeypatch.setattr(models, "active_output_channels",
                        counting("active", models.active_output_channels))
    monkeypatch.setattr(models, "pack_signs", counting(
        "weights", models.pack_signs, lambda t: t.shape[2:] in ((3, 3), (1, 1))))
    monkeypatch.setattr(models, "_sign_thresholds",
                        counting("thresholds", models._sign_thresholds))
    monkeypatch.setattr(models, "_prepare_step", counting("steps", models._prepare_step))
    x = np.random.default_rng(34).random((32, 3, 32, 32))
    want = forward(model, x)
    assert [images for _, images, _ in chunks] == [8, 8, 8, 8]
    # 19 binary convs, 8 of them (each block's conv1) followed by CGBN -> Binarize,
    # and 8 cut convs (each block's conv2) that also pack their constant channels
    once = {"steps": 19, "active": 19, "weights": 27, "thresholds": 8}
    assert calls == once
    np.testing.assert_array_equal(forward(model, x), want)
    assert len(chunks) == 8 and calls == once


@pytest.mark.parametrize("build", [build_toy_bcnn, build_nin_bcnn])
def test_a_model_is_planned_again_only_after_it_changed(build, monkeypatch):
    import bcnn.models as models
    from bcnn.training import train_step

    model = hard_prune(build(seed=38), 0.5)
    convs = len(list(iter_binary_convs(model)))
    prepared = []
    prepare_step = models._prepare_step
    monkeypatch.setattr(models, "_prepare_step",
                        lambda *args: prepared.append(args[0]) or prepare_step(*args))
    rng = np.random.default_rng(38)
    x = rng.random((1, *model.input_shape))
    for planned in (convs, 0, 0):  # the first forward plans, the next two reuse its plan
        forward(model, x)
        assert len(prepared) == planned
        prepared.clear()
    train_step(model, rng.random((4, *model.input_shape)), np.arange(4) % model.num_classes,
               lr=0.1, clip=1.0)
    np.testing.assert_array_equal(forward(model, x), forward(model, x, packed=False))
    assert len(prepared) == convs  # the step wrote weights: planned anew, once


def test_concurrent_first_forwards_of_one_model_get_the_same_logits(cores):
    # more callers than cores, all planning the same model at once, then reusing a plan
    import sys
    import threading

    cores(2)
    model = hard_prune(perturb_cgbn(build_resnet18_bcnn(seed=39), np.random.default_rng(39)),
                       0.5)
    x = np.random.default_rng(39).random((10, 3, 32, 32))
    want = forward(model, x, packed=False)  # the dense path plans nothing
    start, results = threading.Barrier(4), [[] for _ in range(4)]

    def forwards(k):
        start.wait(timeout=60)
        results[k].extend(forward(model, x) for _ in range(2))

    callers = [threading.Thread(target=forwards, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over often
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for logits in results:
        assert len(logits) == 2
        for each in logits:
            np.testing.assert_array_equal(each, want)
            np.testing.assert_array_equal(np.signbit(each), np.signbit(want))
    np.testing.assert_array_equal(forward(model, x), want)


def test_concurrent_forwards_of_two_models_each_get_their_own_logits(cores):
    import sys
    import threading

    import bcnn.models as models

    cores(2)
    nets = [hard_prune(perturb_cgbn(build_resnet18_bcnn(seed=35), np.random.default_rng(35)),
                       0.5),
            hard_prune(real_gamma_cgbn(build_nin_bcnn(seed=36), np.random.default_rng(36)), 0.5)]
    x = np.random.default_rng(37).random((20, 3, 32, 32))
    want = [forward(net, x) for net in nets]
    before = dict(vars(models))
    results = [[], []]
    callers = [threading.Thread(target=lambda k=k: results[k].extend(
        forward(nets[k], x) for _ in range(3))) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over often
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for k in range(2):
        assert len(results[k]) == 3
        for logits in results[k]:
            np.testing.assert_array_equal(logits, want[k])
    # a forward leaves no plan behind: the module holds no new state
    changed = {name for name, value in vars(models).items() if before.get(name) is not value}
    assert not changed
