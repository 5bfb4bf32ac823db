import numpy as np
import pytest

from bcnn.binary_ops import ConvGeometry
from bcnn.errors import NonBinaryEntry, ShapeMismatch
from bcnn.layers import CgbnLayer
from bcnn.models import (
    AvgPool,
    Binarize,
    BinaryConvLayer,
    Flatten,
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
    _generator_forward,
    kind_of,
)
from bcnn.tensors import ComplexTensor
from helpers import random_pm1_tensor


# ---------------------------------------------------------------------------
# complex input generator
# ---------------------------------------------------------------------------

def test_generator_zero_weights_gives_zero_imaginary():
    gen = build_complex_input_generator(3, seed=0)
    gen.w1[:] = 0.0
    gen.w2[:] = 0.0
    x = np.random.default_rng(0).random((2, 3, 8, 8))
    out = _generator_forward(gen, x)
    np.testing.assert_array_equal(out.re, x)
    np.testing.assert_array_equal(out.im, 0.0)


def test_generator_output_shape():
    gen = build_complex_input_generator(3, seed=1)
    x = np.random.default_rng(1).random((1, 3, 32, 32))
    out = _generator_forward(gen, x)
    assert out.shape == (1, 3, 32, 32)


def test_generator_deterministic():
    gen = build_complex_input_generator(3, seed=2)
    x = np.random.default_rng(2).random((1, 3, 8, 8))
    a = _generator_forward(gen, x)
    b = _generator_forward(gen, x)
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
    from bcnn.models import _binary_conv_forward

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
    out = kind_of(block).forward(block, x, packed=True)
    b = quadrant_binarize(x)
    path = cgbn_forward(_binary_conv_forward(block.conv1, b, True), block.bn1)
    path = quadrant_binarize(path)
    path = cgbn_forward(_binary_conv_forward(block.conv2, path, True), block.bn2)
    np.testing.assert_array_equal(out.re, path.re + x.re)
    np.testing.assert_array_equal(out.im, path.im + x.im)


def test_block_with_side_path_adds_side_cgbn_output():
    # a downsampling block adds the side CGBN output, computed from the same
    # binarized input as the main path, in place of the untouched input
    from bcnn.binary_ops import quadrant_binarize
    from bcnn.layers import cgbn_forward
    from bcnn.models import _binary_conv_forward

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
    out = kind_of(block).forward(block, x, packed=True)
    b = quadrant_binarize(x)
    path = cgbn_forward(_binary_conv_forward(block.conv1, b, True), block.bn1)
    path = quadrant_binarize(path)
    path = cgbn_forward(_binary_conv_forward(block.conv2, path, True), block.bn2)
    side = cgbn_forward(_binary_conv_forward(block.side_conv, b, True), block.side_bn)
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
    out = kind_of(block).forward(block, x, packed=True)
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


def test_packed_binary_conv_rejects_non_binary_activations():
    layer = BinaryConvLayer(
        np.ones((1, 1, 1, 1), np.float32), np.ones((1, 1, 1, 1), np.float32),
        ConvGeometry(1, 1, (1, 1)),
    )
    from bcnn.models import _binary_conv_forward
    from bcnn.tensors import ComplexTensor

    bad = ComplexTensor(np.full((1, 1, 2, 2), 0.5), np.ones((1, 1, 2, 2)))
    with pytest.raises(NonBinaryEntry):
        _binary_conv_forward(layer, bad, packed=True)


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
    from bcnn.model_io import model_from_bytes, model_to_bytes

    build, reason = MISSHAPED_GRAPHS[case]
    with pytest.raises(ShapeMismatch, match=reason):
        validate_graph(build())
    with pytest.raises(CorruptModelFile, match=reason):
        model_from_bytes(model_to_bytes(build()))


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


def test_spectral_pool_node_in_graph():
    from bcnn.models import SpectralPool
    from bcnn.tensors import ComplexTensor

    node = SpectralPool((4, 4))
    x = ComplexTensor(np.random.default_rng(0).standard_normal((1, 2, 8, 8)),
                      np.zeros((1, 2, 8, 8)))
    out = kind_of(node).forward(node, x, packed=True)
    assert out.shape == (1, 2, 4, 4)


def test_pruned_channels_are_skipped_at_binarization():
    from bcnn.models import _binary_conv_forward, active_output_channels
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
        y = _binary_conv_forward(layer, x, packed=packed)
        np.testing.assert_array_equal(y.re[:, 1], 0.0)
        np.testing.assert_array_equal(y.im[:, 1], 0.0)
        assert np.any(y.re[:, 0] != 0.0) or np.any(y.im[:, 0] != 0.0)


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
