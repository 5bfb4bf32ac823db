import struct

import numpy as np
import pytest

from bcnn.binary_ops import binarize_deterministic
from bcnn.errors import (BadMagic, BcnnError, CorruptModelFile, TruncatedFile,
                         UnsupportedVersion)
from bcnn.model_io import load_model, model_from_bytes, model_to_bytes, save_model
from bcnn.models import (
    build_nin_bcnn,
    build_resnet18_bcnn,
    build_toy_bcnn,
    forward,
    iter_binary_convs,
    validate_graph,
)


def test_roundtrip_is_byte_identical():
    model = build_nin_bcnn(seed=13)
    data = model_to_bytes(model)
    again = model_to_bytes(model_from_bytes(data))
    assert data == again


def test_roundtrip_is_byte_identical_for_resnet18():
    data = model_to_bytes(build_resnet18_bcnn(seed=13))
    assert model_to_bytes(model_from_bytes(data)) == data


def test_roundtrip_preserves_forward_logits():
    x = np.random.default_rng(0).random((2, 3, 32, 32))
    for build in (build_nin_bcnn, build_resnet18_bcnn):
        model = build(seed=3)
        loaded = model_from_bytes(model_to_bytes(model))
        np.testing.assert_array_equal(forward(model, x), forward(loaded, x))


def test_binary_weights_stored_packed():
    # packed storage is 32x smaller per plane than float32 would be
    model = build_toy_bcnn(seed=1)
    conv = next(iter(iter_binary_convs(model)))
    loaded = model_from_bytes(model_to_bytes(model))
    loaded_conv = next(iter(iter_binary_convs(loaded)))
    assert np.all(np.abs(loaded_conv.w_re) == 1.0)
    np.testing.assert_array_equal(loaded_conv.w_re, binarize_deterministic(conv.w_re))


def test_save_load_files(tmp_path):
    model = build_toy_bcnn(seed=2)
    path = tmp_path / "model.bcn"
    save_model(model, str(path))
    loaded = load_model(str(path))
    save_model(loaded, str(tmp_path / "model2.bcn"))
    assert path.read_bytes() == (tmp_path / "model2.bcn").read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bcn"
    path.write_bytes(b"XXXX" + bytes(100))
    with pytest.raises(BadMagic):
        load_model(str(path))


def test_unsupported_version():
    model = build_toy_bcnn(seed=0)
    data = bytearray(model_to_bytes(model))
    data[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(UnsupportedVersion):
        model_from_bytes(bytes(data))


def test_truncated_payload():
    model = build_toy_bcnn(seed=0)
    data = model_to_bytes(model)
    with pytest.raises(TruncatedFile):
        model_from_bytes(data[: len(data) - 10])


def test_trailing_bytes_rejected():
    model = build_toy_bcnn(seed=0)
    data = model_to_bytes(model) + b"\x00\x01"
    with pytest.raises(CorruptModelFile):
        model_from_bytes(data)


@pytest.mark.parametrize("pool", ["avg", "max"])
def test_decoded_pool_equals_built_pool(pool):
    # the stride is stored at construction, so a pool built without one and
    # its decoded copy (which always carries one) are the same node
    model = build_toy_bcnn(pool=pool, seed=0)
    built = model.layers[5]
    assert built.stride == built.window
    assert model_from_bytes(model_to_bytes(model)).layers[5] == built


def test_loaded_model_metadata():
    model = build_toy_bcnn(seed=5)
    loaded = model_from_bytes(model_to_bytes(model))
    assert loaded.name == model.name
    assert loaded.input_shape == model.input_shape
    assert loaded.num_classes == model.num_classes
    assert len(loaded.layers) == len(model.layers)


def test_roundtrip_covers_every_node_kind():
    from bcnn.binary_ops import ConvGeometry
    from bcnn.layers import CgbnLayer, ComplexConvLayer, RealBnLayer
    from bcnn.models import (AvgPool, Binarize, BinaryConvLayer, DenseLayer,
                             Flatten, Hardtanh, MaxPool, ModelGraph, Relu,
                             SpectralPool, build_complex_input_generator)

    rng = np.random.default_rng(0)
    g = ConvGeometry(3, 4, (3, 3), (1, 1), (1, 1))
    layers = [
        RealBnLayer.identity(3),
        build_complex_input_generator(3, seed=0),
        ComplexConvLayer(rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                         rng.standard_normal((4, 3, 3, 3)).astype(np.float32), g),
        CgbnLayer.identity(4),
        Relu(),
        Hardtanh(),
        SpectralPool((8, 8)),
        MaxPool((2, 2)),
        AvgPool((2, 2), (2, 2)),
        Binarize(),
        BinaryConvLayer(rng.standard_normal((4, 4, 1, 1)).astype(np.float32),
                        rng.standard_normal((4, 4, 1, 1)).astype(np.float32),
                        ConvGeometry(4, 4, (1, 1))),
        Flatten(),
        DenseLayer(rng.standard_normal((2, 32)).astype(np.float32),
                   np.zeros(2, dtype=np.float32)),
    ]
    model = ModelGraph("kinds", (3, 16, 16), 2, layers)
    blob = model_to_bytes(model)
    loaded = model_from_bytes(blob)
    assert model_to_bytes(loaded) == blob
    assert [type(l).__name__ for l in loaded.layers] == [type(l).__name__ for l in layers]


def test_resnet18_block_tags_mark_side_paths():
    # tag 14 is an identity-skip block, tag 15 a block with a side path
    from bcnn.models import ResidualBlock, encode_node

    tags = []
    for layer in build_resnet18_bcnn(seed=0).layers:
        if isinstance(layer, ResidualBlock):
            desc = bytearray()
            encode_node(layer, desc, bytearray())
            tags.append(desc[0])
    assert tags == [14, 14, 15, 14, 15, 14, 15, 14]


def _block_with_dense_sub_layer():
    from bcnn.layers import CgbnLayer
    from bcnn.models import DenseLayer, ResidualBlock, _init_binary_conv

    rng = np.random.default_rng(0)
    dense = DenseLayer(np.ones((4, 4), np.float32), np.zeros(4, np.float32))
    return ResidualBlock(dense, CgbnLayer.identity(4),
                         _init_binary_conv(rng, 4, 4, (3, 3), padding=(1, 1)),
                         CgbnLayer.identity(4))


@pytest.mark.parametrize("build", [build_toy_bcnn, build_resnet18_bcnn])
def test_block_with_wrong_sub_layer_type_is_corrupt(build):
    model = build(seed=0)
    block_at = 3  # generator, complex conv, CGBN, then the first block (ResNet)
    model.layers.insert(block_at, _block_with_dense_sub_layer())
    with pytest.raises(CorruptModelFile, match="DenseLayer"):
        model_from_bytes(model_to_bytes(model))


def test_graph_failing_validation_is_corrupt():
    from bcnn.models import Binarize

    model = build_toy_bcnn(seed=0)
    binarize_at = next(i for i, layer in enumerate(model.layers) if isinstance(layer, Binarize))
    del model.layers[binarize_at]  # a binarized conv no longer follows a binarize step
    with pytest.raises(CorruptModelFile, match="binarize"):
        model_from_bytes(model_to_bytes(model))


def _rejected_by_validation_and_loading(model, match):
    from bcnn.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch, match=match):
        validate_graph(model)
    with pytest.raises(CorruptModelFile, match=match):
        model_from_bytes(model_to_bytes(model))


def test_real_bn_after_the_generator_is_rejected():
    from bcnn.layers import RealBnLayer

    model = build_toy_bcnn(seed=0)  # generator, complex conv (4 channels), ...
    model.layers.insert(2, RealBnLayer.identity(4))
    _rejected_by_validation_and_loading(model, "expects a real input, got a complex one")


@pytest.mark.parametrize("prefix", [[], ["bn", "pool"]])
def test_flatten_on_the_real_image_is_rejected(prefix):
    from bcnn.layers import RealBnLayer
    from bcnn.models import AvgPool, DenseLayer, Flatten, ModelGraph

    make = {"bn": lambda: RealBnLayer.identity(3), "pool": lambda: AvgPool((2, 2))}
    features = 3 * 4 * 4 if prefix else 3 * 8 * 8
    dense = DenseLayer(np.ones((2, features), np.float32), np.zeros(2, np.float32))
    model = ModelGraph("no-generator", (3, 8, 8), 2,
                       [make[name]() for name in prefix] + [Flatten(), dense])
    _rejected_by_validation_and_loading(model, "expects a complex or binarized input")


def test_graph_without_compute_layer_is_corrupt():
    from bcnn.models import ModelGraph, Relu

    with pytest.raises(CorruptModelFile):
        model_from_bytes(model_to_bytes(ModelGraph("relu", (3, 8, 8), 2, [Relu()])))


def test_model_name_not_utf8_is_corrupt():
    data = bytearray(model_to_bytes(build_toy_bcnn(seed=0)))
    data[10] = 0xFF  # first byte of the name (magic 4, version 4, length 2)
    with pytest.raises(CorruptModelFile, match="UTF-8"):
        model_from_bytes(bytes(data))


def _descriptor_bounds(data) -> tuple[int, int]:
    """(start, end) of the topology descriptor in a BCN1 blob."""
    (name_len,) = struct.unpack_from("<H", data, 8)
    desc_len_at = 10 + name_len + 16  # after the name: input shape and classes
    (desc_len,) = struct.unpack_from("<I", data, desc_len_at)
    return desc_len_at + 4, desc_len_at + 4 + desc_len


def test_layer_size_overflowing_int64_is_truncated():
    data = bytearray(model_to_bytes(build_toy_bcnn(seed=0)))
    start, _ = _descriptor_bounds(data)
    # the generator comes first: its tag byte, then its u32 channel count c;
    # 4*c*c*9 payload bytes overflow int64
    struct.pack_into("<I", data, start + 1, 2**30 + 3)
    with pytest.raises(TruncatedFile):
        model_from_bytes(bytes(data))


@pytest.mark.parametrize("build,count,flip_structure_only", [
    (build_toy_bcnn, 400, False),
    (build_toy_bcnn, 400, True),
    # a ResNet-18 load takes ~0.1 s, so its bit flips go where the topology
    # is parsed; flips inside its weight payload only change weight values
    (build_resnet18_bcnn, 40, True),
])
def test_corrupted_blob_raises_bcnn_error_or_loads_valid_graph(build, count,
                                                               flip_structure_only):
    data = model_to_bytes(build(seed=5))
    flip_span = _descriptor_bounds(data)[1] if flip_structure_only else len(data)
    rng = np.random.default_rng([count, flip_structure_only])
    for trial in range(count):
        if trial % 4 == 0:
            blob = data[: int(rng.integers(0, len(data)))]
        else:
            buf = bytearray(data)
            for _ in range(int(rng.integers(1, 4))):
                buf[int(rng.integers(0, flip_span))] ^= 1 << int(rng.integers(0, 8))
            blob = bytes(buf)
        try:
            model = model_from_bytes(blob)
        except BcnnError:
            continue
        validate_graph(model)
        logits = forward(model, np.zeros((1, *model.input_shape)))
        assert logits.shape == (1, model.num_classes)
