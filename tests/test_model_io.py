import math
import struct

import numpy as np
import pytest

from bcnn.binary_ops import binarize_deterministic
from bcnn.errors import (BadMagic, BcnnError, CorruptModelFile, ShapeMismatch, TruncatedFile,
                         UnsupportedVersion)
from bcnn.model_io import (_encode_graph, load_model, model_from_bytes, model_to_bytes,
                           save_model)
from bcnn.models import (
    build_nin_bcnn,
    build_resnet18_bcnn,
    build_toy_bcnn,
    forward,
    iter_binary_convs,
    validate_graph,
)
from helpers import every_node_kind_model


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
    from bcnn.layers import CgbnLayer, ComplexConvLayer
    from bcnn.models import (AvgPool, Binarize, BinaryConvLayer, DenseLayer, Flatten, MaxPool,
                             ModelGraph, build_complex_input_generator)

    rng = np.random.default_rng(0)
    g = ConvGeometry(3, 4, (3, 3), (1, 1), (1, 1))
    layers = [
        build_complex_input_generator(3, seed=0),
        ComplexConvLayer(rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                         rng.standard_normal((4, 3, 3, 3)).astype(np.float32), g),
        CgbnLayer.identity(4),
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
    model = ModelGraph("kinds", (3, 8, 8), 2, layers)
    blob = model_to_bytes(model)
    loaded = model_from_bytes(blob)
    assert model_to_bytes(loaded) == blob
    assert [type(l).__name__ for l in loaded.layers] == [type(l).__name__ for l in layers]


# node entries of kinds no model is built with any more, as earlier writers
# stored them: (descriptor bytes, payload bytes) of a real batch norm over
# three channels (gamma, beta, running mean and variance), a spectral pool
# cropping to 8x8, a ReLU, a Hardtanh
RETIRED_NODES = {
    5: (struct.pack("<BIdd", 5, 3, 1e-5, 0.1),
        np.concatenate([np.ones(3), np.zeros(6), np.ones(3)]).astype("<f4").tobytes()),
    8: (struct.pack("<B2I", 8, 8, 8), b""),
    9: (struct.pack("<B", 9), b""),
    10: (struct.pack("<B", 10), b""),
}


def _toy_file_with_retired_node(tag, at):
    """The toy model's BCN1 bytes with the retired node of ``tag`` stored
    before its layer ``at``."""
    from bcnn.models import encode_node

    model = build_toy_bcnn(seed=0)
    desc, payload = bytearray(), bytearray()
    for layer in model.layers:
        encode_node(layer, desc, payload)
    head = model_to_bytes(model)[: -len(desc) - len(payload) - 4]
    desc, payload = bytearray(), bytearray()
    for i, layer in enumerate(model.layers):
        if i == at:
            desc += RETIRED_NODES[tag][0]
            payload += RETIRED_NODES[tag][1]
        encode_node(layer, desc, payload)
    return head + struct.pack("<I", len(desc)) + desc + payload


@pytest.mark.parametrize("tag", sorted(RETIRED_NODES))
def test_a_retired_layer_tag_is_refused_as_unknown(tag, tmp_path, capsys):
    from bcnn.cli import main
    from bcnn.models import NODE_KINDS

    # a reused tag would decode the old files as the wrong kind
    assert tag not in {t for kind in NODE_KINDS.values() for t in kind.tags}
    blob = _toy_file_with_retired_node(tag, at=0)  # first, on the real image
    with pytest.raises(CorruptModelFile, match=f"^unknown layer tag {tag}$"):
        model_from_bytes(blob)
    path = tmp_path / "retired.bcn"
    path.write_bytes(blob)
    assert main(["export", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown layer tag {tag}\n"


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
    with pytest.raises(ShapeMismatch):
        model_to_bytes(model)
    with pytest.raises(CorruptModelFile, match="DenseLayer"):
        model_from_bytes(_encode_graph(model))


def test_graph_failing_validation_is_corrupt():
    from bcnn.models import Binarize

    model = build_toy_bcnn(seed=0)
    binarize_at = next(i for i, layer in enumerate(model.layers) if isinstance(layer, Binarize))
    del model.layers[binarize_at]  # a binarized conv no longer follows a binarize step
    with pytest.raises(ShapeMismatch, match="binarize"):
        model_to_bytes(model)
    with pytest.raises(CorruptModelFile, match="binarize"):
        model_from_bytes(_encode_graph(model))


def test_saving_a_misshaped_graph_raises_and_writes_nothing(tmp_path):
    from bcnn.layers import CgbnLayer

    model = build_toy_bcnn(seed=0)
    model.layers.insert(3, CgbnLayer.identity(5))  # the conv before it gives 4 channels
    path = tmp_path / "misshaped.bcn"
    with pytest.raises(ShapeMismatch, match="channels"):
        save_model(model, str(path))
    assert not path.exists()


def _set(path, value):
    """An edit of a toy model: ``path`` is (layer index, field[, entry])."""
    def edit(model):
        node = model.layers[path[0]]
        if len(path) == 2:
            setattr(node, path[1], value)
        else:
            getattr(node, path[1])[path[2]] = value
    return edit


@pytest.mark.parametrize("edit, match", [
    (_set((2, "eps"), math.nan), "eps"),
    (_set((2, "eps"), -1.0), "eps"),
    (_set((2, "eps"), 0.0), "eps"),
    (_set((2, "eps"), math.inf), "eps"),
    (_set((2, "momentum"), math.nan), "momentum"),
    (_set((1, "pad_value"), math.nan), "pad_value"),
    (_set((2, "gamma_re", 0), math.nan), "gamma_re"),
    (_set((6, "running_var_im", 1), math.inf), "running_var_im"),
    (_set((0, "b1", 2), -math.inf), "b1"),
    (_set((8, "bias"), np.full(2, 1e39)), "bias"),  # finite in float64, inf as stored
], ids=["eps-nan", "eps-negative", "eps-zero", "eps-inf", "momentum-nan", "pad-nan",
        "gamma-nan", "running-var-inf", "generator-bias-inf", "dense-bias-overflow"])
def test_non_finite_parameter_is_refused_on_save_and_load(tmp_path, edit, match):
    model = build_toy_bcnn(seed=0)
    edit(model)
    path = tmp_path / "bad.bcn"
    with pytest.raises(CorruptModelFile, match=match):
        save_model(model, str(path))
    assert not path.exists()
    with np.errstate(over="ignore"):
        blob = _encode_graph(model)
    with pytest.raises(CorruptModelFile, match=match):
        model_from_bytes(blob)


def test_non_finite_parameter_inside_a_block_is_refused():
    model = every_node_kind_model(seed=0)
    block = next(layer for layer in model.layers if type(layer).__name__ == "ResidualBlock")
    block.bn2.eps = math.nan
    with pytest.raises(CorruptModelFile, match="eps"):
        model_to_bytes(model)
    with pytest.raises(CorruptModelFile, match="eps"):
        model_from_bytes(_encode_graph(model))


def _rejected_by_validation_and_loading(model, match):
    with pytest.raises(ShapeMismatch, match=match):
        validate_graph(model)
    with pytest.raises(ShapeMismatch, match=match):
        model_to_bytes(model)
    with pytest.raises(CorruptModelFile, match=match):
        model_from_bytes(_encode_graph(model))


def test_real_bn_after_the_generator_is_rejected():
    # the generator's output is complex; the shape walk refused a real batch
    # norm there before its tag was retired, and the loader refuses the tag
    blob = _toy_file_with_retired_node(5, at=1)
    with pytest.raises(CorruptModelFile, match="^unknown layer tag 5$"):
        model_from_bytes(blob)


@pytest.mark.parametrize("prefix", [[], ["pool"]])
def test_flatten_on_the_real_image_is_rejected(prefix):
    from bcnn.models import AvgPool, DenseLayer, Flatten, ModelGraph

    features = 3 * 4 * 4 if prefix else 3 * 8 * 8
    dense = DenseLayer(np.ones((2, features), np.float32), np.zeros(2, np.float32))
    model = ModelGraph("no-generator", (3, 8, 8), 2,
                       [AvgPool((2, 2)) for _ in prefix] + [Flatten(), dense])
    _rejected_by_validation_and_loading(model, "expects a complex or binarized input")


def test_residual_block_as_last_compute_layer_is_rejected():
    from bcnn.models import (Flatten, ModelGraph, _block1, _init_complex_conv,
                             build_complex_input_generator)

    rng = np.random.default_rng(0)
    model = ModelGraph("block-last", (2, 1, 1), 4,
                       [build_complex_input_generator(2, seed=0),
                        _init_complex_conv(rng, 2, 2, (1, 1)), _block1(rng, 2), Flatten()])
    _rejected_by_validation_and_loading(model, "last compute layer must be full precision")


def test_graph_without_compute_layer_is_corrupt():
    from bcnn.models import AvgPool, ModelGraph

    model = ModelGraph("pool", (3, 8, 8), 2, [AvgPool((2, 2))])
    with pytest.raises(ShapeMismatch):
        model_to_bytes(model)
    with pytest.raises(CorruptModelFile):
        model_from_bytes(_encode_graph(model))


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


def _toy_with_a_pruned_channel():
    """A toy model whose binary conv has output channel 0 pruned, its BCN1
    bytes, and where that conv's payload starts: one mask byte per output
    channel, then the real and the imaginary weight words, (oc, kh, kw,
    words) little-endian u64 each."""
    from bcnn.models import encode_node

    model = build_toy_bcnn(seed=0)
    conv = next(iter(iter_binary_convs(model)))
    conv.w_re[0] = conv.w_im[0] = 0.0
    data = model_to_bytes(model)
    payload = bytearray()
    for layer in model.layers[: model.layers.index(conv)]:
        encode_node(layer, bytearray(), payload)
    return model, data, _descriptor_bounds(data)[1] + len(payload)


def test_binary_conv_payload_the_encoder_never_writes_is_corrupt():
    model, data, at = _toy_with_a_pruned_channel()
    assert model_to_bytes(model_from_bytes(data)) == data  # the valid file round-trips
    g = next(iter(iter_binary_convs(model))).geometry
    assert g.in_channels == 4  # bits 4..63 of each weight word are pad bits
    words = at + g.out_channels  # channel 0's first real word, then channel 1's
    im_words = words + 8 * g.out_channels * g.kernel[0] * g.kernel[1]
    cases = [
        (at, 3, "mask byte 3, expected 0 or 1"),  # pruned 0 -> 3: read as |w| = 3
        (at + 1, 2, "mask byte 3, expected 0 or 1"),  # live 1 -> 3
        (words + 8 * 9, 1 << 4, "beyond 4 channels"),  # channel 1, first tap, real
        (im_words + 8 * 9 + 7, 0x80, "beyond 4 channels"),  # bit 63, imaginary
        (words, 1, "pruned channel's packed weights are not all"),  # a -1 in channel 0
    ]
    for offset, flip, match in cases:  # each case flips bits of one byte
        blob = bytearray(data)
        blob[offset] ^= flip
        with pytest.raises(CorruptModelFile, match=match):
            model_from_bytes(bytes(blob))


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
