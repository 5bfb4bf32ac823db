import numpy as np
import pytest

from bcnn.cli import main
from bcnn.model_io import load_model, save_model
from bcnn.models import build_toy_bcnn, forward


def run(argv):
    return main(argv)


def test_bench_prints_reference_throughput(capsys):
    assert run(["bench", "--kernels", "9", "--latency-ms", "1.53"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "5882"


def test_bench_with_baseline(capsys):
    assert run(["bench", "--kernels", "8", "--latency-ms", "1.62",
                "--baseline-fps", "3123"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4938"
    assert "1.58x" in out


@pytest.mark.parametrize("flags", [
    ["--latency-ms", "nan"], ["--latency-ms", "inf"], ["--latency-ms=-inf"],
    ["--latency-ms", "1.53", "--baseline-fps", "nan"],
    ["--latency-ms", "1.53", "--baseline-fps", "inf"],
])
def test_bench_rejects_non_finite_values_with_one_error_line(flags, capsys):
    assert run(["bench", "--kernels", "9", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_train_zero_epochs_saves_untrained(tmp_path, capsys):
    out_file = tmp_path / "untrained.bcn"
    code = run(["train", "--model", "toy", "--epochs", "0", "--seed", "3",
                "--out", str(out_file)])
    assert code == 0
    model = load_model(str(out_file))
    assert model.num_classes == 10


def test_train_is_seed_deterministic(tmp_path):
    a = tmp_path / "a.bcn"
    b = tmp_path / "b.bcn"
    run(["train", "--model", "toy", "--epochs", "0", "--seed", "7", "--out", str(a)])
    run(["train", "--model", "toy", "--epochs", "0", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_infer_missing_model_names_path(capsys):
    code = run(["infer", "--in", "/no/such/model.bcn", "--image", "x.npy"])
    assert code == 1
    assert "/no/such/model.bcn" in capsys.readouterr().err


def test_infer_on_npy_image(tmp_path, capsys):
    model = build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10,
                           channels=(8, 8), seed=1)
    model_path = tmp_path / "m.bcn"
    save_model(model, str(model_path))
    rng = np.random.default_rng(0)
    img = rng.random((3, 32, 32))
    img_path = tmp_path / "img.npy"
    np.save(img_path, img)
    assert run(["infer", "--in", str(model_path), "--image", str(img_path)]) == 0
    out = capsys.readouterr().out
    expected = int(forward(load_model(str(model_path)), img[None])[0].argmax())
    assert f"class {expected}" in out


def test_infer_over_dataset(tmp_path, capsys):
    from bcnn.training import EVAL_BATCH, load_cifar10

    model = build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10,
                           channels=(8, 8), seed=1)
    model_path = tmp_path / "m.bcn"
    save_model(model, str(model_path))
    pixels = bytes([100]) * 3072
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(bytes([1]) + pixels)
    (tmp_path / "test_batch.bin").write_bytes((bytes([1]) + pixels) * 3)
    assert run(["infer", "--in", str(model_path), "--data", str(tmp_path)]) == 0
    assert "over 3 images" in capsys.readouterr().out

    # distinct images over two chunks, labelled so that a third of the
    # per-image predictions are wrong: batching must not move an argmax
    n = EVAL_BATCH + 9
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, (n, 3072), dtype=np.uint8)
    records = np.concatenate([np.zeros((n, 1), np.uint8), images], axis=1)
    (tmp_path / "test_batch.bin").write_bytes(records.tobytes())
    loaded = load_model(str(model_path))
    preds = np.array([int(forward(loaded, x[None]).argmax())
                      for x in load_cifar10(str(tmp_path)).test.images])
    labels = np.where(np.arange(n) % 3 == 0, (preds + 1) % 10, preds)
    records[:, 0] = labels
    (tmp_path / "test_batch.bin").write_bytes(records.tobytes())
    assert run(["infer", "--in", str(model_path), "--data", str(tmp_path)]) == 0
    expected = np.mean(labels == preds)
    assert f"accuracy {expected:.4f} over {n} images" in capsys.readouterr().out


def test_infer_over_dataset_prints_what_evaluate_measures(tmp_path, capsys):
    from bcnn.training import evaluate, load_cifar10

    model = build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10,
                           channels=(8, 8), seed=4)
    model_path = tmp_path / "m.bcn"
    save_model(model, str(model_path))
    rng = np.random.default_rng(4)
    records = rng.integers(0, 256, size=(11, 3073), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 10, size=11)
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(records[:1].tobytes())
    (tmp_path / "test_batch.bin").write_bytes(records.tobytes())
    _, accuracy = evaluate(load_model(str(model_path)), load_cifar10(str(tmp_path)).test)
    assert run(["infer", "--in", str(model_path), "--data", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"accuracy {accuracy:.4f} over 11 images\n"


def test_infer_over_the_synthetic_set(tmp_path, capsys):
    # the held-out split of the built-in set that prune and quantize train
    # on, as evaluate measures it
    from bcnn.training import evaluate, make_synthetic_dataset

    model = build_toy_bcnn(seed=6)
    model_path = tmp_path / "m.bcn"
    save_model(model, str(model_path))
    dataset = make_synthetic_dataset(num_classes=2, samples_per_class=16, shape=(3, 8, 8), seed=0,
                                     held_out=True)
    _, accuracy = evaluate(load_model(str(model_path)), dataset)
    assert run(["infer", "--in", str(model_path), "--data", "synthetic"]) == 0
    assert capsys.readouterr().out == f"accuracy {accuracy:.4f} over 32 images\n"


def test_synthetic_infer_images_are_not_the_training_images():
    # infer scores a held-out split: the classes of the set that train,
    # prune and quantize use, none of its images
    from bcnn.cli import _make_dataset

    model = build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10, seed=7)
    train = _make_dataset("synthetic", model, 0, train_split=True)
    test = _make_dataset("synthetic", model, 0, train_split=False)
    assert test.images.shape == train.images.shape
    np.testing.assert_array_equal(test.labels, train.labels)
    flat_train = train.images.reshape(len(train), -1)
    flat_test = test.images.reshape(len(test), -1)
    assert not any((flat_train == row).all(axis=1).any() for row in flat_test)
    # the same sign pattern per class: each class mean's signs agree across the splits
    for cls in range(10):
        a = flat_train[train.labels == cls].mean(axis=0)
        b = flat_test[test.labels == cls].mean(axis=0)
        assert np.mean(np.sign(a) == np.sign(b)) > 0.95


def test_infer_on_an_empty_test_split_is_an_error(tmp_path, capsys):
    model_path = tmp_path / "m.bcn"
    save_model(build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10, seed=1), str(model_path))
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(bytes(3073))
    (tmp_path / "test_batch.bin").write_bytes(b"")
    assert run(["infer", "--in", str(model_path), "--data", str(tmp_path)]) == 1
    assert "no images" in capsys.readouterr().err


def test_quantize_roundtrip(tmp_path, capsys):
    model = build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10,
                           channels=(8, 8), seed=2)
    src = tmp_path / "in.bcn"
    dst = tmp_path / "out.bcn"
    save_model(model, str(src))
    assert run(["quantize", "--in", str(src), "--epochs", "1", "--clip", "1.0",
                "--out", str(dst)]) == 0
    assert dst.exists()


def test_prune_command(tmp_path, capsys):
    model = build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10,
                           channels=(8, 8), seed=2)
    src = tmp_path / "in.bcn"
    dst = tmp_path / "pruned.bcn"
    save_model(model, str(src))
    code = run(["prune", "--in", str(src), "--budget-ratio", "0.5",
                "--iters", "2", "--out", str(dst)])
    assert code == 0
    out = capsys.readouterr().out
    assert '"violation"' in out  # line-delimited history records
    pruned = load_model(str(dst))
    from bcnn.models import iter_binary_convs
    from bcnn.slr import count_nonzero_channels

    conv = next(iter(iter_binary_convs(pruned)))
    assert count_nonzero_channels(np.stack([conv.w_re, conv.w_im]), 1) <= 4


def test_prune_of_no_iterations_prints_no_history(tmp_path, capsys):
    src, dst = tmp_path / "in.bcn", tmp_path / "pruned.bcn"
    save_model(build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10,
                              channels=(8, 8), seed=2), str(src))
    assert run(["prune", "--in", str(src), "--iters", "0", "--out", str(dst)]) == 0
    assert capsys.readouterr().out == f"saved pruned model to {dst}\n"


def test_export_text(tmp_path, capsys):
    model = build_toy_bcnn(seed=0)
    path = tmp_path / "m.bcn"
    save_model(model, str(path))
    assert run(["export", "--in", str(path), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "BinaryConvLayer" in out and "DenseLayer" in out


# `bcnn export` text captured before node descriptions moved into the node
# table; the empty details keep their column padding
EXPORT_GOLDEN = {
    "every-kind": [
        'model every-kind: input (3, 16, 16), 2 classes',
        '  # layer                    details',
        '  0 ComplexInputGenerator    3 channels',
        '  1 ComplexConvLayer         3->4 kernel (3, 3) stride (1, 1) pad (1, 1) (full precision)',
        '  2 CgbnLayer                4 complex channels',
        '  3 AvgPool                  window (2, 2) stride (2, 2)',
        '  4 MaxPool                  window (2, 2) stride (2, 2)',
        '  5 Binarize                 ',
        '  6 BinaryConvLayer          4->4 kernel (3, 3) stride (1, 1) pad (1, 1) (binarized)',
        '  7 CgbnLayer                4 complex channels',
        '  8 ResidualBlock            4->4 stride (1, 1)',
        '  9 ResidualBlock            4->8 stride (2, 2)',
        ' 10 AvgPool                  window (2, 2) stride (2, 2)',
        ' 11 CgbnLayer                8 complex channels',
        ' 12 Flatten                  ',
        ' 13 DenseLayer               16->2',
    ],
    "resnet18": [
        'model resnet18-bcnn: input (3, 32, 32), 10 classes',
        '  # layer                    details',
        '  0 ComplexInputGenerator    3 channels',
        '  1 ComplexConvLayer         3->32 kernel (3, 3) stride (1, 1) pad (1, 1) (full precision)',
        '  2 CgbnLayer                32 complex channels',
        '  3 ResidualBlock            32->32 stride (1, 1)',
        '  4 ResidualBlock            32->32 stride (1, 1)',
        '  5 ResidualBlock            32->64 stride (2, 2)',
        '  6 ResidualBlock            64->64 stride (1, 1)',
        '  7 ResidualBlock            64->128 stride (2, 2)',
        '  8 ResidualBlock            128->128 stride (1, 1)',
        '  9 ResidualBlock            128->256 stride (2, 2)',
        ' 10 ResidualBlock            256->256 stride (1, 1)',
        ' 11 AvgPool                  window (4, 4) stride (4, 4)',
        ' 12 Flatten                  ',
        ' 13 DenseLayer               512->10',
    ],
}


@pytest.mark.parametrize("name", sorted(EXPORT_GOLDEN))
def test_export_text_matches_golden(name, tmp_path, capsys):
    from bcnn.models import build_resnet18_bcnn
    from helpers import every_node_kind_model

    model = {"every-kind": every_node_kind_model, "resnet18": build_resnet18_bcnn}[name](seed=0)
    path = tmp_path / "m.bcn"
    save_model(model, str(path))
    assert run(["export", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "\n".join(EXPORT_GOLDEN[name]) + "\n"


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--kernels", "9", "--latency-ms", "1.5", "--bogus", "1"])
    assert exc.value.code == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_train_with_cifar_directory(tmp_path):
    pixels = bytes([64]) * 3072
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes((bytes([i % 10]) + pixels) * 2)
    (tmp_path / "test_batch.bin").write_bytes(bytes([0]) + pixels)
    out_file = tmp_path / "m.bcn"
    code = run(["train", "--model", "toy", "--data", str(tmp_path),
                "--epochs", "0", "--out", str(out_file)])
    assert code == 0 and out_file.exists()


def test_infer_on_raw_pixel_file(tmp_path, capsys):
    model = build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10,
                           channels=(8, 8), seed=4)
    model_path = tmp_path / "m.bcn"
    save_model(model, str(model_path))
    raw = bytes(range(256)) * 12  # 3072 pixel bytes
    img_path = tmp_path / "img.bin"
    img_path.write_bytes(raw)
    assert run(["infer", "--in", str(model_path), "--image", str(img_path)]) == 0
    assert "class " in capsys.readouterr().out


def test_infer_on_a_raw_pixel_file_skips_a_leading_label_byte(tmp_path, capsys):
    model_path = tmp_path / "m.bcn"
    save_model(build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10, channels=(8, 8), seed=4),
               str(model_path))
    raw = bytes(range(256)) * 12  # 3072 pixel bytes
    outputs = []
    for name, data in [("img.bin", raw), ("record.bin", bytes([7]) + raw)]:
        (tmp_path / name).write_bytes(data)
        assert run(["infer", "--in", str(model_path), "--image", str(tmp_path / name)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("class ") and outputs[1] == outputs[0]


@pytest.mark.parametrize("name, write, message", [
    ("img.bin", lambda path: path.write_bytes(bytes(100)), "100 pixel bytes, expected 3072"),
    ("img.npy", lambda path: np.save(path, np.zeros((3, 16, 16))),
     "image shape (3, 16, 16) does not match model (3, 32, 32)"),
], ids=["raw_100_bytes", "npy_3x16x16"])
def test_infer_on_an_image_of_the_wrong_size_is_an_error_line(name, write, message, tmp_path,
                                                              capsys):
    model_path = tmp_path / "m.bcn"
    save_model(build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10, channels=(8, 8)),
               str(model_path))
    img_path = tmp_path / name
    write(img_path)
    assert run(["infer", "--in", str(model_path), "--image", str(img_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def _write_npz(path):
    with open(path, "wb") as fh:  # a file object keeps np.savez from renaming it
        np.savez(fh, np.zeros((3, 32, 32)))


MALFORMED_NPY = {
    "empty_file": lambda path: path.write_bytes(b""),
    "not_npy_bytes": lambda path: path.write_bytes(b"these are not npy bytes"),
    "object_array": lambda path: np.save(path, np.full((3, 32, 32), None), allow_pickle=True),
    "string_array": lambda path: np.save(path, np.full((3, 32, 32), "0.5")),
    "complex_array": lambda path: np.save(path, np.full((3, 32, 32), 0.5 + 0.5j)),
    "all_nan_image": lambda path: np.save(path, np.full((3, 32, 32), np.nan)),
    "npz_archive": _write_npz,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NPY))
def test_infer_on_a_malformed_npy_is_an_error(case, tmp_path, capsys):
    model_path = tmp_path / "m.bcn"
    save_model(build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10, channels=(8, 8)),
               str(model_path))
    img_path = tmp_path / "img.npy"
    MALFORMED_NPY[case](img_path)
    assert run(["infer", "--in", str(model_path), "--image", str(img_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no prediction
    assert captured.err.startswith("error: ") and str(img_path) in captured.err


@pytest.mark.parametrize("flag", ["--in", "--image"])
def test_infer_with_a_directory_is_an_error_line(flag, tmp_path, capsys):
    model_path = tmp_path / "m.bcn"
    save_model(build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10, channels=(8, 8)),
               str(model_path))
    img_path = tmp_path / "img.npy"
    np.save(img_path, np.zeros((3, 32, 32)))
    folder = tmp_path / "folder.npy"
    folder.mkdir()
    paths = {"--in": str(model_path), "--image": str(img_path), flag: str(folder)}
    assert run(["infer", "--in", paths["--in"], "--image", paths["--image"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {folder}: ") and captured.err.count("\n") == 1


# each rejected hyperparameter, after the command it goes to; {model} is a saved toy model
BAD_HYPERPARAMETERS = {
    "train_batch_zero": ["train", "--batch", "0"],
    "train_batch_negative": ["train", "--batch", "-4"],
    "train_epochs_negative": ["train", "--epochs", "-2"],
    "quantize_epochs_negative": ["quantize", "--in", "{model}", "--epochs", "-1"],
    "quantize_clip_nan": ["quantize", "--in", "{model}", "--clip", "nan"],
    "prune_iters_negative": ["prune", "--in", "{model}", "--iters", "-3"],
    "prune_rho_nan": ["prune", "--in", "{model}", "--rho", "nan"],
}


@pytest.mark.parametrize("case", sorted(BAD_HYPERPARAMETERS))
def test_bad_hyperparameter_is_one_error_line_and_no_file(case, tmp_path, capsys):
    model_path = tmp_path / "m.bcn"
    save_model(build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10, channels=(8, 8)),
               str(model_path))
    out_file = tmp_path / "out.bcn"
    argv = [arg.format(model=model_path) for arg in BAD_HYPERPARAMETERS[case]]
    assert run(argv + ["--out", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing trained, no records
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out_file.exists()


def test_train_with_a_negative_seed_is_one_error_line_and_no_file(tmp_path, capsys):
    out_file = tmp_path / "out.bcn"
    assert run(["train", "--seed", "-1", "--out", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert not out_file.exists()


def _assert_jobs_is_a_usage_error(jobs, tmp_path, capsys):
    model_path = tmp_path / "m.bcn"
    save_model(build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10, channels=(8, 8)),
               str(model_path))
    img_path = tmp_path / "img.npy"
    np.save(img_path, np.zeros((3, 32, 32)))
    with pytest.raises(SystemExit) as exc:
        run(["infer", "--in", str(model_path), "--image", str(img_path), "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --jobs {jobs}" in captured.err


def test_infer_jobs_is_a_usage_error(tmp_path, capsys):
    # each forward already spreads its batch over every core; there is no --jobs
    _assert_jobs_is_a_usage_error("2", tmp_path, capsys)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_infer_with_jobs_below_one_is_an_error(jobs, tmp_path, capsys):
    # still refused, now as the unknown flag it is
    _assert_jobs_is_a_usage_error(jobs, tmp_path, capsys)


def test_infer_with_labels_beyond_the_model_classes_is_an_error(tmp_path, capsys):
    model_path = tmp_path / "m.bcn"
    save_model(build_toy_bcnn(input_shape=(3, 32, 32), num_classes=4, channels=(8, 8)),
               str(model_path))
    pixels = bytes([100]) * 3072
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(bytes([1]) + pixels)
    (tmp_path / "test_batch.bin").write_bytes((bytes([2]) + pixels) + (bytes([7]) + pixels))
    assert run(["infer", "--in", str(model_path), "--data", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: labels reach 7, outside the model's 4 classes\n"


def test_prune_then_quantize_keeps_budgets(tmp_path, capsys):
    from bcnn.models import iter_binary_convs
    from bcnn.slr import count_nonzero_channels

    model = build_toy_bcnn(input_shape=(3, 32, 32), num_classes=10,
                           channels=(8, 8), seed=5)
    src = tmp_path / "in.bcn"
    pruned = tmp_path / "pruned.bcn"
    quant = tmp_path / "quant.bcn"
    save_model(model, str(src))
    assert run(["prune", "--in", str(src), "--budget-ratio", "0.5",
                "--iters", "2", "--out", str(pruned)]) == 0
    assert run(["quantize", "--in", str(pruned), "--epochs", "1",
                "--out", str(quant)]) == 0
    final = load_model(str(quant))
    conv = next(iter(iter_binary_convs(final)))
    assert count_nonzero_channels(np.stack([conv.w_re, conv.w_im]), 1) <= 4


@pytest.mark.parametrize("command", [
    ["infer", "--data", "synthetic"], ["infer", "--image", "img.npy"],
    ["prune", "--iters", "1", "--out", "pruned.bcn"], ["quantize", "--epochs", "1", "--out", "q.bcn"],
    ["export"],
], ids=["infer_synthetic", "infer_image", "prune", "quantize", "export"])
def test_a_model_file_with_no_classes_is_one_error_line(command, tmp_path, capsys, monkeypatch):
    from bcnn.model_io import _encode_graph
    from bcnn.models import DenseLayer

    model = build_toy_bcnn(seed=8)
    head = model.layers[-1]
    model.layers[-1] = DenseLayer(head.weight[:0], head.bias[:0])
    model.num_classes = 0
    (tmp_path / "none.bcn").write_bytes(_encode_graph(model))
    np.save(tmp_path / "img.npy", np.zeros(model.input_shape))
    monkeypatch.chdir(tmp_path)
    assert run([command[0], "--in", "none.bcn", *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid model graph: 0 classes, expected at least 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.npy", "none.bcn"]
