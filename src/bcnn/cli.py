"""Command-line entry points.

Commands: train, prune, quantize, infer, bench, export.  All randomness is
seeded (--seed where exposed, fixed seeds otherwise), unknown flags are
rejected, and errors exit with code 1 (usage problems exit 2 via argparse).
The prune and quantize commands run on the built-in synthetic dataset so
they stay desk-scale.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import accel, model_io, models, slr, training
from .errors import BcnnError, DataExhausted


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcnn", description="Binarized complex neural network engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from scratch")
    p.add_argument("--model", choices=("nin", "resnet18", "toy"), default="toy")
    p.add_argument("--data", default="synthetic",
                   help="dataset directory with binary batches, or 'synthetic'")
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("prune", help="SLR channel pruning of a saved model")
    p.add_argument("--in", dest="model_in", required=True)
    p.add_argument("--budget-ratio", type=float, default=0.5,
                   help="fraction of output channels to retain per layer")
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--bigM", type=float, default=300.0)
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--out", required=True)

    p = sub.add_parser("quantize", help="STE-based quantization training")
    p.add_argument("--in", dest="model_in", required=True)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--clip", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("infer", help="run inference with a saved model")
    p.add_argument("--in", dest="model_in", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--image", help=".npy image or raw 3072-byte pixels")
    group.add_argument("--data", help="dataset directory or 'synthetic'; reports test accuracy")

    p = sub.add_parser("bench", help="throughput arithmetic for replicated kernels")
    p.add_argument("--kernels", type=int, required=True)
    p.add_argument("--latency-ms", type=float, required=True)
    p.add_argument("--baseline-fps", type=float, default=None)

    p = sub.add_parser("export", help="print a saved model as text")
    p.add_argument("--in", dest="model_in", required=True)
    p.add_argument("--format", choices=("text",), default="text")
    return parser


def _make_dataset(data: str, model: models.ModelGraph, seed: int, train_split: bool):
    if data == "synthetic":
        return training.make_synthetic_dataset(
            num_classes=model.num_classes,
            samples_per_class=16,
            shape=model.input_shape,
            seed=seed,
            held_out=not train_split,
        )
    split = training.load_cifar10(data)
    return split.train if train_split else split.test


def _train_and_save(model, dataset, cfg: training.TrainConfig, out: str, what: str) -> int:
    _, history = training.train(model, dataset, cfg)
    for rec in history:
        print(f"epoch {rec['epoch']}: loss {rec['loss']:.4f} "
              f"accuracy {rec['accuracy']:.3f}")
    model_io.save_model(model, out)
    print(f"saved {what} to {out}")
    return 0


def _cmd_train(args) -> int:
    builders = {
        "nin": models.build_nin_bcnn,
        "resnet18": models.build_resnet18_bcnn,
        "toy": lambda num_classes, seed: models.build_toy_bcnn(
            input_shape=(3, 32, 32), num_classes=num_classes,
            channels=(8, 8), seed=seed,
        ),
    }
    cfg = training.TrainConfig(
        lr=args.lr, epochs=args.epochs, batch_size=args.batch, seed=args.seed
    )
    model = builders[args.model](num_classes=10, seed=args.seed)
    dataset = _make_dataset(args.data, model, args.seed, train_split=True)
    return _train_and_save(model, dataset, cfg, args.out, model.name)


def _cmd_prune(args) -> int:
    model = model_io.load_model(args.model_in)
    dataset = _make_dataset("synthetic", model, 0, train_split=True)
    cfg = slr.SlrConfig(
        budgets=slr.budgets_from_ratio(model, args.budget_ratio),
        rho=args.rho,
        big_m=args.bigM,
        r=args.r,
        max_iters=args.iters,
    )
    _, history = slr.slr_prune(model, dataset, cfg)
    if history:
        print(slr.history_to_jsonl(history))
    model_io.save_model(model, args.out)
    print(f"saved pruned model to {args.out}")
    return 0


def _cmd_quantize(args) -> int:
    model = model_io.load_model(args.model_in)
    dataset = _make_dataset("synthetic", model, 0, train_split=True)
    cfg = training.TrainConfig(epochs=args.epochs, clip=args.clip, seed=0)
    return _train_and_save(model, dataset, cfg, args.out, "quantized model")


def _load_image(path: str, shape) -> np.ndarray:
    if path.endswith(".npy"):
        try:
            img = np.load(path, allow_pickle=False)
        except (EOFError, ValueError) as exc:
            raise BcnnError(f"{path}: not a readable .npy array ({exc})") from None
        if not isinstance(img, np.ndarray):
            img.close()
            raise BcnnError(f"{path}: an .npz archive, not one array")
        if img.dtype.kind not in "biuf":
            raise BcnnError(f"{path}: {img.dtype} pixels, expected real numbers")
    else:
        raw = np.fromfile(path, dtype=np.uint8)
        expected = int(np.prod(shape))
        if raw.size == expected + 1:
            raw = raw[1:]  # tolerate a leading label byte
        if raw.size != expected:
            raise BcnnError(f"{path}: {raw.size} pixel bytes, expected {expected}")
        img = raw.reshape(shape).astype(float) / 255.0
    if img.shape != tuple(shape):
        raise BcnnError(f"image shape {img.shape} does not match model {shape}")
    img = np.asarray(img, dtype=float)
    if not np.isfinite(img).all():
        raise BcnnError(f"{path}: the image has non-finite pixels")
    return img


def _cmd_infer(args) -> int:
    model = model_io.load_model(args.model_in)
    if args.image:
        img = _load_image(args.image, model.input_shape)
        logits = models.forward(model, img[None])[0]
        print(f"class {int(np.argmax(logits))}")
        print("logits " + " ".join(f"{v:.4f}" for v in logits))
        return 0
    dataset = _make_dataset(args.data, model, 0, train_split=False)
    if len(dataset) == 0:
        raise DataExhausted(f"{args.data}: the test split has no images")
    _, accuracy = training.evaluate(model, dataset)
    print(f"accuracy {accuracy:.4f} over {len(dataset)} images")
    return 0


def _cmd_bench(args) -> int:
    cfg = accel.KernelConfig(
        kernel_count=args.kernels, kernel_latency_s=args.latency_ms / 1000.0
    )
    fps = accel.throughput(cfg)
    # checked before anything is printed, so a bad baseline prints only the error
    speedup = None if args.baseline_fps is None else accel.speedup_report(fps, args.baseline_fps)
    print(fps)
    if speedup is not None:
        print(f"speedup {speedup:.2f}x")
    return 0


def _cmd_export(args) -> int:
    model = model_io.load_model(args.model_in)
    print(f"model {model.name}: input {model.input_shape}, "
          f"{model.num_classes} classes")
    print(f"{'#':>3} {'layer':<24} {'details'}")
    for idx, layer in enumerate(model.layers):
        print(f"{idx:>3} {type(layer).__name__:<24} {models.kind_of(layer).describe(layer)}")
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "prune": _cmd_prune,
    "quantize": _cmd_quantize,
    "infer": _cmd_infer,
    "bench": _cmd_bench,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:  # a missing file, a directory, no permission: path and reason
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except BcnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
