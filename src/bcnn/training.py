"""Desk-scale training: datasets, loss, SGD and the training loops.

The forward graph is differentiated layer-locally (no autodiff tape): each
node kind's one forward and its backward are entries of
``bcnn.models.NODE_KINDS``, and their gradient math sits in ``bcnn.layers``
beside the forward it differentiates.  ``train_step`` runs the node loop in
``Mode.TRAIN_STEP`` (batch statistics, running statistics updated, caches
kept for the backward), ``batch_loss`` in ``Mode.BATCH_LOSS`` (the same
without the running update, and without caches: nothing runs backward), and
``evaluate`` runs packed inference.  Each entry first checks the graph, the
batch and the labels with ``bcnn.models.check_batch``.
Binarized convolutions use quadrant binarization in the forward pass and
the straight-through estimator (``ste_backward``) in the backward pass --
the gradient with respect to a latent weight plane passes through unchanged
where the plane's magnitude is below the clip threshold and is zeroed
elsewhere, with the real and imaginary planes gated independently.  Latent
weights are never binarized in storage.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CorruptRecord,
    DataExhausted,
    DivergedLoss,
    InvalidConfig,
    MissingFile,
    NonFiniteInput,
    NonFiniteParameter,
    ShapeMismatch,
    check_integer,
)
from .layers import ste_backward  # noqa: F401  (public as bcnn.training.ste_backward)
from .models import (
    Mode,
    ModelGraph,
    backprop_nodes,
    build_toy_bcnn,
    check_batch,
    check_parameters,
    forward as model_forward,
    real_pixels,
    run_nodes,
)

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3*32*32 image bytes
EVAL_BATCH = 64  # images per packed forward in ``evaluate``


# ---------------------------------------------------------------------------
# configuration and datasets
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 32
    clip: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # every check fails on NaN; lr == 0 is allowed so a vacuous run
        # leaves the model untouched
        for name in ("epochs", "batch_size", "seed"):
            check_integer(name, getattr(self, name))
        if not 0 <= self.lr < math.inf:
            raise InvalidConfig(f"lr must be finite and >= 0, got {self.lr}")
        if not self.clip > 0:
            raise InvalidConfig(f"clip must be > 0, got {self.clip}")
        if not self.epochs >= 0:
            raise InvalidConfig(f"epochs must be >= 0, got {self.epochs}")
        if not self.batch_size >= 1:
            raise InvalidConfig(f"batch size must be >= 1, got {self.batch_size}")
        if not self.seed >= 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass
class Dataset:
    images: np.ndarray  # (N, c, h, w)
    labels: np.ndarray  # (N,)
    num_classes: int

    def __post_init__(self):
        self.images = real_pixels(self.images)
        labels = np.asarray(self.labels)
        if not np.issubdtype(labels.dtype, np.integer):  # the rule of ``check_batch``
            raise ShapeMismatch(f"{labels.dtype} labels: expected one integer label per image")
        self.labels = labels.astype(np.int64)
        if self.images.ndim != 4 or len(self.labels) != len(self.images):
            raise ShapeMismatch("images must be (N, c, h, w) with one label each")
        if len(self.labels) and not 0 <= self.labels.min() <= self.labels.max() < self.num_classes:
            raise ShapeMismatch("label out of range")
        if not np.isfinite(self.images).all():
            raise NonFiniteInput("images have non-finite pixels")

    def __len__(self) -> int:
        return len(self.labels)


class Cifar10Split(NamedTuple):
    train: Dataset
    test: Dataset


def read_cifar10_batch(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse one binary batch file of 3073-byte records.

    Byte 0 of each record is the label; the remaining 3072 bytes are the
    3x32x32 image, scaled to [0, 1].
    """
    if not os.path.exists(path):
        raise MissingFile(f"{path}: no such file")
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % CIFAR_RECORD_BYTES != 0:
        raise CorruptRecord(
            f"{path}: {raw.size} bytes is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    records = raw.reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(float) / 255.0
    return images, labels


def load_cifar10(directory: str) -> Cifar10Split:
    """Load the standard binary-format batches from ``directory``."""
    train_parts = [
        read_cifar10_batch(os.path.join(directory, f"data_batch_{i}.bin"))
        for i in range(1, 6)
    ]
    test_images, test_labels = read_cifar10_batch(
        os.path.join(directory, "test_batch.bin")
    )
    return Cifar10Split(
        train=Dataset(
            np.concatenate([p[0] for p in train_parts]),
            np.concatenate([p[1] for p in train_parts]),
            10,
        ),
        test=Dataset(test_images, test_labels, 10),
    )


def make_synthetic_dataset(
    num_classes: int = 10,
    samples_per_class: int = 20,
    shape: tuple[int, int, int] = (3, 32, 32),
    seed: int = 0,
    noise: float = 0.25,
    held_out: bool = False,
) -> Dataset:
    """Gaussian-blob classification set: one fixed sign pattern per class.

    ``seed`` draws the patterns and the noise.  ``held_out`` keeps the
    seed's patterns and draws the noise from a second stream of the seed,
    so the set is a test split of the same classes with no training image.
    ``num_classes`` < 1 or ``samples_per_class`` < 0 raises ``InvalidConfig``.
    """
    for name, value, least in (("num_classes", num_classes, 1),
                               ("samples_per_class", samples_per_class, 0)):
        check_integer(name, value)
        if value < least:
            raise InvalidConfig(f"{name} must be >= {least}, got {value}")
    rng = np.random.default_rng(seed)
    patterns = np.sign(rng.standard_normal((num_classes,) + shape)) * 0.5
    if held_out:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    images, labels = [], []
    for cls in range(num_classes):
        images.append(patterns[cls] + noise * rng.standard_normal(
            (samples_per_class,) + shape))
        labels.append(np.full(samples_per_class, cls))
    return Dataset(np.concatenate(images), np.concatenate(labels), num_classes)


def make_separable_dataset(
    samples_per_class: int = 50,
    shape: tuple[int, int, int] = (3, 8, 8),
    seed: int = 0,
    margin: float = 0.8,
    noise: float = 0.25,
) -> Dataset:
    """Linearly separable 2-class set: opposite-sign means along one pattern."""
    rng = np.random.default_rng(seed)
    pattern = np.sign(rng.standard_normal(shape))
    xs = np.concatenate([
        margin * pattern + noise * rng.standard_normal((samples_per_class,) + shape),
        -margin * pattern + noise * rng.standard_normal((samples_per_class,) + shape),
    ])
    ys = np.concatenate([
        np.zeros(samples_per_class, dtype=np.int64),
        np.ones(samples_per_class, dtype=np.int64),
    ])
    return Dataset(xs, ys, 2)


# ---------------------------------------------------------------------------
# SGD, loss
# ---------------------------------------------------------------------------

def sgd_step(weight: np.ndarray, grad, lr: float) -> np.ndarray:
    """In-place w <- w - lr*g.  A read-only weight raises: a training step
    checks every weight first (``models.check_writeable``)."""
    weight -= (lr * np.asarray(grad)).astype(weight.dtype)
    return weight


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient with respect to the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def batch_loss(model: ModelGraph, xb, yb) -> float:
    """Training-mode loss on one batch without touching running statistics;
    the graph, the batch and its labels are checked first (``check_batch``)."""
    logits, _ = run_nodes(model.layers, check_batch(model, xb, yb), Mode.BATCH_LOSS)
    loss, _ = softmax_cross_entropy(logits, yb)
    return loss


def train_step(model: ModelGraph, xb, yb, lr: float, clip: float,
               extra_grads=None) -> tuple[float, int]:
    """One SGD step; returns (batch loss, correct predictions).

    ``extra_grads`` is a list of (parameter, gradient) pairs added on top of
    the loss gradients, e.g. multiplier and penalty terms during pruning.
    The graph, the batch and its labels are checked first (``check_batch``),
    and then that every array is writeable (``models.check_writeable``,
    run by ``run_nodes``), so a rejected graph, batch or array changes no
    parameter.  The model's next packed forward sees the step's writes and
    plans anew (``models._model_plan``).
    """
    x = check_batch(model, xb, yb)
    logits, caches = run_nodes(model.layers, x, Mode.TRAIN_STEP)
    loss, dlogits = softmax_cross_entropy(logits, yb)
    grads = []
    backprop_nodes(model.layers, caches, dlogits, clip, grads)
    if extra_grads:
        grads.extend(extra_grads)
    for arr, grad in grads:
        sgd_step(arr, grad, lr)
    correct = int((logits.argmax(axis=1) == yb).sum())
    return loss, correct


def train(model: ModelGraph, dataset: Dataset, cfg: TrainConfig):
    """STE + SGD training on latent full-precision weights.

    Batch order is drawn once from ``cfg.seed`` and kept fixed across
    epochs, so runs are reproducible and a zero-step run leaves the loss
    curve constant.  A non-finite loss or parameter raises ``DivergedLoss``.
    Returns (model, per-epoch history).
    """
    n = len(dataset)
    if n == 0:
        raise DataExhausted("dataset has no samples")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n)
    history = []
    for epoch in range(cfg.epochs):
        total_loss = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, ncorr = train_step(
                model, dataset.images[idx], dataset.labels[idx], cfg.lr, cfg.clip
            )
            if not np.isfinite(loss):
                raise DivergedLoss(f"loss became {loss} at epoch {epoch}")
            try:  # a NaN weight masks its channel, so the loss alone may stay finite
                check_parameters(model.layers)
            except NonFiniteParameter as exc:
                raise DivergedLoss(f"{exc} at epoch {epoch}") from None
            total_loss += loss * len(idx)
            correct += ncorr
        history.append(
            {"epoch": epoch, "loss": total_loss / n, "accuracy": correct / n}
        )
    return model, history


def evaluate(model: ModelGraph, dataset: Dataset) -> tuple[float, float]:
    """Eval-mode loss and accuracy over a dataset, through the packed kernel.
    A label the model has no class for raises ``ShapeMismatch``."""
    n = len(dataset)
    if n == 0:
        raise DataExhausted("dataset has no samples")
    if dataset.labels.max() >= model.num_classes:
        raise ShapeMismatch(f"labels reach {dataset.labels.max()}, outside the model's "
                            f"{model.num_classes} classes")
    total_loss = 0.0
    correct = 0
    for start in range(0, n, EVAL_BATCH):
        xb = dataset.images[start : start + EVAL_BATCH]
        yb = dataset.labels[start : start + EVAL_BATCH]
        logits = model_forward(model, xb)
        loss, _ = softmax_cross_entropy(logits, yb)
        total_loss += loss * len(yb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return total_loss / n, correct / n


def pooling_comparison(seed: int = 0, epochs: int = 15) -> dict[str, float]:
    """Small-scale pooling comparison on the synthetic task.

    Trains the same toy BCNN with average and max pooling under identical
    seeds and returns the eval-mode train-set accuracies.  The expected
    ordering on this task is average >= max.
    """
    data = make_separable_dataset(samples_per_class=40, seed=seed,
                                  margin=0.6, noise=0.35)
    results = {}
    for pool in ("avg", "max"):
        model = build_toy_bcnn(pool=pool, seed=seed)
        cfg = TrainConfig(lr=0.05, epochs=epochs, batch_size=16, seed=seed)
        train(model, data, cfg)
        _, acc = evaluate(model, data)
        results[pool] = acc
    return results
