"""The benchmark's workloads: one client, one process, generated inputs only.

Each workload builds its model and inputs from the seed, sets up several
times (the median is ``setup_s``), runs a closed loop for the requested
number of seconds, and then -- outside the timed region -- runs its
correctness gates.  A host-speed probe (``hostspeed.py``) runs before every
set-up and every timed operation, outside its time, and once after the last.
Every gate result and every operation that raised is counted, so
``failed / attempted`` is the workload's failure ratio.

* ``nin-b1``: single-image NIN requests against a model that went through
  BCN1 bytes, as ``bcnn infer --in`` loads it.  At batch 1 the fixed cost
  of each call (re-binarizing and re-packing every weight, dispatch, the
  first full-precision conv) is a large share of the time.
* ``resnet18-b32-pruned50``: ResNet-18 in batches of 32 with every binary
  conv hard-pruned to half its output channels.  The batch spreads the
  weight-packing cost, so the packed conv dominates; half of the computed
  output rows are masked away, so prune-aware kernels show here.
* ``toy-train-slr``: the CLI's desk-scale pipeline (train, SLR prune, BCN1
  round trip, evaluate) on the toy BCNN.  Training and SLR never call the
  packed kernel, so this is the bypass workload for kernel work.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from hostspeed import HostSpeed
from spans import Tracer, patched

IMAGE_SHAPE = (3, 32, 32)
NUM_CLASSES = 10
PRUNE_RATIO = 0.5
TOY_CHANNELS = (8, 8)
TOY_BATCH = 32
TOY_LR = 0.01  # the `bcnn train` default
TOY_CLIP = 1.0


@dataclass(frozen=True)
class Sizes:
    setup_repeats: int = 5
    min_requests: int = 120  # nin-b1 requests after warm-up, at least
    gate_every: int = 20  # every n-th nin-b1 request is checked against the dense path
    batch: int = 32  # resnet18 batch
    epochs: int = 2  # toy training epochs per pipeline round
    slr_iters: int = 2  # toy SLR iterations per pipeline round
    samples_per_class: int = 16  # toy synthetic set: 160 samples, as `bcnn train`


FULL = Sizes()
SMOKE = Sizes(setup_repeats=1, min_requests=3, gate_every=2, batch=2, epochs=1,
              slr_iters=1, samples_per_class=4)


@dataclass
class Measured:
    speed: HostSpeed = field(default_factory=HostSpeed)
    setup_s: list = field(default_factory=list)
    setup_probes: list = field(default_factory=list)  # probe index before each set-up
    latencies_s: list = field(default_factory=list)
    latency_probes: list = field(default_factory=list)  # probe index before each latency
    loop_probe: int = 0  # first probe of the timed loop
    images: int = 0
    operations: int = 0
    checks: list = field(default_factory=list)  # (gate name, passed)
    errors: list = field(default_factory=list)
    model: object = None  # the model as last run, for per-layer geometry
    extra: dict = field(default_factory=dict)

    def check(self, name: str, passed) -> None:
        self.checks.append((name, bool(passed)))

    @property
    def attempted(self) -> int:
        return self.operations + len(self.checks)

    @property
    def failed(self) -> int:
        return len(self.errors) + sum(not ok for _, ok in self.checks)


def _timed_setups(m: Measured, tracer: Tracer, repeats: int, setup):
    for _ in range(repeats):
        m.setup_probes.append(m.speed.probe())
        with tracer.operation("setup"):
            start = time.perf_counter()
            result = setup()
            m.setup_s.append(time.perf_counter() - start)
    m.speed.probe()
    return result


def _closed_loop(m: Measured, tracer: Tracer, seconds: float, min_ops: int,
                 make_input, op, probe: bool = True) -> None:
    """Send each operation after the previous one returned, recording latencies.

    With ``probe=False`` the operation records its own latencies and probes.
    """
    m.loop_probe = len(m.speed.samples_ms)
    t0 = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - t0 < seconds:
        x = make_input(i)
        if probe:
            before = m.speed.probe()
        with tracer.operation(i):
            start = time.perf_counter()
            try:
                op(i, x)
            except Exception as exc:  # counted as a failed operation; the loop goes on
                m.errors.append(f"operation {i}: {exc!r}")
            else:
                if probe:
                    m.latencies_s.append(time.perf_counter() - start)
                    m.latency_probes.append(before)
        i += 1
    m.speed.probe()
    m.operations = i


def _within_budgets(models, model, budgets) -> bool:
    return all(
        int(models.active_output_channels(layer).sum()) <= budget
        for layer, budget in zip(models.iter_binary_convs(model), budgets)
    )


def nin_b1(bc: dict, seed: int, seconds: float, sizes: Sizes, tracer: Tracer) -> Measured:
    models, model_io = bc["models"], bc["model_io"]
    m = Measured()
    rng = np.random.default_rng(seed)
    warm = rng.random((1,) + IMAGE_SHAPE)

    def setup():
        blob = model_io.model_to_bytes(models.build_nin_bcnn(NUM_CLASSES, seed=seed))
        model = model_io.model_from_bytes(blob)
        models.forward(model, warm)
        return model, blob

    model, blob = _timed_setups(m, tracer, sizes.setup_repeats, setup)
    sampled = []

    def request(i, x):
        logits = models.forward(model, x)
        if i % sizes.gate_every == 0:
            sampled.append((x, logits))

    _closed_loop(m, tracer, seconds, sizes.min_requests,
                 lambda i: rng.random((1,) + IMAGE_SHAPE), request)
    m.images = len(m.latencies_s)
    m.check("bcn1_roundtrip", model_io.model_to_bytes(model_io.model_from_bytes(blob)) == blob)
    for x, logits in sampled:
        m.check("packed_equals_dense", np.array_equal(logits, models.forward(model, x, packed=False)))
    m.model = model
    m.extra["file_bytes"] = len(blob)
    return m


def resnet18_b32_pruned50(bc: dict, seed: int, seconds: float, sizes: Sizes,
                          tracer: Tracer) -> Measured:
    models, slr = bc["models"], bc["slr"]
    m = Measured()
    rng = np.random.default_rng(seed)
    warm = rng.random((1,) + IMAGE_SHAPE)

    def setup():
        model = models.build_resnet18_bcnn(NUM_CLASSES, seed=seed)
        budgets = slr.budgets_from_ratio(model, PRUNE_RATIO)
        for layer, budget in zip(models.iter_binary_convs(model), budgets):
            z = slr.project_channels(np.stack([layer.w_re, layer.w_im]), budget, channel_axis=1)
            layer.w_re[...] = z[0]
            layer.w_im[...] = z[1]
        models.forward(model, warm)
        return model, budgets

    model, budgets = _timed_setups(m, tracer, sizes.setup_repeats, setup)
    sampled = []

    def request(i, xb):
        logits = models.forward(model, xb)
        j = i % len(xb)
        sampled.append((xb[j : j + 1], logits[j]))

    _closed_loop(m, tracer, seconds, 1,
                 lambda i: rng.random((sizes.batch,) + IMAGE_SHAPE), request)
    m.images = sizes.batch * len(m.latencies_s)
    m.check("pruned_within_budget", _within_budgets(models, model, budgets))
    for x, row in sampled:
        single = models.forward(model, x)
        m.check("packed_equals_dense", np.array_equal(single, models.forward(model, x, packed=False)))
        # The full-precision layers round differently at batch 32 than at
        # batch 1, so the batch row is held to float64 rounding, not equality.
        m.check("batch_row_matches_single", np.allclose(row, single[0], rtol=1e-9, atol=1e-9))
    m.model = model
    return m


def toy_train_slr(bc: dict, seed: int, seconds: float, sizes: Sizes, tracer: Tracer) -> Measured:
    models, training, slr, model_io = bc["models"], bc["training"], bc["slr"], bc["model_io"]
    m = Measured()

    def build():
        return models.build_toy_bcnn(IMAGE_SHAPE, NUM_CLASSES, TOY_CHANNELS, seed=seed)

    def setup():
        data = training.make_synthetic_dataset(
            NUM_CLASSES, sizes.samples_per_class, IMAGE_SHAPE, seed=seed)
        training.train_step(build(), data.images[:TOY_BATCH], data.labels[:TOY_BATCH],
                            TOY_LR, TOY_CLIP)
        return data

    data = _timed_setups(m, tracer, sizes.setup_repeats, setup)
    steps_per_epoch = math.ceil(len(data) / TOY_BATCH)
    totals = {"images": 0, "train_s": 0.0, "train_steps": 0, "slr_s": 0.0, "slr_iters": 0}
    rounds = []

    def timed_step(fn, probe):
        @functools.wraps(fn)
        def step(model, xb, *args, **kwargs):
            # SLR calls train_step inside slr_step, where a probe would add to
            # the slr.step span, so its steps take the latest training probe.
            before = m.speed.probe() if probe else len(m.speed.samples_ms) - 1
            start = time.perf_counter()
            out = fn(model, xb, *args, **kwargs)
            m.latencies_s.append(time.perf_counter() - start)
            m.latency_probes.append(before)
            totals["images"] += len(xb)
            return out
        return step

    def pipeline(i, _):
        model = build()
        start, probe_s = time.perf_counter(), m.speed.total_s
        _, history = training.train(model, data, training.TrainConfig(
            lr=TOY_LR, epochs=sizes.epochs, batch_size=TOY_BATCH, clip=TOY_CLIP, seed=seed))
        totals["train_s"] += time.perf_counter() - start - (m.speed.total_s - probe_s)
        totals["train_steps"] += sizes.epochs * steps_per_epoch
        budgets = slr.budgets_from_ratio(model, PRUNE_RATIO)
        start, probe_s = time.perf_counter(), m.speed.total_s
        _, slr_history = slr.slr_prune(model, data, slr.SlrConfig(
            budgets=budgets, max_iters=sizes.slr_iters, batch_size=TOY_BATCH), seed=seed)
        totals["slr_s"] += time.perf_counter() - start - (m.speed.total_s - probe_s)
        totals["slr_iters"] += sizes.slr_iters
        blob = model_io.model_to_bytes(model)
        loaded = model_io.model_from_bytes(blob)
        eval_loss, _ = training.evaluate(loaded, data)
        losses = [r["loss"] for r in history] + [r["loss"] for r in slr_history] + [eval_loss]
        rounds.append((model, budgets, blob, loaded, losses, slr_history))

    with patched(training, "train_step", functools.partial(timed_step, probe=True)), \
            patched(slr, "train_step", functools.partial(timed_step, probe=False)):
        _closed_loop(m, tracer, seconds, 1, lambda i: None, pipeline, probe=False)
    m.images = totals["images"]
    for model, budgets, blob, loaded, losses, _ in rounds:
        m.check("slr_within_budget", _within_budgets(models, model, budgets))
        m.check("bcn1_roundtrip", model_io.model_to_bytes(model_io.model_from_bytes(blob)) == blob)
        m.check("losses_finite", all(np.isfinite(loss) for loss in losses))
    m.model = rounds[-1][3] if rounds else None
    m.extra.update(
        file_bytes=len(rounds[-1][2]) if rounds else 0,
        train_steps_per_s=totals["train_steps"] / totals["train_s"] if totals["train_s"] else 0.0,
        slr_iter_s=totals["slr_s"] / totals["slr_iters"] if totals["slr_iters"] else 0.0,
        slr_records=[
            dict(json.loads(line), round=r, fired1=rec["fired1"], fired2=rec["fired2"])
            for r, (*_, hist) in enumerate(rounds)
            for line, rec in zip(slr.history_to_jsonl(hist).splitlines(), hist)
        ],
    )
    return m


WORKLOADS = {
    "nin-b1": nin_b1,
    "resnet18-b32-pruned50": resnet18_b32_pruned50,
    "toy-train-slr": toy_train_slr,
}
