"""Acceptance gate: every primary criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE PASS`` line when its criterion holds
(run with ``pytest -s tests/test_acceptance.py`` to see them); a failing
criterion fails its test before the line prints.
"""

import time
from itertools import combinations

import numpy as np

from bcnn.accel import (
    GPU_BASELINE_FPS,
    KernelConfig,
    NIN_U280_RESOURCES,
    RESNET18_U280_RESOURCES,
    speedup_report,
    throughput,
)
from bcnn.binary_ops import ConvGeometry, binary_complex_conv2d
from bcnn.layers import CgbnLayer, cgbn_forward, spectral_pool
from bcnn.model_io import model_from_bytes, model_to_bytes
from bcnn.models import build_nin_bcnn, build_toy_bcnn, forward, iter_binary_convs
from bcnn.slr import (
    QuadraticChannelProblem,
    SlrConfig,
    budgets_from_ratio,
    count_nonzero_channels,
    init_slr_state,
    project_channels,
    slr_prune,
    slr_run,
    slr_step,
)
from bcnn.tensors import ComplexTensor, pack
from bcnn.training import (
    TrainConfig,
    evaluate,
    make_separable_dataset,
    pooling_comparison,
    ste_backward,
    train,
)
from helpers import random_pm1_tensor, reference_complex_conv2d, unrolled_binary_conv


def _report(name):
    print(f"ACCEPTANCE PASS: {name}")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_exactness_100_cases():
    """binary_complex_conv2d equals the dense oracle on >=100 seeded cases,
    kernels 1x1/3x3, strides 1/2, pads 0/1, channels up to 128, in <10 s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    cases = 0
    for kernel in (1, 3):
        for stride in (1, 2):
            for padding in (0, 1):
                for rep in range(13):
                    ic = 128 if rep == 0 else int(rng.integers(1, 129))
                    oc = int(rng.integers(1, 17))
                    h = int(rng.integers(kernel + stride, 9))
                    n = int(rng.integers(1, 3))
                    x = random_pm1_tensor(rng, (n, ic, h, h))
                    w = random_pm1_tensor(rng, (oc, ic, kernel, kernel))
                    g = ConvGeometry(ic, oc, (kernel, kernel),
                                     (stride, stride), (padding, padding))
                    y = binary_complex_conv2d(pack(x), pack(w), g)
                    ref = reference_complex_conv2d(x, w, (stride, stride),
                                                   (padding, padding))
                    np.testing.assert_array_equal(y.re, ref.re)
                    np.testing.assert_array_equal(y.im, ref.im)
                    cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 100
    assert elapsed < 10.0, f"{cases} cases took {elapsed:.1f} s"
    _report(f"kernel exactness ({cases} cases, {elapsed:.1f} s)")


def test_parallelism_neutrality():
    """Identical outputs across every (p_out, p_in) unroll of the FPGA
    kernel, each trip of the unroll run as its own conv, on >=20 cases."""
    rng = np.random.default_rng(77)
    cases = 0
    while cases < 20:
        ic = int(rng.integers(1, 140))
        oc = int(rng.choice([1, 2, 4, 6, 8]))
        k = int(rng.choice([1, 3]))
        h = int(rng.integers(k + 1, 7))
        x = random_pm1_tensor(rng, (1, ic, h, h))
        w = random_pm1_tensor(rng, (oc, ic, k, k))
        g = ConvGeometry(ic, oc, (k, k), (1, 1), (k // 2, k // 2))
        xb = pack(x)
        base = binary_complex_conv2d(xb, pack(w), g)
        for p_out in range(1, oc + 1):
            for p_in in range(1, xb.words_per_pixel + 1):
                y = unrolled_binary_conv(x, w, (1, 1), (k // 2, k // 2), p_out, p_in)
                np.testing.assert_array_equal(y.re, base.re)
                np.testing.assert_array_equal(y.im, base.im)
        cases += 1
    _report(f"parallelism neutrality ({cases} cases)")


# ---------------------------------------------------------------------------
# performance model
# ---------------------------------------------------------------------------

def test_throughput_arithmetic():
    """(9 kernels, 1.53 ms) -> 5882 fps; (8, 1.62 ms) -> 4938 fps;
    speedups 1.51x and 1.58x to two decimals."""
    nin = throughput(KernelConfig(kernel_count=9, kernel_latency_s=1.53e-3))
    resnet = throughput(KernelConfig(kernel_count=8, kernel_latency_s=1.62e-3))
    assert nin == 5882
    assert resnet == 4938
    assert speedup_report(nin, GPU_BASELINE_FPS["nin"]) == 1.51
    assert speedup_report(resnet, GPU_BASELINE_FPS["resnet18"]) == 1.58
    _report("throughput arithmetic (5882 / 4938 fps, 1.51x / 1.58x)")


def test_resource_report_percentages():
    """Report formatter reproduces the reference utilization percentages
    within 0.01 (e.g. LUT 137387/1303680 -> 10.54%)."""
    expected = {
        ("nin", "DSP"): 6.37, ("nin", "FF"): 3.41, ("nin", "LUT"): 10.54,
        ("resnet18", "DSP"): 5.15, ("resnet18", "FF"): 4.31,
        ("resnet18", "LUT"): 12.37,
    }
    for model, records in (("nin", NIN_U280_RESOURCES),
                           ("resnet18", RESNET18_U280_RESOURCES)):
        for rec in records:
            assert abs(rec.percentage - expected[(model, rec.name)]) < 0.01
    lut = NIN_U280_RESOURCES[2]
    assert (lut.used, lut.total, lut.percentage) == (137387, 1303680, 10.54)
    _report("resource report percentages (within 0.01)")


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def test_cgbn_statistics():
    """Training-mode per-channel mean of each normalized plane is 0 within
    1e-5 and plane variance is 0.5 within 5% (eps=1e-5, batch*h*w >= 4096)."""
    rng = np.random.default_rng(11)
    layer = CgbnLayer.identity(4, eps=1e-5)
    shape = (16, 4, 16, 16)  # batch*h*w = 4096
    x = ComplexTensor(rng.standard_normal(shape) * 2.5 - 1.0,
                      rng.standard_normal(shape) * 0.7 + 3.0)
    y = cgbn_forward(x, layer, training=True)
    for plane in (y.re, y.im):
        assert np.abs(plane.mean(axis=(0, 2, 3))).max() < 1e-5
        np.testing.assert_allclose(plane.var(axis=(0, 2, 3)), 0.5, rtol=0.05)
    _report("CGBN statistics (mean 0 within 1e-5, variance 0.5 within 5%)")


def _direct_dft_spectral_pool(z, h2, w2):
    """O(n^2) matrix-DFT oracle with the same centering convention."""
    h, w = z.shape
    fh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    fw = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    spec = fh @ z @ fw.T
    spec = np.roll(np.roll(spec, h // 2, axis=0), w // 2, axis=1)
    y0 = h // 2 - h2 // 2
    x0 = w // 2 - w2 // 2
    crop = spec[y0 : y0 + h2, x0 : x0 + w2]
    crop = np.roll(np.roll(crop, -(h2 // 2), axis=0), -(w2 // 2), axis=1)
    ifh = np.exp(2j * np.pi * np.outer(np.arange(h2), np.arange(h2)) / h2) / h2
    ifw = np.exp(2j * np.pi * np.outer(np.arange(w2), np.arange(w2)) / w2) / w2
    return (ifh @ crop @ ifw.T) * (h2 * w2 / (h * w))


def test_spectral_pooling():
    """Identity when no truncation (<=1e-10); constant preservation exact;
    sub-cutoff complex exponentials preserved within 1e-8 vs a direct-DFT
    oracle."""
    rng = np.random.default_rng(12)
    x = ComplexTensor(rng.standard_normal((2, 3, 16, 16)),
                      rng.standard_normal((2, 3, 16, 16)))
    y = spectral_pool(x, (16, 16))
    assert np.abs(y.re - x.re).max() <= 1e-10
    assert np.abs(y.im - x.im).max() <= 1e-10

    c = ComplexTensor(np.full((1, 1, 12, 12), -2.75), np.full((1, 1, 12, 12), 0.5))
    yc = spectral_pool(c, (5, 5))
    np.testing.assert_allclose(yc.re, -2.75, atol=1e-12)
    np.testing.assert_allclose(yc.im, 0.5, atol=1e-12)

    h = w = 16
    h2 = w2 = 8
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    for fy, fx in [(0, 0), (1, 2), (-3, 3), (2, -4), (-4, -4), (3, 1)]:
        z = np.exp(2j * np.pi * (fy * yy / h + fx * xx / w))
        got = spectral_pool(ComplexTensor(z.real[None, None], z.imag[None, None]),
                            (h2, w2))
        oracle = _direct_dft_spectral_pool(z, h2, w2)
        assert np.abs(got.re[0, 0] - oracle.real).max() < 1e-8
        assert np.abs(got.im[0, 0] - oracle.imag).max() < 1e-8
        # a retained single-bin spectrum is the same exponential, resampled
        y2, x2 = np.meshgrid(np.arange(h2), np.arange(w2), indexing="ij")
        analytic = np.exp(2j * np.pi * (fy * y2 / h2 + fx * x2 / w2))
        assert np.abs(got.re[0, 0] - analytic.real).max() < 1e-8
        assert np.abs(got.im[0, 0] - analytic.imag).max() < 1e-8
    _report("spectral pooling (identity 1e-10, constants exact, sub-cutoff 1e-8)")


# ---------------------------------------------------------------------------
# SLR
# ---------------------------------------------------------------------------

def test_slr_criteria():
    """project_channels matches the exhaustive-subset oracle on layers up to
    10 channels; pruned models satisfy budgets exactly; on the quadratic toy
    the violation trend decreases; multiplier updates equal s*(W-Z) exactly
    whenever a surrogate condition fires."""
    rng = np.random.default_rng(13)
    for channels in range(2, 11):
        for budget in (1, channels // 2 or 1, channels):
            w = rng.standard_normal((channels, 5))
            z = project_channels(w, budget)
            assert count_nonzero_channels(z) <= budget
            best = min(
                ((w - np.where(np.isin(np.arange(channels), kept)[:, None], w, 0.0)) ** 2).sum()
                for kept in combinations(range(channels), budget)
            )
            np.testing.assert_allclose(((w - z) ** 2).sum(), best, rtol=1e-12)

    data = make_separable_dataset(samples_per_class=40, seed=0)
    model = build_toy_bcnn(seed=0)
    train(model, data, TrainConfig(lr=0.05, epochs=8, batch_size=16, seed=0))
    cfg = SlrConfig(budgets=budgets_from_ratio(model, 0.5), max_iters=12)
    model, _ = slr_prune(model, data, cfg)
    for layer, budget in zip(iter_binary_convs(model), cfg.budgets):
        stacked = np.stack([layer.w_re, layer.w_im])
        assert count_nonzero_channels(stacked, channel_axis=1) <= budget

    target = rng.standard_normal((4, 6))
    prob = QuadraticChannelProblem(target=target, weights=target.copy())
    qcfg = SlrConfig(budgets=(2,), max_iters=60)
    _, history = slr_run(prob, qcfg)
    v = [rec["violation"] for rec in history]
    assert np.mean(v[-10:]) < np.mean(v[:10])

    prob2 = QuadraticChannelProblem(target=rng.standard_normal((4, 6)),
                                    weights=rng.standard_normal((4, 6)))
    cfg2 = SlrConfig(budgets=(2,), max_iters=30)
    state = init_slr_state(prob2, cfg2)
    fired = 0
    for _ in range(cfg2.max_iters):
        lam_before = state.multipliers[0].copy()
        z_prev = state.duplicates[0].copy()
        rec = slr_step(state, prob2, cfg2)
        expected = lam_before
        if rec["fired1"]:
            expected = expected + rec["s_prime"] * (state.weights[0] - z_prev)
            fired += 1
        if rec["fired2"]:
            expected = expected + rec["stepsize"] * (
                state.weights[0] - state.duplicates[0])
            fired += 1
        np.testing.assert_array_equal(state.multipliers[0], expected)
    assert fired > 0
    _report("SLR (projection oracle, exact budgets, violation trend, "
            "exact multiplier updates)")


# ---------------------------------------------------------------------------
# STE and training
# ---------------------------------------------------------------------------

def test_ste_criteria():
    """STE gradient matches finite differences of the clipped surrogate
    within 1e-4 in the interior; the toy model reaches >=95% train accuracy
    on linearly separable data within 50 epochs in under 5 minutes."""
    rng = np.random.default_rng(14)
    clip, margin, eps = 1.0, 0.1, 1e-6
    w_re = rng.uniform(-2, 2, (6, 8))
    w_im = rng.uniform(-2, 2, (6, 8))
    for w in (w_re, w_im):
        near = np.abs(np.abs(w) - clip) < margin
        w[near] = 0.4 * np.sign(w[near])
    g_re = rng.standard_normal((6, 8))
    g_im = rng.standard_normal((6, 8))
    got_re, got_im = ste_backward(g_re, g_im, w_re, w_im, clip)
    for w, g, got in ((w_re, g_re, got_re), (w_im, g_im, got_im)):
        fd = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            fd[idx] = ((g * np.clip(wp, -clip, clip)).sum()
                       - (g * np.clip(wm, -clip, clip)).sum()) / (2 * eps)
        np.testing.assert_allclose(got, fd, atol=1e-4)

    start = time.perf_counter()
    data = make_separable_dataset(samples_per_class=50, seed=0)
    model = build_toy_bcnn(seed=0)
    model, history = train(model, data,
                           TrainConfig(lr=0.05, epochs=50, batch_size=16, seed=0))
    elapsed = time.perf_counter() - start
    _, accuracy = evaluate(model, data)
    assert accuracy >= 0.95
    assert elapsed < 300.0
    _report(f"STE (finite differences 1e-4; {accuracy:.0%} train accuracy "
            f"in {elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialization_criteria():
    """Save/load round-trip yields byte-identical files and identical
    forward logits."""
    model = build_nin_bcnn(seed=21)
    blob = model_to_bytes(model)
    loaded = model_from_bytes(blob)
    assert model_to_bytes(loaded) == blob
    x = np.random.default_rng(21).random((2, 3, 32, 32))
    np.testing.assert_array_equal(forward(model, x), forward(loaded, x))
    _report("serialization (byte-identical files, identical logits)")


# ---------------------------------------------------------------------------
# desk-scale stand-in for the full-training pooling comparison
# ---------------------------------------------------------------------------

def test_pooling_comparison_harness():
    """Small-scale pooling harness: average pooling accuracy >= max pooling
    accuracy on the toy task (ordering only; full-training magnitudes are
    out of desk-scale reach)."""
    results = pooling_comparison(seed=0, epochs=10)
    assert results["avg"] >= results["max"]
    _report(f"pooling harness ordering (avg {results['avg']:.2f} >= "
            f"max {results['max']:.2f})")
