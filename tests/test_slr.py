import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcnn.errors import BudgetTooLarge, InvalidConfig
from bcnn.models import build_toy_bcnn, iter_binary_convs
from bcnn.slr import (
    ModelPruningProblem,
    QuadraticChannelProblem,
    SlrConfig,
    SlrState,
    alpha,
    augmented_lagrangian,
    budgets_from_ratio,
    channel_norms,
    count_nonzero_channels,
    history_to_jsonl,
    init_slr_state,
    project_channels,
    slr_prune,
    slr_run,
    slr_step,
)
from bcnn.training import TrainConfig, make_separable_dataset, evaluate, train


# ---------------------------------------------------------------------------
# stepsize schedule
# ---------------------------------------------------------------------------

def test_alpha_at_k_equals_one():
    # k^(1 - 1/k^r) has exponent 0 at k=1, so alpha(1) = 1 - 1/M
    np.testing.assert_allclose(alpha(1, big_m=300.0), 1.0 - 1.0 / 300.0)


def test_alpha_bounds():
    ks = np.unique(np.logspace(0, 4, 200).astype(int))
    vals = np.array([alpha(int(k), 300.0, 0.1) for k in ks])
    assert np.all(vals > 0.0) and np.all(vals < 1.0)


def test_alpha_monotone_in_k():
    vals = [alpha(k, 300.0, 0.1) for k in range(1, 10_001)]
    diffs = np.diff(vals)
    assert np.all(diffs > 0)


def test_alpha_rejects_bad_k():
    with pytest.raises(InvalidConfig):
        alpha(0)


# ---------------------------------------------------------------------------
# channel projection
# ---------------------------------------------------------------------------

def test_project_channels_zeroes_smallest_norm():
    w = np.zeros((3, 2))
    w[0] = [3.0, 0.0]
    w[1] = [1.0, 0.0]
    w[2] = [2.0, 0.0]
    z = project_channels(w, budget=2)
    np.testing.assert_array_equal(z[1], 0.0)
    np.testing.assert_array_equal(z[0], w[0])
    np.testing.assert_array_equal(z[2], w[2])


def test_project_channels_keep_all_is_identity():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((5, 3, 3))
    np.testing.assert_array_equal(project_channels(w, 5), w)


def test_project_channels_ties_keep_lower_index():
    w = np.ones((4, 2))
    z = project_channels(w, budget=2)
    np.testing.assert_array_equal(z[0], w[0])
    np.testing.assert_array_equal(z[1], w[1])
    np.testing.assert_array_equal(z[2:], 0.0)


def test_project_channels_budget_too_large():
    with pytest.raises(BudgetTooLarge):
        project_channels(np.ones((3, 2)), budget=4)


def _exhaustive_min_distance(w, budget):
    channels = w.shape[0]
    best = np.inf
    for kept in combinations(range(channels), budget):
        z = np.zeros_like(w)
        z[list(kept)] = w[list(kept)]
        best = min(best, ((w - z) ** 2).sum())
    return best


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    channels=st.integers(2, 10),
    budget=st.integers(1, 10),
)
def test_project_channels_is_global_minimizer(seed, channels, budget):
    budget = min(budget, channels)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((channels, 4))
    z = project_channels(w, budget)
    assert count_nonzero_channels(z) <= budget
    got = ((w - z) ** 2).sum()
    np.testing.assert_allclose(got, _exhaustive_min_distance(w, budget), rtol=1e-12)
    # idempotence
    np.testing.assert_array_equal(project_channels(z, budget), z)


def test_project_channels_complex_axis():
    # stacked (2, out_c, ...) complex weights prune one output channel as a unit
    rng = np.random.default_rng(1)
    w = rng.standard_normal((2, 5, 3, 2, 2))
    z = project_channels(w, 2, channel_axis=1)
    norms = channel_norms(z, channel_axis=1)
    assert (norms > 0).sum() == 2
    kept = np.argsort(-channel_norms(w, channel_axis=1), kind="stable")[:2]
    for c in kept:
        np.testing.assert_array_equal(z[:, c], w[:, c])


# ---------------------------------------------------------------------------
# augmented Lagrangian
# ---------------------------------------------------------------------------

def test_augmented_lagrangian_reduces_to_loss_when_consistent():
    w = np.ones((4, 2))
    state = SlrState([w.copy()], [w.copy()], [np.zeros_like(w)], stepsize=0.01)
    cfg = SlrConfig(budgets=(4,))
    np.testing.assert_allclose(augmented_lagrangian(state, 1.25, cfg), 1.25)


def test_augmented_lagrangian_infeasible_is_infinite():
    w = np.ones((4, 2))
    state = SlrState([w.copy()], [w.copy()], [np.zeros_like(w)], stepsize=0.01)
    cfg = SlrConfig(budgets=(2,))  # Z has 4 nonzero channels, budget 2
    assert augmented_lagrangian(state, 1.0, cfg) == float("inf")


def test_augmented_lagrangian_matches_term_by_term():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((5, 3))
    lam = rng.standard_normal((5, 3))
    z = project_channels(w, 3)
    cfg = SlrConfig(budgets=(3,), rho=0.7)
    state = SlrState([w], [z], [lam], stepsize=0.01)
    loss = 2.5
    expected = loss
    expected += float(np.trace(lam.T @ (w - z)))
    expected += 0.5 * 0.7 * float(((w - z) ** 2).sum())
    np.testing.assert_allclose(augmented_lagrangian(state, loss, cfg), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# iteration behaviour
# ---------------------------------------------------------------------------

def test_slr_step_noop_when_already_feasible():
    # W == Z and zero loss gradient: nothing moves, multipliers stay zero
    target = np.zeros((4, 3))
    target[:2] = np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 1.0]])
    prob = QuadraticChannelProblem(target=target, weights=target.copy())
    cfg = SlrConfig(budgets=(2,), max_iters=3)
    state = init_slr_state(prob, cfg)
    rec = slr_step(state, prob, cfg)
    assert not rec["fired1"] and not rec["fired2"]
    np.testing.assert_array_equal(state.multipliers[0], 0.0)
    assert state.stepsize == cfg.s0
    np.testing.assert_array_equal(state.weights[0], target)


def test_quadratic_toy_violation_decreases():
    rng = np.random.default_rng(3)
    target = rng.standard_normal((4, 6))
    prob = QuadraticChannelProblem(target=target, weights=target.copy())
    cfg = SlrConfig(budgets=(2,), rho=0.1, max_iters=60)
    state, history = slr_run(prob, cfg)
    v = [rec["violation"] for rec in history]
    assert v[49] < v[0]
    assert np.mean(v[-10:]) < np.mean(v[:10])
    assert count_nonzero_channels(prob.weights) <= 2


def test_stepsize_stays_positive():
    rng = np.random.default_rng(4)
    target = rng.standard_normal((6, 4))
    prob = QuadraticChannelProblem(target=target, weights=rng.standard_normal((6, 4)))
    cfg = SlrConfig(budgets=(3,), max_iters=40)
    _, history = slr_run(prob, cfg)
    assert all(rec["stepsize"] > 0 for rec in history)


def test_multiplier_update_is_exactly_s_times_violation():
    rng = np.random.default_rng(5)
    target = rng.standard_normal((4, 6))
    prob = QuadraticChannelProblem(target=target, weights=rng.standard_normal((4, 6)))
    cfg = SlrConfig(budgets=(2,), max_iters=30)
    state = init_slr_state(prob, cfg)
    fired_either = 0
    for _ in range(cfg.max_iters):
        lam_before = state.multipliers[0].copy()
        z_prev = state.duplicates[0].copy()
        rec = slr_step(state, prob, cfg)
        expected = lam_before.copy()
        if rec["fired1"]:
            expected = expected + rec["s_prime"] * (state.weights[0] - z_prev)
        if rec["fired2"]:
            expected = expected + rec["stepsize"] * (state.weights[0] - state.duplicates[0])
        np.testing.assert_array_equal(state.multipliers[0], expected)
        fired_either += rec["fired1"] or rec["fired2"]
    assert fired_either > 0


def test_stepsize_formula_recomputable_from_logged_norms():
    rng = np.random.default_rng(6)
    target = rng.standard_normal((5, 4))
    prob = QuadraticChannelProblem(target=target, weights=rng.standard_normal((5, 4)))
    cfg = SlrConfig(budgets=(2,), max_iters=25)
    state = init_slr_state(prob, cfg)
    s_before = state.stepsize
    checked = 0
    for _ in range(cfg.max_iters):
        rec = slr_step(state, prob, cfg)
        if rec["fired1"]:
            expected = rec["alpha"] * s_before * rec["norm_prev"] / rec["norm_w_zprev"]
            np.testing.assert_allclose(rec["s_prime"], expected, rtol=1e-12)
            checked += 1
        if rec["fired2"]:
            expected = rec["alpha"] * rec["s_prime"] * rec["norm_prev"] / rec["norm_w_znew"]
            np.testing.assert_allclose(rec["stepsize"], expected, rtol=1e-12)
        s_before = rec["stepsize"]
    assert checked > 0


def test_history_jsonl_fields():
    rng = np.random.default_rng(7)
    prob = QuadraticChannelProblem(target=rng.standard_normal((4, 3)),
                                   weights=rng.standard_normal((4, 3)))
    cfg = SlrConfig(budgets=(2,), max_iters=3)
    _, history = slr_run(prob, cfg)
    lines = history_to_jsonl(history).splitlines()
    assert len(lines) == 3
    import json

    rec = json.loads(lines[0])
    assert set(rec) == {"k", "loss", "violation", "stepsize", "feasible"}


# ---------------------------------------------------------------------------
# model pruning
# ---------------------------------------------------------------------------

def test_slr_prune_toy_model_satisfies_budgets():
    data = make_separable_dataset(samples_per_class=40, seed=0)
    model = build_toy_bcnn(seed=0)
    train(model, data, TrainConfig(lr=0.05, epochs=8, batch_size=16, seed=0))
    cfg = SlrConfig(budgets=budgets_from_ratio(model, 0.5), max_iters=15)
    assert cfg.budgets == (2,)
    model, history = slr_prune(model, data, cfg)
    for layer in iter_binary_convs(model):
        stacked = np.stack([layer.w_re, layer.w_im])
        assert count_nonzero_channels(stacked, channel_axis=1) <= 2
    assert any(rec["fired1"] for rec in history)
    _, accuracy = evaluate(model, data)
    assert accuracy >= 0.9


def test_slr_prune_full_budget_changes_nothing_beyond_sgd():
    data = make_separable_dataset(samples_per_class=20, seed=1)
    model = build_toy_bcnn(seed=1)
    conv = next(iter(iter_binary_convs(model)))
    cfg = SlrConfig(budgets=budgets_from_ratio(model, 1.0), max_iters=2)
    model, history = slr_prune(model, data, cfg)
    # hard prune with a full budget zeroes nothing
    assert count_nonzero_channels(np.stack([conv.w_re, conv.w_im]), 1) == 4
    assert all(rec["feasible"] for rec in history)


def test_slr_prune_aggressive_compression_beats_chance():
    # keep 1 of 24 channels in the intermediate layer (24x fewer weights
    # there) and require above-chance accuracy without any retraining
    data = make_separable_dataset(samples_per_class=40, seed=2)
    model = build_toy_bcnn(channels=(8, 24), seed=2)
    train(model, data, TrainConfig(lr=0.05, epochs=8, batch_size=16, seed=2))
    layers = list(iter_binary_convs(model))
    params_before = sum(2 * l.w_re.size for l in layers)
    cfg = SlrConfig(budgets=(1,), rho=1.0, s0=0.05, max_iters=30)
    model, _ = slr_prune(model, data, cfg)
    kept = sum(
        2 * l.w_re.size * count_nonzero_channels(np.stack([l.w_re, l.w_im]), 1)
        // l.geometry.out_channels
        for l in layers
    )
    assert params_before / kept >= 20
    _, accuracy = evaluate(model, data)
    assert accuracy > 0.55


@pytest.mark.parametrize("field, value", [
    ("rho", 0.0), ("rho", math.nan), ("big_m", 1.0), ("big_m", math.nan),
    ("r", 0.0), ("r", 1.0), ("r", math.nan), ("s0", 0.0), ("s0", math.nan),
    ("max_iters", -3), ("batch_size", 0), ("batch_size", -1),
    ("inner_lr", -0.05), ("inner_lr", math.nan), ("inner_lr", math.inf),
])
def test_slr_config_rejects_bad_hyperparameters(field, value):
    with pytest.raises(InvalidConfig):
        SlrConfig(budgets=(2,), **{field: value})


def test_slr_config_accepts_the_edges():
    SlrConfig(budgets=(1,), max_iters=0, batch_size=1, inner_lr=0.0)


def test_budgets_from_ratio_validation():
    model = build_toy_bcnn(seed=0)
    with pytest.raises(InvalidConfig):
        budgets_from_ratio(model, 0.0)
    assert budgets_from_ratio(model, 1.0) == (4,)


def test_model_problem_roundtrips_weights():
    data = make_separable_dataset(samples_per_class=8, seed=3)
    model = build_toy_bcnn(seed=3)
    prob = ModelPruningProblem(model, data)
    ws = prob.get_weights()
    assert len(ws) == 1 and ws[0].shape[0] == 2
    ws[0][...] = 7.0
    prob.write_weights(ws)
    conv = next(iter(iter_binary_convs(model)))
    np.testing.assert_array_equal(conv.w_re, 7.0)
