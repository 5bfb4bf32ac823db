"""Surrogate Lagrangian relaxation channel pruning.

The constrained problem "minimize the loss subject to at most gamma_i
nonzero channels per layer" is split with duplicate variables Z_i and
multipliers Lambda_i into an augmented Lagrangian

    L_rho = f(W) + sum_i h_i(Z_i) + sum_i <Lambda_i, W_i - Z_i>
          + sum_i (rho/2) ||W_i - Z_i||_F^2

where h_i is the indicator of the channel-budget set.  Each iteration
alternates two gated subproblems:

* Step 1 minimizes L_rho over W by SGD while Z and Lambda are held.  If
  the surrogate decrease condition holds (L_rho strictly dropped on the
  same mini-batch), the stepsize shrinks by the norm-ratio formula and the
  multipliers move by s * (W - Z).
* Step 2 solves the Z subproblem analytically: rank channels by Frobenius
  norm and keep the largest ``budget`` of them verbatim.  A second
  surrogate condition gates another stepsize/multiplier update.

The stepsize scale alpha(k) = 1 - 1/(M * k^(1 - 1/k^r)) grows toward 1,
so the geometric decay of s slows as iterations accumulate.

For complex weights a "channel" is one complex output channel: the real
and imaginary kernels of that channel are ranked and pruned together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetTooLarge, DivergedLoss, InvalidConfig
from .layers import _thaw
from .models import ModelGraph, iter_binary_convs
from .training import Dataset, batch_loss, train_step


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------

@dataclass
class SlrConfig:
    budgets: tuple[int, ...]
    rho: float = 0.1
    big_m: float = 300.0
    r: float = 0.1
    s0: float = 0.01
    max_iters: int = 50
    inner_lr: float = 0.05
    batch_size: int = 32

    def __post_init__(self):
        # every check fails on NaN
        if not self.rho > 0:
            raise InvalidConfig(f"rho must be > 0, got {self.rho}")
        if not self.big_m > 1:
            raise InvalidConfig(f"M must be > 1, got {self.big_m}")
        if not 0 < self.r < 1:
            raise InvalidConfig(f"r must be in (0, 1), got {self.r}")
        if not self.s0 > 0:
            raise InvalidConfig(f"initial stepsize must be > 0, got {self.s0}")
        if any(b < 1 for b in self.budgets):
            raise InvalidConfig("budgets must be >= 1")
        if not self.max_iters >= 0:
            raise InvalidConfig(f"max iterations must be >= 0, got {self.max_iters}")
        if not self.batch_size >= 1:
            raise InvalidConfig(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 <= self.inner_lr < math.inf:
            raise InvalidConfig(f"inner lr must be finite and >= 0, got {self.inner_lr}")


@dataclass
class SlrState:
    """Per-layer weights W, duplicates Z, multipliers Lambda, stepsize, k."""

    weights: list
    duplicates: list
    multipliers: list
    stepsize: float
    k: int = 1
    channel_axis: int = 0


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def alpha(k: int, big_m: float = 300.0, r: float = 0.1) -> float:
    """Stepsize scale 1 - 1/(M * k^(1 - 1/k^r)); in (0, 1) for all k >= 1."""
    if k < 1:
        raise InvalidConfig("iteration counter must be >= 1")
    return 1.0 - 1.0 / (big_m * k ** (1.0 - 1.0 / k**r))


def channel_norms(w: np.ndarray, channel_axis: int = 0) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    axes = tuple(i for i in range(w.ndim) if i != channel_axis)
    return np.sqrt((w * w).sum(axis=axes))


def count_nonzero_channels(w: np.ndarray, channel_axis: int = 0) -> int:
    return int((channel_norms(w, channel_axis) > 0).sum())


def project_channels(w: np.ndarray, budget: int, channel_axis: int = 0) -> np.ndarray:
    """Keep the ``budget`` largest-norm channels verbatim, zero the rest.

    This is the global minimizer of ||W - Z||_F over tensors with at most
    ``budget`` nonzero channels.  Ties keep the lower channel index.
    """
    w = np.asarray(w, dtype=float)
    n_channels = w.shape[channel_axis]
    if budget > n_channels:
        raise BudgetTooLarge(f"budget {budget} > {n_channels} channels")
    if budget < 1:
        raise InvalidConfig("budget must be >= 1")
    order = np.argsort(-channel_norms(w, channel_axis), kind="stable")
    z = np.zeros_like(w)
    zm = np.moveaxis(z, channel_axis, 0)
    wm = np.moveaxis(w, channel_axis, 0)
    keep = order[:budget]
    zm[keep] = wm[keep]
    return z


def _coupling_terms(weights, duplicates, multipliers, rho) -> float:
    total = 0.0
    for w, z, lam in zip(weights, duplicates, multipliers):
        diff = w - z
        total += float((lam * diff).sum()) + 0.5 * rho * float((diff * diff).sum())
    return total


def _violation_norm(weights, duplicates) -> float:
    return float(
        np.sqrt(sum(((w - z) ** 2).sum() for w, z in zip(weights, duplicates)))
    )


def augmented_lagrangian(state: SlrState, loss_value: float, cfg: SlrConfig) -> float:
    """L_rho at the state's (W, Z, Lambda) given the loss value f.

    Returns +inf when any Z violates its channel budget (the indicator
    term); otherwise f plus the multiplier and quadratic penalty terms.
    """
    for z, budget in zip(state.duplicates, cfg.budgets):
        if count_nonzero_channels(z, state.channel_axis) > budget:
            return float("inf")
    return float(loss_value) + _coupling_terms(
        state.weights, state.duplicates, state.multipliers, cfg.rho
    )


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def init_slr_state(problem, cfg: SlrConfig) -> SlrState:
    weights = problem.get_weights()
    if len(cfg.budgets) != len(weights):
        raise InvalidConfig(
            f"{len(cfg.budgets)} budgets for {len(weights)} prunable layers"
        )
    axis = problem.channel_axis
    duplicates = [
        project_channels(w, b, axis) for w, b in zip(weights, cfg.budgets)
    ]
    multipliers = [np.zeros_like(w) for w in weights]
    return SlrState(weights, duplicates, multipliers, cfg.s0, k=1, channel_axis=axis)


def _surrogate_update(decreased, a, s, norm_prev, norm, multipliers, weights, duplicates):
    """(fired, s, multipliers) after the gated s <- a*s*norm_prev/norm, Lambda += s*(W - Z)."""
    if not (decreased and norm_prev > 0 and norm > 0):
        return False, s, multipliers
    s = a * s * norm_prev / norm
    return True, s, [lam + s * (w - z) for lam, w, z in zip(multipliers, weights, duplicates)]


def slr_step(state: SlrState, problem, cfg: SlrConfig) -> dict:
    """One SLR iteration; mutates the state and returns a history record.
    It copies no state array: a problem's ``get_weights`` returns fresh
    arrays, and its methods never mutate the arrays they are given."""
    axis = state.channel_axis
    batch = problem.condition_batch()
    w_prev, z_prev = state.weights, state.duplicates
    f_prev = problem.loss(batch)

    # Step 1: SGD on the W subproblem, Z and multipliers held.
    problem.run_inner_epoch(state.multipliers, z_prev, cfg.rho)
    w_new = problem.get_weights()
    f_new = problem.loss(batch)
    if not np.isfinite(f_new):
        raise DivergedLoss(f"loss became {f_new} at SLR iteration {state.k}")

    a = alpha(state.k, cfg.big_m, cfg.r)
    norm_prev = _violation_norm(w_prev, z_prev)
    norm_w_zprev = _violation_norm(w_new, z_prev)
    l_new = f_new + _coupling_terms(w_new, z_prev, state.multipliers, cfg.rho)
    l_old = f_prev + _coupling_terms(w_prev, z_prev, state.multipliers, cfg.rho)
    fired1, s_prime, multipliers = _surrogate_update(
        l_new < l_old, a, state.stepsize, norm_prev, norm_w_zprev,
        state.multipliers, w_new, z_prev)

    # Step 2: analytic projection onto the channel-budget set.
    z_new = [
        project_channels(w, b, axis) for w, b in zip(w_new, cfg.budgets)
    ]
    norm_w_znew = _violation_norm(w_new, z_new)
    l_zn = f_new + _coupling_terms(w_new, z_new, multipliers, cfg.rho)
    l_zp = f_new + _coupling_terms(w_new, z_prev, multipliers, cfg.rho)
    fired2, s_new, multipliers = _surrogate_update(
        l_zn < l_zp, a, s_prime, norm_prev, norm_w_znew, multipliers, w_new, z_new)

    state.weights = w_new
    state.duplicates = z_new
    state.multipliers = multipliers
    state.stepsize = s_new
    record = {
        "k": state.k,
        "loss": f_new,
        "violation": norm_w_znew,
        "stepsize": s_new,
        "feasible": norm_w_znew == 0.0,
        "fired1": fired1,
        "fired2": fired2,
        "s_prime": s_prime,
        "alpha": a,
        "norm_prev": norm_prev,
        "norm_w_zprev": norm_w_zprev,
        "norm_w_znew": norm_w_znew,
    }
    state.k += 1
    return record


def slr_run(problem, cfg: SlrConfig):
    """Run ``max_iters`` SLR iterations, then hard-prune W <- Z."""
    state = init_slr_state(problem, cfg)
    history = [slr_step(state, problem, cfg) for _ in range(cfg.max_iters)]
    problem.write_weights(state.duplicates)
    state.weights = problem.get_weights()
    return state, history


def history_to_jsonl(history) -> str:
    """Line-delimited records (iteration, loss, violation, stepsize, feasible)."""
    lines = [
        json.dumps(
            {
                "k": rec["k"],
                "loss": rec["loss"],
                "violation": rec["violation"],
                "stepsize": rec["stepsize"],
                "feasible": rec["feasible"],
            }
        )
        for rec in history
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

@dataclass
class QuadraticChannelProblem:
    """Toy subproblem f(W) = ||W - W*||^2 over a single channel-major tensor."""

    target: np.ndarray
    weights: np.ndarray
    lr: float = 0.1
    inner_steps: int = 5
    channel_axis: int = 0

    def get_weights(self):
        return [self.weights.copy()]

    def write_weights(self, ws):
        self.weights[...] = ws[0]

    def loss(self, batch=None) -> float:
        return float(((self.weights - self.target) ** 2).sum())

    def condition_batch(self):
        return None

    def run_inner_epoch(self, multipliers, targets, rho):
        for _ in range(self.inner_steps):
            grad = (
                2.0 * (self.weights - self.target)
                + multipliers[0]
                + rho * (self.weights - targets[0])
            )
            self.weights -= self.lr * grad


class ModelPruningProblem:
    """Prunes the binarized convolutions of a model graph.

    Each prunable tensor is the (2, out_c, in_c, kh, kw) stack of a layer's
    real and imaginary latent planes, so one complex output channel prunes
    as a unit (channel_axis=1).  The inner subproblem runs one SGD epoch
    over the dataset with the multiplier and penalty gradients added to the
    latent weights.
    """

    channel_axis = 1

    def __init__(self, model: ModelGraph, dataset: Dataset,
                 inner_lr: float = 0.05, batch_size: int = 32,
                 clip: float = 1.0, seed: int = 0):
        self.model = model
        self.dataset = dataset
        self.inner_lr = inner_lr
        self.batch_size = batch_size
        self.clip = clip
        self.layers = list(iter_binary_convs(model))
        order = np.random.default_rng(seed).permutation(len(dataset))
        self._batches = [
            order[i : i + batch_size] for i in range(0, len(dataset), batch_size)
        ]

    def get_weights(self):
        return [np.stack([l.w_re, l.w_im], dtype=float) for l in self.layers]

    def write_weights(self, ws):
        for layer, w in zip(self.layers, ws):
            _thaw(layer.w_re, layer.w_im)  # a packed forward may have left them read-only
            layer.w_re[...] = w[0]
            layer.w_im[...] = w[1]

    def loss(self, batch) -> float:
        xb = self.dataset.images[batch]
        yb = self.dataset.labels[batch]
        return batch_loss(self.model, xb, yb)

    def condition_batch(self):
        return self._batches[0]

    def run_inner_epoch(self, multipliers, targets, rho):
        for idx in self._batches:
            extra = []
            for layer, lam, z in zip(self.layers, multipliers, targets):
                live = np.stack([layer.w_re, layer.w_im], dtype=float)
                e = lam + rho * (live - z)
                extra.append((layer.w_re, e[0]))
                extra.append((layer.w_im, e[1]))
            train_step(
                self.model,
                self.dataset.images[idx],
                self.dataset.labels[idx],
                self.inner_lr,
                self.clip,
                extra_grads=extra,
            )


def budgets_from_ratio(model: ModelGraph, ratio: float) -> tuple[int, ...]:
    """Retained-channel budgets: max(1, round(out_c * ratio)) per layer."""
    if not 0 < ratio <= 1:
        raise InvalidConfig("budget ratio must be in (0, 1]")
    return tuple(
        max(1, int(round(l.geometry.out_channels * ratio)))
        for l in iter_binary_convs(model)
    )


def slr_prune(model: ModelGraph, dataset: Dataset, cfg: SlrConfig,
              clip: float = 1.0, seed: int = 0):
    """SLR channel pruning of a model's binarized convolutions.

    Runs ``cfg.max_iters`` iterations and hard-prunes W <- Z, so the
    returned model satisfies every channel budget exactly.  Returns
    (model, history).
    """
    problem = ModelPruningProblem(
        model, dataset, cfg.inner_lr, cfg.batch_size, clip, seed
    )
    _, history = slr_run(problem, cfg)
    return model, history
