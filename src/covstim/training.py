"""SFT, DPO, and coverage-weighted DPO objectives with analytic gradients.

The preference losses are -log sigmoid(beta* (r_w - r_l)) where r is the
implicit reward log(pi_theta / pi_ref) of a sequence.  Plain DPO uses
beta* = beta; the coverage-weighted variant scales it by an increasing
normalization f of the coverage-score gap s_p - s_np, so pairs with a
clearer coverage difference drive larger updates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .policy import ReferencePolicy, SparseGrad, TabularPolicy, check_positive

MODES = ("SFT", "DPO", "CDDPO")
F_VARIANTS = ("identity_clamp", "dataset_minmax")


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class PreferencePair:
    dut_id: str
    prompt: str
    chosen: tuple
    rejected: tuple
    s_p: float
    s_np: float

    def __post_init__(self):
        if not self.s_p > self.s_np:
            raise ValueError(f"pair requires s_p > s_np, got {self.s_p} <= {self.s_np}")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "CDDPO"
    beta: float = 0.2
    f_variant: str = "identity_clamp"
    learning_rate: float = 0.5
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    ref_source: str = "initial_policy"  # or 'post_sft_policy'

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.f_variant not in F_VARIANTS:
            raise ValueError(f"unknown f_variant {self.f_variant!r}")
        check_positive("beta", self.beta)
        check_positive("learning_rate", self.learning_rate)
        if self.ref_source not in ("initial_policy", "post_sft_policy"):
            raise ValueError(f"unknown ref_source {self.ref_source!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    to_dict = asdict


@dataclass(frozen=True)
class LossBreakdown:
    r_w: float
    r_l: float
    beta_star: float
    margin: float
    loss: float


@dataclass
class TrainHistory:
    config: dict
    epoch_loss: list = field(default_factory=list)
    epoch_update_norm: list = field(default_factory=list)

    to_dict = asdict


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softplus(x: float) -> float:
    """log(1 + e^x), overflow-safe; -log sigmoid(m) = softplus(-m)."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def implicit_reward(theta: TabularPolicy, ref: ReferencePolicy, dut_id, seq) -> float:
    """r(y|x) = log pi_theta(y|x) - log pi_ref(y|x)."""
    return theta.log_prob(dut_id, seq)[0] - ref.log_prob(dut_id, seq)[0]


def _preference_breakdown(theta, ref, pair: PreferencePair, beta_star: float) -> LossBreakdown:
    r_w = implicit_reward(theta, ref, pair.dut_id, pair.chosen)
    r_l = implicit_reward(theta, ref, pair.dut_id, pair.rejected)
    margin = beta_star * (r_w - r_l)
    return LossBreakdown(r_w=r_w, r_l=r_l, beta_star=beta_star,
                         margin=margin, loss=_softplus(-margin))


def dpo_loss(theta, ref, pair: PreferencePair, beta: float) -> LossBreakdown:
    if beta <= 0:
        raise ValueError("beta must be > 0")
    return _preference_breakdown(theta, ref, pair, beta)


def gap_range(dataset) -> tuple[float, float]:
    """Min/max coverage-score gap over a dataset, for dataset_minmax f."""
    gaps = [p.s_p - p.s_np for p in dataset]
    return min(gaps), max(gaps)


def normalize_gap(gap: float, f_variant: str, bounds=None) -> float:
    """The increasing normalization f mapping score gaps into [0, 1]."""
    if f_variant == "identity_clamp":
        return min(max(gap, 0.0), 1.0)
    if f_variant == "dataset_minmax":
        if bounds is None:
            raise ValueError("dataset_minmax requires precomputed gap bounds")
        lo, hi = bounds
        if hi == lo:
            return 1.0
        return (gap - lo) / (hi - lo)
    raise ValueError(f"unknown f_variant {f_variant!r}")


def cddpo_loss(theta, ref, pair: PreferencePair, beta: float,
               f_variant: str = "identity_clamp", bounds=None) -> LossBreakdown:
    if beta <= 0:
        raise ValueError("beta must be > 0")
    beta_star = beta * normalize_gap(pair.s_p - pair.s_np, f_variant, bounds)
    return _preference_breakdown(theta, ref, pair, beta_star)


def pair_gradient(theta, pair: PreferencePair, bd: LossBreakdown) -> SparseGrad:
    """Gradient of the preference loss w.r.t. theta's logits.

    ``bd`` is the pair's breakdown under theta, from dpo_loss or cddpo_loss;
    its rewards and beta* are reused, not recomputed.  Equals
    -beta* sigma(beta*(r_l - r_w)) (grad log pi(chosen) - grad log
    pi(rejected)); a descent step subtracts it.
    """
    beta_star = bd.beta_star
    if beta_star < 0:
        raise ValueError("beta_star must be >= 0")
    grad = SparseGrad()
    if beta_star == 0.0:
        return grad
    scale = -beta_star * _sigmoid(beta_star * (bd.r_l - bd.r_w))
    grad.add_scaled(theta.grad_log_prob(pair.dut_id, pair.chosen), scale)
    grad.add_scaled(theta.grad_log_prob(pair.dut_id, pair.rejected), -scale)
    return grad


def sft_loss(theta: TabularPolicy, batch) -> float:
    """Mean negative log-likelihood of the chosen sequences."""
    if not batch:
        raise ValueError("empty batch")
    return -sum(theta.log_prob(p.dut_id, p.chosen)[0] for p in batch) / len(batch)


def sft_gradient(theta: TabularPolicy, batch) -> SparseGrad:
    if not batch:
        raise ValueError("empty batch")
    grad = SparseGrad()
    for p in batch:
        grad.add_scaled(theta.grad_log_prob(p.dut_id, p.chosen), -1.0 / len(batch))
    return grad


@dataclass
class TrainResult:
    policy: TabularPolicy
    history: TrainHistory


def _update_norm(before: TabularPolicy, after: TabularPolicy) -> float:
    # Summed in key order: set order follows the string hash seed, and a
    # different order changes the float sum in its last digits.
    total = 0.0
    for dut_id, ctx in sorted(set(before.table) | set(after.table)):
        diff = after.logits(dut_id, ctx) - before.logits(dut_id, ctx)
        total += float(np.dot(diff, diff))
    return math.sqrt(total)


def train(dataset, config: TrainConfig, init: TabularPolicy) -> TrainResult:
    """Deterministic mini-batch gradient descent in the configured mode."""
    if not dataset:
        raise TrainingError("empty dataset")
    dataset = list(dataset)

    theta = init.copy()
    if config.mode in ("DPO", "CDDPO") and config.ref_source == "post_sft_policy":
        theta = train(dataset, replace(config, mode="SFT"), init).policy
    ref = ReferencePolicy(theta)

    bounds = gap_range(dataset) if config.f_variant == "dataset_minmax" else None
    rng = np.random.default_rng(config.seed)
    history = TrainHistory(config=config.to_dict())

    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_start = theta.copy()
        losses = []
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in order[start:start + config.batch_size]]
            if config.mode == "SFT":
                loss = sft_loss(theta, batch)
                grad = sft_gradient(theta, batch)
                losses.extend([loss] * len(batch))
            else:
                grad = SparseGrad()
                for pair in batch:
                    if config.mode == "DPO":
                        bd = dpo_loss(theta, ref, pair, config.beta)
                    else:
                        bd = cddpo_loss(theta, ref, pair, config.beta,
                                        config.f_variant, bounds)
                    losses.append(bd.loss)
                    grad.add_scaled(pair_gradient(theta, pair, bd), 1.0 / len(batch))
            theta.apply_update(grad, -config.learning_rate)
        mean_loss = sum(losses) / len(losses)
        if not math.isfinite(mean_loss):
            raise TrainingError(f"non-finite loss {mean_loss} at epoch {len(history.epoch_loss)}")
        history.epoch_loss.append(mean_loss)
        history.epoch_update_norm.append(_update_norm(epoch_start, theta))

    return TrainResult(policy=theta, history=history)
