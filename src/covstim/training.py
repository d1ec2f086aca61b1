"""SFT, DPO, and coverage-weighted DPO objectives with analytic gradients.

The preference losses are -log sigmoid(beta* (r_w - r_l)) where r is the
implicit reward log(pi_theta / pi_ref) of a sequence.  Plain DPO uses
beta* = beta; the coverage-weighted variant scales it by an increasing
normalization f of the coverage-score gap s_p - s_np, so pairs with a
clearer coverage difference drive larger updates.

``train`` compiles its dataset once (``_Compiled``), and each epoch once,
after its shuffle: a reshape of the shuffled sequence ids puts them in
mini-batch order, one gather each takes their reference log-probs and the
items' beta*, and one ``TabularPolicy.batches`` call builds the ``Steps``
of every mini-batch.  A mini-batch then reads views of those arrays, cut
at its start.  Its loss gives each sequence a weight, d loss / d log pi(seq),
and its update is built per touched row from those weights and the rows'
softmax (``TabularPolicy.apply_update``), with no per-step gradient.  The
one-pair functions below are batch-of-one calls of the same loss code.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .checks import check_int, check_positive, check_str, shown
from .policy import ReferencePolicy, TabularPolicy

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
    # Training starts from the uniform policy, so the preference modes need
    # this large a step budget to move its logits.
    learning_rate: float = 4.0
    epochs: int = 120
    batch_size: int = 16
    seed: int = 42
    ref_source: str = "initial_policy"  # or 'post_sft_policy'

    def __post_init__(self):
        check_str("train.mode", self.mode, MODES)
        object.__setattr__(self, "beta", check_positive("train.beta", self.beta))
        check_str("train.f_variant", self.f_variant, F_VARIANTS)
        object.__setattr__(self, "learning_rate",
                           check_positive("train.learning_rate", self.learning_rate))
        check_int("train.epochs", self.epochs, 1)
        check_int("train.batch_size", self.batch_size, 1)
        check_int("train.seed", self.seed, 0)
        check_str("train.ref_source", self.ref_source, ("initial_policy", "post_sft_policy"))

    to_dict = asdict


@dataclass(frozen=True)
class LossBreakdown:
    """The preference loss terms of pairs: floats for one pair, arrays for a batch."""

    r_w: float
    r_l: float
    beta_star: float
    margin: float
    loss: float


@dataclass
class TrainHistory:
    """Per-epoch training curves, each term taken before its batch's update: the loss and,
    for DPO and CD-DPO only, the share of pairs with r_w > r_l and mean beta* (r_w - r_l)."""

    config: dict
    epoch_loss: list = field(default_factory=list)
    epoch_update_norm: list = field(default_factory=list)
    epoch_pref_accuracy: list = field(default_factory=list)
    epoch_mean_margin: list = field(default_factory=list)

    to_dict = asdict


def implicit_reward(log_probs, ref_log_probs):
    """r(y|x) = log pi_theta(y|x) - log pi_ref(y|x), elementwise over a batch."""
    return log_probs - ref_log_probs


def preference_loss(r_w, r_l, beta_star) -> LossBreakdown:
    """-log sigmoid(beta* (r_w - r_l)) of each pair, elementwise over a batch.

    The loss is log(1 + e^-margin), taken as logaddexp(0, -margin) so that
    it cannot overflow.
    """
    margin = beta_star * (r_w - r_l)
    return LossBreakdown(r_w=r_w, r_l=r_l, beta_star=beta_star, margin=margin,
                         loss=np.logaddexp(0.0, -margin))


def _pair_breakdown(theta, ref, pair: PreferencePair, beta_star: float) -> LossBreakdown:
    r_w, r_l = (implicit_reward(theta.log_prob(pair.dut_id, seq)[0],
                                ref.log_prob(pair.dut_id, seq)[0])
                for seq in (pair.chosen, pair.rejected))
    return preference_loss(r_w, r_l, beta_star)


def dpo_loss(theta, ref, pair: PreferencePair, beta: float) -> LossBreakdown:
    check_positive("beta", beta)
    return _pair_breakdown(theta, ref, pair, beta)


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
    raise ValueError(f"unknown f_variant {shown(f_variant)}")


def cddpo_loss(theta, ref, pair: PreferencePair, beta: float,
               f_variant: str = "identity_clamp", bounds=None) -> LossBreakdown:
    check_positive("beta", beta)
    beta_star = beta * normalize_gap(pair.s_p - pair.s_np, f_variant, bounds)
    return _pair_breakdown(theta, ref, pair, beta_star)


def pair_gradient(bd: LossBreakdown):
    """d loss / d log pi(chosen) of each pair; d loss / d log pi(rejected) is its negative.

    The weight is -beta* sigma(-margin) = -beta* / (1 + e^margin), margin =
    beta* (r_w - r_l), recomputed from ``bd``'s rewards and beta*: a
    breakdown given another beta* (``dataclasses.replace``) weighs by that
    one.  With x = -margin it is taken as -beta* e^min(x, 0) / (1 + e^-|x|):
    no exp overflows, and the weight stays within a relative 1e-15 of the
    closed form.  The pair's gradient w.r.t. the logits is this weight times
    (grad log pi(chosen) - grad log pi(rejected)); a descent step subtracts
    it.  A negative or NaN beta* raises ValueError.
    """
    beta_star = bd.beta_star
    # One comparison of the smallest beta*: a NaN propagates to it and fails it too.
    if not np.minimum.reduce(beta_star, axis=None, initial=np.inf) >= 0:
        raise ValueError("beta_star must be >= 0")
    x = beta_star * (bd.r_l - bd.r_w)
    return np.exp(np.minimum(x, 0.0)) / (-1.0 - np.exp(-np.abs(x))) * beta_star


def _mean_nll(log_probs: list) -> float:
    return -sum(log_probs) / len(log_probs)


def sft_loss(theta: TabularPolicy, batch) -> float:
    """Mean negative log-likelihood of the chosen sequences."""
    if not batch:
        raise ValueError("empty batch")
    return _mean_nll([theta.log_prob(p.dut_id, p.chosen)[0] for p in batch])


@dataclass
class TrainResult:
    policy: TabularPolicy
    history: TrainHistory


class _Compiled:
    """A dataset as ids of its distinct (dut_id, seq) sequences, and their steps.

    ``seqs`` holds the chosen ids of the pairs and, for preference data, a
    second row of their rejected ids.  Each distinct sequence is checked
    and mapped to theta's rows once, by ``theta.plan``, and scored once
    under the frozen reference.  A row is added only for the contexts an
    update will touch: the chosen sequences in SFT, and both sequences of
    every pair with beta* != 0 otherwise.  Training adds no rows after
    this, so the steps compiled here stay valid.
    """

    def __init__(self, dataset, theta: TabularPolicy, ref, beta_star):
        ids: dict = {}
        halves = ("chosen",) if beta_star is None else ("chosen", "rejected")
        self.seqs = np.array([[ids.setdefault((p.dut_id, getattr(p, half)), len(ids))
                               for p in dataset] for half in halves], dtype=np.intp)
        live = self.seqs if beta_star is None else self.seqs[:, beta_star != 0]
        items = list(ids)
        theta.add_rows(items[i] for i in sorted(set(live.ravel().tolist())))
        self.theta = theta
        self.beta_star = beta_star
        self.rows, self.targets, self.lens = theta.plan(items)
        self.starts = np.cumsum(self.lens) - self.lens
        self.ref_log_probs = None if ref is None else np.array(
            [ref.log_prob(dut_id, seq)[0] for dut_id, seq in items])

    def epoch(self, order: np.ndarray, batch_size: int) -> list:
        """(steps, ref_log_probs, beta_star) of each mini-batch of the shuffled items ``order``.

        Batch b holds the items ``order[b * batch_size:(b + 1) * batch_size]``,
        and its sequences are their chosen ones, then, for preference data,
        their rejected ones; a repeated sequence is scored again.  One
        reshape puts the full batches' sequence ids in that order, and the
        short last batch's follow.  steps equals ``theta.steps`` of those
        sequences, and ref_log_probs and beta_star are views of one gather
        per epoch: the sequences' reference log-probs and the items' beta*,
        both None for SFT.  Each batch's count and views are cut at its
        start.  The steps of the whole epoch are one gather and one
        ``theta.batches`` call.
        """
        h, n = len(self.seqs), len(order)
        batch_size = min(batch_size, n)  # a larger one makes the same one batch of every item
        starts = range(0, n, batch_size)
        full = n - n % batch_size  # the items of the full batches; the rest make a short one
        ids = self.seqs[:, order]
        flat = np.concatenate([ids[:, :full].reshape(h, -1, batch_size).swapaxes(0, 1),
                               ids[:, full:]], axis=None)
        lens = self.lens[flat]
        ends = np.cumsum(lens)
        idx = np.arange(ends[-1]) + np.repeat(self.starts[flat] - ends + lens, lens)
        steps = self.theta.batches(self.rows[idx], self.targets[idx], lens,
                                   [h * min(batch_size, n - a) for a in starts])
        if self.ref_log_probs is None:
            return [(s, None, None) for s in steps]
        ref, beta_star = self.ref_log_probs[flat], self.beta_star[order]
        return [(s, ref[2 * a:2 * a + s.n], beta_star[a:a + s.n // 2])
                for s, a in zip(steps, starts)]


def train(dataset, config: TrainConfig, init: TabularPolicy) -> TrainResult:
    """Deterministic mini-batch gradient descent in the configured mode, from init.

    The preference modes take a frozen init as pi_ref; ``pipeline.train_modes`` picks init.
    Each mini-batch takes its log-probs and row softmax from ``grad_log_prob``,
    weighs each sequence by d loss / d log pi, and steps by ``apply_update``.
    """
    if not dataset:
        raise TrainingError("empty dataset")
    dataset = list(dataset)

    theta = init.copy()
    if config.mode == "SFT":
        ref = beta_star = None
    else:
        ref = ReferencePolicy(theta)
        if config.mode == "DPO":
            beta_star = np.full(len(dataset), config.beta)
        else:
            bounds = gap_range(dataset) if config.f_variant == "dataset_minmax" else None
            beta_star = np.array([config.beta * normalize_gap(p.s_p - p.s_np, config.f_variant,
                                                              bounds) for p in dataset])
    data = _Compiled(dataset, theta, ref, beta_star)

    rng = np.random.default_rng(config.seed)
    history = TrainHistory(config=config.to_dict())
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_start = theta.theta.copy()
        losses, terms = [], []  # terms: each preference batch's LossBreakdown
        for steps, ref_log_probs, batch_beta in data.epoch(order, config.batch_size):
            log_probs, probs = theta.grad_log_prob(steps)
            if ref is None:
                n = steps.n
                losses.extend([_mean_nll(log_probs.tolist())] * n)
                step_weights = np.full(len(steps.owner), -1.0 / n)
            else:
                n = len(batch_beta)
                rewards = implicit_reward(log_probs, ref_log_probs)
                bd = preference_loss(rewards[:n], rewards[n:], batch_beta)
                terms.append(bd)
                weights = (1.0 / n) * pair_gradient(bd)
                step_weights = np.concatenate([weights, -weights])[steps.owner]
            theta.apply_update(steps, probs, step_weights, -config.learning_rate)
        if ref is not None:
            loss, margin, r_w, r_l = (np.concatenate([getattr(bd, name) for bd in terms])
                                      for name in ("loss", "margin", "r_w", "r_l"))
            losses = loss.tolist()
        epoch = len(history.epoch_loss)
        mean_loss = sum(losses) / len(losses)
        if not math.isfinite(mean_loss):
            raise TrainingError(f"non-finite loss {mean_loss} at epoch {epoch}")
        with np.errstate(over="ignore"):  # an overflow is raised below as divergence
            update_norm = math.sqrt(float(np.square(theta.theta - epoch_start).sum()))
        if not (math.isfinite(update_norm) and np.isfinite(theta.theta).all()):
            raise TrainingError(f"training diverged at epoch {epoch}: update norm {update_norm}, "
                                f"largest |logit| {float(np.abs(theta.theta).max())}")
        history.epoch_loss.append(mean_loss)
        history.epoch_update_norm.append(update_norm)
        if ref is not None:
            history.epoch_pref_accuracy.append(np.count_nonzero(r_w > r_l) / len(dataset))
            history.epoch_mean_margin.append(sum(margin.tolist()) / len(dataset))

    return TrainResult(policy=theta, history=history)
