"""The per-pair trainer that ``training.train`` replaced, kept as its reference.

Logit rows live in a dict keyed by (dut_id, context); each sequence is
scored in one softmax pass of its own; each pair's gradient is a sparse
dict summed pair by pair into the batch's, and applied row by row.  This is
the loop ``train`` ran before it compiled datasets to index arrays, plus the
two per-epoch preference diagnostics.  ``test_training.TestReferencePin``
pins the batched trainer to it.
"""

import math
from dataclasses import replace

import numpy as np

from covstim.policy import _step_plan
from covstim.training import gap_range, normalize_gap


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softplus(x: float) -> float:
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _add_scaled(grad: dict, other: dict, factor: float) -> None:
    for key, vec in other.items():
        mine = grad.get(key)
        if mine is None:
            grad[key] = factor * vec
        else:
            mine += factor * vec


class DictPolicy:
    """The scoring and update rules of a {(dut_id, ctx): logits} table."""

    def __init__(self, policy):
        self.vocab, self.k, self.t_max = policy.vocab, policy.k, policy.t_max
        self.table = policy.table

    def copy(self):
        other = object.__new__(DictPolicy)
        other.vocab, other.k, other.t_max = self.vocab, self.k, self.t_max
        other.table = {key: vec.copy() for key, vec in self.table.items()}
        return other

    def logits(self, dut_id, ctx):
        vec = self.table.get((dut_id, ctx))
        return np.zeros(self.vocab.size) if vec is None else vec

    def _step_logits(self, dut_id, seq):
        contexts, targets = _step_plan(tuple(seq), self.vocab, self.k, self.t_max)
        z = np.zeros((len(contexts), self.vocab.size))
        for i, ctx in enumerate(contexts):
            row = self.table.get((dut_id, ctx))
            if row is not None:
                z[i] = row
        z[:, self.vocab.bos] = -np.inf
        m = z.max(axis=1, initial=0.0, where=np.isfinite(z))
        return contexts, targets, z, m, np.exp(z - m[:, None])

    def log_prob(self, dut_id, seq) -> float:
        _, targets, z, m, e = self._step_logits(dut_id, seq)
        lse = m + np.array([math.log(s) for s in e.sum(axis=1).tolist()])
        return sum((z[np.arange(len(targets)), targets] - lse).tolist())

    def grad_log_prob(self, dut_id, seq) -> dict:
        contexts, targets, _, _, e = self._step_logits(dut_id, seq)
        vecs = -(e / e.sum(axis=1, keepdims=True))
        vecs[np.arange(len(targets)), targets] += 1.0
        vecs[:, self.vocab.bos] = 0.0
        grad: dict = {}
        for ctx, vec in zip(contexts, vecs):
            key = (dut_id, ctx)
            if key in grad:
                grad[key] += vec
            else:
                grad[key] = vec
        return grad

    def apply_update(self, grad: dict, factor: float) -> None:
        for key, vec in grad.items():
            if key not in self.table:
                self.table[key] = np.zeros(self.vocab.size)
            self.table[key] += factor * vec


def _update_norm(before: DictPolicy, after: DictPolicy) -> float:
    total = 0.0
    for dut_id, ctx in sorted(set(before.table) | set(after.table)):
        diff = after.logits(dut_id, ctx) - before.logits(dut_id, ctx)
        total += float(np.dot(diff, diff))
    return math.sqrt(total)


def reference_train(dataset, config, init) -> tuple[dict, dict]:
    """Train like ``training.train``; return the final table and the history lists."""
    dataset = list(dataset)
    theta = DictPolicy(init)
    if config.mode in ("DPO", "CDDPO") and config.ref_source == "post_sft_policy":
        table, _ = reference_train(dataset, replace(config, mode="SFT"), init)
        theta.table = table
    ref = theta.copy()
    bounds = gap_range(dataset) if config.f_variant == "dataset_minmax" else None
    rng = np.random.default_rng(config.seed)
    history = {"epoch_loss": [], "epoch_update_norm": [], "epoch_pref_accuracy": [],
               "epoch_mean_margin": []}
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_start = theta.copy()
        losses, margins, wins = [], [], 0
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in order[start:start + config.batch_size]]
            grad: dict = {}
            if config.mode == "SFT":
                loss = -sum(theta.log_prob(p.dut_id, p.chosen) for p in batch) / len(batch)
                losses.extend([loss] * len(batch))
                for p in batch:
                    _add_scaled(grad, theta.grad_log_prob(p.dut_id, p.chosen), -1.0 / len(batch))
            else:
                for p in batch:
                    beta_star = config.beta
                    if config.mode == "CDDPO":
                        beta_star *= normalize_gap(p.s_p - p.s_np, config.f_variant, bounds)
                    r_w, r_l = (theta.log_prob(p.dut_id, seq) - ref.log_prob(p.dut_id, seq)
                                for seq in (p.chosen, p.rejected))
                    margin = beta_star * (r_w - r_l)
                    losses.append(_softplus(-margin))
                    margins.append(margin)
                    wins += r_w > r_l
                    pair_grad: dict = {}
                    if beta_star != 0.0:
                        scale = -beta_star * _sigmoid(beta_star * (r_l - r_w))
                        _add_scaled(pair_grad, theta.grad_log_prob(p.dut_id, p.chosen), scale)
                        _add_scaled(pair_grad, theta.grad_log_prob(p.dut_id, p.rejected), -scale)
                    _add_scaled(grad, pair_grad, 1.0 / len(batch))
            theta.apply_update(grad, -config.learning_rate)
        history["epoch_loss"].append(sum(losses) / len(losses))
        history["epoch_update_norm"].append(_update_norm(epoch_start, theta))
        if config.mode != "SFT":
            history["epoch_pref_accuracy"].append(wins / len(dataset))
            history["epoch_mean_margin"].append(sum(margins) / len(dataset))
    return theta.table, history
