"""Hand-set logits of a TabularPolicy, whole-policy gradients and sampled blocks, for tests."""

import numpy as np

from covstim.policy import TokenBlock
from covstim.training import pair_gradient


def token_block(seqs, vocab, t_max) -> TokenBlock:
    """The block ``sample_tokens`` returns for seqs: each BOS, at most t_max values, EOS,
    and every position past a sequence's end EOS."""
    tokens = np.full((len(seqs), t_max + 2), vocab.eos, dtype=np.intp)
    for row, seq in zip(tokens, seqs):
        row[:len(seq)] = seq
    return TokenBlock(tokens, np.array([len(seq) for seq in seqs], dtype=np.intp))


def context(policy, tokens) -> tuple:
    """The last k tokens of the BOS-started prefix tokens, left-padded with BOS."""
    padded = [policy.vocab.bos] * policy.k + list(tokens)
    return tuple(padded[-policy.k:])


def logits(policy, dut_id, ctx) -> np.ndarray:
    """The logit row of (dut_id, ctx); zeros for a context without a row."""
    i = policy.rows.get((dut_id, tuple(ctx)))
    return np.zeros(policy.vocab.size) if i is None else policy.theta[i]


def set_logits(policy, dut_id, ctx, vec) -> None:
    """Replace the logit row of (dut_id, ctx) with a copy of vec."""
    row = _row(policy, dut_id, ctx)  # before reading policy.theta, which it may replace
    policy.theta[row] = np.asarray(vec, dtype=float)


def adjust(policy, dut_id, ctx, token: int, delta: float) -> None:
    """Add delta to one logit of (dut_id, ctx), creating a zero row if absent."""
    row = _row(policy, dut_id, ctx)
    policy.theta[row, token] += delta


def _row(policy, dut_id, ctx) -> int:
    key = (dut_id, tuple(ctx))
    if key not in policy.rows:
        policy.rows[key] = len(policy.rows)
        policy.theta = np.vstack([policy.theta[:-1], np.zeros((2, policy.vocab.size))])
    return policy.rows[key]


def logit_gradient(policy, items, weights) -> dict:
    """sum_i weights[i] * d log pi(seq_i) / d logits, as {(dut_id, ctx): vec}.

    items are (dut_id, seq) pairs.  The gradient goes through the trainer's
    own ``grad_log_prob`` and ``apply_update``, on a copy of policy whose
    logits are then replaced by the gradient; keys are the touched contexts
    in row order.
    """
    grad = policy.copy()
    grad.add_rows(items)
    steps = grad.steps(items)
    _, probs = grad.grad_log_prob(steps)
    grad.theta[:] = 0.0
    grad.apply_update(steps, probs, np.asarray(weights, dtype=float)[steps.owner], 1.0)
    touched = set(steps.touched.tolist())
    return {key: grad.theta[i] for key, i in grad.rows.items() if i in touched}


def norm(grad: dict) -> float:
    return float(np.sqrt(sum(np.dot(v, v) for v in grad.values())))


def pair_grad(theta, pair, bd) -> dict:
    """Gradient of one pair's preference loss, given its breakdown bd under theta."""
    weight = float(pair_gradient(bd.r_w, bd.r_l, bd.beta_star))
    return logit_gradient(theta, [(pair.dut_id, pair.chosen), (pair.dut_id, pair.rejected)],
                          [weight, -weight])


def sft_grad(theta, batch) -> dict:
    """Gradient of the mean negative log-likelihood of the batch's chosen sequences."""
    return logit_gradient(theta, [(p.dut_id, p.chosen) for p in batch],
                          [-1.0 / len(batch)] * len(batch))
