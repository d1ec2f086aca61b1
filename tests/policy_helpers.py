"""Hand-set logits of a TabularPolicy, for tests that need a non-uniform policy."""

import numpy as np


def set_logits(policy, dut_id, ctx, vec) -> None:
    """Replace the logit row of (dut_id, ctx) with a copy of vec."""
    policy.table[(dut_id, tuple(ctx))] = np.asarray(vec, dtype=float).copy()


def adjust(policy, dut_id, ctx, token: int, delta: float) -> None:
    """Add delta to one logit of (dut_id, ctx), creating a zero row if absent."""
    key = (dut_id, tuple(ctx))
    if key not in policy.table:
        policy.table[key] = np.zeros(policy.vocab.size)
    policy.table[key][token] += delta
