import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covstim import curation
from covstim import policy as policy_module
from covstim.codec import CodecError, Vocab
from covstim.curation import CurationConfig, NoveltyTeacher
from covstim.policy import (
    STREAM_WINDOW,
    ReferencePolicy,
    Steps,
    Streams,
    TabularPolicy,
    _masked_exp,
    draw_tokens,
    masked_softmax,
    sample_indexed,
    sample_tokens,
)

from policy_helpers import adjust, context, logits, set_logits
from reference_curation import reference_sample
from reference_trainer import unique_batches

VOCAB = Vocab(4)  # V = 18, 17 emittable tokens

_CKPT = {"version": "tabular_policy/1", "wmax": 1, "k": 1, "t_max": 2}
# The run whose settings _CKPT has.
_CKPT_RUN = CurationConfig(wmax=1, k=1, t_max=2)
# Malformed checkpoints, each with the message naming what is wrong.
BAD_CHECKPOINTS = [
    ([1], "top level must be a JSON object"),
    ({"version": "tabular_policy/1", "wmax": 4}, "field k must be an integer"),
    ({**_CKPT, "t_max": "8"}, "field t_max must be an integer"),
    ({**_CKPT, "wmax": True}, "field wmax must be an integer"),
    ({**_CKPT, "wmax": 0}, "checkpoint wmax must be in 1..16"),
    ({**_CKPT, "k": 0}, "checkpoint k must be >= 1"),
    ({**_CKPT, "table": {}}, "field table must be a list"),
    ({**_CKPT, "table": [["d", [0]]]}, r"table\[0\] must be \[dut_id"),
    ({**_CKPT, "table": [[1, [0], [0, 0, 0, 0]]]}, r"table\[0\] must be \[dut_id"),
    ({**_CKPT, "table": [["d", 0, [0, 0, 0, 0]]]}, r"table\[0\] must be \[dut_id"),
    ({**_CKPT, "table": [["d", [0, 0], [0, 0, 0, 0]]]}, r"context \[0, 0\] must be k=1 tokens"),
    ({**_CKPT, "table": [["d", [4], [0, 0, 0, 0]]]}, r"context \[4\] must be k=1 tokens in 0..3"),
    ({**_CKPT, "table": [["d", [0], [0.0, 1.0]]]}, "row has 2 logits, expected 4"),
    ({**_CKPT, "table": [["d", [0], [0, 0, 0, 0, 0]]]}, "row has 5 logits, expected 4"),
    ({**_CKPT, "table": [["d", [0], [0, "1", 0, 0]]]}, "logit that is not a finite number"),
    ({**_CKPT, "table": [["d", [0], [0, 10**400, 0, 0]]]}, "logit that is not a finite number"),
    ({**_CKPT, "table": [["d", [0], [0, 0, 0, 0]], ["d", [0], [5, 0, 0, 0]]]},
     r"table\[1\] repeats context \[0\] of 'd'"),
]


def uniform_policy(k=2, t_max=8):
    return TabularPolicy(VOCAB, k=k, t_max=t_max)


def random_policy(rng, vocab=VOCAB, k=2, t_max=8, n_contexts=12):
    policy = TabularPolicy(vocab, k=k, t_max=t_max)
    tokens = list(range(vocab.size))
    for _ in range(n_contexts):
        ctx = tuple(int(rng.choice(tokens)) for _ in range(k))
        set_logits(policy, "dut", ctx, rng.normal(0, 1, vocab.size))
    return policy


def step_by_step_log_prob(policy, dut_id, seq):
    """The scorer as a loop over steps, one softmax per step."""
    per_step = []
    for j in range(1, len(seq)):
        if j - 1 >= policy.t_max:
            per_step.append(0.0)
            continue
        z = logits(policy, dut_id, context(policy, seq[:j]))
        masked = z.copy()
        masked[policy.vocab.bos] = -np.inf
        m = masked[np.isfinite(masked)].max(initial=0.0)
        lse = m + np.log(np.exp(masked - m).sum())
        per_step.append(float(z[seq[j]] - lse))
    return sum(per_step), per_step


def step_by_step_grad(policy, dut_id, seq):
    """The gradient as a loop over steps, one softmax per step: {(dut_id, ctx): vec}."""
    grad = {}
    for j in range(1, len(seq)):
        if j - 1 >= policy.t_max:
            continue
        ctx = context(policy, seq[:j])
        masked = logits(policy, dut_id, ctx).copy()
        masked[policy.vocab.bos] = -np.inf
        e = np.exp(masked - masked[np.isfinite(masked)].max(initial=0.0))
        vec = -(e / e.sum())
        vec[seq[j]] += 1.0
        vec[policy.vocab.bos] = 0.0
        key = (dut_id, ctx)
        grad[key] = grad[key] + vec if key in grad else vec
    return grad


def batched(policy, dut_id, seqs):
    """grad_log_prob over seqs as one batch: totals, and each sequence's {(dut_id, ctx): vec}.

    Sequence i's gradient is ``apply_update`` of the batch's one softmax
    with weight 1 on its steps and 0 on the others, into the zeroed logits
    of a copy of policy that has a row for every context; its keys are in
    step order, as ``step_by_step_grad`` has them.
    """
    items = [(dut_id, seq) for seq in seqs]
    grad = policy.copy()
    grad.add_rows(items)
    steps = grad.steps(items)
    totals, probs = grad.grad_log_prob(steps)
    per_seq = []
    for i, seq in enumerate(seqs):
        grad.theta[:] = 0.0
        grad.apply_update(steps, probs, (steps.owner == i).astype(float), 1.0)
        keys = [(dut_id, context(grad, seq[:j]))
                for j in range(1, min(len(seq) - 1, grad.t_max) + 1)]
        per_seq.append({key: grad.theta[grad.rows[key]].copy() for key in keys})
    return totals.tolist(), per_seq


def seq_grad(policy, dut_id, seq):
    return batched(policy, dut_id, [seq])[1][0]


def assert_same_grad(grad, expected, seq):
    """grad equals step_by_step_grad's expected to 1e-12 per step of seq.

    The per-row update sums a context's targets and its softmax apart, so it
    rounds differently from the per-step sum of onehot(target) - softmax.
    """
    assert list(grad) == list(expected)
    bound = 1e-12 * (len(seq) - 1)
    for key, vec in expected.items():
        assert (np.abs(grad[key] - vec) <= bound).all(), key


class ScriptedStream:
    """Stands in for a one-row ``Streams``: answers each draw from a script of uniforms."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def __len__(self):
        return 1

    def next(self, rows):
        assert rows.tolist() == [0]
        return np.array([self.uniforms.pop(0)])


def uniform_for(token, probs):
    """A uniform that draws token under probs: the middle of its CDF interval."""
    cdf = probs.cumsum() / probs.sum()
    return ((cdf[token - 1] if token else 0.0) + cdf[token]) / 2


@pytest.fixture
def softmax_rows(monkeypatch):
    """Every probability row the samplers compute, in order, as masked_softmax returns it."""
    rows = []

    def recording(z, bos):
        probs = masked_softmax(z, bos)
        rows.extend(probs.copy())
        return probs

    monkeypatch.setattr(policy_module, "masked_softmax", recording)
    return rows


def one_row_softmax(z, bos):
    """masked_softmax's float operations on one row, as they were before rows were batched."""
    z = z.copy()
    z[bos] = -np.inf
    e = np.exp(z - z[np.isfinite(z)].max(initial=0.0))
    return e / e.sum()


def draws_spent(seq, t_max):
    """One draw per sampled token; none for the EOS after t_max values."""
    return len(seq) - 2 if len(seq) - 2 == t_max else len(seq) - 1


@st.composite
def scoring_cases(draw):
    """A policy with +-50 logits on some of a sequence's contexts, and the sequence.

    Interiors run up to t_max values, so the forced-EOS step is reached, and
    use a 4-value alphabet, so contexts repeat.
    """
    vocab = Vocab(2)
    k = draw(st.integers(1, 3))
    t_max = draw(st.integers(1, 4))
    interior = draw(st.lists(st.integers(0, vocab.n_values - 1), max_size=t_max))
    seq = [vocab.bos, *interior, vocab.eos]
    policy = TabularPolicy(vocab, k, t_max)
    row = st.lists(st.floats(-50, 50), min_size=vocab.size, max_size=vocab.size)
    for j in range(1, len(seq)):
        if draw(st.booleans()):
            set_logits(policy, "d", context(policy, seq[:j]), draw(row))
    return policy, seq


@st.composite
def batch_cases(draw):
    """A policy and a batch of sequences that share contexts, some past t_max values."""
    vocab = Vocab(2)
    k = draw(st.integers(1, 3))
    t_max = draw(st.integers(1, 4))
    interior = st.lists(st.integers(0, vocab.n_values - 1), max_size=t_max)
    seqs = [[vocab.bos, *body, vocab.eos]
            for body in draw(st.lists(interior, min_size=1, max_size=5))]
    seqs += [seqs[0]] * draw(st.integers(0, 1))  # a repeated sequence is scored again
    policy = TabularPolicy(vocab, k, t_max)
    row = st.lists(st.floats(-50, 50), min_size=vocab.size, max_size=vocab.size)
    for seq in seqs:
        for j in range(1, len(seq)):
            if draw(st.booleans()):
                set_logits(policy, "d", context(policy, seq[:j]), draw(row))
    return policy, seqs


@st.composite
def shared_row_cases(draw):
    """A policy and (dut_id, seq) items whose steps read some rows many times and some contexts
    with none.

    The first sequence is scored twice, so its rows repeat; the sequences
    of design "e" have no rows at all; rows of design "x" are in the table
    but never read.
    """
    vocab = Vocab(2)
    k = draw(st.integers(1, 3))
    t_max = draw(st.integers(1, 4))
    interior = st.lists(st.integers(0, vocab.n_values - 1), max_size=t_max)
    items = [(draw(st.sampled_from("de")), [vocab.bos, *body, vocab.eos])
             for body in draw(st.lists(interior, min_size=1, max_size=6))]
    items += [items[0], ("e", [vocab.bos, *draw(interior), vocab.eos])]
    items = draw(st.permutations(items))
    policy = TabularPolicy(vocab, k, t_max)
    row = st.lists(st.floats(-50, 50), min_size=vocab.size, max_size=vocab.size)
    for dut_id, seq in items:
        for j in range(1, len(seq)):
            if draw(st.booleans()):
                set_logits(policy, "d" if dut_id == "d" else "x",
                           context(policy, seq[:j]), draw(row))
    return policy, items


@st.composite
def update_cases(draw):
    """The steps of ``shared_row_cases``, or a one-step batch of its policy, their targets
    from ``plan``, and a weight per step, some 0."""
    policy, items = draw(shared_row_cases())
    if draw(st.booleans()):
        items = [(draw(st.sampled_from("de")), [policy.vocab.bos, policy.vocab.eos])]
    steps, targets = policy.steps(items), policy.plan(items)[1]
    weight = st.one_of(st.just(0.0), st.floats(-10, 10))
    n = len(targets)
    return policy, steps, targets, np.array(draw(st.lists(weight, min_size=n, max_size=n)))


def per_step_grad_log_prob(policy, rows, targets, steps):
    """grad_log_prob as one masked softmax per step: _masked_exp over theta[rows], then np.log.

    rows and targets are ``plan``'s row and target of each step.  Returns the
    totals and each step's softmax, where grad_log_prob returns each
    distinct row's.
    """
    z = policy.theta[rows]
    m, e, sums = _masked_exp(z, policy.vocab.bos)
    lse = m[:, 0] + np.log(sums[:, 0])
    per_step = z[np.arange(len(targets)), targets] - lse
    return np.bincount(steps.owner, weights=per_step, minlength=steps.n), e / sums


@st.composite
def indexed_samplers(draw):
    """A TabularPolicy at k in {1, 2, 3} with random logits on about half of its reachable
    contexts, BOS-padded ones included, or the NoveltyTeacher; t_max up to 20."""
    vocab, t_max = Vocab(2), draw(st.integers(1, 20))
    if draw(st.booleans()):
        return NoveltyTeacher(vocab, t_max)
    k = draw(st.sampled_from([1, 2, 3]))
    policy = TabularPolicy(vocab, k, t_max)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for ctx in itertools.product([vocab.bos, *range(vocab.n_values)], repeat=k):
        if rng.random() < 0.5:
            set_logits(policy, "d", ctx, rng.normal(0, 2, vocab.size))
    return policy


def all_well_formed(vocab, t_max):
    for n in range(t_max + 1):
        for interior in itertools.product(range(vocab.n_values), repeat=n):
            yield [vocab.bos, *interior, vocab.eos]


class TestStepDistribution:
    def test_uniform(self, softmax_rows):
        probs = masked_softmax(np.zeros(VOCAB.size), VOCAB.bos)
        assert probs[VOCAB.bos] == 0.0
        np.testing.assert_allclose(np.delete(probs, VOCAB.bos), 1 / 17, atol=1e-15)
        assert abs(probs.sum() - 1.0) < 1e-12
        stream = ScriptedStream([uniform_for(VOCAB.eos, probs)])
        assert uniform_policy().sample("d", 1.0, stream).tolist() == [[VOCAB.bos, VOCAB.eos]]
        assert np.array_equal(softmax_rows, [probs])
        assert stream.uniforms == []

    def test_forced_eos_at_t_max(self, softmax_rows):
        # Three draws; the EOS after the third value is appended, not drawn.
        probs = masked_softmax(np.zeros(VOCAB.size), VOCAB.bos)
        stream = ScriptedStream([uniform_for(t, probs) for t in (1, 2, 3)])
        assert uniform_policy(t_max=3).sample("d", 1.0, stream).tolist() == [
            [VOCAB.bos, 1, 2, 3, VOCAB.eos]]
        assert len(softmax_rows) == 3 and stream.uniforms == []

    def test_temperature_sharpening(self, softmax_rows):
        policy = uniform_policy()
        adjust(policy, "d", (VOCAB.bos, VOCAB.bos), 0, +1.0)
        stream = ScriptedStream([0.999])  # EOS, the last token, has p = 1 / (e^2 + 16) > 0.001
        assert policy.sample("d", 0.5, stream).tolist() == [[VOCAB.bos, VOCAB.eos]]
        (probs,) = softmax_rows
        # Proportional to (e^2, 1, ..., 1) over the 17 emittable tokens.
        expected0 = math.exp(2) / (math.exp(2) + 16)
        assert probs[0] == pytest.approx(expected0, rel=1e-12)
        assert probs[1] == pytest.approx(1 / (math.exp(2) + 16), rel=1e-12)
        assert probs[VOCAB.bos] == 0.0

    def test_rejects_bad_temperature(self):
        for sampler in (uniform_policy(), NoveltyTeacher(VOCAB, 8)):
            for tau in (0.0, -1.0, float("nan")):
                streams = Streams([], [0], 8)
                with pytest.raises(ValueError, match="temperature must be > 0"):
                    sampler.sample("d", tau, streams)
                assert streams.next([0]) == np.random.default_rng(0).random()


class TestSample:
    def test_always_well_formed(self):
        rng = np.random.default_rng(0)
        policy = random_policy(rng)
        for seq in policy.sample("dut", 1.3, Streams([], range(30), policy.t_max)):
            assert seq[0] == VOCAB.bos and seq[-1] == VOCAB.eos
            interior = seq[1:-1]
            assert all(0 <= t < VOCAB.n_values for t in interior)
            assert len(interior) <= policy.t_max

    def test_determinism(self):
        policy = uniform_policy()
        s1 = policy.sample("d", 1.0, Streams([], [7], policy.t_max)).tolist()
        s2 = policy.sample("d", 1.0, Streams([], [7], policy.t_max)).tolist()
        assert s1 == s2

    def test_argmax_limit(self):
        # Token 5 strictly maximal in every reachable context: near-zero
        # temperature samples 5 until the forced EOS.
        policy = uniform_policy(t_max=4)
        for ctx in ((VOCAB.bos, VOCAB.bos), (VOCAB.bos, 5), (5, 5)):
            adjust(policy, "d", ctx, 5, +3.0)
        seqs = policy.sample("d", 1e-3, Streams([], [1], policy.t_max)).tolist()
        assert seqs == [[VOCAB.bos, 5, 5, 5, 5, VOCAB.eos]]

    @pytest.mark.parametrize("t_max", [1, 2, 3, 8])
    def test_one_draw_per_sampled_token(self, t_max):
        eos_averse = uniform_policy(t_max=t_max)
        for ctx in itertools.product([VOCAB.bos, *range(VOCAB.n_values)], repeat=2):
            adjust(eos_averse, "d", ctx, VOCAB.eos, -3.0)
        samplers = (uniform_policy(t_max=t_max), eos_averse,
                    random_policy(np.random.default_rng(t_max), t_max=t_max),
                    NoveltyTeacher(VOCAB, t_max))
        forced = 0
        for sampler in samplers:
            streams = Streams([], range(40), t_max + 1)
            seqs = sampler.sample("d", 1.0, streams)
            after = streams.next(np.arange(40)).tolist()
            for seed, seq, uniform in zip(range(40), seqs, after):
                twin = np.random.default_rng(seed)
                twin.random(draws_spent(seq, t_max))
                assert uniform == twin.random(), (sampler, seed)
                forced += len(seq) - 2 == t_max
        assert forced > 0


class TestLockstepDraw:
    def test_draw_is_rng_choice(self):
        # numpy's Generator.choice(V, p=p): the same token from the same
        # uniform, over 4,000 seeds, and choice spends one random() on it.
        # A numpy upgrade that changes either one fails here.
        maker = np.random.default_rng(2024)
        for wmax in (1, 2, 3, 4):
            size, n = Vocab(wmax).size, 1000
            probs = maker.random((n, size)) * (maker.random((n, size)) < 0.6)
            probs[:size] = np.eye(size)  # all mass on one token, first to last
            probs[probs.sum(axis=1) == 0, maker.integers(0, size)] = 1.0
            probs /= probs.sum(axis=1, keepdims=True)
            seeds = range(1000 * wmax, 1000 * wmax + n)
            tokens = draw_tokens(probs, Streams([], seeds, 1).next(np.arange(n)))
            for seed, p, token in zip(seeds, probs, tokens.tolist()):
                twin, once = np.random.default_rng(seed), np.random.default_rng(seed)
                assert token == twin.choice(size, p=p), (wmax, seed)
                once.random()
                assert twin.bit_generator.state == once.bit_generator.state, (wmax, seed)

    @pytest.mark.parametrize("n", [1, 20, 149, 150, 600])
    def test_draw_is_rng_choice_at_every_block_size(self, n):
        # The column-wise division and count give choice's token on blocks of
        # either side of any row count a kernel might switch at, from the
        # sampler's own softmax with -inf logits and with one-hot rows.
        maker = np.random.default_rng(n)
        for wmax in range(1, 7):
            size = Vocab(wmax).size
            z = maker.normal(0, 3, (n, size))
            z[maker.random(z.shape) < 0.3] = -np.inf
            z[:, 0] = maker.normal(0, 3, n)  # a finite logit on a token that is not BOS
            hot = maker.random(n) < 0.1
            z[hot] = -np.inf
            token = maker.integers(0, size - 1, hot.sum())
            token[token == size - 2] = size - 1  # BOS is size - 2 and EOS size - 1
            z[hot, token] = 0.0
            probs = masked_softmax(z, size - 2)
            seeds = range(7000 * wmax, 7000 * wmax + n)
            tokens = draw_tokens(probs, Streams([], seeds, 1).next(np.arange(n)))
            for seed, p, token in zip(seeds, probs, tokens.tolist()):
                assert token == np.random.default_rng(seed).choice(size, p=p), (wmax, seed)
            # choice's row-wise form, at uniforms on and just below each cdf entry:
            # a cdf that differs in one bit, or a strict comparison, moves a token.
            cdf = probs.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            for edge in (cdf, np.nextafter(cdf, 0.0)):
                for uniforms in edge.T:
                    expected = np.count_nonzero(cdf <= uniforms[:, None], axis=1)
                    assert np.array_equal(draw_tokens(probs, uniforms), expected), wmax

    def test_masked_exp_equals_the_row_wise_max(self):
        # The max down the columns of the transposed copy is the row max bit
        # for bit, with -inf, +inf and NaN logits, on one row and on stacks.
        rng = np.random.default_rng(3)
        for n in (0, 1, 7, 150, 600):
            z = rng.normal(0, 5, (n, VOCAB.size)) * rng.choice([1e-3, 1.0, 1e3], (n, 1))
            for special in (-np.inf, np.inf, np.nan, -0.0):
                z[rng.random(z.shape) < 0.05] = special
            for logits in (z, *z[:2]):
                with np.errstate(invalid="ignore"):
                    m, e, sums = _masked_exp(logits.copy(), VOCAB.bos)
                    masked = logits.copy()
                    masked[..., VOCAB.bos] = -np.inf
                    m_rows = np.maximum.reduce(masked, axis=-1, keepdims=True, initial=0.0)
                    e_rows = np.exp(masked - m_rows)
                assert m.shape == m_rows.shape and (m == m_rows)[~np.isnan(m)].all()
                assert np.array_equal(np.isnan(m), np.isnan(m_rows))
                assert e.tobytes() == e_rows.tobytes()
                assert sums.tobytes() == np.add.reduce(e_rows, axis=-1, keepdims=True).tobytes()

    def test_rows_equal_one_row_softmax(self):
        rng = np.random.default_rng(21)
        for wmax in (1, 2, 3, 4):
            vocab = Vocab(wmax)
            z = rng.normal(0, 5, (500, vocab.size)) * rng.choice([1e-3, 1.0, 40.0], (500, 1))
            masked = rng.random(z.shape) < 0.2
            masked[:, 0] = False  # a finite logit on a token that is not BOS
            z[masked] = -np.inf
            rows = masked_softmax(z.copy(), vocab.bos)
            for row, logits in zip(rows, z):
                assert (row == masked_softmax(logits.copy(), vocab.bos)).all()
                assert (row == one_row_softmax(logits, vocab.bos)).all()

    @pytest.mark.parametrize("t_max", [1, 3, 8])
    @pytest.mark.parametrize("tau", [0.7, 1.2])
    def test_policy_batch_matches_per_sequence_choice_loop(self, t_max, tau):
        # One batch over 50 streams: each row's sequence and the draws it
        # used are those of a loop that draws it alone with rng.choice.
        policy = random_policy(np.random.default_rng(t_max), t_max=t_max, n_contexts=60)
        for j in range(4):
            set_logits(policy, "dut", (VOCAB.bos, VOCAB.bos), np.linspace(-j, j, VOCAB.size))
            streams = Streams([j], range(50), t_max + 1)
            seqs = policy.sample("dut", tau, streams)
            after = streams.next(np.arange(50)).tolist()
            for seed, seq, uniform in zip(range(50), seqs, after):
                twin = np.random.default_rng([j, seed])
                assert seq == reference_sample(policy, "dut", tau, twin)
                assert uniform == twin.random()

    @pytest.mark.parametrize("logits", [
        np.where(np.arange(VOCAB.size) == 3, 1e300, 0.0),  # +inf / inf after the division
        np.full(VOCAB.size, -1e300),  # every logit -inf: 0 / 0
    ], ids=["one_logit_1e300", "all_logits_-1e300"])
    def test_nan_probabilities_raise(self, logits):
        policy = uniform_policy()
        set_logits(policy, "d", (VOCAB.bos, VOCAB.bos), logits)
        streams = Streams([], [1, 0], 8)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="contain NaN"):
            policy.sample("d", 1e-10, streams)
        assert streams.next([1]) == np.random.default_rng(0).random()

    def test_empty_batch(self):
        assert uniform_policy().sample("d", 1.0, Streams([], [], 8)).tolist() == []
        assert NoveltyTeacher(VOCAB, 8).sample("d", 1.0, Streams([], [], 8)).tolist() == []


class TestSampleIndexed:
    BLOCK = 8  # STREAM_BLOCK in these tests, so that n crosses block boundaries

    @given(indexed_samplers(),
           st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**40)), max_size=2),
           st.one_of(st.integers(0, 3), st.integers(BLOCK - 1, 3 * BLOCK + 2)),
           st.lists(st.sampled_from([0.5, 0.9, 1.4]), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_tuple_i_draws_the_taus_in_order_from_stream_i(self, sampler, prefix, n, taus):
        # A tuple may take len(taus) * t_max draws, past a STREAM_WINDOW, and
        # n may cross block boundaries.
        with patch.object(policy_module, "STREAM_BLOCK", self.BLOCK):
            blocks = list(sample_indexed(sampler, "d", prefix, n, taus))
        assert all(len(block) == len(taus) for block in blocks)
        sizes = [len(block[0]) for block in blocks]
        assert all(len(seqs) == size for block, size in zip(blocks, sizes) for seqs in block)
        assert sizes[:-1] == [self.BLOCK] * (len(sizes) - 1)
        got = [seqs for block in blocks for seqs in zip(*block)]
        assert len(got) == n
        for i, seqs in enumerate(got):
            rng = np.random.default_rng([*prefix, i])
            assert seqs == tuple(reference_sample(sampler, "d", tau, rng) for tau in taus), i


    @pytest.mark.parametrize("sampler", ["novelty", "policy"])
    def test_block_size_changes_no_sequence(self, sampler):
        # 600 indices: blocks of 8, and the default block with a partial one
        # after it, give the same token arrays row for row.
        if sampler == "novelty":
            sampler = NoveltyTeacher(VOCAB, 8)
        else:
            sampler = random_policy(np.random.default_rng(8), k=2, t_max=8, n_contexts=60)
        default = list(sample_indexed(sampler, "dut", [4], 600, (0.7, 1.2)))
        with patch.object(policy_module, "STREAM_BLOCK", self.BLOCK):
            small = list(sample_indexed(sampler, "dut", [4], 600, (0.7, 1.2)))
        assert len(default) == 2 and len(small) == 600 // self.BLOCK
        for t in range(2):
            for field in ("tokens", "lengths"):
                assert np.array_equal(np.concatenate([getattr(b[t], field) for b in default]),
                                      np.concatenate([getattr(b[t], field) for b in small]))


@st.composite
def bounded_samplers(draw):
    """The NoveltyTeacher or a TabularPolicy at k = 2 with random logits on about half of its
    reachable contexts, at a wmax of 1-4 and a t_max of 1-12."""
    vocab, t_max = Vocab(draw(st.integers(1, 4))), draw(st.integers(1, 12))
    if draw(st.booleans()):
        return NoveltyTeacher(vocab, t_max)
    policy = TabularPolicy(vocab, 2, t_max)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for ctx in itertools.product([vocab.bos, *range(vocab.n_values)], repeat=2):
        if rng.random() < 0.5:
            set_logits(policy, "d", ctx, rng.normal(0, 2, vocab.size))
    return policy


def assert_cut_or_equal(bounded, free, bound, i, eos) -> bool:
    """Whether row i of a block sampled with bound was cut; each uncut row must equal
    the row drawn with no bound, and a cut one must stop at a drawn value >= its bound."""
    n = int(bounded.lengths[i])
    if n:
        assert n == free.lengths[i]
        assert bounded.tokens[i].tolist() == free.tokens[i].tolist()
        assert (bounded.tokens[i, 1:n - 1] < bound[i]).all()
        return False
    drawn = bounded.tokens[i, 1:].tolist()
    j = max(at for at, token in enumerate(drawn) if token != eos) + 1  # the last drawn
    assert bound[i] <= bounded.tokens[i, j] != eos
    assert (bounded.tokens[i, 1:j] < bound[i]).all()
    # Up to the cut, the row drew what the unbounded one did.
    assert bounded.tokens[i, :j + 1].tolist() == free.tokens[i, :j + 1].tolist()
    return True


class TestRowBound:
    """``sample_tokens`` ends a row at its first drawn token at or above its bound, and
    ``sample_indexed`` bounds only the last-tau rows of indices lost at every earlier tau."""

    @given(bounded_samplers(), st.floats(0.3, 3.0), st.integers(0, 2**32 - 64),
           st.integers(0, 40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_row_is_cut_at_its_bound_or_drawn_as_unbounded(self, sampler, tau, start, rows,
                                                              data):
        vocab = sampler.vocab
        bound = np.array(data.draw(st.lists(st.integers(0, vocab.eos), min_size=rows,
                                            max_size=rows)), dtype=np.intp)
        free = sampler.sample("d", tau, Streams([3], range(start, start + rows), sampler.t_max))
        bounded = sampler.sample("d", tau, Streams([3], range(start, start + rows),
                                                   sampler.t_max), bound)
        for i in range(rows):
            assert_cut_or_equal(bounded, free, bound, i, vocab.eos)
        # A bound of EOS, the default, cuts nothing.
        assert not (bounded.lengths[bound == vocab.eos] == 0).any()

    @given(bounded_samplers(), st.integers(0, 20),
           st.lists(st.sampled_from([0.5, 0.9, 1.4]), min_size=1, max_size=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_indexed_limit_cuts_only_lost_last_tau_rows(self, sampler, n, taus, data):
        limit = data.draw(st.integers(1, sampler.vocab.n_values))
        with patch.object(policy_module, "STREAM_BLOCK", 8):
            free = list(sample_indexed(sampler, "d", [6], n, taus))
            bounded = list(sample_indexed(sampler, "d", [6], n, taus, limit))
        assert len(free) == len(bounded)
        for free_block, bounded_block in zip(free, bounded):
            # Without a limit no row is cut, and every earlier tau's block is unchanged.
            assert all((seqs.lengths >= 2).all() for seqs in free_block)
            for f, b in zip(free_block[:-1], bounded_block[:-1]):
                assert np.array_equal(f.tokens, b.tokens)
                assert np.array_equal(f.lengths, b.lengths)
            lost = np.ones(len(free_block[-1]), dtype=bool)
            for seqs in bounded_block[:-1]:
                lost &= ~seqs.decodable(limit)
            bound = np.where(lost, limit, sampler.vocab.eos)
            for i in range(len(lost)):
                if assert_cut_or_equal(bounded_block[-1], free_block[-1], bound, i,
                                       sampler.vocab.eos):
                    # A cut row could not decode unbounded either.
                    assert lost[i] and not free_block[-1].decodable(limit)[i]


class FixedUniforms:
    """A stand-in for ``Streams`` whose rows each make one given draw."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms)

    def __len__(self) -> int:
        return len(self.uniforms)

    def next(self, rows) -> np.ndarray:
        return self.uniforms[rows]


class ChoiceAt(np.random.Generator):
    """A generator whose ``random()`` gives u, so ``choice(V, p=p)`` draws at u."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u if size is None else np.full(size, self.u)


def first_step_samplers():
    """The NoveltyTeacher, and TabularPolicy at k = 1, 2 and 3 with random logits on their
    all-BOS context and on about half of their other reachable contexts."""
    vocab, t_max = Vocab(2), 6
    samplers = [NoveltyTeacher(vocab, t_max)]
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        policy = TabularPolicy(vocab, k, t_max)
        set_logits(policy, "d", (vocab.bos,) * k, rng.normal(0, 2, vocab.size))
        for ctx in itertools.product([vocab.bos, *range(vocab.n_values)], repeat=k):
            if rng.random() < 0.5 and ctx != (vocab.bos,) * k:
                set_logits(policy, "d", ctx, rng.normal(0, 2, vocab.size))
        samplers.append(policy)
    return samplers


def recorded_first_logits(sampler, tau, streams, bound=None):
    """The block sampler draws, and the logits it gives every running row at step 1."""
    module = curation if isinstance(sampler, NoveltyTeacher) else policy_module
    first = []

    def recording(vocab, t_max, tau, streams, next_logits, bound):
        def traced(tokens, running, j):
            z = next_logits(tokens, running, j)
            if j == 1:
                first.append(z.copy())
            return z
        return sample_tokens(vocab, t_max, tau, streams, traced, bound)

    with patch.object(module, "sample_tokens", recording):
        block = sampler.sample("d", tau, streams, bound)
    return block, first


class TestSharedFirstStep:
    """At step 1 every row's prefix is BOS alone, so ``sample_tokens`` draws every row
    from the first row's distribution; each sampler's logits depend only on the prefix."""

    @pytest.mark.parametrize("wmax", [1, 2, 4])
    def test_draw_at_ties_is_draw_tokens_and_rng_choice(self, wmax):
        # Uniforms exactly at each cdf entry below 1, where a strict count
        # (`<` in draw_tokens) draws the token before; the first step's one row,
        # broadcast, must draw what every row drawn alone does.  Tokens with no
        # mass repeat an entry, and just below each entry is no tie.
        vocab = Vocab(wmax)
        rng = np.random.default_rng(wmax)
        for _ in range(20):
            z = rng.normal(0, 2, vocab.size)
            z[rng.random(vocab.size) < 0.3] = -np.inf
            z[vocab.eos] = rng.normal(0, 2)
            probs = masked_softmax(z.copy(), vocab.bos)
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            ties = cdf[cdf < 1.0]
            uniforms = np.concatenate([ties, np.nextafter(ties, 0.0)])
            block = sample_tokens(vocab, 1, 1.0, FixedUniforms(uniforms),
                                  lambda tokens, running, j: np.tile(z, (len(running), 1)))
            first = block.tokens[:, 1]
            rows = np.tile(probs, (len(uniforms), 1))
            assert first.tolist() == draw_tokens(rows, uniforms).tolist()
            assert first.tolist() == [ChoiceAt(u).choice(vocab.size, p=probs) for u in uniforms]
            assert first.tolist() == [np.count_nonzero(cdf <= u) for u in uniforms]

    @pytest.mark.parametrize("sampler", first_step_samplers(), ids=lambda s: getattr(
        s, "k", "novelty"))
    @pytest.mark.parametrize("tau", [0.7, 1.2])
    def test_every_row_has_the_first_rows_logits_at_step_one(self, sampler, tau):
        bound = np.random.default_rng(3).integers(0, sampler.vocab.size, 300)
        for bound in (None, bound):
            _, first = recorded_first_logits(sampler, tau, Streams([2], range(300),
                                                                   sampler.t_max), bound)
            (z,) = first
            assert z.shape == (300, sampler.vocab.size)
            assert (z == z[0]).all()
            if not isinstance(sampler, NoveltyTeacher):
                assert (z[0] != 0).any()

    @pytest.mark.parametrize("sampler", first_step_samplers(), ids=lambda s: getattr(
        s, "k", "novelty"))
    @pytest.mark.parametrize("tau", [0.7, 1.2])
    def test_rows_cut_at_step_one_equal_the_reference_loop(self, sampler, tau):
        # Small bounds cut most rows at their first token: each row drew what
        # reference_sample draws alone, up to its cut, and spent one draw a token.
        vocab, t_max, n = sampler.vocab, sampler.t_max, 300
        bound = np.random.default_rng(4).integers(0, 3, n)
        bound[::7] = vocab.eos
        streams = Streams([8], range(n), t_max + 1)
        block = sampler.sample("d", tau, streams, bound)
        after = streams.next(np.arange(n)).tolist()
        cut_at_first = 0
        for i, uniform in enumerate(after):
            twin = np.random.default_rng([8, i])
            expected = reference_sample(sampler, "d", tau, twin)
            if block.lengths[i]:
                assert block.tolist()[i] == expected
                assert uniform == twin.random()
                continue
            j = next(at for at, token in enumerate(expected) if at and token >= bound[i])
            assert block.tokens[i, :j + 1].tolist() == expected[:j + 1]
            assert (block.tokens[i, j + 1:] == vocab.eos).all()
            spent = np.random.default_rng([8, i])
            spent.random(j)
            assert uniform == spent.random()
            cut_at_first += j == 1
        assert cut_at_first > n // 5


def loads_module(module: str, code: str) -> bool:
    """Whether a fresh interpreter has module loaded after running code, covstim imported."""
    src = str(Path(policy_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", f"import sys, covstim\n{code}\n"
                          f"print({module!r} in sys.modules)"],
                         capture_output=True, text=True, env=env, check=True).stdout
    return out == "True\n"


class TestGenerators:
    """Row i of ``Streams(prefix, indices, draws)`` draws what ``default_rng([*prefix, indices[i]])``
    does with ``random()``."""

    @given(st.lists(st.integers(0, 2**70 - 1), min_size=1, max_size=2),
           st.one_of(st.just(0), st.integers(0, 2**32 - 40)), st.integers(0, 40),
           st.integers(1, 2 * STREAM_WINDOW + 3))
    @settings(max_examples=200, deadline=None)
    def test_equal_default_rng_of_prefix_and_index(self, prefix, start, n, draws):
        block = range(start, start + n)
        streams = Streams(prefix, block, draws)
        assert len(streams) == n
        got = [streams.next(np.arange(n)).tolist() for _ in range(draws)]
        for row, i in enumerate(block):
            twin = np.random.default_rng([*prefix, i])
            assert [step[row] for step in got] == [twin.random() for _ in range(draws)]

    @given(st.lists(st.integers(0, 2**70), max_size=3),
           st.lists(st.integers(0, 2**32 - 1), max_size=6),
           st.integers(0, STREAM_WINDOW + 2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_interleaved_next_equals_sequential_random(self, prefix, indices, draws, data):
        streams = Streams(prefix, indices, draws)
        twins = [np.random.default_rng([*prefix, i]) for i in indices]
        left = [draws] * len(indices)
        while any(left):
            live = [row for row, k in enumerate(left) if k]
            rows = data.draw(st.lists(st.sampled_from(live), min_size=1, unique=True))
            got = streams.next(np.array(rows, dtype=np.intp))
            assert got.tolist() == [twins[row].random() for row in rows]
            for row in rows:
                left[row] -= 1
        assert streams.next(np.arange(0)).tolist() == []
        for row in range(len(indices)):
            with pytest.raises(ValueError, match=f"made all its {draws} draws"):
                streams.next([row])

    def test_budget_does_not_size_the_block(self):
        # Draws are made STREAM_WINDOW at a time, so a budget far past what
        # memory holds costs nothing until it is drawn.
        streams = Streams([6], range(3), 2**62)
        got = [streams.next([0, 2]).tolist() for _ in range(3 * STREAM_WINDOW)]
        for col, i in enumerate((0, 2)):
            twin = np.random.default_rng([6, i])
            assert [step[col] for step in got] == [twin.random() for _ in got]

    def test_exhausted_row_advances_no_row(self):
        streams = Streams([3], [0, 1], 1)
        assert streams.next([0]) == np.random.default_rng([3, 0]).random()
        with pytest.raises(ValueError):
            streams.next([1, 0])
        assert streams.next([1]) == np.random.default_rng([3, 1]).random()

    @pytest.mark.parametrize("prefix, indices", [
        ([-1], range(3)), ([5, -2], range(3)), ([-(2**40)], range(0)), ([5], range(-1, 2)),
    ])
    def test_negative_entry_raises_as_seed_sequence_does(self, prefix, indices):
        with pytest.raises(ValueError):
            np.random.default_rng([*prefix, next(iter(indices), 0)])
        with pytest.raises(ValueError):
            Streams(prefix, indices, 1)

    def test_index_of_more_than_32_bits_raises(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            Streams([1], range(2**32 - 1, 2**32 + 1), 1)

    def test_bundled_corpus_leaves_numpy_random_unloaded(self):
        # numpy.random costs the benchmark's setup_s and peak RSS; only training loads it.
        assert not loads_module(
            "numpy.random", "from covstim.corpus import load_bundled_corpus; load_bundled_corpus()")

    def test_curation_leaves_numpy_random_unloaded(self):
        assert not loads_module(
            "numpy.random",
            "import os; from covstim.corpus import load_bundled_corpus; "
            "from covstim.curation import CurationConfig, curate; "
            "curate(load_bundled_corpus(), CurationConfig(pairs_per_dut=3), os.devnull)")

    def test_front_end_leaves_numpy_unloaded(self):
        # numpy and the training stack were ~0.1 s of every cold start, and
        # parsing, linting and simulating a design need neither.
        assert not loads_module("numpy", """
from covstim import checks, codec, corpus, hdl, sim
vocab = codec.Vocab(4)
corpus.load_bundled_corpus()
for name in corpus.BUNDLED_NAMES:
    dut = hdl.parse(corpus.bundled_source(name))
    assert hdl.lint(dut) == []
    sim.simulate(dut, sim.Stimulus(({port.name: 1 for port in dut.input_ports},)))
    assert codec.simulate_block(dut, [[vocab.bos, 0, 1, vocab.eos]], vocab, 8)[0] is not None
""")


class TestLogProb:
    def test_uniform_closed_form(self):
        total, per_step = uniform_policy().log_prob("d", [VOCAB.bos, 1, VOCAB.eos])
        assert len(per_step) == 2
        assert total == pytest.approx(-2 * math.log(17), abs=1e-12)

    def test_forced_eos_contributes_zero(self):
        policy = uniform_policy(t_max=3)
        seq = [VOCAB.bos, 0, 1, 2, VOCAB.eos]
        total, per_step = policy.log_prob("d", seq)
        assert per_step[-1] == 0.0
        assert total == pytest.approx(sum(per_step))

    def test_boost_increases_log_prob(self):
        rng = np.random.default_rng(2)
        policy = random_policy(rng)
        (seq,) = policy.sample("dut", 1.0, Streams([], [3], policy.t_max))
        before = policy.log_prob("dut", seq)[0]
        boosted = policy.copy()
        for j in range(1, len(seq)):
            if j - 1 >= policy.t_max:
                continue
            ctx = context(boosted, seq[:j])
            adjust(boosted, "dut", ctx, seq[j], +0.5)
        assert boosted.log_prob("dut", seq)[0] > before

    def test_malformed_rejected(self):
        policy = uniform_policy()
        for seq in ([], [VOCAB.bos], [VOCAB.bos, VOCAB.bos, VOCAB.eos],
                    [VOCAB.bos] + [0] * 9 + [VOCAB.eos]):
            with pytest.raises(ValueError):
                policy.log_prob("d", seq)


class TestOnePassScoring:
    @given(scoring_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_step_by_step_exactly(self, case):
        policy, seq = case
        assert policy.log_prob("d", seq) == step_by_step_log_prob(policy, "d", seq)
        assert_same_grad(seq_grad(policy, "d", seq), step_by_step_grad(policy, "d", seq), seq)

    @given(batch_cases())
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_step_by_step_exactly(self, case):
        policy, seqs = case
        totals, grads = batched(policy, "d", seqs)
        for seq, total, grad in zip(seqs, totals, grads):
            assert total == step_by_step_log_prob(policy, "d", seq)[0]
            assert_same_grad(grad, step_by_step_grad(policy, "d", seq), seq)

    @given(shared_row_cases())
    @settings(max_examples=200, deadline=None)
    def test_distinct_row_softmax_equals_per_step_formula_exactly(self, case):
        policy, items = case
        steps, (rows, targets, _) = policy.steps(items), policy.plan(items)
        assert steps.touched[0] == -1 and len(steps.touched) < len(rows)
        assert np.array_equal(steps.touched, np.unique(rows))
        assert np.array_equal(steps.touched[steps.slot], rows)
        totals, probs = policy.grad_log_prob(steps)
        expected_totals, step_probs = per_step_grad_log_prob(policy, rows, targets, steps)
        assert totals.tolist() == expected_totals.tolist()
        assert np.array_equal(probs[steps.slot], step_probs)

    def test_equals_step_by_step_on_many_sequences(self):
        # Thousands of fresh rows, each logged alone by the step-by-step form
        # and in one array by log_prob, so a last-bit slip between the two
        # would show.  Logits <= 0 give a zero shift, so it is not rounded away.
        rng = np.random.default_rng(13)
        for _ in range(4000):
            interior = rng.integers(0, VOCAB.n_values, rng.integers(0, 9)).tolist()
            seq = [VOCAB.bos, *interior, VOCAB.eos]
            policy = uniform_policy()
            for j in range(1, len(seq)):
                set_logits(policy, "dut", context(policy, seq[:j]),
                                  -np.abs(rng.normal(0, 3, VOCAB.size)))
            assert policy.log_prob("dut", seq) == step_by_step_log_prob(policy, "dut", seq)

    def test_forced_eos_and_repeated_contexts(self):
        rng = np.random.default_rng(6)
        policy = random_policy(rng, k=1, t_max=4)
        for ctx in ((VOCAB.bos,), (3,)):
            set_logits(policy, "dut", ctx, rng.normal(0, 5, VOCAB.size))
        seq = [VOCAB.bos, 3, 3, 3, 3, VOCAB.eos]
        total, per_step = policy.log_prob("dut", seq)
        assert per_step[-1] == 0.0 and len(per_step) == 5
        assert (total, per_step) == step_by_step_log_prob(policy, "dut", seq)
        grad = seq_grad(policy, "dut", seq)
        assert list(grad) == [("dut", (VOCAB.bos,)), ("dut", (3,))]
        assert_same_grad(grad, step_by_step_grad(policy, "dut", seq), seq)


class TestScoringCaches:
    def test_reference_rejects_malformed_every_call(self):
        ref = ReferencePolicy(uniform_policy())
        good = [VOCAB.bos, 1, VOCAB.eos]
        ref.log_prob("d", good)
        for bad in ([VOCAB.bos, VOCAB.bos, VOCAB.eos], [VOCAB.bos, 1],
                    [VOCAB.bos] + [0] * 9 + [VOCAB.eos]):
            for _ in range(3):
                with pytest.raises(CodecError):
                    ref.log_prob("d", bad)
        assert ref.log_prob("d", good) == uniform_policy().log_prob("d", good)

    def test_returned_per_step_is_a_fresh_list(self):
        policy = random_policy(np.random.default_rng(9))
        ref = ReferencePolicy(policy)
        seq = [VOCAB.bos, 1, 2, 1, VOCAB.eos]
        for scorer in (policy, ref):
            expected = scorer.log_prob("dut", seq)
            scorer.log_prob("dut", seq)[1][0] = 99.0
            scorer.log_prob("dut", seq)[1].append(1.0)
            assert scorer.log_prob("dut", seq) == expected

    def test_returned_grad_vectors_are_fresh(self):
        policy = random_policy(np.random.default_rng(10))
        seq = [VOCAB.bos, 1, 2, 1, 2, VOCAB.eos]
        policy.add_rows([("dut", seq)])
        expected = step_by_step_grad(policy, "dut", seq)
        theta = policy.theta.copy()
        steps = policy.steps([("dut", seq)])
        totals, probs = policy.grad_log_prob(steps)
        totals[:] = 7.0
        probs[:] = 7.0
        assert np.array_equal(policy.theta, theta)
        assert_same_grad(seq_grad(policy, "dut", seq), expected, seq)

        policy.apply_update(steps, probs, np.ones(len(steps.owner)), 0.5)
        theta = policy.theta.copy()
        probs[:] = -1.0
        assert np.array_equal(policy.theta, theta)

    def test_updated_policy_scores_with_new_logits(self):
        policy = random_policy(np.random.default_rng(11))
        seq = [VOCAB.bos, 4, 4, VOCAB.eos]
        before = policy.log_prob("dut", seq)
        seq_grad(policy, "dut", seq)
        adjust(policy, "dut", (VOCAB.bos, VOCAB.bos), 4, +1.0)
        adjust(policy, "dut", (4, 4), VOCAB.eos, -2.0)
        after = policy.log_prob("dut", seq)
        assert after != before
        assert after == step_by_step_log_prob(policy, "dut", seq)
        assert_same_grad(seq_grad(policy, "dut", seq), step_by_step_grad(policy, "dut", seq),
                         seq)


@st.composite
def batch_layouts(draw):
    """(width, rows, targets, lens, counts) of mini-batches of step sequences.

    Steps read rows -1 .. width - 2 of a (width x V) theta, -1 being the
    zero row of a context without one; sequences take 1-4 steps, and each
    batch 1-4 sequences, so the last batch may be short or the only one.
    """
    width = draw(st.integers(1, 12))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    lens = draw(st.lists(st.integers(1, 4), min_size=sum(counts), max_size=sum(counts)))
    rows = draw(st.lists(st.integers(-1, width - 2), min_size=sum(lens), max_size=sum(lens)))
    targets = draw(st.lists(st.integers(0, VOCAB.size - 1), min_size=sum(lens),
                            max_size=sum(lens)))
    return width, rows, targets, lens, counts


class TestBatches:
    """``batches`` counts marks where it once sorted: it builds what ``np.unique`` did."""

    @given(batch_layouts())
    @example((1, [-1, -1], [3, 4], [1, 1], [2]))  # one batch; every step without a row
    @example((4, [2, -1, 0, -1, 2], [1, 2, 3, 4, 5], [1, 2, 1, 1], [3, 1]))  # a short last batch
    @example((3, [-1, 1, 0, 1], [0, 1, 2, 3], [1, 1, 1, 1], [1, 1, 1, 1]))  # one-step sequences
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique_form(self, layout):
        width, rows, targets, lens, counts = layout
        policy = TabularPolicy(VOCAB)
        policy.theta = np.zeros((width, VOCAB.size))
        args = [np.array(a, dtype=np.intp) for a in (rows, targets, lens)] + [counts]
        got, expected = policy.batches(*args), unique_batches(policy, *args)
        assert len(got) == len(expected) == len(counts)
        for steps, want in zip(got, expected):
            assert steps.n == want.n
            for name in ("owner", "touched", "slot", "cell"):
                assert np.array_equal(getattr(steps, name), getattr(want, name)), name


class TestDenseTable:
    def test_add_rows_in_first_use_order_with_zero_logits(self):
        policy = uniform_policy()
        set_logits(policy, "d", (VOCAB.bos, 1), np.ones(VOCAB.size))
        policy.add_rows([("d", [VOCAB.bos, 1, 2, VOCAB.eos]), ("e", [VOCAB.bos, VOCAB.eos])])
        assert list(policy.rows) == [("d", (VOCAB.bos, 1)), ("d", (VOCAB.bos, VOCAB.bos)),
                                     ("d", (1, 2)), ("e", (VOCAB.bos, VOCAB.bos))]
        assert list(policy.rows.values()) == [0, 1, 2, 3]
        assert np.array_equal(policy.theta[0], np.ones(VOCAB.size))
        assert not policy.theta[1:].any()
        # Zero rows leave every score as it was.
        assert policy.log_prob("e", [VOCAB.bos, VOCAB.eos]) == uniform_policy().log_prob(
            "e", [VOCAB.bos, VOCAB.eos])

    def test_table_is_a_copy(self):
        policy = random_policy(np.random.default_rng(14))
        table = policy.table
        assert list(table) == list(policy.rows)
        for vec in table.values():
            vec[:] = 9.0
        assert not (policy.theta == 9.0).any()

    def test_apply_update_sums_repeated_rows_and_skips_missing(self):
        policy = uniform_policy()
        policy.add_rows([("d", [VOCAB.bos, 1, VOCAB.eos])])
        probs = np.arange(3 * VOCAB.size, dtype=float).reshape(3, VOCAB.size)
        targets, slot = np.array([2, 5, 3, 4]), np.array([2, 0, 1, 2])  # rows 1, -1, 0, 1
        steps = Steps(np.arange(4), 4, touched=np.array([-1, 0, 1]), slot=slot,
                      cell=slot * VOCAB.size + targets)
        policy.apply_update(steps, probs, np.array([1.5, 2.0, -0.25, 0.5]), -0.5)
        onehot = np.eye(VOCAB.size)
        assert np.array_equal(policy.theta[0], -0.5 * (-0.25 * onehot[3] + 0.25 * probs[1]))
        assert np.array_equal(policy.theta[1],
                              -0.5 * (1.5 * onehot[2] + 0.5 * onehot[4] - 2.0 * probs[2]))
        assert len(policy.theta) == 3 and not policy.theta[-1].any()
        assert policy.log_prob("x", [VOCAB.bos, VOCAB.eos]) == uniform_policy().log_prob(
            "x", [VOCAB.bos, VOCAB.eos])


class TestPerRowUpdate:
    @given(update_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_sum_of_per_step_gradients(self, case):
        policy, steps, targets, weights = case
        _, probs = policy.grad_log_prob(steps)
        bos, size = policy.vocab.bos, policy.vocab.size
        assert (probs[:, bos] == 0.0).all()
        assert (np.abs(probs.sum(axis=1) - 1.0) <= 1e-12).all()
        # The per-step form: a (steps x V) matrix of w_i * (onehot(target_i) - probs of
        # its row), BOS zeroed, summed into each row by one bincount.
        grads = -probs[steps.slot]
        grads[np.arange(len(targets)), targets] += 1.0
        grads[:, bos] = 0.0
        grads *= weights[:, None]
        expected = np.bincount((steps.slot[:, None] * size + np.arange(size)).ravel(),
                               weights=grads.ravel(), minlength=probs.size).reshape(probs.shape)

        updated = policy.copy()
        updated.theta[:] = 0.0
        updated.apply_update(steps, probs, weights, 1.0)
        has_row = steps.touched >= 0
        got = updated.theta[steps.touched[has_row]]
        scale = np.bincount(steps.slot, np.abs(weights), len(steps.touched))[has_row, None]
        assert (np.abs(got - expected[has_row]) <= 1e-12 * scale).all()
        assert (got[:, bos] == 0.0).all()
        untouched = np.ones(len(updated.theta), dtype=bool)
        untouched[steps.touched[has_row]] = False
        assert not updated.theta[untouched].any()


class TestGradLogProb:
    def test_uniform_single_step(self):
        policy = uniform_policy()
        vec = seq_grad(policy, "d", [VOCAB.bos, 3, VOCAB.eos])[("d", (VOCAB.bos, VOCAB.bos))]
        assert vec[3] == pytest.approx(1 - 1 / 17, abs=1e-15)
        assert vec[0] == pytest.approx(-1 / 17, abs=1e-15)
        assert vec[VOCAB.bos] == 0.0

    def test_no_items_make_an_empty_batch(self):
        policy = random_policy(np.random.default_rng(15))
        steps = policy.steps([])
        assert steps.n == 0 and len(steps.cell) == len(steps.touched) == 0
        totals, probs = policy.grad_log_prob(steps)
        assert totals.shape == (0,) and probs.shape == (0, VOCAB.size)

    def test_entries_sum_to_zero_per_context(self):
        rng = np.random.default_rng(4)
        policy = random_policy(rng)
        (seq,) = policy.sample("dut", 1.0, Streams([], [5], policy.t_max))
        if len(seq) == 2:
            seq = [VOCAB.bos, 0, VOCAB.eos]
        for vec in seq_grad(policy, "dut", seq).values():
            assert abs(vec.sum()) < 1e-12

    def test_finite_differences(self):
        eps = 1e-4
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            policy = random_policy(rng)
            (seq,) = policy.sample("dut", 1.0, Streams([], [200 + trial], policy.t_max))
            if len(seq) == 2:
                continue
            grad = seq_grad(policy, "dut", seq)
            for (dut_id, ctx), vec in grad.items():
                for token in range(VOCAB.size):
                    plus = policy.copy()
                    adjust(plus, dut_id, ctx, token, +eps)
                    minus = policy.copy()
                    adjust(minus, dut_id, ctx, token, -eps)
                    numeric = (plus.log_prob(dut_id, seq)[0]
                               - minus.log_prob(dut_id, seq)[0]) / (2 * eps)
                    analytic = vec[token]
                    scale = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / scale < 1e-6


class TestSequenceDistribution:
    def test_normalization_tiny_config(self):
        vocab = Vocab(1)
        for trial in range(10):
            rng = np.random.default_rng(trial)
            policy = random_policy(rng, vocab=vocab, k=2, t_max=2, n_contexts=6)
            total = sum(math.exp(policy.log_prob("dut", seq)[0])
                        for seq in all_well_formed(vocab, 2))
            assert abs(total - 1.0) < 1e-10

    def test_sampling_frequency_matches_log_prob(self):
        vocab = Vocab(1)
        rng = np.random.default_rng(42)
        policy = random_policy(rng, vocab=vocab, k=2, t_max=2, n_contexts=6)
        n = 100_000
        counts = {(0,): 0, (1,): 0}
        for seq in policy.sample("dut", 1.0, Streams([99], range(n), policy.t_max)):
            interior = tuple(seq[1:-1])
            if interior in counts:
                counts[interior] += 1
        for v in (0, 1):
            p = math.exp(policy.log_prob("dut", [vocab.bos, v, vocab.eos])[0])
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[(v,)] / n - p) <= 3 * se


class TestReferencePolicy:
    def test_snapshot_log_probs_match(self):
        rng = np.random.default_rng(8)
        policy = random_policy(rng)
        ref = ReferencePolicy(policy)
        for seq in policy.sample("dut", 1.0, Streams([], range(10), policy.t_max)):
            assert ref.log_prob("dut", seq) == policy.log_prob("dut", seq)

    def test_snapshot_is_independent_of_later_updates(self):
        policy = uniform_policy()
        ref = ReferencePolicy(policy)
        seq = [VOCAB.bos, 1, VOCAB.eos]
        before = ref.log_prob("d", seq)[0]
        adjust(policy, "d", (VOCAB.bos, VOCAB.bos), 1, +10.0)
        assert ref.log_prob("d", seq)[0] == before
        assert policy.log_prob("d", seq)[0] != before


class TestCheckpoint:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        policy = random_policy(rng)
        path = tmp_path / "policy.json"
        policy.save(path)
        loaded = TabularPolicy.load(path, CurationConfig())
        assert loaded.vocab == policy.vocab
        assert loaded.k == policy.k and loaded.t_max == policy.t_max
        assert set(loaded.table) == set(policy.table)
        for key, vec in policy.table.items():
            assert np.array_equal(loaded.table[key], vec)
        # Save of the loaded policy is byte-identical.
        path2 = tmp_path / "policy2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    @given(st.lists(st.tuples(st.sampled_from(["toy1", "mux2", "d\u00e9"]),
                              st.tuples(st.integers(0, 17), st.integers(0, 17)),
                              st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                       min_size=18, max_size=18)),
                    max_size=12, unique_by=lambda row: row[:2]))
    @settings(max_examples=100, deadline=None)
    def test_save_writes_json_dump_of_the_document(self, rows):
        policy = uniform_policy()
        for dut_id, ctx, vec in rows:
            set_logits(policy, dut_id, ctx, vec)
        doc = {"version": "tabular_policy/1", "wmax": 4, "k": 2, "t_max": 8,
               "table": sorted([dut_id, list(ctx), policy.theta[i].tolist()]
                               for (dut_id, ctx), i in policy.rows.items())}
        expected = io.StringIO()
        json.dump(doc, expected)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.json"
            policy.save(path)
            assert path.read_text(encoding="utf-8") == expected.getvalue() + "\n"

    def test_empty_table_saves_as_json_dump(self, tmp_path):
        path = tmp_path / "policy.json"
        uniform_policy().save(path)
        assert path.read_text() == ('{"version": "tabular_policy/1", "wmax": 4, "k": 2, '
                                    '"t_max": 8, "table": []}\n')

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "other/9"}')
        with pytest.raises(ValueError):
            TabularPolicy.load(path, CurationConfig())

    @pytest.mark.parametrize("doc, message", BAD_CHECKPOINTS)
    def test_malformed_checkpoint_names_field(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            TabularPolicy.load(path, _CKPT_RUN)

    def test_non_finite_logit_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "tabular_policy/1", "wmax": 1, "k": 1, "t_max": 2,'
                        ' "table": [["d", [0], [0.0, NaN, 1.0, 2.0]]]}')
        with pytest.raises(ValueError, match=r"table\[0\] row holds a logit that is not"):
            TabularPolicy.load(path, _CKPT_RUN)

    @pytest.mark.parametrize("name", ["wmax", "k", "t_max"])
    def test_non_integer_setting_message_is_bounded(self, tmp_path, name):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**_CKPT, name: "x" * 1_000_000}))
        with pytest.raises(ValueError) as info:
            TabularPolicy.load(path, _CKPT_RUN)
        assert str(info.value) == f"checkpoint field {name} must be an integer, got str"

    def test_deep_nesting_names_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="maximum recursion depth exceeded") as exc:
            TabularPolicy.load(path, CurationConfig())
        assert str(path) in str(exc.value)

    def test_settings_other_than_the_run_refused(self, tmp_path):
        path = tmp_path / "policy.json"
        uniform_policy(k=3, t_max=6).save(path)
        assert TabularPolicy.load(path, CurationConfig(k=3, t_max=6)).k == 3
        with pytest.raises(ValueError) as info:
            TabularPolicy.load(path, CurationConfig(wmax=3, k=3))
        assert str(info.value) == ("checkpoint policy has wmax 4 (run config 3), "
                                   "t_max 6 (run config 8)")
        # A malformed field is named first, whatever the run's settings.
        path.write_text(json.dumps({**_CKPT, "table": [["d", [0], [0.0, 1.0]]]}))
        with pytest.raises(ValueError, match="row has 2 logits, expected 4"):
            TabularPolicy.load(path, CurationConfig())

    @pytest.mark.parametrize("entry, message", [
        (["d", [0] * 20_000, [0.0] * 4], "table[0] context of length 20000 must be k=1 tokens"),
        (["d", ["x" * 20_000], [0.0] * 4], "table[0] context of length 1 must be k=1 tokens"),
        (["d", [0] * 14, [0.0] * 4], "table[0] context of length 14 must be k=1 tokens"),
        (["d", [0] * 13, [0.0] * 4], f"table[0] context {[0] * 13} must be k=1 tokens"),
    ], ids=["20000_tokens", "long_token", "14_tokens", "13_tokens"])
    def test_long_context_named_by_its_length(self, tmp_path, entry, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**_CKPT, "table": [entry]}))
        with pytest.raises(ValueError) as info:
            TabularPolicy.load(path, _CKPT_RUN)
        assert str(info.value) == f"checkpoint {message} in 0..3"


class TestRanges:
    @pytest.mark.parametrize("k, t_max, message", [
        (0, 8, "k must be >= 1, got 0"),
        (-1, 8, "k must be >= 1, got -1"),
        (2, 0, "t_max must be >= 1, got 0"),
    ])
    def test_policy_rejects_bad_k_and_t_max(self, k, t_max, message):
        with pytest.raises(ValueError, match=message):
            TabularPolicy(Vocab(4), k, t_max)

    @pytest.mark.parametrize("wmax", [-1, 0, 17, 10**9])
    def test_vocab_rejects_wmax_out_of_range(self, wmax):
        with pytest.raises(ValueError, match=f"wmax must be in 1..16, got {wmax}"):
            Vocab(wmax)

    def test_smallest_vocab(self):
        assert Vocab(1).size == 4 and Vocab(16).n_values == 1 << 16
