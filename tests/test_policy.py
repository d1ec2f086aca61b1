import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covstim.codec import CodecError, Vocab
from covstim.curation import NoveltyTeacher
from covstim.policy import ReferencePolicy, SparseGrad, TabularPolicy, masked_softmax

from policy_helpers import adjust, set_logits

VOCAB = Vocab(4)  # V = 18, 17 emittable tokens

_CKPT = {"version": "tabular_policy/1", "wmax": 1, "k": 1, "t_max": 2}
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
        z = policy.logits(dut_id, policy._contexts(seq[:j]))
        masked = z.copy()
        masked[policy.vocab.bos] = -np.inf
        m = masked[np.isfinite(masked)].max(initial=0.0)
        lse = m + math.log(np.exp(masked - m).sum())
        per_step.append(float(z[seq[j]] - lse))
    return sum(per_step), per_step


def step_by_step_grad(policy, dut_id, seq):
    """The gradient as a loop over steps, one softmax per step: {(dut_id, ctx): vec}."""
    grad = {}
    for j in range(1, len(seq)):
        if j - 1 >= policy.t_max:
            continue
        ctx = policy._contexts(seq[:j])
        masked = policy.logits(dut_id, ctx).copy()
        masked[policy.vocab.bos] = -np.inf
        e = np.exp(masked - masked[np.isfinite(masked)].max(initial=0.0))
        vec = -(e / e.sum())
        vec[seq[j]] += 1.0
        vec[policy.vocab.bos] = 0.0
        key = (dut_id, ctx)
        grad[key] = grad[key] + vec if key in grad else vec
    return grad


def assert_same_grad(grad, expected):
    assert list(grad.data) == list(expected)
    for key, vec in expected.items():
        assert np.array_equal(grad.data[key], vec), key


class ScriptedRng:
    """Stands in for a Generator: records each choice's p, answers from a script."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.probs = []

    def choice(self, n, p):
        self.probs.append(p.copy())
        return self.answers.pop(0)


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
            set_logits(policy, "d", policy._contexts(seq[:j]), draw(row))
    return policy, seq


def all_well_formed(vocab, t_max):
    for n in range(t_max + 1):
        for interior in itertools.product(range(vocab.n_values), repeat=n):
            yield [vocab.bos, *interior, vocab.eos]


class TestStepDistribution:
    def test_uniform(self):
        probs = masked_softmax(np.zeros(VOCAB.size), VOCAB.bos)
        assert probs[VOCAB.bos] == 0.0
        np.testing.assert_allclose(np.delete(probs, VOCAB.bos), 1 / 17, atol=1e-15)
        assert abs(probs.sum() - 1.0) < 1e-12
        rng = ScriptedRng([VOCAB.eos])
        assert uniform_policy().sample("d", 1.0, rng) == [VOCAB.bos, VOCAB.eos]
        assert np.array_equal(rng.probs, [probs])

    def test_forced_eos_at_t_max(self):
        # Three draws; the EOS after the third value is appended, not drawn.
        rng = ScriptedRng([1, 2, 3])
        assert uniform_policy(t_max=3).sample("d", 1.0, rng) == [VOCAB.bos, 1, 2, 3, VOCAB.eos]
        assert len(rng.probs) == 3 and rng.answers == []

    def test_temperature_sharpening(self):
        policy = uniform_policy()
        adjust(policy, "d", (VOCAB.bos, VOCAB.bos), 0, +1.0)
        rng = ScriptedRng([VOCAB.eos])
        policy.sample("d", 0.5, rng)
        (probs,) = rng.probs
        # Proportional to (e^2, 1, ..., 1) over the 17 emittable tokens.
        expected0 = math.exp(2) / (math.exp(2) + 16)
        assert probs[0] == pytest.approx(expected0, rel=1e-12)
        assert probs[1] == pytest.approx(1 / (math.exp(2) + 16), rel=1e-12)
        assert probs[VOCAB.bos] == 0.0

    def test_rejects_bad_temperature(self):
        for sampler in (uniform_policy(), NoveltyTeacher(VOCAB, 8)):
            for tau in (0.0, -1.0, float("nan")):
                rng = np.random.default_rng(0)
                with pytest.raises(ValueError, match="temperature must be > 0"):
                    sampler.sample("d", tau, rng)
                assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestSample:
    def test_always_well_formed(self):
        rng = np.random.default_rng(0)
        policy = random_policy(rng)
        for seed in range(30):
            seq = policy.sample("dut", 1.3, np.random.default_rng(seed))
            assert seq[0] == VOCAB.bos and seq[-1] == VOCAB.eos
            interior = seq[1:-1]
            assert all(0 <= t < VOCAB.n_values for t in interior)
            assert len(interior) <= policy.t_max

    def test_determinism(self):
        policy = uniform_policy()
        s1 = policy.sample("d", 1.0, np.random.default_rng(7))
        s2 = policy.sample("d", 1.0, np.random.default_rng(7))
        assert s1 == s2

    def test_argmax_limit(self):
        # Token 5 strictly maximal in every reachable context: near-zero
        # temperature samples 5 until the forced EOS.
        policy = uniform_policy(t_max=4)
        for ctx in ((VOCAB.bos, VOCAB.bos), (VOCAB.bos, 5), (5, 5)):
            adjust(policy, "d", ctx, 5, +3.0)
        seq = policy.sample("d", 1e-3, np.random.default_rng(1))
        assert seq == [VOCAB.bos, 5, 5, 5, 5, VOCAB.eos]

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
            for seed in range(40):
                rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                seq = sampler.sample("d", 1.0, rng)
                twin.random(draws_spent(seq, t_max))
                assert rng.bit_generator.state == twin.bit_generator.state, (sampler, seed)
                forced += len(seq) - 2 == t_max
        assert forced > 0


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
        seq = policy.sample("dut", 1.0, np.random.default_rng(3))
        before = policy.log_prob("dut", seq)[0]
        boosted = policy.copy()
        for j in range(1, len(seq)):
            if j - 1 >= policy.t_max:
                continue
            ctx = boosted._contexts(seq[:j])
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
        assert_same_grad(policy.grad_log_prob("d", seq), step_by_step_grad(policy, "d", seq))

    def test_equals_step_by_step_on_many_sequences(self):
        # np.log differs from math.log in the last bit on a few in 10^4
        # arguments; thousands of fresh rows make such a slip show.  Logits
        # <= 0 give a zero shift, so a slip in the log is not rounded away.
        rng = np.random.default_rng(13)
        for _ in range(4000):
            interior = rng.integers(0, VOCAB.n_values, rng.integers(0, 9)).tolist()
            seq = [VOCAB.bos, *interior, VOCAB.eos]
            policy = uniform_policy()
            for j in range(1, len(seq)):
                set_logits(policy, "dut", policy._contexts(seq[:j]),
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
        grad = policy.grad_log_prob("dut", seq)
        assert list(grad.data) == [("dut", (VOCAB.bos,)), ("dut", (3,))]
        assert_same_grad(grad, step_by_step_grad(policy, "dut", seq))


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
        expected = step_by_step_grad(policy, "dut", seq)
        grad = policy.grad_log_prob("dut", seq)
        for vec in grad.data.values():
            vec[:] = 7.0
        grad.add_scaled(grad, 3.0)
        assert_same_grad(policy.grad_log_prob("dut", seq), expected)

        policy.apply_update(grad, 0.5)
        table = {key: vec.copy() for key, vec in policy.table.items()}
        for vec in grad.data.values():
            vec[:] = -1.0
        assert policy.table.keys() == table.keys()
        for key, vec in table.items():
            assert np.array_equal(policy.table[key], vec)

    def test_updated_policy_scores_with_new_logits(self):
        policy = random_policy(np.random.default_rng(11))
        seq = [VOCAB.bos, 4, 4, VOCAB.eos]
        before = policy.log_prob("dut", seq)
        policy.grad_log_prob("dut", seq)
        adjust(policy, "dut", (VOCAB.bos, VOCAB.bos), 4, +1.0)
        adjust(policy, "dut", (4, 4), VOCAB.eos, -2.0)
        after = policy.log_prob("dut", seq)
        assert after != before
        assert after == step_by_step_log_prob(policy, "dut", seq)
        assert_same_grad(policy.grad_log_prob("dut", seq), step_by_step_grad(policy, "dut", seq))

    def test_add_scaled_does_not_alias_its_input(self):
        source = SparseGrad()
        source.data[("d", (0, 1))] = np.ones(4)
        target = SparseGrad()
        target.add_scaled(source, 1.0)
        target.add_scaled(source, 2.0)
        assert target.entry("d", (0, 1), 0) == 3.0
        assert source.entry("d", (0, 1), 0) == 1.0


class TestGradLogProb:
    def test_uniform_single_step(self):
        policy = uniform_policy()
        grad = policy.grad_log_prob("d", [VOCAB.bos, 3, VOCAB.eos])
        ctx0 = (VOCAB.bos, VOCAB.bos)
        assert grad.entry("d", ctx0, 3) == pytest.approx(1 - 1 / 17, abs=1e-15)
        assert grad.entry("d", ctx0, 0) == pytest.approx(-1 / 17, abs=1e-15)
        assert grad.entry("d", ctx0, VOCAB.bos) == 0.0

    def test_entries_sum_to_zero_per_context(self):
        rng = np.random.default_rng(4)
        policy = random_policy(rng)
        seq = policy.sample("dut", 1.0, np.random.default_rng(5))
        if len(seq) == 2:
            seq = [VOCAB.bos, 0, VOCAB.eos]
        grad = policy.grad_log_prob("dut", seq)
        for vec in grad.data.values():
            assert abs(vec.sum()) < 1e-12

    def test_finite_differences(self):
        eps = 1e-4
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            policy = random_policy(rng)
            seq = policy.sample("dut", 1.0, np.random.default_rng(200 + trial))
            if len(seq) == 2:
                continue
            grad = policy.grad_log_prob("dut", seq)
            for (dut_id, ctx), vec in grad.data.items():
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
        sample_rng = np.random.default_rng(99)
        counts = {(0,): 0, (1,): 0}
        for _ in range(n):
            seq = policy.sample("dut", 1.0, sample_rng)
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
        for seed in range(10):
            seq = policy.sample("dut", 1.0, np.random.default_rng(seed))
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
        loaded = TabularPolicy.load(path)
        assert loaded.vocab == policy.vocab
        assert loaded.k == policy.k and loaded.t_max == policy.t_max
        assert set(loaded.table) == set(policy.table)
        for key, vec in policy.table.items():
            assert np.array_equal(loaded.table[key], vec)
        # Save of the loaded policy is byte-identical.
        path2 = tmp_path / "policy2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "other/9"}')
        with pytest.raises(ValueError):
            TabularPolicy.load(path)

    @pytest.mark.parametrize("doc, message", BAD_CHECKPOINTS)
    def test_malformed_checkpoint_names_field(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            TabularPolicy.load(path)

    def test_non_finite_logit_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "tabular_policy/1", "wmax": 1, "k": 1, "t_max": 2,'
                        ' "table": [["d", [0], [0.0, NaN, 1.0, 2.0]]]}')
        with pytest.raises(ValueError, match=r"table\[0\] row holds a logit that is not"):
            TabularPolicy.load(path)

    def test_deep_nesting_names_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="maximum recursion depth exceeded") as exc:
            TabularPolicy.load(path)
        assert str(path) in str(exc.value)


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


class TestSparseGrad:
    def test_add_and_scale(self):
        g1 = SparseGrad()
        g1.data[("d", (0, 1))] = np.arange(4.0)
        g2 = SparseGrad()
        g2.data[("d", (0, 1))] = np.ones(4)
        g2.data[("d", (2, 2))] = np.ones(4)
        g1.add_scaled(g2, 2.0)
        assert g1.entry("d", (0, 1), 3) == 5.0
        assert g1.entry("d", (2, 2), 0) == 2.0
        assert g1.entry("d", (9, 9), 0) == 0.0
        scaled = SparseGrad()
        scaled.add_scaled(g1, -1.0)
        assert scaled.entry("d", (0, 1), 3) == -5.0

    def test_norm(self):
        g = SparseGrad()
        g.data[("d", (0, 0))] = np.array([3.0, 4.0])
        assert g.norm() == 5.0
