import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import covstim
from covstim import policy as policy_module
from covstim.codec import Vocab
from covstim.policy import ReferencePolicy, TabularPolicy
from covstim.training import (
    PreferencePair,
    TrainConfig,
    TrainingError,
    cddpo_loss,
    dpo_loss,
    gap_range,
    implicit_reward,
    normalize_gap,
    pair_gradient,
    sft_gradient,
    sft_loss,
    train,
)

VOCAB = Vocab(4)
BOS, EOS = VOCAB.bos, VOCAB.eos


class FixedLogProb:
    """Scoring stub with prescribed sequence log-probabilities."""

    def __init__(self, table):
        self.table = {tuple(k): v for k, v in table.items()}

    def log_prob(self, dut_id, seq):
        return self.table[tuple(seq)], []


def make_pair(chosen=(BOS, 1, EOS), rejected=(BOS, 3, EOS), s_p=0.85, s_np=0.45):
    return PreferencePair("dut", "", tuple(chosen), tuple(rejected), s_p, s_np)


def random_policy(rng, n_contexts=10, k=2, t_max=8):
    policy = TabularPolicy(VOCAB, k=k, t_max=t_max)
    for _ in range(n_contexts):
        ctx = tuple(int(t) for t in rng.integers(0, VOCAB.size, k))
        policy.set_logits("dut", ctx, rng.normal(0, 1, VOCAB.size))
    return policy


def random_pair(rng, t_max=8):
    def seq():
        n = int(rng.integers(1, t_max + 1))
        return (BOS, *(int(t) for t in rng.integers(0, VOCAB.n_values, n)), EOS)

    s_np = float(rng.uniform(0, 0.9))
    s_p = float(rng.uniform(s_np + 0.01, 1.0))
    return PreferencePair("dut", "", seq(), seq(), s_p, s_np)


class TestImplicitReward:
    def test_zero_at_reference(self):
        policy = random_policy(np.random.default_rng(0))
        ref = ReferencePolicy(policy)
        for seed in range(5):
            seq = policy.sample("dut", 1.0, np.random.default_rng(seed))
            assert implicit_reward(policy, ref, "dut", seq) == 0.0

    def test_boost_gives_positive_reward(self):
        policy = TabularPolicy(VOCAB)
        ref = ReferencePolicy(policy)
        seq = [BOS, 1, EOS]
        policy.adjust("dut", (BOS, BOS), 1, +0.5)
        policy.adjust("dut", (BOS, 1), EOS, +0.5)
        assert implicit_reward(policy, ref, "dut", seq) > 0

    def test_equals_log_prob_difference(self):
        rng = np.random.default_rng(1)
        theta = random_policy(rng)
        ref = ReferencePolicy(random_policy(rng))
        seq = theta.sample("dut", 1.0, np.random.default_rng(2))
        expected = theta.log_prob("dut", seq)[0] - ref.log_prob("dut", seq)[0]
        assert implicit_reward(theta, ref, "dut", seq) == pytest.approx(expected, abs=1e-15)


class TestDpoLoss:
    def test_ln2_at_reference(self):
        policy = random_policy(np.random.default_rng(3))
        ref = ReferencePolicy(policy)
        bd = dpo_loss(policy, ref, make_pair(), beta=0.2)
        assert bd.loss == pytest.approx(math.log(2), abs=1e-12)
        assert bd.beta_star == 0.2

    def test_closed_form(self):
        theta = FixedLogProb({(BOS, 1, EOS): -2.0, (BOS, 3, EOS): -3.5})
        ref = FixedLogProb({(BOS, 1, EOS): -3.0, (BOS, 3, EOS): -3.0})
        bd = dpo_loss(theta, ref, make_pair(), beta=0.2)
        assert bd.r_w == 1.0 and bd.r_l == -0.5
        assert bd.margin == pytest.approx(0.3, abs=1e-15)
        assert bd.loss == pytest.approx(-math.log(1 / (1 + math.exp(-0.3))), abs=1e-12)
        assert bd.loss == pytest.approx(0.554355, abs=1e-6)

    def test_beta_to_zero_limit(self):
        theta = FixedLogProb({(BOS, 1, EOS): -2.0, (BOS, 3, EOS): -3.5})
        ref = FixedLogProb({(BOS, 1, EOS): -3.0, (BOS, 3, EOS): -3.0})
        loss = dpo_loss(theta, ref, make_pair(), beta=1e-12).loss
        assert loss == pytest.approx(math.log(2), abs=1e-9)

    def test_rejects_nonpositive_beta(self):
        policy = TabularPolicy(VOCAB)
        with pytest.raises(ValueError):
            dpo_loss(policy, ReferencePolicy(policy), make_pair(), beta=0.0)


class TestCddpoLoss:
    def test_closed_form_identity_clamp(self):
        theta = FixedLogProb({(BOS, 1, EOS): -2.0, (BOS, 3, EOS): -3.5})
        ref = FixedLogProb({(BOS, 1, EOS): -3.0, (BOS, 3, EOS): -3.0})
        bd = cddpo_loss(theta, ref, make_pair(s_p=0.85, s_np=0.45), beta=0.2)
        assert bd.beta_star == pytest.approx(0.08, abs=1e-15)
        assert bd.margin == pytest.approx(0.12, abs=1e-12)
        assert bd.loss == pytest.approx(0.634946, abs=1e-6)

    def test_reduces_to_dpo_with_degenerate_minmax(self):
        rng = np.random.default_rng(4)
        theta = random_policy(rng)
        ref = ReferencePolicy(random_policy(rng))
        for trial in range(20):
            pair = random_pair(np.random.default_rng(trial))
            # Degenerate bounds force f = 1 for every pair.
            bd_cd = cddpo_loss(theta, ref, pair, 0.2, "dataset_minmax", bounds=(0.3, 0.3))
            bd_dpo = dpo_loss(theta, ref, pair, 0.2)
            assert abs(bd_cd.loss - bd_dpo.loss) < 1e-12

    def test_vanishing_gap_gives_ln2(self):
        rng = np.random.default_rng(5)
        theta = random_policy(rng)
        ref = ReferencePolicy(random_policy(rng))
        pair = make_pair(s_p=0.5 + 1e-13, s_np=0.5)
        bd = cddpo_loss(theta, ref, pair, 0.2)
        assert bd.loss == pytest.approx(math.log(2), abs=1e-9)
        grad = pair_gradient(theta, pair, bd)
        assert grad.norm() < 1e-10

    def test_unknown_variant_rejected(self):
        policy = TabularPolicy(VOCAB)
        with pytest.raises(ValueError):
            cddpo_loss(policy, ReferencePolicy(policy), make_pair(), 0.2, "sigmoid")

    def test_minmax_normalizer(self):
        pairs = [make_pair(s_p=0.6, s_np=0.5), make_pair(s_p=0.9, s_np=0.2)]
        bounds = gap_range(pairs)
        assert bounds == (pytest.approx(0.1), pytest.approx(0.7))
        assert normalize_gap(0.1, "dataset_minmax", bounds) == pytest.approx(0.0)
        assert normalize_gap(0.7, "dataset_minmax", bounds) == pytest.approx(1.0)
        assert normalize_gap(0.4, "dataset_minmax", bounds) == pytest.approx(0.5)


class TestPairGradient:
    def test_zero_beta_star(self):
        policy = random_policy(np.random.default_rng(6))
        ref = ReferencePolicy(policy)
        bd = dpo_loss(policy, ref, make_pair(), 0.2)
        grad = pair_gradient(policy, make_pair(), replace(bd, beta_star=0.0))
        assert grad.norm() == 0.0

    def test_finite_differences(self):
        eps = 1e-4
        for trial in range(8):
            rng = np.random.default_rng(300 + trial)
            theta = random_policy(rng)
            ref = ReferencePolicy(random_policy(rng))
            pair = random_pair(rng)
            bd = cddpo_loss(theta, ref, pair, 0.2)
            grad = pair_gradient(theta, pair, bd)
            for (dut_id, ctx), vec in grad.data.items():
                for token in range(VOCAB.size):
                    if vec[token] == 0.0 and token == BOS:
                        continue
                    plus = theta.copy()
                    plus.adjust(dut_id, ctx, token, +eps)
                    minus = theta.copy()
                    minus.adjust(dut_id, ctx, token, -eps)
                    numeric = (cddpo_loss(plus, ref, pair, 0.2).loss
                               - cddpo_loss(minus, ref, pair, 0.2).loss) / (2 * eps)
                    scale = max(abs(numeric), abs(vec[token]), 1e-8)
                    assert abs(numeric - vec[token]) / scale < 1e-6

    def test_disagreement_scaling(self):
        # With r_l >= r_w, gradient norm is non-decreasing in beta*.
        for trial in range(20):
            rng = np.random.default_rng(400 + trial)
            theta = random_policy(rng)
            ref = ReferencePolicy(TabularPolicy(VOCAB))
            pair = random_pair(rng)
            r_w = implicit_reward(theta, ref, "dut", pair.chosen)
            r_l = implicit_reward(theta, ref, "dut", pair.rejected)
            if r_l < r_w:
                pair = PreferencePair("dut", "", pair.rejected, pair.chosen,
                                      pair.s_p, pair.s_np)
            bd = dpo_loss(theta, ref, pair, 0.2)
            norms = [pair_gradient(theta, pair, replace(bd, beta_star=b)).norm()
                     for b in (0.0, 0.05, 0.1, 0.15, 0.2)]
            assert norms[0] == 0.0
            assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_descent_step_increases_preference_margin(self):
        rng = np.random.default_rng(9)
        theta = random_policy(rng)
        ref = ReferencePolicy(theta)
        # Make the model disagree: boost the rejected sequence.
        pair = make_pair(chosen=(BOS, 1, EOS), rejected=(BOS, 3, EOS))
        theta.adjust("dut", (BOS, BOS), 3, +1.0)
        r_w = implicit_reward(theta, ref, "dut", pair.chosen)
        r_l = implicit_reward(theta, ref, "dut", pair.rejected)
        assert r_l > r_w
        grad = pair_gradient(theta, pair, dpo_loss(theta, ref, pair, 0.2))
        theta.apply_update(grad, -0.1)
        r_w2 = implicit_reward(theta, ref, "dut", pair.chosen)
        r_l2 = implicit_reward(theta, ref, "dut", pair.rejected)
        assert r_w2 - r_l2 > r_w - r_l


class TestSftLoss:
    def test_uniform_closed_form(self):
        policy = TabularPolicy(VOCAB)
        loss = sft_loss(policy, [make_pair(chosen=(BOS, 1, EOS))])
        assert loss == pytest.approx(2 * math.log(17), abs=1e-12)

    def test_approaches_zero_with_confident_policy(self):
        policy = TabularPolicy(VOCAB)
        policy.adjust("dut", (BOS, BOS), 1, +30.0)
        policy.adjust("dut", (BOS, 1), EOS, +30.0)
        loss = sft_loss(policy, [make_pair(chosen=(BOS, 1, EOS))])
        assert 0 <= loss < 1e-10

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            sft_loss(TabularPolicy(VOCAB), [])
        with pytest.raises(ValueError):
            sft_gradient(TabularPolicy(VOCAB), [])

    def test_finite_differences(self):
        eps = 1e-4
        rng = np.random.default_rng(10)
        theta = random_policy(rng)
        batch = [random_pair(np.random.default_rng(500 + i)) for i in range(3)]
        grad = sft_gradient(theta, batch)
        for (dut_id, ctx), vec in grad.data.items():
            for token in range(VOCAB.size):
                plus = theta.copy()
                plus.adjust(dut_id, ctx, token, +eps)
                minus = theta.copy()
                minus.adjust(dut_id, ctx, token, -eps)
                numeric = (sft_loss(plus, batch) - sft_loss(minus, batch)) / (2 * eps)
                scale = max(abs(numeric), abs(vec[token]), 1e-8)
                assert abs(numeric - vec[token]) / scale < 1e-6


class TestTrain:
    def test_cddpo_single_pair_loss_decreases(self):
        config = TrainConfig(mode="CDDPO", epochs=100, learning_rate=0.5,
                             batch_size=1, seed=0)
        result = train([make_pair()], config, TabularPolicy(VOCAB))
        assert result.history.epoch_loss[-1] < result.history.epoch_loss[0]

    def test_sft_full_batch_non_increasing(self):
        pairs = [make_pair(chosen=(BOS, 2, 5, EOS))] * 4
        config = TrainConfig(mode="SFT", epochs=40, learning_rate=0.1,
                             batch_size=4, seed=0)
        result = train(pairs, config, TabularPolicy(VOCAB))
        losses = result.history.epoch_loss
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_determinism(self, tmp_path):
        pairs = [random_pair(np.random.default_rng(600 + i)) for i in range(10)]
        config = TrainConfig(mode="CDDPO", epochs=10, batch_size=4, seed=7)
        r1 = train(pairs, config, TabularPolicy(VOCAB))
        r2 = train(pairs, config, TabularPolicy(VOCAB))
        assert r1.history.to_dict() == r2.history.to_dict()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        r1.policy.save(p1)
        r2.policy.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_history_identical_across_hash_seeds(self, tmp_path):
        # Policy tables are dicts keyed by strings, whose iteration order
        # follows PYTHONHASHSEED; no float result may depend on it.
        script = (
            "import json, sys\n"
            "from covstim.codec import Vocab\n"
            "from covstim.corpus import load_bundled_corpus\n"
            "from covstim.curation import CurationConfig, curate, load_dataset\n"
            "from covstim.policy import TabularPolicy\n"
            "from covstim.training import TrainConfig, train\n"
            "curate(load_bundled_corpus(), CurationConfig(pairs_per_dut=40, seed=3), sys.argv[1])\n"
            "result = train(load_dataset(sys.argv[1]), TrainConfig(epochs=2, seed=3),\n"
            "               TabularPolicy(Vocab(4), 2, 8))\n"
            "print(json.dumps(result.history.to_dict()))\n"
        )
        src = str(Path(covstim.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            run = subprocess.run([sys.executable, "-c", script, str(tmp_path / f"{hash_seed}.jsonl")],
                                 env=env, capture_output=True, check=True, timeout=120)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_history_shape_and_config_echo(self):
        config = TrainConfig(mode="DPO", epochs=5, batch_size=2, seed=1)
        result = train([make_pair()], config, TabularPolicy(VOCAB))
        assert len(result.history.epoch_loss) == 5
        assert len(result.history.epoch_update_norm) == 5
        assert result.history.config["beta"] == 0.2
        assert result.history.config["mode"] == "DPO"
        json.dumps(result.history.to_dict())  # serializable

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train([], TrainConfig(), TabularPolicy(VOCAB))

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_step_counts_validated(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["beta", "learning_rate"])
    def test_rates_finite_and_positive(self, field):
        for value in (0, -1.0, math.nan, math.inf, 10**400):
            with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
                TrainConfig(**{field: value})

    def test_each_distinct_sequence_checked_once(self, monkeypatch):
        checked = []

        def counting_check(tokens, vocab, t_max):
            checked.append(tuple(tokens))
            return check_well_formed(tokens, vocab, t_max)

        check_well_formed = policy_module.check_well_formed
        monkeypatch.setattr(policy_module, "check_well_formed", counting_check)
        policy_module._step_plan.cache_clear()
        pairs = [random_pair(np.random.default_rng(800 + i % 6)) for i in range(12)]
        train(pairs, TrainConfig(mode="DPO", epochs=3, batch_size=4, seed=1), TabularPolicy(VOCAB))
        distinct = {seq for p in pairs for seq in (p.chosen, p.rejected)}
        assert sorted(checked) == sorted(distinct)

    def test_post_sft_reference(self):
        pairs = [make_pair(chosen=(BOS, 1, EOS), rejected=(BOS, 3, EOS))]
        config = TrainConfig(mode="CDDPO", epochs=5, batch_size=1, seed=2,
                             ref_source="post_sft_policy")
        result = train(pairs, config, TabularPolicy(VOCAB))
        assert len(result.history.epoch_loss) == 5

    def test_tie_pair_rejected_upstream(self):
        with pytest.raises(ValueError):
            PreferencePair("d", "", (BOS, 1, EOS), (BOS, 0, EOS), 0.5, 0.5)

    def test_loss_positive(self):
        rng = np.random.default_rng(13)
        theta = random_policy(rng)
        ref = ReferencePolicy(random_policy(rng))
        for trial in range(20):
            pair = random_pair(np.random.default_rng(700 + trial))
            assert dpo_loss(theta, ref, pair, 0.2).loss > 0
            assert cddpo_loss(theta, ref, pair, 0.2).loss > 0
        assert sft_loss(theta, [make_pair()]) >= 0
