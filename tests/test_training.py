import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covstim
from covstim import policy as policy_module
from covstim import training as training_module
from covstim.codec import Vocab
from covstim.policy import ReferencePolicy, Streams, TabularPolicy
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
    preference_loss,
    sft_loss,
    train,
    _Compiled,
)

from policy_helpers import adjust, logits, norm, pair_grad, set_logits, sft_grad
from reference_trainer import reference_train

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
        set_logits(policy, "dut", ctx, rng.normal(0, 1, VOCAB.size))
    return policy


def reward(theta, ref, seq, dut_id="dut"):
    return implicit_reward(theta.log_prob(dut_id, seq)[0], ref.log_prob(dut_id, seq)[0])


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
        for seq in policy.sample("dut", 1.0, Streams([], range(5), policy.t_max)):
            assert reward(policy, ref, seq) == 0.0

    def test_boost_gives_positive_reward(self):
        policy = TabularPolicy(VOCAB)
        ref = ReferencePolicy(policy)
        seq = [BOS, 1, EOS]
        adjust(policy, "dut", (BOS, BOS), 1, +0.5)
        adjust(policy, "dut", (BOS, 1), EOS, +0.5)
        assert reward(policy, ref, seq) > 0

    def test_equals_log_prob_difference(self):
        rng = np.random.default_rng(1)
        theta = random_policy(rng)
        ref = ReferencePolicy(random_policy(rng))
        (seq,) = theta.sample("dut", 1.0, Streams([], [2], theta.t_max))
        expected = theta.log_prob("dut", seq)[0] - ref.log_prob("dut", seq)[0]
        assert reward(theta, ref, seq) == pytest.approx(expected, abs=1e-15)

    def test_elementwise_over_a_batch(self):
        rewards = implicit_reward(np.array([-1.0, -2.5]), np.array([-3.0, -2.0]))
        assert rewards.tolist() == [2.0, -0.5]


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
        assert norm(pair_grad(theta, pair, bd)) < 1e-10

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
        with pytest.raises(ValueError, match="dataset_minmax requires precomputed gap bounds"):
            normalize_gap(0.4, "dataset_minmax")


class TestPairGradient:
    def test_zero_beta_star(self):
        policy = random_policy(np.random.default_rng(6))
        ref = ReferencePolicy(policy)
        bd = dpo_loss(policy, ref, make_pair(), 0.2)
        grad = pair_grad(policy, make_pair(), replace(bd, beta_star=0.0))
        assert norm(grad) == 0.0

    def test_negative_beta_star_rejected(self):
        with pytest.raises(ValueError, match="beta_star must be >= 0"):
            pair_gradient(np.array([0.5]), np.array([0.0]), np.array([-0.1]))

    @pytest.mark.parametrize("beta_star", [math.nan, np.array([0.2, math.nan, 0.1])])
    def test_nan_beta_star_rejected(self, beta_star):
        n = np.size(beta_star)
        with pytest.raises(ValueError, match="beta_star must be >= 0"):
            pair_gradient(np.full(n, 0.5), np.zeros(n), beta_star)

    @pytest.mark.parametrize("beta_star", [0.0, 1e-3, 0.2, 1.0, 4.0])
    def test_weight_equals_closed_form(self, beta_star):
        """The weight is -beta* / (1 + e^margin) to a relative error of 1e-15.

        The reference is that closed form in 60-digit arithmetic at the margin
        the loss uses, beta* (r_w - r_l) rounded once.  The margins run densely
        over [-40, 40], where a form that exponentiates a rounded log1p term
        errs by up to ~4e-15, and out to +-1e3, where e^margin overflows.  A
        weight below the smallest normal double cannot hold 15 digits, so there
        the bound is 1e-15 of the smallest normal (about 4 subnormal steps).
        """
        wide = np.geomspace(40, 1e3, 200)
        margins = np.concatenate([np.linspace(-40, 40, 2001), wide, -wide,
                                  [709.78, 720.0, 745.0, 750.0, -745.0, 1e-300, -1e-300]])
        r_w = margins / beta_star if beta_star else margins
        bd = preference_loss(r_w, np.zeros_like(r_w), np.full_like(r_w, beta_star))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = pair_gradient(bd.r_w, bd.r_l, bd.beta_star)
        tiny = mpmath.mpf(np.finfo(float).tiny)
        with mpmath.workdps(60):
            for margin, weight in zip(bd.margin.tolist(), weights.tolist()):
                exact = -mpmath.mpf(beta_star) / (1 + mpmath.exp(mpmath.mpf(margin)))
                error = abs(mpmath.mpf(weight) - exact)
                assert error <= 1e-15 * max(abs(exact), tiny), (margin, weight)
        # A batch weighs each pair exactly as a batch of one does.
        for i in range(0, len(r_w), 97):
            assert pair_gradient(float(r_w[i]), 0.0, beta_star) == weights[i]

    def test_batch_equals_pair_by_pair(self):
        rng = np.random.default_rng(14)
        r_w, r_l, beta_star = rng.normal(0, 3, 8), rng.normal(0, 3, 8), rng.uniform(0, 1, 8)
        batch = preference_loss(r_w, r_l, beta_star)
        weights = pair_gradient(r_w, r_l, beta_star)
        for i in range(8):
            one = preference_loss(float(r_w[i]), float(r_l[i]), float(beta_star[i]))
            assert (one.margin, one.loss) == (batch.margin[i], batch.loss[i])
            assert pair_gradient(one.r_w, one.r_l, one.beta_star) == weights[i]

    def test_finite_differences(self):
        eps = 1e-4
        for trial in range(8):
            rng = np.random.default_rng(300 + trial)
            theta = random_policy(rng)
            ref = ReferencePolicy(random_policy(rng))
            pair = random_pair(rng)
            bd = cddpo_loss(theta, ref, pair, 0.2)
            grad = pair_grad(theta, pair, bd)
            for (dut_id, ctx), vec in grad.items():
                for token in range(VOCAB.size):
                    if vec[token] == 0.0 and token == BOS:
                        continue
                    plus = theta.copy()
                    adjust(plus, dut_id, ctx, token, +eps)
                    minus = theta.copy()
                    adjust(minus, dut_id, ctx, token, -eps)
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
            r_w = reward(theta, ref, pair.chosen)
            r_l = reward(theta, ref, pair.rejected)
            if r_l < r_w:
                pair = PreferencePair("dut", "", pair.rejected, pair.chosen,
                                      pair.s_p, pair.s_np)
            bd = dpo_loss(theta, ref, pair, 0.2)
            norms = [norm(pair_grad(theta, pair, replace(bd, beta_star=b)))
                     for b in (0.0, 0.05, 0.1, 0.15, 0.2)]
            assert norms[0] == 0.0
            assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_descent_step_increases_preference_margin(self):
        rng = np.random.default_rng(9)
        theta = random_policy(rng)
        ref = ReferencePolicy(theta)
        # Make the model disagree: boost the rejected sequence.
        pair = make_pair(chosen=(BOS, 1, EOS), rejected=(BOS, 3, EOS))
        adjust(theta, "dut", (BOS, BOS), 3, +1.0)
        r_w = reward(theta, ref, pair.chosen)
        r_l = reward(theta, ref, pair.rejected)
        assert r_l > r_w
        for (dut_id, ctx), vec in pair_grad(theta, pair, dpo_loss(theta, ref, pair, 0.2)).items():
            set_logits(theta, dut_id, ctx, logits(theta, dut_id, ctx) - 0.1 * vec)
        r_w2 = reward(theta, ref, pair.chosen)
        r_l2 = reward(theta, ref, pair.rejected)
        assert r_w2 - r_l2 > r_w - r_l


class TestSftLoss:
    def test_uniform_closed_form(self):
        policy = TabularPolicy(VOCAB)
        loss = sft_loss(policy, [make_pair(chosen=(BOS, 1, EOS))])
        assert loss == pytest.approx(2 * math.log(17), abs=1e-12)

    def test_approaches_zero_with_confident_policy(self):
        policy = TabularPolicy(VOCAB)
        adjust(policy, "dut", (BOS, BOS), 1, +30.0)
        adjust(policy, "dut", (BOS, 1), EOS, +30.0)
        loss = sft_loss(policy, [make_pair(chosen=(BOS, 1, EOS))])
        assert 0 <= loss < 1e-10

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            sft_loss(TabularPolicy(VOCAB), [])

    def test_finite_differences(self):
        eps = 1e-4
        rng = np.random.default_rng(10)
        theta = random_policy(rng)
        batch = [random_pair(np.random.default_rng(500 + i)) for i in range(3)]
        grad = sft_grad(theta, batch)
        for (dut_id, ctx), vec in grad.items():
            for token in range(VOCAB.size):
                plus = theta.copy()
                adjust(plus, dut_id, ctx, token, +eps)
                minus = theta.copy()
                adjust(minus, dut_id, ctx, token, -eps)
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
            "corpus, run = load_bundled_corpus(), CurationConfig(pairs_per_dut=40, seed=3)\n"
            "curate(corpus, run, sys.argv[1])\n"
            "result = train(load_dataset(sys.argv[1], run, corpus),\n"
            "               TrainConfig(epochs=2, seed=3), TabularPolicy(Vocab(4), 2, 8))\n"
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

    def test_non_finite_loss_rejected(self):
        pairs = [random_pair(np.random.default_rng(980 + i)) for i in range(4)]
        config = TrainConfig(mode="SFT", learning_rate=1e308, epochs=2, batch_size=2, seed=0)
        with pytest.raises(TrainingError, match="non-finite loss inf at epoch 0"):
            train(pairs, config, TabularPolicy(VOCAB))

    @pytest.mark.parametrize("mode", ["SFT", "DPO", "CDDPO"])
    def test_diverged_run_rejected(self, mode):
        # One batch an epoch: epoch 0's loss is finite, its update is not.
        pairs = [random_pair(np.random.default_rng(980 + i)) for i in range(4)]
        config = TrainConfig(mode=mode, learning_rate=1e300, epochs=2, batch_size=4, beta=1.0)
        with pytest.raises(TrainingError, match="training diverged at epoch 0: update norm inf"):
            train(pairs, config, TabularPolicy(VOCAB))

    @pytest.mark.parametrize("mode", ["SFT", "CDDPO"])
    def test_huge_batch_size_trains_one_batch(self, mode):
        # A batch size past the dataset size, even past numpy's largest
        # dimension, trains as one batch of every pair.
        pairs = [random_pair(np.random.default_rng(900 + i)) for i in range(7)]
        results = [train(pairs, TrainConfig(mode=mode, epochs=3, batch_size=size, seed=2),
                         TabularPolicy(VOCAB)) for size in (len(pairs), 2**62, 2**63)]
        # The histories differ only in the batch_size their config records.
        histories = [{**r.history.to_dict(), "config": None} for r in results]
        assert histories[1] == histories[2] == histories[0]
        for result in results[1:]:
            assert np.array_equal(result.policy.theta, results[0].policy.theta)

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


def pin_dataset():
    """Pairs over three designs that share sequences and contexts.

    Vocab(2) with t_max 3: interiors of up to 3 values, so contexts repeat
    within and across sequences and the forced-EOS step is reached.  Pairs
    3 and 11 share the smallest gap, so dataset_minmax gives them beta* = 0;
    pair 11 is the only one on design "lone".
    """
    vocab = Vocab(2)
    rng = np.random.default_rng(21)
    pool = [(vocab.bos, *rng.integers(0, vocab.n_values, rng.integers(0, 4)).tolist(), vocab.eos)
            for _ in range(14)]
    pairs = []
    for i in range(23):
        chosen, rejected = (pool[j] for j in rng.choice(len(pool), 2, replace=False))
        s_np = int(rng.integers(0, 32)) / 64  # dyadic, so the gap 1/16 is exact
        gap = 1 / 16 if i in (3, 11) else float(rng.uniform(0.07, 0.5))
        dut_id = "lone" if i == 11 else f"d{i % 3}"  # only a beta* = 0 pair uses "lone"
        pairs.append(PreferencePair(dut_id, "", chosen, rejected, s_np + gap, s_np))
    init = TabularPolicy(vocab, 2, 3)
    for ctx in ((vocab.bos, vocab.bos), (vocab.bos, 1), (2, 2)):
        set_logits(init, "d0", ctx, rng.normal(0, 1, vocab.size))
    return pairs, init


PIN_CONFIGS = [("SFT", "identity_clamp", "initial_policy")] + [
    (mode, f_variant, ref_source) for mode in ("DPO", "CDDPO")
    for f_variant in ("identity_clamp", "dataset_minmax")
    for ref_source in ("initial_policy", "post_sft_policy")]


class TestReferencePin:
    """The batched trainer against the per-pair loop it replaced (tests/reference_trainer.py).

    Under post_sft_policy the loop trains SFT inside; here SFT is trained
    first and the preference mode starts from its policy.
    """

    @pytest.mark.parametrize("mode, f_variant, ref_source", PIN_CONFIGS)
    def test_matches_per_pair_loop(self, mode, f_variant, ref_source):
        pairs, init = pin_dataset()
        config = TrainConfig(mode=mode, beta=0.5, f_variant=f_variant, learning_rate=1.5,
                             epochs=8, batch_size=5, seed=3, ref_source=ref_source)
        start = init
        if ref_source == "post_sft_policy":
            start = train(pairs, replace(config, mode="SFT"), init).policy
        result = train(pairs, config, start)
        table, history = reference_train(pairs, config, init)
        got = result.policy.table
        assert set(got) == set(table)
        assert max(float(np.abs(got[key] - vec).max()) for key, vec in table.items()) <= 1e-12
        for name in ("epoch_loss", "epoch_update_norm", "epoch_mean_margin"):
            ours = getattr(result.history, name)
            assert len(ours) == len(history[name])
            assert all(abs(a - b) <= 1e-12 for a, b in zip(ours, history[name])), name
        assert result.history.epoch_pref_accuracy == history["epoch_pref_accuracy"]

    def test_minmax_leaves_zero_beta_pairs_without_rows(self):
        # Under dataset_minmax the two smallest-gap pairs get beta* = 0 and no
        # update, so contexts only they use get no row, as in the per-pair loop.
        pairs, init = pin_dataset()
        config = TrainConfig(mode="CDDPO", f_variant="dataset_minmax", epochs=2, batch_size=5)
        keys = set(train(pairs, config, init).policy.rows)
        expected, every = init.copy(), init.copy()
        expected.add_rows((p.dut_id, seq) for i, p in enumerate(pairs) if i not in (3, 11)
                          for seq in (p.chosen, p.rejected))
        every.add_rows((p.dut_id, seq) for p in pairs for seq in (p.chosen, p.rejected))
        assert keys == set(expected.rows) != set(every.rows)


class TestPassCap:
    """PASS_KEYS bounds only the memory of a layout pass: at its minimum (a batch a pass),
    at three batches a pass (passes that end inside epochs) and at 2**40 (one pass), every
    checkpoint, history and error is the default's, byte for byte."""

    @staticmethod
    def caps(pairs, init, config):
        """The default cap, then the patched ones, for config's len(theta)."""
        width = len(train(pairs, replace(config, epochs=1, learning_rate=1.5), init).policy.theta)
        return training_module.PASS_KEYS, 1, 3 * width, 2**40

    # dataset_minmax gives pin_dataset's pairs 3 and 11 beta* = 0.
    @pytest.mark.parametrize("mode, f_variant", [("SFT", "identity_clamp"),
                                                 ("DPO", "identity_clamp"),
                                                 ("CDDPO", "dataset_minmax")])
    @pytest.mark.parametrize("batch_size", [1, 5, 23, 40])
    def test_runs_do_not_depend_on_it(self, tmp_path, mode, f_variant, batch_size):
        pairs, init = pin_dataset()  # 23 pairs: 7 epochs are no multiple of 3 batches
        config = TrainConfig(mode=mode, beta=0.5, f_variant=f_variant, learning_rate=1.5,
                             epochs=7, batch_size=batch_size, seed=3)
        runs = []
        for keys in self.caps(pairs, init, config):
            with patch.object(training_module, "PASS_KEYS", keys):
                result = train(pairs, config, init)
            path = tmp_path / f"{len(runs)}.json"
            result.policy.save(path)
            runs.append((path.read_bytes(), json.dumps(result.history.to_dict())))
        assert all(run == runs[0] for run in runs[1:])

    def test_divergence_at_the_same_epoch(self):
        # Epoch 4 of 5 batches each, which passes of three batches split.
        pairs, init = pin_dataset()
        config = TrainConfig(mode="SFT", learning_rate=1e154, epochs=7, batch_size=5, seed=3)
        messages = []
        for keys in self.caps(pairs, init, config):
            with patch.object(training_module, "PASS_KEYS", keys):
                with pytest.raises(TrainingError, match="diverged at epoch 4") as err:
                    train(pairs, config, init)
            messages.append(str(err.value))
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("layout", ["SFT", "preference"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bounds_each_pass(self, layout, data):
        """Each ``theta.batches`` call lays out at most max(1, PASS_KEYS // len(theta))
        batches, all of the epoch being handed over, and epoch e's batches come after exactly
        e + 1 permutations."""
        pool, init = pin_dataset()
        size = data.draw(st.integers(1, 30), label="N")
        pairs = [pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1),
                                                     min_size=size, max_size=size))]
        batch_size = data.draw(st.integers(1, size + 3), label="batch_size")
        epochs = data.draw(st.integers(1, 4), label="epochs")
        theta = init.copy()
        if layout == "SFT":
            compiled = _Compiled(pairs, theta, None, None)
        else:
            compiled = _Compiled(pairs, theta, ReferencePolicy(init), np.full(size, 0.5))
        width, per_epoch = len(theta.theta), -(-size // batch_size)
        # From no key at all (a batch a pass) to more than an epoch's keys.
        keys = data.draw(st.integers(0, (per_epoch + 2) * width), label="PASS_KEYS")
        cap = max(1, keys // width)
        calls = []  # (the epoch handed over, the steps one call laid out)
        original = TabularPolicy.batches

        def spy(policy, rows, targets, lens, counts):
            steps = original(policy, rows, targets, lens, counts)
            calls.append((epoch, steps))
            return steps

        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        with patch.object(training_module, "PASS_KEYS", keys), \
                patch.object(TabularPolicy, "batches", spy):
            for epoch, batches in enumerate(compiled.batches(rng, epochs, batch_size)):
                twin.permutation(size)
                assert rng.bit_generator.state == twin.bit_generator.state
                handed = [id(steps) for steps, _, _ in batches]
                laid_out = [id(steps) for e, call in calls if e == epoch for steps in call]
                assert handed == laid_out and len(handed) == per_epoch
                assert rng.bit_generator.state == twin.bit_generator.state
        assert epoch == epochs - 1
        assert all(1 <= len(call) <= cap for _, call in calls)


class TestEpochCompile:
    """Each batch that ``_Compiled.batches`` lays out in passes against ``theta.steps`` of the
    batch's items, and its views of its epoch's one gather of reference log-probs and beta*
    against per-batch gathers."""

    @pytest.mark.parametrize("layout", ["SFT", "preference"])
    @pytest.mark.parametrize("batching", ["one", "divisor", "non_divisor", "larger"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_batches_equal_steps_of_their_items(self, layout, batching, data):
        pool, init = pin_dataset()
        if batching == "divisor":  # several full batches, no short one
            batch_size = data.draw(st.integers(2, 15), label="batch_size")
            size = batch_size * data.draw(st.integers(2, 30 // batch_size), label="batches")
        else:
            size = data.draw(st.integers(3 if batching == "non_divisor" else 1, 30), label="N")
        # Indices repeat, so a batch can score one sequence twice.
        pairs = [pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1),
                                                     min_size=size, max_size=size))]
        if batching == "one":
            batch_size = 1
        elif batching == "larger":  # one batch: batch_size >= the dataset size
            batch_size = data.draw(st.integers(size, size + 5), label="batch_size")
        elif batching == "non_divisor":  # a short last batch
            batch_size = data.draw(st.integers(2, size - 1).filter(lambda b: size % b),
                                   label="batch_size")
        theta = init.copy()
        if layout == "SFT":
            compiled = _Compiled(pairs, theta, None, None)
        else:
            # beta* = 0 leaves a pair's contexts without rows, so steps read row -1.
            beta_star = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5]),
                                                    min_size=size, max_size=size)))
            compiled = _Compiled(pairs, theta, ReferencePolicy(init), beta_star)
        epochs = data.draw(st.integers(1, 4), label="epochs")
        # A pass of one batch, of a few batches that may end inside an epoch, or of an epoch.
        per_pass = data.draw(st.sampled_from([1, 2, 3, 5, 2**40]), label="batches per pass")
        pass_keys = min(per_pass * len(theta.theta), 2**40)
        seed = data.draw(st.integers(0, 2**32 - 1))
        with patch.object(training_module, "PASS_KEYS", pass_keys):
            batches = [batch for epoch in compiled.batches(np.random.default_rng(seed), epochs,
                                                           batch_size) for batch in epoch]
        twin = np.random.default_rng(seed)  # one permutation per epoch, drawn in order
        orders = [twin.permutation(size) for _ in range(epochs)]
        per_epoch = -(-size // batch_size)
        assert len(batches) == epochs * per_epoch
        for g, (steps, ref_log_probs, batch_beta) in enumerate(batches):
            b = g % per_epoch
            batch = orders[g // per_epoch][b * batch_size:(b + 1) * batch_size]
            items = [pairs[i] for i in batch]
            seqs = [(p.dut_id, p.chosen) for p in items]
            if layout != "SFT":
                seqs += [(p.dut_id, p.rejected) for p in items]
            expected, (rows, targets, _) = theta.steps(seqs), theta.plan(seqs)
            assert steps.n == expected.n == len(seqs)
            for name in ("owner", "touched", "slot", "cell"):
                assert np.array_equal(getattr(steps, name), getattr(expected, name)), name
            assert np.array_equal(steps.touched, np.unique(rows))
            assert np.array_equal(steps.touched[steps.slot], rows)
            assert np.array_equal(steps.cell, steps.slot * theta.vocab.size + targets)
            if layout == "SFT":
                assert ref_log_probs is None and batch_beta is None
                continue
            # The views equal the per-batch gathers they replace.
            seq_ids = compiled.seqs[:, batch].ravel()
            assert np.array_equal(ref_log_probs, compiled.ref_log_probs[seq_ids])
            assert np.array_equal(batch_beta, beta_star[batch])
            # The batches of an epoch view its one gather of each.
            first = batches[g - b]
            assert ref_log_probs.base is first[1].base is not None
            assert batch_beta.base is first[2].base is not None
        if layout != "SFT":
            bases = {id(ref_log_probs.base) for _, ref_log_probs, _ in batches}
            assert len(bases) == epochs


class TestTrainDiagnostics:
    def test_sft_checkpoint_has_no_row_for_rejected_only_context(self, tmp_path):
        # Only the rejected sequence passes through context (BOS, 3); SFT never
        # updates it, so neither the policy nor its checkpoint holds that row.
        pairs = [make_pair(chosen=(BOS, 1, EOS), rejected=(BOS, 3, EOS))] * 3
        result = train(pairs, TrainConfig(mode="SFT", epochs=3, batch_size=2), TabularPolicy(VOCAB))
        assert set(result.policy.rows) == {("dut", (BOS, BOS)), ("dut", (BOS, 1))}
        path = tmp_path / "sft.json"
        result.policy.save(path)
        saved = {(d, tuple(ctx)) for d, ctx, _ in json.loads(path.read_text())["table"]}
        assert saved == set(result.policy.rows)
        dpo = train(pairs, TrainConfig(mode="DPO", epochs=1), TabularPolicy(VOCAB))
        assert ("dut", (BOS, 3)) in dpo.policy.rows

    def test_preference_diagnostics(self):
        pairs = [random_pair(np.random.default_rng(900 + i)) for i in range(9)]
        config = TrainConfig(mode="DPO", epochs=40, learning_rate=1.0, batch_size=4, seed=5)
        history = train(pairs, config, TabularPolicy(VOCAB)).history
        assert len(history.epoch_pref_accuracy) == len(history.epoch_mean_margin) == 40
        assert all(0.0 <= a <= 1.0 for a in history.epoch_pref_accuracy)
        assert all(a * len(pairs) == round(a * len(pairs)) for a in history.epoch_pref_accuracy)
        # Training raises the margin and wins the pairs.
        assert history.epoch_mean_margin[-1] > history.epoch_mean_margin[0]
        assert history.epoch_pref_accuracy[-1] == 1.0

    def test_first_batch_at_reference_has_zero_margin(self):
        # One batch per epoch: the first epoch is scored at theta = pi_ref.
        pairs = [random_pair(np.random.default_rng(950 + i)) for i in range(6)]
        config = TrainConfig(mode="CDDPO", epochs=2, batch_size=6)
        history = train(pairs, config, TabularPolicy(VOCAB)).history
        assert history.epoch_mean_margin[0] == 0.0 and history.epoch_pref_accuracy[0] == 0.0
        assert history.epoch_loss[0] == pytest.approx(math.log(2), abs=1e-15)

    def test_sft_has_no_preference_diagnostics(self):
        history = train([make_pair()], TrainConfig(mode="SFT", epochs=3),
                        TabularPolicy(VOCAB)).history
        assert history.epoch_pref_accuracy == [] and history.epoch_mean_margin == []
        assert len(history.epoch_loss) == 3
