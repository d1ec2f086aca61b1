import itertools
from unittest.mock import patch

import numpy as np
import pytest

from covstim import policy as policy_module
from covstim.codec import Vocab
from covstim.evaluation import ABLATION_POLICIES, METRICS, EvalConfig, eval_policy
from covstim.pipeline import ablate, write_artifact
from covstim.policy import TabularPolicy
from covstim.training import TrainConfig

from policy_helpers import adjust, set_logits, token_block
from reference_codec import simulate_tokens
from reference_curation import reference_sample

VOCAB = Vocab(4)
BOS, EOS = VOCAB.bos, VOCAB.eos
T_MAX = 8


class ScriptedPolicy:
    """Emits a fixed rotation of sequences regardless of the streams' draws."""

    vocab = VOCAB
    t_max = T_MAX

    def __init__(self, sequences):
        self.sequences = [list(s) for s in sequences]
        self.i = 0

    def sample(self, dut_id, tau, streams, bound=None):
        seqs = [self.sequences[(self.i + j) % len(self.sequences)] for j in range(len(streams))]
        self.i += len(streams)
        return token_block(seqs, self.vocab, self.t_max)


class TestEvalPolicy:
    def test_mean_and_best_arithmetic(self, toy1):
        # Three generations with average scores 1.0, 5/9, 0 (invalid).
        policy = ScriptedPolicy([[BOS, 1, 0, EOS], [BOS, 1, EOS], [BOS, 3, EOS]])
        report = eval_policy(policy, toy1, EvalConfig(3, 1.0, 0))
        scores = [g.fractions["average"] for g in report.generations]
        assert scores == pytest.approx([1.0, 5 / 9, 0.0])
        assert report.mean["average"] == pytest.approx((1.0 + 5 / 9) / 3)
        assert report.best["average"] == 1.0
        assert [g.valid for g in report.generations] == [True, True, False]

    def test_n1_mean_equals_best(self, toy1):
        policy = TabularPolicy(VOCAB, 2, T_MAX)
        report = eval_policy(policy, toy1, EvalConfig(1, 1.0, 5))
        for m in METRICS:
            assert report.mean[m] == report.best[m]

    def test_determinism(self, toy1):
        policy = TabularPolicy(VOCAB, 2, T_MAX)
        r1 = eval_policy(policy, toy1, EvalConfig(10, 1.0, 42))
        r2 = eval_policy(policy, toy1, EvalConfig(10, 1.0, 42))
        assert r1.to_dict() == r2.to_dict()

    def test_all_invalid_policy_scores_zero(self, toy1):
        # Strong bias toward token 15, which exceeds toy1's input width.
        policy = TabularPolicy(VOCAB, 2, T_MAX)
        for ctx in [(BOS, BOS), (BOS, 15), (15, 15)]:
            adjust(policy, "toy1", ctx, 15, 50.0)
        report = eval_policy(policy, toy1, EvalConfig(20, 1.0, 0))
        assert all(not g.valid for g in report.generations)
        for m in METRICS:
            assert report.mean[m] == 0.0 and report.best[m] == 0.0

    def test_best_non_decreasing_in_n(self, toy1):
        policy = TabularPolicy(VOCAB, 2, T_MAX)
        reports = [eval_policy(policy, toy1, EvalConfig(n, 1.0, 42))
                   for n in (1, 5, 10, 20)]
        for m in METRICS:
            bests = [r.best[m] for r in reports]
            assert all(a <= b for a, b in zip(bests, bests[1:]))

    def test_best_at_least_mean(self, toy1):
        policy = TabularPolicy(VOCAB, 2, T_MAX)
        report = eval_policy(policy, toy1, EvalConfig(20, 1.0, 3))
        for m in METRICS:
            assert 0.0 <= report.mean[m] <= report.best[m] <= 1.0

    @pytest.mark.parametrize("n", [30, 261])
    def test_generations_match_per_generation_choice_loop(self, toy1, n):
        # Batched sampler calls, over blocks of 8 (4 and 33 blocks, the last
        # one partial), draw what generation i drew alone from its own
        # generator [seed, i] with rng.choice.
        policy = TabularPolicy(VOCAB, 2, T_MAX)
        for ctx, token in (((BOS, BOS), 1), ((BOS, 1), 0), ((1, 0), EOS)):
            adjust(policy, "toy1", ctx, token, 2.0)
        with patch.object(policy_module, "STREAM_BLOCK", 8):
            report = eval_policy(policy, toy1, EvalConfig(n, 0.8, 9))
        assert [g.tokens for g in report.generations] == [
            reference_sample(policy, "toy1", 0.8, np.random.default_rng([9, i])) for i in range(n)]

    def test_scores_match_per_generation_reference(self, corpus):
        # Each generation's valid flag and fractions are what the one-sequence
        # rule gives its tokens, over blocks of 8 (the last one partial).
        rng = np.random.default_rng(11)
        policy = TabularPolicy(VOCAB, 2, T_MAX)
        for dut in corpus:
            for ctx in itertools.product([BOS, *range(VOCAB.n_values)], repeat=2):
                set_logits(policy, dut.name, ctx, rng.normal(0, 2, VOCAB.size))
        valid = []
        for dut in corpus:
            with patch.object(policy_module, "STREAM_BLOCK", 8):
                report = eval_policy(policy, dut, EvalConfig(30, 1.0, 4))
            assert len(report.generations) == 30
            for g in report.generations:
                cov = simulate_tokens(dut, g.tokens, VOCAB, T_MAX)
                expected = dict.fromkeys(METRICS, 0.0) if cov is None else {
                    **{name: m.fraction for name, m in cov.metrics().items()},
                    "average": cov.average}
                assert (g.valid, g.fractions) == (cov is not None, expected)
                valid.append(g.valid)
            for m in METRICS:
                values = [g.fractions[m] for g in report.generations]
                assert report.mean[m] == sum(values) / 30
                assert report.best[m] == max(values)
        assert any(valid) and not all(valid)

    def test_rejects_bad_n(self, toy1):
        with pytest.raises(ValueError):
            eval_policy(TabularPolicy(VOCAB), toy1, EvalConfig(0, 1.0, 0))


@pytest.fixture(scope="module")
def small_ablation(corpus, tmp_path_factory):
    from covstim.curation import CurationConfig, curate, load_dataset
    path = tmp_path_factory.mktemp("abl") / "pairs.jsonl"
    curation = CurationConfig(pairs_per_dut=60, teacher="novelty", seed=42)
    curate(corpus, curation, path)
    dataset = load_dataset(path, curation, corpus)
    base = TrainConfig(mode="CDDPO", epochs=5, batch_size=16, seed=42)
    table, policies = ablate(corpus, dataset, base, EvalConfig(n=5, seed=42),
                             TabularPolicy(VOCAB, 2, T_MAX))
    return corpus, dataset, base, table, policies


class TestAblate:
    def test_row_count(self, small_ablation):
        corpus, _, _, table, _ = small_ablation
        assert len(table.rows) == len(ABLATION_POLICIES) * len(corpus) * len(METRICS)

    def test_vanilla_row_is_untrained_policy(self, small_ablation):
        corpus, _, _, table, policies = small_ablation
        fresh = TabularPolicy(VOCAB, 2, T_MAX)
        for dut in corpus:
            report = eval_policy(fresh, dut, EvalConfig(table.n, table.tau, table.seed))
            for m in METRICS:
                assert table.value("vanilla", dut.name, m, "mean") == report.mean[m]
                assert table.value("vanilla", dut.name, m, "best") == report.best[m]

    def test_histories_present(self, small_ablation):
        _, _, _, table, _ = small_ablation
        assert set(table.histories) == {"sft", "dpo", "cddpo"}
        for history in table.histories.values():
            assert len(history.epoch_loss) == 5

    def test_csv_reproducible(self, small_ablation, tmp_path):
        corpus, dataset, base, table, _ = small_ablation
        table2, _ = ablate(corpus, dataset, base, EvalConfig(n=5, seed=42),
                           TabularPolicy(VOCAB, 2, T_MAX))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_artifact(p1, table.to_csv())
        write_artifact(p2, table2.to_csv())
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "policy,dut,metric,aggregate,value"
