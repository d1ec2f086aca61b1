import json
import re

import numpy as np
import pytest

from covstim.codec import Vocab
from covstim.curation import (
    CurationConfig,
    DropReason,
    NoveltyTeacher,
    PairRecord,
    curate,
    load_dataset,
    make_pair,
    make_teacher,
)
from covstim.hdl import parse
from covstim.policy import TabularPolicy

VOCAB = Vocab(4)
BOS, EOS = VOCAB.bos, VOCAB.eos
T_MAX = 8


class ScriptedTeacher:
    """Returns predetermined sequences, one per sample() call."""

    def __init__(self, sequences):
        self.sequences = list(sequences)

    def sample(self, dut_id, tau, rng):
        return list(self.sequences.pop(0))


class TestMakePair:
    def _pair(self, toy1, seq_a, seq_b):
        teacher = ScriptedTeacher([seq_a, seq_b])
        rng = np.random.default_rng(0)
        return make_pair(toy1, teacher, 0.7, 1.2, rng, VOCAB, T_MAX,
                         pair_id="toy1:0", seed=0, teacher_name="scripted")

    def test_both_valid_higher_score_chosen(self, toy1):
        # [1,0] fully covers toy1 (score 1.0); [0] scores lower.
        result = self._pair(toy1, [BOS, 1, 0, EOS], [BOS, 0, EOS])
        assert isinstance(result, PairRecord)
        assert result.chosen == (BOS, 1, 0, EOS)
        assert result.chosen_score == 1.0
        assert result.rejected == (BOS, 0, EOS)
        assert result.chosen_score > result.rejected_score
        assert result.rejected_cov is not None
        assert result.meta["temp_chosen"] == 0.7

    def test_invalid_candidate_becomes_rejected(self, toy1):
        # Token 3 exceeds toy1's 1-bit input: the compile-failure analog.
        result = self._pair(toy1, [BOS, 3, EOS], [BOS, 1, EOS])
        assert isinstance(result, PairRecord)
        assert result.chosen == (BOS, 1, EOS)
        assert result.rejected == (BOS, 3, EOS)
        assert result.rejected_score == 0.0
        assert result.rejected_cov is None
        assert result.meta["temp_chosen"] == 1.2

    def test_both_invalid_dropped(self, toy1):
        result = self._pair(toy1, [BOS, 3, EOS], [BOS, EOS])
        assert isinstance(result, DropReason)
        assert result.kind == "both_invalid"

    def test_tie_dropped(self, toy1):
        result = self._pair(toy1, [BOS, 1, EOS], [BOS, 1, EOS])
        assert isinstance(result, DropReason)
        assert result.kind == "tie"

    def test_prompt_is_design_source(self, toy1):
        result = self._pair(toy1, [BOS, 1, 0, EOS], [BOS, 0, EOS])
        assert parse(result.prompt) == toy1


class TestTeachers:
    def test_uniform_teacher_is_zero_logit_policy(self):
        teacher = make_teacher(CurationConfig(teacher="uniform", seed=0))
        assert isinstance(teacher, TabularPolicy)
        assert teacher.table == {}

    def test_novelty_teacher_well_formed(self):
        teacher = NoveltyTeacher(VOCAB, T_MAX)
        for seed in range(20):
            seq = teacher.sample("toy1", 1.0, np.random.default_rng(seed))
            assert seq[0] == BOS and seq[-1] == EOS
            assert all(0 <= t < VOCAB.n_values for t in seq[1:-1])
            assert len(seq) - 2 <= T_MAX

    def test_novelty_teacher_longer_than_uniform(self):
        # The EOS penalty until 2 value tokens should lengthen sequences.
        uniform = TabularPolicy(VOCAB, 2, T_MAX)
        novelty = NoveltyTeacher(VOCAB, T_MAX)
        rng_u, rng_n = np.random.default_rng(1), np.random.default_rng(1)
        lens_u = [len(uniform.sample("d", 1.0, rng_u)) for _ in range(300)]
        lens_n = [len(novelty.sample("d", 1.0, rng_n)) for _ in range(300)]
        assert sum(lens_n) > sum(lens_u)

    def test_checkpoint_teacher(self, tmp_path):
        policy = TabularPolicy(VOCAB, 2, T_MAX)
        policy.adjust("toy1", (BOS, BOS), 1, 5.0)
        path = tmp_path / "teacher.json"
        policy.save(path)
        teacher = make_teacher(CurationConfig(teacher=str(path), seed=0))
        assert teacher.table == {("toy1", (BOS, BOS)): pytest.approx(policy.table[("toy1", (BOS, BOS))])}
        # A checkpoint saved under other settings is refused, naming each one.
        for settings, message in (({"wmax": 3}, "wmax 4 (run config 3)"),
                                  ({"k": 1}, "k 2 (run config 1)"),
                                  ({"t_max": 4}, "t_max 8 (run config 4)")):
            with pytest.raises(ValueError, match=re.escape(message)):
                make_teacher(CurationConfig(teacher=str(path), seed=0, **settings))


class TestCurate:
    def test_accounting_identity(self, toy1, tmp_path):
        config = CurationConfig(pairs_per_dut=50, teacher="uniform", seed=42)
        stats = curate([toy1], config, tmp_path / "pairs.jsonl")
        assert stats.attempted == 50
        assert stats.kept + stats.dropped_both_invalid + stats.dropped_tie == 50

    def test_every_kept_record_valid(self, corpus, tmp_path):
        path = tmp_path / "pairs.jsonl"
        config = CurationConfig(pairs_per_dut=100, teacher="novelty", seed=7)
        curate(corpus, config, path)
        from covstim.codec import validate_and_decode
        by_name = {d.name: d for d in corpus}
        n = 0
        with open(path) as fh:
            for line in fh:
                doc = json.loads(line)
                assert doc["version"] == "pairanet_mini/1"
                assert doc["chosen_score"] > doc["rejected_score"]
                assert ("rejected_cov" in doc) == (doc["rejected_score"] > 0)
                # Chosen sequences always decode.
                validate_and_decode(by_name[doc["dut"]], doc["chosen"], VOCAB, T_MAX)
                n += 1
        assert n > 0

    def test_byte_identical_reruns(self, toy1, tmp_path):
        config = CurationConfig(pairs_per_dut=80, teacher="novelty", seed=11)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        curate([toy1], config, p1)
        curate([toy1], config, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_validity_channel_is_live(self, toy1, tmp_path):
        # Most value tokens exceed toy1's 1-bit input, so both-invalid
        # drops must occur at a substantial rate with the uniform teacher.
        config = CurationConfig(pairs_per_dut=1000, teacher="uniform", seed=42)
        stats = curate([toy1], config, tmp_path / "pairs.jsonl")
        assert stats.attempted == 1000
        assert stats.dropped_both_invalid > 500

    def test_lint_dirty_corpus_rejected(self, tmp_path):
        dirty = parse("module bad (input a[1], output y[1]); endmodule")
        with pytest.raises(ValueError, match="bad"):
            curate([dirty], CurationConfig(seed=0), tmp_path / "pairs.jsonl")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CurationConfig(tau1=1.0, tau2=1.0)
        with pytest.raises(ValueError):
            CurationConfig(pairs_per_dut=0)

    def test_load_dataset_round_trip(self, toy1, tmp_path):
        path = tmp_path / "pairs.jsonl"
        config = CurationConfig(pairs_per_dut=200, teacher="novelty", seed=3)
        stats = curate([toy1], config, path)
        pairs = load_dataset(path)
        assert len(pairs) == stats.kept
        for pair in pairs:
            assert pair.dut_id == "toy1"
            assert pair.s_p > pair.s_np
