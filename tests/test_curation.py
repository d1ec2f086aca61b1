import itertools
import json
import math
import re
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covstim import curation
from covstim import policy as policy_module
from covstim.codec import Vocab, simulate_tokens
from covstim.corpus import load_bundled_corpus
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
from covstim.hdl import parse, pretty_print
from covstim.policy import STREAM_WINDOW, Streams, TabularPolicy, sample_tokens

import reference_curation
from reference_curation import reference_novelty_sample, reference_penalties
from policy_helpers import adjust, set_logits

VOCAB = Vocab(4)
BOS, EOS = VOCAB.bos, VOCAB.eos
T_MAX = 8
# The run and the corpus a dataset of VALID_RECORD's kind is checked against.
RUN, CORPUS = CurationConfig(), load_bundled_corpus()


VALID_RECORD = {"version": "pairanet_mini/1", "dut": "toy1", "prompt": "module toy1",
                "chosen": [BOS, 1, 0, EOS], "rejected": [BOS, 0, EOS],
                "chosen_score": 1.0, "rejected_score": 5 / 9}
# Malformed dataset lines, each with the message naming what is wrong.
BAD_RECORDS = [
    ("[1]", "line 1: record must be a JSON object"),
    ("nonsense", "line 1: Expecting value"),
    ('{"version": "pairanet_mini/1"}', "line 1: missing field dut"),
    (json.dumps({**VALID_RECORD, "prompt": None}), "line 1: field prompt must be a string"),
    (json.dumps({**VALID_RECORD, "dut": 3}), "line 1: field dut must be a string"),
    (json.dumps({**VALID_RECORD, "chosen": 5}), "field chosen must be a list of integers"),
    (json.dumps({**VALID_RECORD, "rejected": [BOS, 1.5, EOS]}),
     "field rejected must be a list of integers"),
    (json.dumps({**VALID_RECORD, "rejected": [BOS, True, EOS]}),
     "field rejected must be a list of integers"),
    (json.dumps({**VALID_RECORD, "chosen_score": "0.5"}), "field chosen_score must be a finite"),
    (json.dumps({**VALID_RECORD, "rejected_score": float("nan")}),
     "field rejected_score must be a finite"),
    (json.dumps({k: v for k, v in VALID_RECORD.items() if k != "rejected_score"}),
     "missing field rejected_score"),
    (json.dumps({**VALID_RECORD, "chosen_score": 1.5}),
     "field chosen_score must be a finite number in [0, 1]"),
    (json.dumps({**VALID_RECORD, "rejected_score": -1e308}),
     "field rejected_score must be a finite number in [0, 1]"),
    (json.dumps({**VALID_RECORD, "chosen_score": 0.5}), "line 1: pair requires s_p > s_np"),
    ("[" * 100_000 + "]" * 100_000, "line 1: maximum recursion depth exceeded"),
]

_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
# Records with some fields kept from a valid one and the rest replaced.
_RECORDS = st.dictionaries(st.sampled_from(sorted(VALID_RECORD)), _JSON, max_size=4).map(
    lambda fields: {**VALID_RECORD, **fields})
_LINES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
    _JSON.map(json.dumps), _RECORDS.map(json.dumps),
)


class TestMakePair:
    def _pair(self, toy1, seq_a, seq_b):
        config = CurationConfig(tau1=0.7, tau2=1.2, teacher="scripted", seed=0)
        a, b = ((seq, simulate_tokens(toy1, seq, VOCAB, T_MAX)) for seq in (seq_a, seq_b))
        return make_pair(toy1, a, b, config, "toy1:0", pretty_print(toy1))

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
        for seq in teacher.sample("toy1", 1.0, Streams([], range(20), T_MAX)):
            assert seq[0] == BOS and seq[-1] == EOS
            assert all(0 <= t < VOCAB.n_values for t in seq[1:-1])
            assert len(seq) - 2 <= T_MAX

    def test_novelty_teacher_longer_than_uniform(self):
        # The EOS penalty until 2 value tokens should lengthen sequences.
        uniform = TabularPolicy(VOCAB, 2, T_MAX)
        novelty = NoveltyTeacher(VOCAB, T_MAX)
        lens_u = [len(seq) for seq in uniform.sample("d", 1.0, Streams([1], range(300), T_MAX))]
        lens_n = [len(seq) for seq in novelty.sample("d", 1.0, Streams([1], range(300), T_MAX))]
        assert sum(lens_n) > sum(lens_u)

    @pytest.mark.parametrize("tau", [0.7, 1.2])
    def test_novelty_teacher_matches_its_reference_loop(self, tau):
        # Same sequences and the same draws used, so curated datasets are
        # unchanged.  The 60 seeds are sampled as one lockstep batch.
        for t_max in range(1, 9):
            teacher = NoveltyTeacher(VOCAB, t_max)
            streams = Streams([], range(60), t_max + 1)
            seqs = teacher.sample("d", tau, streams)
            after = streams.next(np.arange(60)).tolist()
            for seed, seq, uniform in zip(range(60), seqs, after):
                twin = np.random.default_rng(seed)
                assert seq == reference_novelty_sample(teacher, tau, twin)
                assert uniform == twin.random()

    @given(st.integers(1, 4), st.integers(1, 12), st.floats(0.3, 3.0),
           st.integers(0, 2**32 - 64), st.integers(0, 40))
    @example(4, 8, 1.2, 0, 40)  # rows end at several steps
    @settings(max_examples=60, deadline=None)
    def test_novelty_logits_equal_the_rebuilt_ones_at_every_step(self, wmax, t_max, tau,
                                                                 start, rows):
        # Each step's logits, kept from step to step, equal the ones rebuilt
        # from the running rows' whole prefixes, bit for bit, also at steps
        # after some rows have ended.
        teacher = NoveltyTeacher(Vocab(wmax), t_max)
        steps = []

        def recording(vocab, t_max, tau, streams, next_logits):
            def traced(tokens, running, j):
                z = next_logits(tokens, running, j)
                steps.append((tokens[running, :j], z.copy()))
                return z
            return sample_tokens(vocab, t_max, tau, streams, traced)

        with patch.object(curation, "sample_tokens", recording):
            seqs = teacher.sample("d", tau, Streams([7], range(start, start + rows), t_max))
        # A sequence of length L drew min(L - 1, t_max) tokens, one per step.
        drawn = [min(len(seq) - 1, t_max) for seq in seqs]
        assert len(steps) == max(drawn, default=0)
        for j, (prefixes, z) in enumerate(steps, 1):
            assert len(prefixes) == sum(n >= j for n in drawn)
            assert z.tobytes() == reference_penalties(teacher, prefixes).tobytes()

    def test_checkpoint_teacher(self, tmp_path):
        policy = TabularPolicy(VOCAB, 2, T_MAX)
        adjust(policy, "toy1", (BOS, BOS), 1, 5.0)
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


def checkpoint_teacher(corpus, path):
    """A saved policy with random logits on about half of each design's contexts."""
    rng = np.random.default_rng(5)
    policy = TabularPolicy(VOCAB, 2, T_MAX)
    for dut in corpus:
        for ctx in itertools.product([BOS, *range(VOCAB.n_values)], repeat=2):
            if rng.random() < 0.5:
                set_logits(policy, dut.name, ctx, rng.normal(0, 2, VOCAB.size))
    policy.save(path)
    return str(path)


class TestCurateMatchesReference:
    """Lockstep blocks write the bytes of the per-pair ``rng.choice`` loop."""

    @pytest.mark.parametrize("teacher", ["novelty", "uniform", "checkpoint"])
    @pytest.mark.parametrize("seed", [4, 19])
    def test_byte_identical_to_per_pair_loop(self, corpus, tmp_path, teacher, seed):
        corpus = [corpus[0], corpus[3]]  # toy1 (1-bit input) and adder2 (most pairs kept)
        assert [d.name for d in corpus] == ["toy1", "adder2"]
        if teacher == "checkpoint":
            teacher = checkpoint_teacher(corpus, tmp_path / "teacher.json")
        # With blocks of 8, 1 pair is a partial block and 300 cross 37 block boundaries.
        for pairs_per_dut in (1, 300):
            config = CurationConfig(pairs_per_dut=pairs_per_dut, teacher=teacher, seed=seed)
            got, expected = tmp_path / "got.jsonl", tmp_path / "expected.jsonl"
            with patch.object(policy_module, "STREAM_BLOCK", 8):
                stats = curate(corpus, config, got)
            counts = reference_curation.curate(corpus, config, expected)
            assert got.read_bytes() == expected.read_bytes()
            assert (stats.kept, stats.dropped_both_invalid, stats.dropped_tie) == (
                counts["kept"], counts["both_invalid"], counts["tie"])
            assert stats.kept > 0 or pairs_per_dut == 1

    @pytest.mark.parametrize("teacher", ["novelty", "uniform"])
    def test_byte_identical_past_a_stream_window(self, corpus, tmp_path, teacher):
        # At t_max 20 a pair's two sequences may draw 40 uniforms, more
        # than the STREAM_WINDOW a Streams row makes at a time.
        assert 20 < 2 * STREAM_WINDOW < 40
        config = CurationConfig(pairs_per_dut=60, teacher=teacher, seed=8, t_max=20)
        got, expected = tmp_path / "got.jsonl", tmp_path / "expected.jsonl"
        curate(corpus[:4], config, got)
        reference_curation.curate(corpus[:4], config, expected)
        assert got.read_bytes() == expected.read_bytes()


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

    def test_lint_issues_summarised_by_kind(self, tmp_path):
        body = " ".join(f"assign y = q{i};" for i in range(2000))
        many = parse(f"module many (input a[1], output y[1]); {body} endmodule")
        other = parse("module other (input a[1], output y[1]); endmodule")
        with pytest.raises(ValueError) as exc:
            curate([many, other], CurationConfig(seed=0), tmp_path / "pairs.jsonl")
        assert str(exc.value) == ("corpus has lint issues: 'many': undeclared_identifier x2000 "
                                  "(designs with lint issues: 2)")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CurationConfig(tau1=1.0, tau2=1.0)
        with pytest.raises(ValueError):
            CurationConfig(pairs_per_dut=0)
        for name in ("tau1", "tau2"):
            for tau in (0, -0.5, math.nan, math.inf, 10**400):
                with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
                    CurationConfig(**{name: tau})

    def test_load_dataset_round_trip(self, toy1, tmp_path):
        path = tmp_path / "pairs.jsonl"
        config = CurationConfig(pairs_per_dut=200, teacher="novelty", seed=3)
        stats = curate([toy1], config, path)
        # Every recorded score is the one its sequence scores on the design.
        pairs = load_dataset(path, config, [toy1])
        assert len(pairs) == stats.kept
        for pair in pairs:
            assert pair.dut_id == "toy1"
            assert pair.s_p > pair.s_np
        with pytest.raises(ValueError, match="line 1: field dut names no design of the run's "
                                             "corpus, got 'toy1'"):
            load_dataset(path, config, [parse("module other (input a[1]); endmodule")])

    @pytest.mark.parametrize("line, message", BAD_RECORDS, ids=[m for _, m in BAD_RECORDS])
    def test_load_dataset_names_line_and_field(self, tmp_path, line, message):
        path = tmp_path / "pairs.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(path, RUN, CORPUS)
        # The line number counts blank lines too.
        path.write_text(json.dumps(VALID_RECORD) + "\n\n" + line + "\n")
        with pytest.raises(ValueError, match="dataset line 3: "):
            load_dataset(path, RUN, CORPUS)

    def test_load_dataset_names_first_faulty_line(self, toy1, tmp_path):
        # A wrong score on line 1 is named before a malformed line 3.
        path = tmp_path / "pairs.jsonl"
        config = CurationConfig(pairs_per_dut=200, teacher="novelty", seed=3)
        curate([toy1], config, path)
        record = json.loads(path.read_text().splitlines()[0])
        record["rejected_score"] += 1e-12
        path.write_text(json.dumps(record) + "\n\nnonsense\n")
        with pytest.raises(ValueError, match=r"^dataset line 1: field rejected_score is "):
            load_dataset(path, config, [toy1])


@given(_LINES)
@settings(max_examples=300, deadline=None)
def test_load_dataset_raises_only_value_error(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        try:
            load_dataset(path, RUN, CORPUS)
        except ValueError:
            pass
