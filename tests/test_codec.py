import json
import tempfile
from enum import IntEnum
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covstim import codec, curation
from covstim.codec import (CodecError, Vocab, check_well_formed, encode, simulate_block,
                           total_input_width, validate_and_decode, value_limit)
from covstim.corpus import load_bundled_corpus
from covstim.curation import (DATASET_VERSION, CurationConfig, NoveltyTeacher, PairRecord,
                              curate, load_dataset, make_pair)
from covstim.evaluation import EvalConfig, eval_policy
from covstim.hdl import parse, pretty_print
from covstim.policy import TabularPolicy, sample_indexed
from covstim.sim import Stimulus, input_rows, simulate

from policy_helpers import token_block
from reference_codec import simulate_tokens

VOCAB = Vocab(4)
T_MAX = 8
# Three input bits: values 8..15 exercise the input-width rejection.
THREE_BIT_DUT = parse("module m (input a[2], input b[1], output y[1]); assign y = b; endmodule")
# Five input bits, wider than VOCAB's values: BOS and EOS fit its inputs.
FIVE_BIT_DUT = parse("module w (input a[5], output y[1]); assign y = a; endmodule")


class TestVocab:
    def test_layout(self):
        assert VOCAB.n_values == 16
        assert VOCAB.bos == 16
        assert VOCAB.eos == 17
        assert VOCAB.size == 18

    def test_tiny_vocab(self):
        v = Vocab(1)
        assert v.size == 4
        assert v.bos != v.eos


class TestDecode:
    def test_toy1_decode(self, toy1):
        stim = validate_and_decode(toy1, [VOCAB.bos, 1, 0, VOCAB.eos], VOCAB, T_MAX)
        assert [c["a"] for c in stim.cycles] == [1, 0]

    def test_value_exceeds_input_width(self, toy1):
        with pytest.raises(CodecError) as exc:
            validate_and_decode(toy1, [VOCAB.bos, 3, VOCAB.eos], VOCAB, T_MAX)
        assert exc.value.kind == "value_exceeds_input_width"
        assert exc.value.position == 1

    def test_empty_stimulus(self, toy1):
        with pytest.raises(CodecError) as exc:
            validate_and_decode(toy1, [VOCAB.bos, VOCAB.eos], VOCAB, T_MAX)
        assert exc.value.kind == "empty_stimulus"

    def test_not_well_formed(self, toy1):
        for seq in ([], [VOCAB.eos], [1, VOCAB.eos], [VOCAB.bos, 1],
                    [VOCAB.bos, VOCAB.bos, VOCAB.eos], [VOCAB.bos, VOCAB.eos, VOCAB.eos]):
            with pytest.raises(CodecError) as exc:
                validate_and_decode(toy1, seq, VOCAB, T_MAX)
            assert exc.value.kind == "not_well_formed"

    def test_too_long(self, toy1):
        seq = [VOCAB.bos] + [1] * (T_MAX + 1) + [VOCAB.eos]
        with pytest.raises(CodecError) as exc:
            validate_and_decode(toy1, seq, VOCAB, T_MAX)
        assert exc.value.kind == "too_long"

    def test_bit_slicing_two_inputs(self):
        # b[2] declared first takes the low bits, a[1] the next bit:
        # {b=2, a=1} packs to 2 + 1*4 = 6.
        dut = parse("module m (input b[2], input a[1], output y[1]);"
                    " assign y = a; endmodule")
        stim = validate_and_decode(dut, [VOCAB.bos, 6, VOCAB.eos], VOCAB, T_MAX)
        assert stim.cycles[0] == {"b": 2, "a": 1}
        assert encode(dut, stim, VOCAB, T_MAX) == [VOCAB.bos, 6, VOCAB.eos]

    def test_bit_slicing_oracle(self):
        # Independent bit-arithmetic check of the slicing rule.
        dut = parse("module m (input b[2], input a[1], input c[1], output y[1]);"
                    " assign y = a; endmodule")
        assert total_input_width(dut) == 4
        for v in range(16):
            stim = validate_and_decode(dut, [VOCAB.bos, v, VOCAB.eos], VOCAB, T_MAX)
            cycle = stim.cycles[0]
            assert cycle["b"] == v % 4
            assert cycle["a"] == (v // 4) % 2
            assert cycle["c"] == (v // 8) % 2


class TestEncode:
    def test_toy1_encode(self, toy1):
        stim = validate_and_decode(toy1, [VOCAB.bos, 1, 0, VOCAB.eos], VOCAB, T_MAX)
        assert encode(toy1, stim, VOCAB, T_MAX) == [VOCAB.bos, 1, 0, VOCAB.eos]

    def test_round_trip_random(self, corpus):
        rng = np.random.default_rng(17)
        for dut in corpus:
            w = total_input_width(dut)
            for _ in range(50):
                n = int(rng.integers(1, T_MAX + 1))
                tokens = [VOCAB.bos] + [int(t) for t in rng.integers(0, 2**w, n)] + [VOCAB.eos]
                stim = validate_and_decode(dut, tokens, VOCAB, T_MAX)
                assert encode(dut, stim, VOCAB, T_MAX) == tokens

    def test_encode_rejects_bad_lengths(self, toy1):
        from covstim.sim import Stimulus
        with pytest.raises(ValueError):
            encode(toy1, Stimulus(()), VOCAB, T_MAX)
        with pytest.raises(ValueError):
            encode(toy1, Stimulus(tuple({"a": 0} for _ in range(T_MAX + 1))), VOCAB, T_MAX)

    def test_encode_rejects_out_of_range_value(self, toy1):
        from covstim.sim import Stimulus
        with pytest.raises(ValueError):
            encode(toy1, Stimulus(({"a": 2},)), VOCAB, T_MAX)
        # Each port's value fits, but 5 input bits pack past VOCAB's 16 values.
        encode(FIVE_BIT_DUT, Stimulus(({"a": 15},)), VOCAB, T_MAX)
        with pytest.raises(ValueError, match="cycle 1: packed value 16 exceeds vocabulary"):
            encode(FIVE_BIT_DUT, Stimulus(({"a": 15}, {"a": 16})), VOCAB, T_MAX)

    def test_int_enum_value_encodes_as_the_plain_int(self, corpus):
        adder2 = next(dut for dut in corpus if dut.name == "adder2")
        three = IntEnum("Value", {"THREE": 3}).THREE

        def tokens(a, b):
            return encode(adder2, Stimulus(({"a": a, "b": 1}, {"a": 0, "b": b})), VOCAB, T_MAX)

        assert tokens(three, three) == tokens(3, 3) == [VOCAB.bos, 7, 12, VOCAB.eos]
        assert all(type(t) is int for t in tokens(three, three))


class TestRoundTripProperty:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=T_MAX))
    @settings(max_examples=200, deadline=None)
    def test_any_in_range_token_list_round_trips(self, values):
        # adder2-shaped module: two 2-bit inputs use the full 16-value range.
        dut = parse("module m (input a[2], input b[2], output y[1]);"
                    " assign y = a; endmodule")
        tokens = [VOCAB.bos] + values + [VOCAB.eos]
        stim = validate_and_decode(dut, tokens, VOCAB, T_MAX)
        assert encode(dut, stim, VOCAB, T_MAX) == tokens


def _rejection(tokens):
    """(kind, position) of check_well_formed's CodecError, or None if accepted."""
    try:
        check_well_formed(tokens, VOCAB, T_MAX)
    except CodecError as err:
        return err.kind, err.position
    return None


# Any int list, plus BOS...EOS framings so that accepted sequences are common.
TOKEN_LISTS = st.one_of(
    st.lists(st.integers(), max_size=T_MAX + 4),
    st.lists(st.integers(-1, VOCAB.size), max_size=T_MAX + 2).map(
        lambda interior: [VOCAB.bos] + interior + [VOCAB.eos]),
)


class TestWellFormed:
    def test_well_formed_predicate(self):
        assert _rejection([VOCAB.bos, VOCAB.eos]) is None
        assert _rejection([VOCAB.bos, 0, 15, VOCAB.eos]) is None
        assert _rejection([]) == ("not_well_formed", 0)
        assert _rejection([VOCAB.bos, 1]) == ("not_well_formed", 1)
        assert _rejection([VOCAB.bos, VOCAB.bos, VOCAB.eos]) == ("not_well_formed", 1)
        assert _rejection([VOCAB.bos, 0, VOCAB.eos, VOCAB.eos]) == ("not_well_formed", 2)
        assert _rejection([VOCAB.bos, 0, -1, VOCAB.eos]) == ("not_well_formed", 2)
        assert _rejection([VOCAB.bos] + [0] * (T_MAX + 1) + [VOCAB.eos]) == ("too_long", T_MAX + 1)

    def test_codec_error_is_value_error(self):
        with pytest.raises(ValueError):
            check_well_formed([VOCAB.eos], VOCAB, T_MAX)

    @given(TOKEN_LISTS)
    @settings(max_examples=300, deadline=None)
    def test_policy_and_decoder_share_the_check(self, tokens):
        rejection = _rejection(tokens)
        try:
            TabularPolicy(VOCAB, 2, T_MAX).log_prob("d", tokens)
        except CodecError as err:
            assert (err.kind, err.position) == rejection
        else:
            assert rejection is None
        # Any other exception from the decoder fails the test.
        try:
            validate_and_decode(THREE_BIT_DUT, tokens, VOCAB, T_MAX)
        except CodecError as err:
            if rejection is not None:
                assert (err.kind, err.position) == rejection


class TestSimulateTokens:
    """``simulate_block`` on a block of one sequence: the rule that
    ``reference_codec.simulate_tokens`` keeps."""

    @given(st.sampled_from([THREE_BIT_DUT, *load_bundled_corpus()]), TOKEN_LISTS)
    @settings(max_examples=300, deadline=None)
    def test_none_exactly_when_decode_fails(self, dut, tokens):
        (report,) = simulate_block(dut, [tokens], VOCAB, T_MAX)
        try:
            stim = validate_and_decode(dut, tokens, VOCAB, T_MAX)
        except CodecError:
            assert report is None
        else:
            expected = simulate(dut, stim)
            assert report == expected and report.average == expected.average


# Blocks drawn from a pool of token lists, so that rows repeat, and of None,
# the entry ``TokenBlock.tolist(mask)`` leaves for each row outside the mask.
TOKEN_BLOCKS = st.lists(st.none() | TOKEN_LISTS, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=12) if pool else st.just([]))


class TestSimulateBlock:
    @pytest.mark.parametrize("dut", [THREE_BIT_DUT, FIVE_BIT_DUT, *load_bundled_corpus()],
                             ids=lambda dut: dut.name)
    @given(block=TOKEN_BLOCKS)
    @settings(max_examples=100, deadline=None)
    def test_equals_simulate_tokens_row_by_row(self, dut, block):
        got = simulate_block(dut, block, VOCAB, T_MAX)
        assert len(got) == len(block)
        for tokens, report in zip(block, got):
            if tokens is None:
                assert report is None
                continue
            expected = simulate_tokens(dut, tokens, VOCAB, T_MAX)
            assert report == expected, tokens
            assert report is None or report.average == expected.average

    # Each edge sequence comes second in its block, after one that fills the
    # decode table with the values around it.
    BOS, EOS = VOCAB.bos, VOCAB.eos
    TABLE_EDGES = {
        "interior_bos": (FIVE_BIT_DUT, [[BOS, 1, 15, EOS], [BOS, 1, BOS, EOS]]),
        "interior_eos": (FIVE_BIT_DUT, [[BOS, 15, 2, EOS], [BOS, 15, EOS, 2, EOS]]),
        "negative_token": (THREE_BIT_DUT, [[BOS, 7, 0, EOS], [BOS, 0, -1, EOS]]),
        "empty_interior": (THREE_BIT_DUT, [[BOS, 3, EOS], [BOS, EOS]]),
        "t_max_plus_one_values": (THREE_BIT_DUT, [[BOS, 1, 2, EOS], [BOS] + [1, 2] * 4 + [1, EOS]]),
        "no_bos": (THREE_BIT_DUT, [[BOS, 1, 2, EOS], [EOS, 1, 2, EOS]]),
        "no_eos": (THREE_BIT_DUT, [[BOS, 1, 2, EOS], [BOS, 1, 2, 1]]),
    }

    @pytest.mark.parametrize("case", list(TABLE_EDGES))
    def test_decode_table_edges_equal_simulate_tokens(self, case):
        dut, block = self.TABLE_EDGES[case]
        got = simulate_block(dut, block, VOCAB, T_MAX)
        assert got[0] is not None
        assert got == [simulate_tokens(dut, tokens, VOCAB, T_MAX) for tokens in block]

    @pytest.mark.parametrize("tau", [0.7, 1.2])
    def test_simulates_each_distinct_accepted_sequence_once(self, monkeypatch, corpus, tau):
        calls = []

        def counting(dut, stim):
            calls.append(tuple(encode(dut, stim, VOCAB, T_MAX)))
            return simulate(dut, stim)

        monkeypatch.setattr(codec, "simulate", counting)
        teacher = NoveltyTeacher(VOCAB, T_MAX)
        repeated = 0
        for dut in corpus:
            (block,) = next(sample_indexed(teacher, dut.name, [5], 200, (tau,)))
            block = block.tolist()
            block += block[::-1]  # every row at least twice
            calls.clear()
            reports = simulate_block(dut, block, VOCAB, T_MAX)
            accepted = [tuple(seq) for seq, report in zip(block, reports) if report is not None]
            assert sorted(calls) == sorted(set(accepted)), dut.name
            repeated += len(accepted) - len(calls)
        assert repeated >= 200


class ScriptedSampler:
    """Gives fixed rows per temperature as ``sample_tokens``'s blocks, whatever the streams draw."""

    def __init__(self, vocab, t_max, rows_by_tau):
        self.vocab, self.t_max, self.rows_by_tau = vocab, t_max, rows_by_tau
        self.at = dict.fromkeys(rows_by_tau, 0)

    def sample(self, dut_id, tau, streams):
        start = self.at[tau]
        self.at[tau] += len(streams)
        return token_block(self.rows_by_tau[tau][start:start + len(streams)], self.vocab,
                           self.t_max)


@st.composite
def sampled_rows(draw):
    """A design of 1-5 input bits over 1-3 ports, a wmax of 1-4 and a t_max of 1-8, and two
    lists of as many rows shaped as sampling shapes them: BOS, at most t_max values (often
    exactly t_max, and often just below or at the value limit), then EOS."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda ws: sum(ws) <= 5))
    ports = ", ".join(f"input p{i}[{w}]" for i, w in enumerate(widths))
    dut = parse(f"module m ({ports}, output y[1]); "
                "if (p0 == 1) { assign y = 1; } else { assign y = 0; } "
                "cover y { zero: 0..0, one: 1..1 } cover p0 { low: 0..0, high: 1..1 } endmodule")
    vocab, t_max = Vocab(draw(st.integers(1, 4))), draw(st.integers(1, 8))
    limit = min(1 << sum(widths), vocab.n_values)
    edges = sorted({0, limit - 1, limit} & set(range(vocab.n_values)))
    value = st.one_of(st.sampled_from(edges), st.integers(0, vocab.n_values - 1))
    row = st.one_of(st.lists(value, max_size=t_max),
                    st.lists(value, min_size=t_max, max_size=t_max)).map(
        lambda values: [vocab.bos, *values, vocab.eos])
    n = draw(st.integers(1, 12))
    rows = st.lists(row, min_size=n, max_size=n)
    return dut, vocab, t_max, draw(rows), draw(rows)


class TestRejectionOnTheArray:
    """The rows of a sampled block that cannot decode are found on its token array; every
    other row goes through ``simulate_block``, whose reports curation and evaluation keep."""

    @given(sampled_rows())
    @settings(max_examples=150, deadline=None)
    def test_rejected_rows_are_the_rows_simulate_block_refuses(self, case):
        dut, vocab, t_max, rows_a, rows_b = case
        reports_a = simulate_block(dut, rows_a, vocab, t_max)
        fits = token_block(rows_a, vocab, t_max).decodable(value_limit(dut, vocab))
        assert fits.tolist() == [report is not None for report in reports_a]

        sampler = ScriptedSampler(vocab, t_max, {1.0: rows_a})
        evaluated = eval_policy(sampler, dut, EvalConfig(n=len(rows_a)))
        assert [g.tokens for g in evaluated.generations] == rows_a
        assert [g.valid for g in evaluated.generations] == fits.tolist()
        for g, report in zip(evaluated.generations, reports_a):
            if report is not None:
                assert g.fractions["average"] == report.average
                assert all(g.fractions[name] == m.fraction
                           for name, m in report.metrics().items())

        config = CurationConfig(pairs_per_dut=len(rows_a), wmax=vocab.wmax, t_max=t_max)
        sampler = ScriptedSampler(vocab, t_max, {config.tau1: rows_a, config.tau2: rows_b})
        expected = []
        for i, (a, b) in enumerate(zip(zip(rows_a, reports_a),
                                       zip(rows_b, simulate_block(dut, rows_b, vocab, t_max)))):
            result = make_pair(dut, a, b, config, f"m:{i}", pretty_print(dut))
            if isinstance(result, PairRecord):
                expected.append(json.dumps(result.to_json_dict()) + "\n")
        with tempfile.TemporaryDirectory() as tmp, \
                patch.object(curation, "make_teacher", lambda _: sampler):
            path = Path(tmp) / "pairs.jsonl"
            stats = curate([dut], config, path)
            assert path.read_text(encoding="utf-8") == "".join(expected)
        assert stats.kept == len(expected) and stats.attempted == len(rows_a)


# Input widths lint flags width_out_of_range: one past what a shift can take,
# one that a shift takes but no design may declare.
HOSTILE_WIDTHS = {"40_hex_digits": "0x" + "f" * 40, "2**20": str(2**20)}
ONE_CYCLE = [VOCAB.bos, 1, VOCAB.eos]


def _load_one_line(dut, tmp_path):
    path = tmp_path / "pairs.jsonl"
    record = {"version": DATASET_VERSION, "dut": dut.name, "prompt": "", "chosen": ONE_CYCLE,
              "rejected": [VOCAB.bos, 0, VOCAB.eos], "chosen_score": 1.0, "rejected_score": 0.0}
    path.write_text(json.dumps(record) + "\n")
    return load_dataset(path, CurationConfig(), [dut])


# Each function that reads a design's widths, called on a design with one
# sequence or stimulus that fits the vocabulary.
WIDTH_READERS = {
    "validate_and_decode": lambda dut, _: validate_and_decode(dut, ONE_CYCLE, VOCAB, T_MAX),
    "simulate_block": lambda dut, _: simulate_block(dut, [ONE_CYCLE], VOCAB, T_MAX),
    "value_limit": lambda dut, _: value_limit(dut, VOCAB),
    "encode": lambda dut, _: encode(dut, Stimulus(({"a": 1},)), VOCAB, T_MAX),
    "input_rows": lambda dut, _: input_rows(dut, Stimulus(({"a": 1},))),
    "eval_policy": lambda dut, _: eval_policy(TabularPolicy(VOCAB, 2, T_MAX), dut,
                                              EvalConfig(n=2)),
    "load_dataset": _load_one_line,
}


@pytest.mark.parametrize("width", list(HOSTILE_WIDTHS.values()), ids=list(HOSTILE_WIDTHS))
@pytest.mark.parametrize("call", list(WIDTH_READERS))
def test_design_gate_refuses_hostile_width(tmp_path, call, width):
    """A design that does not lint clean is refused through ``sim.compiled`` before its
    widths are read: a ValueError naming the issue, never an OverflowError or a result."""
    dut = parse(f"module m (input a[{width}], output y[1]); assign y = a; endmodule")
    with pytest.raises(ValueError, match="design 'm' does not lint clean: .*width_out_of_range"):
        WIDTH_READERS[call](dut, tmp_path)
