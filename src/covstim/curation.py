"""Preference-pair curation: sample, validate, simulate, score, label.

For each attempted pair two candidate stimuli are drawn from a teacher at
two distinct temperatures.  Each block of candidates that
``policy.sample_indexed`` yields at one temperature is one token array,
scored by one ``codec.simulate_block`` call, the one scoring rule, with
None for each candidate found on the array not to decode.  An invalid
candidate carries no coverage detail; the higher-scoring candidate becomes
the chosen sample.  Pairs where both candidates are invalid, or where
scores tie, are dropped.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .checks import (JSON_SCALARS, check_int, check_positive, check_str, is_finite_number, is_int,
                     parse_json, shown)
from .codec import CodecError, Vocab, check_well_formed, simulate_block, value_limit
from .hdl import DutModel, pretty_print
from .policy import TabularPolicy, TokenBlock, sample_indexed, sample_tokens
from .sim import CoverageReport, compiled
from .training import PreferencePair

DATASET_VERSION = "pairanet_mini/1"


@dataclass(frozen=True)
class CurationConfig:
    tau1: float = 0.7
    tau2: float = 1.2
    pairs_per_dut: int = 400
    teacher: str = "novelty"  # 'uniform' | 'novelty' | checkpoint path
    seed: int = 42
    t_max: int = 8
    wmax: int = 4
    k: int = 2

    def __post_init__(self):
        object.__setattr__(self, "tau1", check_positive("curation.tau1", self.tau1))
        object.__setattr__(self, "tau2", check_positive("curation.tau2", self.tau2))
        if self.tau1 == self.tau2:
            raise ValueError(f"curation.tau1 and curation.tau2 must be distinct, got {self.tau1!r}")
        check_int("curation.pairs_per_dut", self.pairs_per_dut, 1, 2**32)
        check_str("curation.teacher", self.teacher)
        check_int("curation.seed", self.seed, 0)
        self.uniform_policy()  # checks wmax, k and t_max
        # From k = t_max on, each context holds the whole prefix, and a larger k adds only
        # BOS; the bound is t_max + 1 so that the default k = 2 holds at t_max = 1.
        check_int("k", self.k, 1, self.t_max + 1)

    def uniform_policy(self) -> TabularPolicy:
        """The all-zero policy under this run's wmax, k and t_max."""
        return TabularPolicy(Vocab(self.wmax), self.k, self.t_max)


class NoveltyTeacher:
    """Zero-logit sampler nudged toward longer, more varied stimuli.

    Value tokens already emitted in the current sequence get a -2.0 logit
    penalty, and EOS gets -1.0 until two distinct value tokens have been
    emitted.
    """

    REPEAT_PENALTY = -2.0
    EOS_PENALTY = -1.0
    MIN_VALUES = 2

    def __init__(self, vocab: Vocab, t_max: int):
        self.vocab = vocab
        self.t_max = t_max

    def sample(self, dut_id, tau: float, streams) -> TokenBlock:
        """Draw one sequence per row of streams with ``sample_tokens``.

        Each row's logits are kept from step to step with its count of
        distinct values: a step penalises the value each running row drew
        last, and lifts the EOS penalty of a row that reaches MIN_VALUES.
        """
        eos = self.vocab.eos
        z = np.zeros((len(streams), self.vocab.size))
        z[:, eos] = self.EOS_PENALTY
        distinct = np.zeros(len(streams), dtype=np.intp)

        def next_logits(tokens: np.ndarray, running: np.ndarray, j: int) -> np.ndarray:
            if j > 1:  # a running row's token at j - 1 is a value
                drawn = tokens[running, j - 1]
                fresh = running[z[running, drawn] != self.REPEAT_PENALTY]
                distinct[fresh] += 1
                z[running, drawn] = self.REPEAT_PENALTY
                z[fresh[distinct[fresh] == self.MIN_VALUES], eos] = 0.0
            return z.take(running, axis=0)

        return sample_tokens(self.vocab, self.t_max, tau, streams, next_logits)


def make_teacher(config: CurationConfig):
    if config.teacher == "uniform":
        return config.uniform_policy()
    if config.teacher == "novelty":
        return NoveltyTeacher(Vocab(config.wmax), config.t_max)
    return TabularPolicy.load(config.teacher, config)


@dataclass(frozen=True)
class PairRecord:
    id: str
    dut: str
    prompt: str
    chosen: tuple
    rejected: tuple
    chosen_score: float
    rejected_score: float
    chosen_cov: dict
    meta: dict
    rejected_cov: Optional[dict]  # absent (None) when the rejected candidate was invalid

    def to_json_dict(self) -> dict:
        # Shallow, in field order: asdict's deep copy of every record is waste.
        doc = {"version": DATASET_VERSION, **{name: getattr(self, name) for name in _PAIR_FIELDS}}
        if self.rejected_cov is None:
            del doc["rejected_cov"]
        return doc


_PAIR_FIELDS = tuple(f.name for f in fields(PairRecord))


@dataclass(frozen=True)
class DropReason:
    kind: str  # 'both_invalid' | 'tie'


# make_pair's drops, one per kind: a frozen record is built once, not per dropped pair.
_BOTH_INVALID, _TIE = DropReason("both_invalid"), DropReason("tie")


def _score(report: Optional[CoverageReport]) -> float:
    """A candidate's score: its average coverage, or 0 when it did not decode."""
    return 0.0 if report is None else report.average


def _cov_counts(report: CoverageReport) -> dict:
    return {name: [m.covered, m.total] for name, m in report.metrics().items()}


def make_pair(dut: DutModel, a, b, config: CurationConfig, pair_id: str,
              prompt: str) -> Union[PairRecord, DropReason]:
    """Label or drop the pair of candidates a (sampled at tau1) and b (at tau2).

    Each candidate is (sequence, report), as ``_candidates`` gives it: the
    report is what ``codec.simulate_block`` gives the sequence.  A pair with
    no report is dropped before either sequence is read, so its sequences
    may be None.  prompt is the design's source text, ``pretty_print(dut)``.
    Each kind of drop returns its one shared ``DropReason``.
    """
    (seq_a, report_a), (seq_b, report_b) = a, b
    if report_a is None and report_b is None:
        return _BOTH_INVALID
    score_a, score_b = _score(report_a), _score(report_b)
    if score_a == score_b:
        return _TIE
    a, b = (seq_a, report_a, config.tau1), (seq_b, report_b, config.tau2)
    (chosen, chosen_report, temp_chosen), (rejected, rejected_report, temp_rejected) = (
        (a, b) if score_a > score_b else (b, a))
    # Invalid candidates score 0, so the strictly higher scorer is valid.
    assert chosen_report is not None

    return PairRecord(
        id=pair_id, dut=dut.name, prompt=prompt, chosen=tuple(chosen), rejected=tuple(rejected),
        chosen_score=chosen_report.average, rejected_score=_score(rejected_report),
        chosen_cov=_cov_counts(chosen_report),
        rejected_cov=None if rejected_report is None else _cov_counts(rejected_report),
        meta={"temp_chosen": temp_chosen, "temp_rejected": temp_rejected,
              "seed": config.seed, "teacher": config.teacher})


@dataclass
class CurationStats:
    attempted: int = 0
    kept: int = 0
    dropped_both_invalid: int = 0
    dropped_tie: int = 0
    gap_histogram: list = field(default_factory=lambda: [0] * 10)

    to_dict = asdict


def curate(corpus, config: CurationConfig, out_path) -> CurationStats:
    """Write one JSONL line per kept pair; byte-deterministic for a config.

    ``sample_indexed`` draws pair p of design d, its tau1 sequence and then
    its tau2 one, from the stream ``default_rng([seed, d, p])``, so the
    output depends on neither the order of the pairs nor the block size.
    d is the design's position in ``corpus``, so a design added, removed or
    renamed in a ``corpus_dir`` re-draws the pairs of every design sorted
    after it.  A design that does not lint clean raises ``sim.compiled``'s
    ValueError before anything is written.
    """
    for dut in corpus:
        compiled(dut)
    teacher = make_teacher(config)
    vocab = Vocab(config.wmax)
    stats = CurationStats()

    with open(out_path, "w", encoding="utf-8") as fh:
        for dut_i, dut in enumerate(corpus):
            prompt = pretty_print(dut)
            blocks = sample_indexed(teacher, dut.name, [config.seed, dut_i],
                                    config.pairs_per_dut, (config.tau1, config.tau2))
            pairs = (pair for block in blocks for pair in _candidates(dut, block, vocab, config))
            for pair_i, (a, b) in enumerate(pairs):
                result = make_pair(dut, a, b, config, f"{dut.name}:{pair_i}", prompt)
                stats.attempted += 1
                if isinstance(result, DropReason):
                    if result.kind == "both_invalid":
                        stats.dropped_both_invalid += 1
                    else:
                        stats.dropped_tie += 1
                    continue
                stats.kept += 1
                gap = result.chosen_score - result.rejected_score
                stats.gap_histogram[min(int(gap * 10), 9)] += 1
                fh.write(json.dumps(result.to_json_dict()) + "\n")
    return stats


def _candidates(dut: DutModel, block: list[TokenBlock], vocab: Vocab, config: CurationConfig):
    """Each pair of one sampled block as its two (sequence, report) candidates, tau1's first.

    Only the rows of a pair with a row that can decode, found on the
    temperatures' token arrays, become lists, and each other row is None
    (see ``simulate_block`` for None entries).  Each temperature's rows go
    to one ``simulate_block`` call.
    """
    limit = value_limit(dut, vocab)
    either = np.logical_or.reduce([seqs.decodable(limit) for seqs in block])
    candidates = []
    for seqs in block:
        rows = seqs.tolist(either)
        candidates.append(zip(rows, simulate_block(dut, rows, vocab, config.t_max)))
    return zip(*candidates)


def _is_token_list(value) -> bool:
    return isinstance(value, list) and all(map(is_int, value))


def _is_score(value) -> bool:
    """Whether value can be a candidate's score: a coverage average lies in [0, 1]."""
    return is_finite_number(value) and 0 <= value <= 1


# Each field a training pair is built from, its test, and what the test asks for.
_RECORD_FIELDS = (
    ("dut", lambda v: isinstance(v, str), "a string"),
    ("prompt", lambda v: isinstance(v, str), "a string"),
    ("chosen", _is_token_list, "a list of integers"),
    ("rejected", _is_token_list, "a list of integers"),
    ("chosen_score", _is_score, "a finite number in [0, 1]"),
    ("rejected_score", _is_score, "a finite number in [0, 1]"),
)


def _pair_from_record(doc) -> PreferencePair:
    if not isinstance(doc, dict):
        raise ValueError("record must be a JSON object")
    if doc.get("version") != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {shown(doc.get('version'), JSON_SCALARS)}")
    for name, ok, expected in _RECORD_FIELDS:
        if name not in doc:
            raise ValueError(f"missing field {name}")
        if not ok(doc[name]):
            raise ValueError(f"field {name} must be {expected}")
    return PreferencePair(
        dut_id=doc["dut"],
        prompt=doc["prompt"],
        chosen=tuple(doc["chosen"]),
        rejected=tuple(doc["rejected"]),
        s_p=doc["chosen_score"],
        s_np=doc["rejected_score"],
    )


def _check_fits(pair: PreferencePair, vocab: Vocab, t_max: int) -> None:
    """Raise ValueError naming the first of the pair's sequences that is not well
    formed under the run's vocab and t_max, and the run's wmax and t_max."""
    for name in ("chosen", "rejected"):
        try:
            check_well_formed(getattr(pair, name), vocab, t_max)
        except CodecError as err:
            raise ValueError(f"field {name} does not fit the run's wmax {vocab.wmax} and "
                             f"t_max {t_max}: {err}") from None


def _check_scores(pair: PreferencePair, design: DutModel, vocab: Vocab, t_max: int) -> None:
    """Raise ValueError naming the first of the pair's chosen_score and rejected_score
    that is not what curation writes for its sequence on design: the report's average,
    0.0 for no report, of one ``simulate_block`` call on both sequences."""
    reports = simulate_block(design, (pair.chosen, pair.rejected), vocab, t_max)
    for name, recorded, report in zip(("chosen_score", "rejected_score"), (pair.s_p, pair.s_np),
                                      reports):
        if recorded != (score := _score(report)):
            raise ValueError(f"field {name} is {recorded!r}, but its sequence scores {score!r}")


def load_dataset(path, run: CurationConfig, corpus) -> list[PreferencePair]:
    """Read a curated JSONL file into trainer-ready preference pairs, checked against
    the run's ``CurationConfig`` and corpus.

    Each line is checked as it is read, and a ValueError names the first
    faulty line and what is wrong: a field (a score must lie in [0, 1]), a
    sequence not well formed under the run's wmax and t_max (a dataset
    curated under other settings), a dut naming none of the corpus's
    designs, or a score other than the one its sequence scores there.
    """
    vocab = Vocab(run.wmax)
    designs = {dut.name: dut for dut in corpus}
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                pair = _pair_from_record(parse_json(line, path))
                _check_fits(pair, vocab, run.t_max)
                if pair.dut_id not in designs:
                    raise ValueError(f"field dut names no design of the run's corpus, "
                                     f"got {shown(pair.dut_id)}")
                _check_scores(pair, designs[pair.dut_id], vocab, run.t_max)
            except ValueError as err:
                raise ValueError(f"dataset line {line_no}: {err}") from None
            pairs.append(pair)
    return pairs
