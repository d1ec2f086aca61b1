"""Preference-pair curation: sample, validate, simulate, score, label.

For each attempted pair two candidate stimuli are drawn from a teacher at
two distinct temperatures.  A candidate that fails decode validation (the
compile-failure analog) scores 0 and carries no coverage detail; the
higher-scoring candidate becomes the chosen sample.  Pairs where both
candidates are invalid, or where scores tie, are dropped.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

import numpy as np

from .codec import CodecError, Vocab, validate_and_decode
from .hdl import DutModel, lint, pretty_print
from .policy import (TabularPolicy, _is_finite_number, _is_int, check_positive, parse_json,
                     sample_tokens)
from .sim import CoverageReport, average_score, simulate
from .training import PreferencePair

DATASET_VERSION = "pairanet_mini/1"
TEACHERS = ("uniform", "novelty")


@dataclass(frozen=True)
class CurationConfig:
    tau1: float = 0.7
    tau2: float = 1.2
    pairs_per_dut: int = 200
    teacher: str = "novelty"  # 'uniform' | 'novelty' | checkpoint path
    seed: int = 0
    t_max: int = 8
    wmax: int = 4
    k: int = 2

    def __post_init__(self):
        check_positive("tau1", self.tau1)
        check_positive("tau2", self.tau2)
        if self.tau1 == self.tau2:
            raise ValueError("tau1 and tau2 must be distinct")
        if self.pairs_per_dut < 1:
            raise ValueError("pairs_per_dut must be >= 1")
        TabularPolicy(Vocab(self.wmax), self.k, self.t_max)  # checks the three ranges


class NoveltyTeacher:
    """Zero-logit sampler nudged toward longer, more varied stimuli.

    Value tokens already emitted in the current sequence get a -2.0 logit
    penalty, and EOS gets -1.0 until two value tokens have been emitted.
    """

    REPEAT_PENALTY = -2.0
    EOS_PENALTY = -1.0
    MIN_VALUES = 2

    def __init__(self, vocab: Vocab, t_max: int):
        self.vocab = vocab
        self.t_max = t_max

    def sample(self, dut_id, tau: float, rng: np.random.Generator) -> list[int]:
        return sample_tokens(self.vocab, self.t_max, tau, rng, self._bias)

    def _bias(self, tokens: list[int]) -> np.ndarray:
        """The logits after a BOS-started prefix: the penalties it has earned."""
        z = np.zeros(self.vocab.size)
        emitted = set(tokens[1:])
        for t in emitted:
            z[t] = self.REPEAT_PENALTY
        if len(emitted) < self.MIN_VALUES:
            z[self.vocab.eos] = self.EOS_PENALTY
        return z


def make_teacher(config: CurationConfig):
    vocab = Vocab(config.wmax)
    if config.teacher == "uniform":
        return TabularPolicy(vocab, config.k, config.t_max)
    if config.teacher == "novelty":
        return NoveltyTeacher(vocab, config.t_max)
    policy = TabularPolicy.load(config.teacher)
    policy.check_settings(config.wmax, config.k, config.t_max)
    return policy


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
        doc = {"version": DATASET_VERSION, **asdict(self)}
        if self.rejected_cov is None:
            del doc["rejected_cov"]
        return doc


@dataclass(frozen=True)
class DropReason:
    kind: str  # 'both_invalid' | 'tie'


def _cov_counts(report: CoverageReport) -> dict:
    return {
        "statement": [report.statement.covered, report.statement.total],
        "branch": [report.branch.covered, report.branch.total],
        "functional": [report.functional.covered, report.functional.total],
    }


def _score_candidate(dut: DutModel, tokens, vocab: Vocab, t_max: int):
    """One simulation per valid candidate; invalid candidates score 0."""
    try:
        stim = validate_and_decode(dut, tokens, vocab, t_max)
    except CodecError:
        return 0.0, None
    report = simulate(dut, stim)
    return average_score(report), report


def make_pair(dut: DutModel, teacher, tau1: float, tau2: float,
              rng: np.random.Generator, vocab: Vocab, t_max: int,
              pair_id: str = "", seed: int = 0,
              teacher_name: str = "") -> Union[PairRecord, DropReason]:
    seq_a = teacher.sample(dut.name, tau1, rng)
    seq_b = teacher.sample(dut.name, tau2, rng)
    score_a, report_a = _score_candidate(dut, seq_a, vocab, t_max)
    score_b, report_b = _score_candidate(dut, seq_b, vocab, t_max)

    if report_a is None and report_b is None:
        return DropReason("both_invalid")
    if score_a == score_b:
        return DropReason("tie")

    if score_a > score_b:
        chosen, chosen_score, chosen_report, temp_chosen = seq_a, score_a, report_a, tau1
        rejected, rejected_score, rejected_report, temp_rejected = seq_b, score_b, report_b, tau2
    else:
        chosen, chosen_score, chosen_report, temp_chosen = seq_b, score_b, report_b, tau2
        rejected, rejected_score, rejected_report, temp_rejected = seq_a, score_a, report_a, tau1
    # Invalid candidates score 0, so the strictly higher scorer is valid.
    assert chosen_report is not None

    return PairRecord(
        id=pair_id,
        dut=dut.name,
        prompt=pretty_print(dut),
        chosen=tuple(chosen),
        rejected=tuple(rejected),
        chosen_score=chosen_score,
        rejected_score=rejected_score,
        chosen_cov=_cov_counts(chosen_report),
        rejected_cov=None if rejected_report is None else _cov_counts(rejected_report),
        meta={"temp_chosen": temp_chosen, "temp_rejected": temp_rejected,
              "seed": seed, "teacher": teacher_name},
    )


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

    Each (dut index, pair index) task derives its own rng stream from the
    seed, so the output is independent of execution order.
    """
    offenders = [(dut.name, issues) for dut in corpus if (issues := lint(dut))]
    if offenders:
        detail = "; ".join(f"{name}: {', '.join(i.kind for i in issues)}"
                           for name, issues in offenders)
        raise ValueError(f"corpus has lint issues: {detail}")

    vocab = Vocab(config.wmax)
    teacher = make_teacher(config)
    teacher_name = config.teacher
    stats = CurationStats()

    with open(out_path, "w", encoding="utf-8") as fh:
        for dut_i, dut in enumerate(corpus):
            for pair_i in range(config.pairs_per_dut):
                rng = np.random.default_rng([config.seed, dut_i, pair_i])
                result = make_pair(dut, teacher, config.tau1, config.tau2, rng,
                                   vocab, config.t_max,
                                   pair_id=f"{dut.name}:{pair_i}",
                                   seed=config.seed, teacher_name=teacher_name)
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


def _is_token_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


# Each field a training pair is built from, its test, and what the test asks for.
_RECORD_FIELDS = (
    ("dut", lambda v: isinstance(v, str), "a string"),
    ("prompt", lambda v: isinstance(v, str), "a string"),
    ("chosen", _is_token_list, "a list of integers"),
    ("rejected", _is_token_list, "a list of integers"),
    ("chosen_score", _is_finite_number, "a finite number"),
    ("rejected_score", _is_finite_number, "a finite number"),
)


def _pair_from_record(doc) -> PreferencePair:
    if not isinstance(doc, dict):
        raise ValueError("record must be a JSON object")
    if doc.get("version") != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {doc.get('version')!r}")
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


def load_dataset(path) -> list[PreferencePair]:
    """Read a curated JSONL file into trainer-ready preference pairs.

    Raises ValueError naming the line and the first malformed field.
    """
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                pairs.append(_pair_from_record(parse_json(line, path)))
            except ValueError as err:
                raise ValueError(f"dataset line {line_no}: {err}") from None
    return pairs
