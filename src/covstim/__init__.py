"""Desk-scale coverage-driven preference optimization laboratory.

A miniature HDL frontend and coverage simulator provide objective
coverage scores; a curation pipeline builds chosen/rejected stimulus
pairs; SFT, DPO, and coverage-weighted DPO trainers optimize a tabular
autoregressive stimulus policy; an evaluation harness reports mean@N /
best@N coverage and runs the four-way ablation.
"""

from .codec import CodecError, Vocab, encode, simulate_block, simulate_tokens, validate_and_decode
from .curation import CurationConfig, DropReason, PairRecord, curate, load_dataset, make_pair
from .evaluation import AblationTable, EvalConfig, EvalReport, eval_policy
from .hdl import DutModel, LintIssue, ParseError, lint, parse, pretty_print
from .pipeline import ablate
from .policy import ReferencePolicy, Steps, TabularPolicy
from .sim import CoverageReport, SimulationError, Stimulus, average_score, simulate
from .training import (
    LossBreakdown,
    PreferencePair,
    TrainConfig,
    TrainingError,
    cddpo_loss,
    dpo_loss,
    implicit_reward,
    pair_gradient,
    preference_loss,
    sft_loss,
    train,
)

__all__ = [
    "AblationTable", "CodecError", "CoverageReport", "CurationConfig",
    "DropReason", "DutModel", "EvalConfig", "EvalReport", "LintIssue", "LossBreakdown",
    "PairRecord", "ParseError", "PreferencePair", "ReferencePolicy",
    "SimulationError", "Steps", "Stimulus", "TabularPolicy",
    "TrainConfig", "TrainingError", "Vocab", "ablate", "average_score",
    "cddpo_loss", "curate", "dpo_loss", "encode", "eval_policy",
    "implicit_reward", "lint", "load_dataset", "make_pair", "pair_gradient",
    "parse", "preference_loss", "pretty_print", "sft_loss", "simulate", "simulate_block",
    "simulate_tokens",
    "train", "validate_and_decode",
]

__version__ = "0.1.0"
