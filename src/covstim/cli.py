"""Command-line entry point wiring the pipeline into reproducible runs.

Exit codes: 0 success, 1 domain error (lint issues, invalid stimulus,
training failure) or out of memory, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .codec import Vocab, validate_and_decode
from .corpus import load_bundled_corpus, load_corpus_dir
from .curation import CurationConfig, curate, load_dataset
from .evaluation import EvalConfig, ablate, eval_policy, write_ablation
from .hdl import ParseError, lint, parse
from .policy import TabularPolicy, check_int, check_str, parse_json, shown
from .sim import SimulationError, Stimulus, simulate
from .training import TrainConfig, TrainingError, train


def _check_keys(prefix: str, doc, keys) -> None:
    """Reject a config level that is not a JSON object or that sets a key not in keys."""
    where = prefix.rstrip(".") or "config top level"
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"config key must be a field name, got {shown(prefix + unknown[0])}")


# Set at a config file's top level, held by CurationConfig.
_TOP_LEVEL_CURATION = ("wmax", "t_max", "k")
_SECTIONS = {"curation": CurationConfig, "train": TrainConfig, "eval": EvalConfig}


@dataclass(frozen=True)
class ExperimentConfig:
    """The run configuration: paths, then one section per stage with its defaults and checks."""

    corpus_dir: str | None = None  # None -> bundled corpus
    report_dir: str = "report"
    dataset_file: str = "pairs.jsonl"
    curation: CurationConfig = field(default_factory=CurationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.corpus_dir is not None:
            check_str("corpus_dir", self.corpus_dir)
        check_str("report_dir", self.report_dir)
        check_str("dataset_file", self.dataset_file)
        for name, section in _SECTIONS.items():
            value = getattr(self, name)
            if not isinstance(value, section):
                raise ValueError(f"{name} must be of type {section.__name__}, "
                                 f"got {type(value).__name__}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Build a config from a JSON file; the top-level wmax, t_max and k go into ``curation``."""
        with open(path, encoding="utf-8") as fh:
            doc = parse_json(fh.read(), path)
        _check_keys("", doc, [f.name for f in fields(cls)] + list(_TOP_LEVEL_CURATION))
        for name, section in _SECTIONS.items():
            _check_keys(f"{name}.", doc.get(name, {}),
                        [f.name for f in fields(section) if f.name not in _TOP_LEVEL_CURATION])
        curation = {key: doc.pop(key) for key in _TOP_LEVEL_CURATION if key in doc}
        doc["curation"] = {**curation, **doc.get("curation", {})}
        sections = {name: section(**doc.pop(name, {})) for name, section in _SECTIONS.items()}
        return cls(**doc, **sections)

    def load_corpus(self):
        if self.corpus_dir is None:
            return load_bundled_corpus()
        return load_corpus_dir(self.corpus_dir)

    def dataset_path(self) -> Path:
        return Path(self.report_dir) / self.dataset_file


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _save_trained(report_dir: Path, name: str, policy: TabularPolicy, history) -> None:
    policy.save(report_dir / f"{name}.ckpt.json")
    _write_json(report_dir / f"{name}.history.json", history.to_dict())


def _load_config(args) -> ExperimentConfig:
    return ExperimentConfig() if args.config is None else ExperimentConfig.from_file(args.config)


def cmd_lint(args) -> int:
    issues = lint(parse(Path(args.file).read_text(encoding="utf-8")))
    for issue in issues:
        print(issue)
    return 0 if not issues else 1


# An integer in ``--stim`` and ``--cycles``: ASCII digits after an optional '-'.
_INT = r"-?[0-9]+"
# One value token of ``--stim``.
_STIM_PART = re.compile(rf"\s*({_INT})\s*")
# One ``name=integer`` part of a ``--cycles`` cycle.
_CYCLE_PART = re.compile(rf"\s*([^\W\d]\w*)\s*=\s*({_INT})\s*")


def _to_int(text: str, where: str) -> int:
    """int(text) of a matched ``_INT``; too many digits raises ValueError naming where."""
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ValueError(f"{where}: integer of {len(text.lstrip('-'))} digits "
                         f"is too long to convert") from None


def cmd_simulate(args) -> int:
    dut = parse(Path(args.file).read_text(encoding="utf-8"))
    issues = lint(dut)
    if issues:
        for issue in issues:
            print(issue, file=sys.stderr)
        return 1
    try:
        vocab = Vocab(args.wmax)
    except ValueError as err:
        raise ValueError(f"--wmax: {err}") from None
    check_int("--t-max", args.t_max, 1)
    # argparse drops an option value of "--", leaving []; this puts it back.
    stim_text, cycles_text = ("--" if t == [] else t for t in (args.stim, args.cycles))
    if stim_text is not None:
        tokens = [vocab.bos]
        for cycle_no, part in enumerate(stim_text.split(",")):
            match = _STIM_PART.fullmatch(part)
            if match is None:
                raise ValueError(f"--stim: cycle {cycle_no}: expected an integer, "
                                 f"got {part.strip()!r}")
            tokens.append(_to_int(match.group(1), f"--stim: cycle {cycle_no}"))
        tokens.append(vocab.eos)
        stim = validate_and_decode(dut, tokens, vocab, args.t_max)
    else:
        cycles = []
        for cycle_no, chunk in enumerate(cycles_text.split(";")):
            cycle = {}
            for part in chunk.split(","):
                match = _CYCLE_PART.fullmatch(part)
                if match is None:
                    raise ValueError(f"--cycles: cycle {cycle_no}: expected name=integer, "
                                     f"got {part.strip()!r}")
                name, value = match.groups()
                if name in cycle:
                    raise ValueError(f"--cycles: cycle {cycle_no}: port {name!r} given twice")
                cycle[name] = _to_int(value, f"--cycles: cycle {cycle_no}: port {name!r}")
            cycles.append(cycle)
        stim = Stimulus(tuple(cycles))
    report = simulate(dut, stim)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _curate_with_stats(config: ExperimentConfig, corpus):
    stats = curate(corpus, config.curation, config.dataset_path())
    _write_json(Path(config.report_dir) / "curation_stats.json", stats.to_dict())
    return stats


def cmd_curate(args) -> int:
    config = _load_config(args)
    corpus = config.load_corpus()
    Path(config.report_dir).mkdir(parents=True, exist_ok=True)
    stats = _curate_with_stats(config, corpus)
    print(f"kept {stats.kept} of {stats.attempted} pairs "
          f"({stats.dropped_both_invalid} both_invalid, {stats.dropped_tie} tie) "
          f"-> {config.dataset_path()}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    dataset = load_dataset(config.dataset_path())
    train_config = config.train if args.mode is None else replace(config.train, mode=args.mode)
    result = train(dataset, train_config, config.curation.uniform_policy())
    _save_trained(Path(config.report_dir), train_config.mode.lower(),
                  result.policy, result.history)
    print(f"{train_config.mode}: final epoch loss {result.history.epoch_loss[-1]:.6f}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    corpus = config.load_corpus()
    policy = TabularPolicy.load(args.checkpoint)
    policy.check_settings(config.curation)
    reports = [eval_policy(policy, dut, config.eval) for dut in corpus]
    report_dir = Path(config.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    _write_json(report_dir / "eval.json", [r.to_dict() for r in reports])
    for r in reports:
        print(f"{r.dut}: mean@{r.n} avg {r.mean['average']:.4f}, "
              f"best@{r.n} avg {r.best['average']:.4f}")
    return 0


def _run_ablation(config: ExperimentConfig, corpus, dataset):
    table, policies = ablate(corpus, dataset, config.train, config.eval,
                             config.curation.uniform_policy())
    report_dir = Path(config.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    write_ablation(table, report_dir / "ablation.csv")
    _write_json(report_dir / "ablation.json",
                {"n": table.n, "tau": table.tau, "seed": table.seed, "rows": table.rows})
    for name in ("sft", "dpo", "cddpo"):
        _save_trained(report_dir, name, policies[name], table.histories[name])
    return table


def cmd_ablate(args) -> int:
    config = _load_config(args)
    dataset = load_dataset(config.dataset_path())
    table = _run_ablation(config, config.load_corpus(), dataset)
    print(f"wrote {Path(config.report_dir) / 'ablation.csv'} ({len(table.rows)} rows)")
    return 0


def cmd_demo(args) -> int:
    config = _load_config(args)
    corpus = config.load_corpus()
    Path(config.report_dir).mkdir(parents=True, exist_ok=True)
    stats = _curate_with_stats(config, corpus)
    print(f"curated {stats.kept} pairs from {stats.attempted} attempts")
    dataset = load_dataset(config.dataset_path())
    table = _run_ablation(config, corpus, dataset)
    for dut in corpus:
        vanilla = table.value("vanilla", dut.name, "average", "mean")
        cddpo = table.value("cddpo", dut.name, "average", "mean")
        print(f"{dut.name}: mean@{table.n} avg coverage vanilla {vanilla:.4f} "
              f"-> cddpo {cddpo:.4f}")
    print(f"artifacts written under {config.report_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covstim",
        description="Coverage-driven preference optimization lab for mini-HDL stimuli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lint", help="parse and lint a design file")
    p.add_argument("file")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("simulate", help="simulate one stimulus, print coverage JSON")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--stim", help="comma-separated value tokens, e.g. '1,0'")
    group.add_argument("--cycles", help="semicolon-separated cycles, e.g. 'a=1;a=0'")
    p.add_argument("--wmax", type=int, default=CurationConfig.wmax)
    p.add_argument("--t-max", type=int, default=CurationConfig.t_max, dest="t_max")
    p.set_defaults(func=cmd_simulate)

    for name, func, extra in (
        ("curate", cmd_curate, None),
        ("train", cmd_train, "mode"),
        ("eval", cmd_eval, "checkpoint"),
        ("ablate", cmd_ablate, None),
        ("demo", cmd_demo, None),
    ):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", help="experiment config JSON (defaults used if omitted)")
        if extra == "mode":
            p.add_argument("--mode", choices=("SFT", "DPO", "CDDPO"))
        elif extra == "checkpoint":
            p.add_argument("--checkpoint", required=True)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except (SimulationError, TrainingError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'allocation failed'}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
