"""Command-line entry point wiring the pipeline into reproducible runs.

Exit codes: 0 success, 1 domain error (lint issues, invalid stimulus,
training failure), 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .codec import Vocab, validate_and_decode
from .corpus import load_bundled_corpus, load_corpus_dir
from .curation import CurationConfig, curate, load_dataset
from .evaluation import ablate, eval_policy, write_ablation
from .hdl import ParseError, lint, parse
from .policy import TabularPolicy, check_positive, parse_json
from .sim import SimulationError, Stimulus, simulate
from .training import TrainConfig, TrainingError, train


# Shipped demo defaults.  The tabular policy starts uniform, so the
# preference modes need a larger step budget than TrainConfig's generic
# defaults to move the logits meaningfully within the demo's time budget.
DEFAULT_CURATION = {"tau1": 0.7, "tau2": 1.2, "pairs_per_dut": 400,
                    "teacher": "novelty", "seed": 42}
DEFAULT_TRAIN = {"mode": "CDDPO", "beta": 0.2, "f_variant": "identity_clamp",
                 "learning_rate": 4.0, "epochs": 120, "batch_size": 16, "seed": 42}
DEFAULT_EVAL = {"n": 20, "tau": 1.0, "seed": 42}


def _check_fields(prefix: str, values, defaults: dict) -> None:
    """Reject a non-object, a key not in defaults, or a value of another JSON type.

    A value must have its default's type, except that a float field takes
    an int and a field whose default is None takes a string.  No field is
    boolean, so booleans are rejected (bool is an int subclass).
    """
    if not isinstance(values, dict):
        raise ValueError(f"config {prefix.rstrip('.') or 'top level'} must be a JSON object")
    unknown = sorted(prefix + key for key in set(values) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
    for key, value in values.items():
        default = defaults[key]
        if default is None:
            expected = (str, type(None))
        elif isinstance(default, float):
            expected = (int, float)
        else:
            expected = type(default)
        if isinstance(value, bool) or not isinstance(value, expected):
            raise ValueError(f"config field {prefix}{key} has the wrong type "
                             f"{type(value).__name__}")


@dataclass
class ExperimentConfig:
    corpus_dir: str | None = None  # None -> bundled corpus
    report_dir: str = "report"
    dataset_file: str = "pairs.jsonl"
    wmax: int = 4
    t_max: int = 8
    k: int = 2
    # A section holds overrides only: an omitted field takes its DEFAULT_* value.
    curation: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)

    def __post_init__(self):
        # The top level sets CurationConfig's t_max, wmax and k.
        curation = {k: v for k, v in vars(CurationConfig()).items()
                    if k not in ("t_max", "wmax", "k")}
        _check_fields("curation.", self.curation, curation)
        _check_fields("train.", self.train, vars(TrainConfig()))
        _check_fields("eval.", self.eval, DEFAULT_EVAL)
        # Built here so that value errors surface before any stage runs.
        self.curation_config()
        self.train_config()
        n, tau, _ = self.eval_settings()
        if n < 1:
            raise ValueError(f"eval.n must be >= 1, got {n}")
        check_positive("eval.tau", tau)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            doc = parse_json(fh.read(), path)
        _check_fields("", doc, vars(cls()))
        return cls(**doc)

    def load_corpus(self):
        if self.corpus_dir is None:
            return load_bundled_corpus()
        return load_corpus_dir(self.corpus_dir)

    def curation_config(self) -> CurationConfig:
        return CurationConfig(t_max=self.t_max, wmax=self.wmax, k=self.k,
                              **{**DEFAULT_CURATION, **self.curation})

    def train_config(self, mode: str | None = None) -> TrainConfig:
        config = TrainConfig(**{**DEFAULT_TRAIN, **self.train})
        return config if mode is None else replace(config, mode=mode)

    def eval_settings(self) -> tuple[int, float, int]:
        settings = {**DEFAULT_EVAL, **self.eval}
        return settings["n"], settings["tau"], settings["seed"]

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
    if args.config is None:
        return ExperimentConfig()
    return ExperimentConfig.from_file(args.config)


def _read_design(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse(text)


def cmd_lint(args) -> int:
    dut = _read_design(args.file)
    issues = lint(dut)
    for issue in issues:
        print(issue)
    return 0 if not issues else 1


def cmd_simulate(args) -> int:
    dut = _read_design(args.file)
    issues = lint(dut)
    if issues:
        for issue in issues:
            print(issue, file=sys.stderr)
        return 1
    try:
        vocab = Vocab(args.wmax)
    except ValueError as err:
        raise ValueError(f"--wmax: {err}") from None
    if args.t_max < 1:
        raise ValueError(f"--t-max must be >= 1, got {args.t_max}")
    if args.stim is not None:
        values = [int(v) for v in args.stim.split(",") if v.strip() != ""]
        tokens = [vocab.bos] + values + [vocab.eos]
        stim = validate_and_decode(dut, tokens, vocab, args.t_max)
    else:
        cycles = []
        for chunk in args.cycles.split(";"):
            cycle = {}
            for part in chunk.split(","):
                name, _, value = part.partition("=")
                cycle[name.strip()] = int(value)
            cycles.append(cycle)
        stim = Stimulus(tuple(cycles))
    report = simulate(dut, stim)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _curate_with_stats(config: ExperimentConfig, corpus):
    stats = curate(corpus, config.curation_config(), config.dataset_path())
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


def _train_one(config: ExperimentConfig, mode: str | None, dataset):
    vocab = Vocab(config.wmax)
    init = TabularPolicy(vocab, config.k, config.t_max)
    train_config = config.train_config(mode)
    result = train(dataset, train_config, init)
    _save_trained(Path(config.report_dir), train_config.mode.lower(),
                  result.policy, result.history)
    return train_config.mode, result


def cmd_train(args) -> int:
    config = _load_config(args)
    dataset = load_dataset(config.dataset_path())
    mode, result = _train_one(config, args.mode, dataset)
    print(f"{mode}: final epoch loss {result.history.epoch_loss[-1]:.6f}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    corpus = config.load_corpus()
    policy = TabularPolicy.load(args.checkpoint)
    policy.check_settings(config.wmax, config.k, config.t_max)
    vocab = Vocab(config.wmax)
    n, tau, seed = config.eval_settings()
    reports = [eval_policy(policy, dut, n, tau, seed, vocab, config.t_max)
               for dut in corpus]
    report_dir = Path(config.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    _write_json(report_dir / "eval.json", [r.to_dict() for r in reports])
    for r in reports:
        print(f"{r.dut}: mean@{n} avg {r.mean['average']:.4f}, "
              f"best@{n} avg {r.best['average']:.4f}")
    return 0


def _run_ablation(config: ExperimentConfig, dataset):
    corpus = config.load_corpus()
    vocab = Vocab(config.wmax)
    n, tau, seed = config.eval_settings()
    base = config.train_config()
    table, policies = ablate(corpus, dataset, base, n, seed, vocab,
                             config.k, config.t_max, tau_eval=tau)
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
    table = _run_ablation(config, dataset)
    print(f"wrote {Path(config.report_dir) / 'ablation.csv'} ({len(table.rows)} rows)")
    return 0


def cmd_demo(args) -> int:
    config = _load_config(args)
    corpus = config.load_corpus()
    Path(config.report_dir).mkdir(parents=True, exist_ok=True)
    stats = _curate_with_stats(config, corpus)
    print(f"curated {stats.kept} pairs from {stats.attempted} attempts")
    dataset = load_dataset(config.dataset_path())
    table = _run_ablation(config, dataset)
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
    p.add_argument("--wmax", type=int, default=4)
    p.add_argument("--t-max", type=int, default=8, dest="t_max")
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
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
