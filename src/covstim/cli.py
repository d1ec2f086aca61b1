"""Command-line entry point: parses arguments, runs a ``pipeline`` stage and prints.

Exit codes: 0 success, 1 domain error (lint issues, invalid stimulus,
training failure) or out of memory, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

from .checks import check_int, shown
from .codec import Vocab, validate_and_decode
from .curation import CurationConfig
from .hdl import ParseError, lint, parse
from .pipeline import ExperimentConfig, run_ablate, run_curate, run_eval, run_train
from .sim import Stimulus, simulate
from .training import MODES, TrainingError


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
                                 f"got {shown(part.strip())}")
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
                                     f"got {shown(part.strip())}")
                name, value = match.groups()
                if name in cycle:
                    raise ValueError(f"--cycles: cycle {cycle_no}: port {shown(name)} given twice")
                cycle[name] = _to_int(value, f"--cycles: cycle {cycle_no}: port {shown(name)}")
            cycles.append(cycle)
        stim = Stimulus(tuple(cycles))
    report = simulate(dut, stim)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_curate(args) -> int:
    config = _load_config(args)
    stats = run_curate(config)
    print(f"kept {stats.kept} of {stats.attempted} pairs "
          f"({stats.dropped_both_invalid} both_invalid, {stats.dropped_tie} tie) "
          f"-> {config.dataset_path()}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    if args.mode is not None:
        config = replace(config, train=replace(config.train, mode=args.mode))
    result = run_train(config)
    print(f"{config.train.mode}: final epoch loss {result.history.epoch_loss[-1]:.6f}")
    return 0


def cmd_eval(args) -> int:
    for r in run_eval(_load_config(args), args.checkpoint):
        print(f"{r.dut}: mean@{r.n} avg {r.mean['average']:.4f}, "
              f"best@{r.n} avg {r.best['average']:.4f}")
    return 0


def cmd_ablate(args) -> int:
    config = _load_config(args)
    table, _ = run_ablate(config)
    print(f"wrote {Path(config.report_dir) / 'ablation.csv'} ({len(table.rows)} rows)")
    return 0


def cmd_demo(args) -> int:
    config = _load_config(args)
    corpus = config.load_corpus()
    stats = run_curate(config, corpus)
    print(f"curated {stats.kept} pairs from {stats.attempted} attempts")
    table, _ = run_ablate(config, corpus)
    for dut in corpus:
        vanilla = table.value("vanilla", dut.name, "average", "mean")
        cddpo = table.value("cddpo", dut.name, "average", "mean")
        print(f"{dut.name}: mean@{table.n} avg coverage vanilla {vanilla:.4f} "
              f"-> cddpo {cddpo:.4f}")
    print(f"artifacts written under {config.report_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covstim", description="Coverage-driven preference "
                                     "optimization lab for mini-HDL stimuli.")
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

    for name, func in (("curate", cmd_curate), ("train", cmd_train), ("eval", cmd_eval),
                       ("ablate", cmd_ablate), ("demo", cmd_demo)):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", help="experiment config JSON (defaults used if omitted)")
        if name == "train":
            p.add_argument("--mode", choices=MODES)
        elif name == "eval":
            p.add_argument("--checkpoint", required=True)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except (TrainingError, ValueError) as err:
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
