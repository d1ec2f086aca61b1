"""Bundled desk-scale design corpus and corpus-directory loading."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .hdl import DutModel, lint, parse

# All fixtures lint clean.  Every fixture except 'deadend' can reach average
# coverage 1.0 with some stimulus of length <= 8; 'deadend' has no
# covergroups and an unreachable branch, capping its average at 0.5.
BUNDLED_NAMES = ("toy1", "mux2", "chain2", "adder2", "deadend")


def bundled_source(name: str) -> str:
    return (resources.files("covstim") / "corpus" / f"{name}.hdl").read_text(encoding="utf-8")


def load_bundled_corpus() -> list[DutModel]:
    return [parse(bundled_source(name)) for name in BUNDLED_NAMES]


def load_corpus_dir(path) -> list[DutModel]:
    """Parse every *.hdl file in a directory, sorted by filename.

    Module names must be unique: policy rows and pair ids are keyed by them.
    """
    files = sorted(Path(path).glob("*.hdl"))
    if not files:
        raise ValueError(f"no *.hdl files in {path}")
    corpus = []
    seen: dict[str, Path] = {}
    for f in files:
        dut = parse(f.read_text(encoding="utf-8"))
        issues = lint(dut)
        if issues:
            raise ValueError(f"{f}: lint issues: {', '.join(i.kind for i in issues)}")
        if dut.name in seen:
            raise ValueError(f"{seen[dut.name]} and {f} both declare module {dut.name!r}")
        seen[dut.name] = f
        corpus.append(dut)
    return corpus
