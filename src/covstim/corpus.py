"""Bundled desk-scale design corpus; ``pipeline.load_corpus_dir`` loads a directory."""

from __future__ import annotations

from importlib import resources

from .hdl import DutModel, parse

# All fixtures lint clean.  Every fixture except 'deadend' can reach average
# coverage 1.0 with some stimulus of length <= 8; 'deadend' has no
# covergroups and an unreachable branch, capping its average at 0.5.
BUNDLED_NAMES = ("toy1", "mux2", "chain2", "adder2", "deadend")


def bundled_source(name: str) -> str:
    return (resources.files("covstim") / "corpus" / f"{name}.hdl").read_text(encoding="utf-8")


def load_bundled_corpus() -> list[DutModel]:
    return [parse(bundled_source(name)) for name in BUNDLED_NAMES]
