"""Which covstim functions the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``;
``training.train`` spans carry the mode, e.g. ``training.train.DPO``.
"""

from __future__ import annotations

from covstim import cli, codec, corpus, curation, evaluation, hdl, policy, sim, training

from spans import TraceError, Tracer


def _count_cycles(counts, args, report) -> None:
    counts["sim.simulate.cycles"] += report.cycles_run


def _count_pair(counts, args, result) -> None:
    kind = result.kind if isinstance(result, curation.DropReason) else "kept"
    counts[f"curation.pairs.{kind}"] += 1


def _count_generations(counts, args, report) -> None:
    counts["evaluation.generations"] += len(report.generations)
    counts["evaluation.generations.valid"] += sum(g.valid for g in report.generations)


def _count_pair_steps(counts, args, result) -> None:
    dataset, config = args[0], args[1]
    counts["training.pair_steps"] += len(dataset) * config.epochs


def _train_name(args) -> str:
    return f"training.train.{args[1].mode}"


def install(tracer: Tracer) -> None:
    """Patch every traced function; undo with ``tracer.uninstall()``."""
    for module, attr, name, hook in (
        (hdl, "parse", "hdl.parse", None),
        (hdl, "lint", "hdl.lint", None),
        (hdl, "pretty_print", "hdl.pretty_print", None),
        (sim, "simulate", "sim.simulate", _count_cycles),
        (codec, "validate_and_decode", "codec.validate_and_decode", None),
        (training, "train", _train_name, _count_pair_steps),
        (training, "implicit_reward", "training.implicit_reward", None),
        (training, "pair_gradient", "training.pair_gradient", None),
        (curation, "curate", "curation.curate", None),
        (curation, "make_pair", "curation.make_pair", _count_pair),
        (evaluation, "eval_policy", "evaluation.eval_policy", _count_generations),
        (cli, "main", "cli.main", None),
        (corpus, "load_bundled_corpus", "corpus.load_bundled_corpus", None),
    ):
        tracer.patch_function(module, attr, name, hook)
    for cls, attr in (
        (policy.TabularPolicy, "log_prob"),
        (policy.TabularPolicy, "grad_log_prob"),
        (policy.TabularPolicy, "apply_update"),
        (policy.TabularPolicy, "copy"),
        (policy.TabularPolicy, "sample"),
        (policy.TabularPolicy, "save"),
        (policy.ReferencePolicy, "log_prob"),
        (curation.NoveltyTeacher, "sample"),
    ):
        module = cls.__module__.rsplit(".", 1)[-1]
        tracer.patch_method(cls, attr, f"{module}.{cls.__name__}.{attr}")


# Spans each workload must record at least once; a renamed or rerouted
# function then fails the run instead of reading as zero.
REQUIRED_SPANS = {
    "demo": (
        "policy.TabularPolicy.log_prob", "policy.ReferencePolicy.log_prob",
        "policy.TabularPolicy.grad_log_prob", "policy.TabularPolicy.apply_update",
        "policy.TabularPolicy.copy", "policy.TabularPolicy.sample",
        "policy.TabularPolicy.save", "training.train.SFT", "training.train.DPO",
        "training.train.CDDPO", "training.implicit_reward", "training.pair_gradient",
        "evaluation.eval_policy", "cli.main", "corpus.load_bundled_corpus",
        "curation.curate",
    ),
    "curate": (
        "hdl.pretty_print", "sim.simulate", "codec.validate_and_decode",
        "curation.NoveltyTeacher.sample", "curation.make_pair", "curation.curate",
        "corpus.load_bundled_corpus",
    ),
    "simulate_large": ("hdl.parse", "hdl.lint", "sim.simulate"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(workload: str, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); 0 for unused layers."""
    spans = tracer.summary()
    missing = [s for s in REQUIRED_SPANS[workload] if spans.get(s, {}).get("calls", 0) == 0]
    if missing:
        raise TraceError(f"{workload}: no calls recorded for {', '.join(missing)}")
    counts = tracer.counts

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    out: dict[str, tuple[float, str]] = {}

    def calls(name: str) -> None:
        out[f"{name}.calls"] = (span(name, "calls"), "count")

    def self_s(name: str) -> None:
        out[f"{name}.self_s"] = (span(name, "self_s"), "s")

    def total_s(name: str) -> None:
        out[f"{name}.s"] = (span(name, "s"), "s")

    calls("hdl.parse")
    self_s("hdl.parse")
    self_s("hdl.lint")
    calls("hdl.pretty_print")
    self_s("hdl.pretty_print")

    calls("sim.simulate")
    self_s("sim.simulate")
    cycles = counts["sim.simulate.cycles"]
    out["sim.simulate.cycles"] = (cycles, "count")
    out["sim.simulate.us_per_cycle"] = (_ratio(1e6 * span("sim.simulate", "self_s"), cycles), "us")

    calls("codec.validate_and_decode")
    self_s("codec.validate_and_decode")
    out["codec.valid_ratio"] = (_ratio(span("codec.validate_and_decode", "ok"),
                                       span("codec.validate_and_decode", "calls")), "ratio")

    for name in ("log_prob", "grad_log_prob", "copy", "sample"):
        calls(f"policy.TabularPolicy.{name}")
        self_s(f"policy.TabularPolicy.{name}")
    calls("policy.ReferencePolicy.log_prob")
    self_s("policy.TabularPolicy.apply_update")
    self_s("policy.TabularPolicy.save")

    train_s = 0.0
    for mode in ("SFT", "DPO", "CDDPO"):
        total_s(f"training.train.{mode}")
        train_s += span(f"training.train.{mode}", "s")
    for name in ("implicit_reward", "pair_gradient"):
        calls(f"training.{name}")
        self_s(f"training.{name}")
    out["training.pair_steps_per_s"] = (_ratio(counts["training.pair_steps"], train_s), "1/s")

    calls("curation.NoveltyTeacher.sample")
    self_s("curation.NoveltyTeacher.sample")
    calls("curation.make_pair")
    self_s("curation.make_pair")
    total_s("curation.curate")
    attempted = span("curation.make_pair", "calls")
    for kind, metric in (("kept", "kept_ratio"), ("both_invalid", "both_invalid_ratio"),
                         ("tie", "tie_ratio")):
        out[f"curation.{metric}"] = (_ratio(counts[f"curation.pairs.{kind}"], attempted), "ratio")

    calls("evaluation.eval_policy")
    total_s("evaluation.eval_policy")
    out["evaluation.valid_ratio"] = (_ratio(counts["evaluation.generations.valid"],
                                            counts["evaluation.generations"]), "ratio")

    total_s("cli.main")
    self_s("cli.main")
    total_s("corpus.load_bundled_corpus")
    return out
