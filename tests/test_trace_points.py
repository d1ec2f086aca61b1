"""The benchmark's traced run patches covstim functions by name.

A refactor that renames or moves one of them must fail here, in Tier-1,
and not only when the traced benchmark runs.
"""

import json
from pathlib import Path

from covstim import cli, corpus, curation, hdl, policy, sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    log_prob, simulate = policy.TabularPolicy.__dict__["log_prob"], sim.simulate
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert sim.simulate is not simulate
    finally:
        tracer.uninstall()
    assert policy.TabularPolicy.__dict__["log_prob"] is log_prob
    assert sim.simulate is simulate


def test_demo_records_every_required_span(monkeypatch, tmp_path):
    """A change that routes training around a traced function fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer
    from test_cli import small_config

    config, report_dir = small_config(tmp_path)
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert cli.main(["demo", "--config", config]) == 0
    finally:
        tracer.uninstall()
    layers.per_layer_metrics("demo", tracer)
    # Each of the three modes runs every mini-batch through one grad_log_prob and one
    # apply_update, and each DPO and CD-DPO mini-batch through one pair_gradient.
    train = json.loads(Path(config).read_text())["train"]
    pairs = len((report_dir / "pairs.jsonl").read_text().splitlines())
    batches = train["epochs"] * -(-pairs // train["batch_size"])
    calls = {name: span["calls"] for name, span in tracer.summary().items()}
    assert calls["policy.TabularPolicy.grad_log_prob"] == 3 * batches
    assert calls["policy.TabularPolicy.apply_update"] == 3 * batches
    assert calls["training.pair_gradient"] == 2 * batches


def test_curate_records_every_required_span(monkeypatch, tmp_path):
    """A change that routes curation around a traced function fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        designs = corpus.load_bundled_corpus()
        config = curation.CurationConfig(pairs_per_dut=20, teacher="novelty", seed=3)
        stats = curation.curate(designs, config, tmp_path / "pairs.jsonl")
    finally:
        tracer.uninstall()
    metrics = layers.per_layer_metrics("curate", tracer)
    assert metrics["curation.make_pair.calls"][0] == stats.attempted == 20 * len(designs)


def test_simulate_large_records_every_required_span(monkeypatch):
    """A change that routes parsing, linting or simulation around a traced function fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        dut = hdl.parse(corpus.bundled_source("toy1"))
        assert hdl.lint(dut) == []
        report = sim.simulate(dut, sim.Stimulus(({"a": 1}, {"a": 0}, {"a": 1})))
    finally:
        tracer.uninstall()
    metrics = layers.per_layer_metrics("simulate_large", tracer)
    assert metrics["sim.simulate.cycles"][0] == report.cycles_run == 3
