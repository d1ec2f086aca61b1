"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7 executes the full shipped-default demo pipeline;
like everything else, it runs in seconds.
"""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from covstim.codec import Vocab
from covstim.curation import CurationConfig, curate, load_dataset
from covstim.evaluation import EvalConfig, ablate, write_ablation
from covstim.hdl import lint
from covstim.policy import ReferencePolicy, TabularPolicy
from covstim.sim import Stimulus, simulate
from covstim.training import (
    PreferencePair,
    TrainConfig,
    cddpo_loss,
    dpo_loss,
    implicit_reward,
    sft_loss,
    train,
)

from oracle_sim import oracle_simulate
from policy_helpers import adjust, norm, pair_grad, set_logits, sft_grad

VOCAB = Vocab(4)
BOS, EOS = VOCAB.bos, VOCAB.eos
T_MAX = 8


def random_policy(rng, vocab=VOCAB, k=2, t_max=T_MAX, n_contexts=10):
    policy = TabularPolicy(vocab, k=k, t_max=t_max)
    for _ in range(n_contexts):
        ctx = tuple(int(t) for t in rng.integers(0, vocab.size, k))
        set_logits(policy, "dut", ctx, rng.normal(0, 1, vocab.size))
    return policy


def random_pair(rng, max_len=4):
    def seq():
        n = int(rng.integers(1, max_len + 1))
        return (BOS, *(int(t) for t in rng.integers(0, VOCAB.n_values, n)), EOS)

    s_np = float(rng.uniform(0, 0.9))
    s_p = float(rng.uniform(s_np + 0.01, 1.0))
    return PreferencePair("dut", "", seq(), seq(), s_p, s_np)


class FixedLogProb:
    def __init__(self, table):
        self.table = {tuple(k): v for k, v in table.items()}

    def log_prob(self, dut_id, seq):
        return self.table[tuple(seq)], []


def test_criterion_1_loss_identities():
    rng = np.random.default_rng(1)
    theta = random_policy(rng)
    ref = ReferencePolicy(random_policy(rng))
    for i in range(100):
        pair = random_pair(np.random.default_rng(1000 + i))
        delta = abs(cddpo_loss(theta, ref, pair, 0.2, "dataset_minmax",
                               bounds=(0.5, 0.5)).loss
                    - dpo_loss(theta, ref, pair, 0.2).loss)
        assert delta < 1e-12

    at_ref = ReferencePolicy(theta)
    for i in range(20):
        pair = random_pair(np.random.default_rng(2000 + i))
        assert abs(dpo_loss(theta, at_ref, pair, 0.2).loss - math.log(2)) < 1e-12
        assert abs(cddpo_loss(theta, at_ref, pair, 0.2).loss - math.log(2)) < 1e-12

    stub_theta = FixedLogProb({(BOS, 1, EOS): -2.0, (BOS, 3, EOS): -3.5})
    stub_ref = FixedLogProb({(BOS, 1, EOS): -3.0, (BOS, 3, EOS): -3.0})
    pair = PreferencePair("dut", "", (BOS, 1, EOS), (BOS, 3, EOS), 0.85, 0.45)
    assert abs(dpo_loss(stub_theta, stub_ref, pair, 0.2).loss - 0.554355) < 1e-6
    assert abs(cddpo_loss(stub_theta, stub_ref, pair, 0.2).loss - 0.634946) < 1e-6
    assert abs(dpo_loss(theta, at_ref, pair, 0.2).loss - math.log(2)) < 1e-12
    print("PASS criterion 1: loss identities (f=1 reduction, ln 2 at reference, closed forms)")


def test_criterion_2_gradient_correctness():
    eps = 1e-4
    for trial in range(50):
        rng = np.random.default_rng(3000 + trial)
        theta = random_policy(rng)
        ref = ReferencePolicy(random_policy(rng))
        pair = random_pair(rng)
        bd = cddpo_loss(theta, ref, pair, 0.2)
        grad = pair_grad(theta, pair, bd)
        sgrad = sft_grad(theta, [pair])
        for which, g, loss_fn in (
            ("pair", grad, lambda p: cddpo_loss(p, ref, pair, 0.2).loss),
            ("sft", sgrad, lambda p: sft_loss(p, [pair])),
        ):
            for (dut_id, ctx), vec in g.items():
                for token in range(VOCAB.size):
                    plus = theta.copy()
                    adjust(plus, dut_id, ctx, token, +eps)
                    minus = theta.copy()
                    adjust(minus, dut_id, ctx, token, -eps)
                    numeric = (loss_fn(plus) - loss_fn(minus)) / (2 * eps)
                    # Floor the scale at 1.0 so exact-zero entries are
                    # judged against central-difference truncation error.
                    scale = max(abs(numeric), abs(vec[token]), 1.0)
                    assert abs(numeric - vec[token]) / scale < 1e-6, (which, trial)
    print("PASS criterion 2: analytic gradients match finite differences "
          "(50 instances, rel err < 1e-6)")


def test_criterion_3_disagreement_scaling():
    for trial in range(20):
        rng = np.random.default_rng(4000 + trial)
        theta = random_policy(rng)
        ref = ReferencePolicy(TabularPolicy(VOCAB, 2, T_MAX))
        pair = random_pair(rng)
        r_w, r_l = (implicit_reward(theta.log_prob("dut", seq)[0], ref.log_prob("dut", seq)[0])
                    for seq in (pair.chosen, pair.rejected))
        if r_l < r_w:
            pair = PreferencePair("dut", "", pair.rejected, pair.chosen,
                                  pair.s_p, pair.s_np)
        bd = dpo_loss(theta, ref, pair, 0.2)
        norms = [norm(pair_grad(theta, pair, replace(bd, beta_star=b)))
                 for b in (0.0, 0.05, 0.1, 0.15, 0.2)]
        assert norms[0] == 0.0
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    print("PASS criterion 3: gradient norm non-decreasing in beta* "
          "(20 pairs with r_l >= r_w)")


def test_criterion_4_simulator_oracle(corpus, toy1):
    checked = 0
    for length in range(1, 5):
        for bits in itertools.product((0, 1), repeat=length):
            cycles = tuple({"a": b} for b in bits)
            report = simulate(toy1, Stimulus(cycles))
            got = (
                (report.statement.covered, report.statement.total),
                (report.branch.covered, report.branch.total),
                (report.functional.covered, report.functional.total),
            )
            assert got == oracle_simulate(toy1, cycles)
            checked += 1
    assert checked == 30

    rng = np.random.default_rng(5)
    for _ in range(1000):
        dut = corpus[int(rng.integers(0, len(corpus)))]
        total = int(rng.integers(1, 9))
        cut = int(rng.integers(0, total + 1))
        cycles = tuple(
            {p.name: int(rng.integers(0, 2**p.width)) for p in dut.input_ports}
            for _ in range(total)
        )
        full = simulate(dut, Stimulus(cycles))
        prefix = simulate(dut, Stimulus(cycles[:cut]))
        assert full.statement.covered >= prefix.statement.covered
        assert full.branch.covered >= prefix.branch.covered
        assert full.functional.covered >= prefix.functional.covered
    print("PASS criterion 4: simulator matches brute-force oracle on all 30 "
          "toy1 stimuli; prefix monotonicity on 1000 random cases")


def test_criterion_5_distribution_normalization():
    vocab = Vocab(1)
    t_max = 2
    sequences = [
        [vocab.bos, *interior, vocab.eos]
        for n in range(t_max + 1)
        for interior in itertools.product(range(vocab.n_values), repeat=n)
    ]
    for trial in range(10):
        rng = np.random.default_rng(trial)
        policy = random_policy(rng, vocab=vocab, k=2, t_max=t_max, n_contexts=6)
        total = sum(math.exp(policy.log_prob("dut", seq)[0]) for seq in sequences)
        assert abs(total - 1.0) < 1e-10
    print("PASS criterion 5: sequence distribution sums to 1 +/- 1e-10 "
          "for 10 random tiny policies")


def test_criterion_6_curation_contract(toy1, tmp_path):
    config = CurationConfig(pairs_per_dut=1000, teacher="uniform", seed=42)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    stats = curate([toy1], config, p1)
    assert stats.attempted == 1000
    assert stats.kept + stats.dropped_both_invalid + stats.dropped_tie == 1000
    with open(p1) as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == stats.kept
    for doc in records:
        assert doc["chosen_score"] > doc["rejected_score"]
        if doc["rejected_score"] == 0.0:
            assert "rejected_cov" not in doc
        else:
            assert "rejected_cov" in doc
    curate([toy1], config, p2)
    assert p1.read_bytes() == p2.read_bytes()
    print(f"PASS criterion 6: curation contract on 1000 attempts "
          f"(kept {stats.kept}, both_invalid {stats.dropped_both_invalid}, "
          f"tie {stats.dropped_tie}; reruns byte-identical)")


@pytest.fixture(scope="module")
def demo_run(corpus, tmp_path_factory):
    """Shipped-default demo pipeline: curate 400 pairs/design, ablate at N=20."""
    tmp = tmp_path_factory.mktemp("demo")
    dataset_path = tmp / "pairs.jsonl"
    curation = CurationConfig(pairs_per_dut=400, teacher="novelty", seed=42)
    curate(corpus, curation, dataset_path)
    dataset = load_dataset(dataset_path)
    base = TrainConfig(mode="CDDPO", beta=0.2, learning_rate=4.0, epochs=120,
                       batch_size=16, seed=42)
    table, policies = ablate(corpus, dataset, base, EvalConfig(n=20, tau=1.0, seed=42),
                             TabularPolicy(VOCAB, 2, T_MAX))
    return tmp, dataset_path, curation, dataset, base, table, policies


# Regression baseline: mean@20 average coverage recorded from the first
# verified run of the shipped-default demo (seed 42).
DEMO_BASELINE_MEAN_AVG = {
    ("vanilla", "toy1"): 0.0,
    ("vanilla", "mux2"): 0.05416666666666666,
    ("vanilla", "chain2"): 0.0,
    ("vanilla", "adder2"): 0.8416666666666668,
    ("vanilla", "deadend"): 0.0,
    ("sft", "toy1"): 0.5555555555555555,
    ("sft", "mux2"): 0.5569444444444444,
    ("sft", "chain2"): 0.75,
    ("sft", "adder2"): 0.9333333333333333,
    ("sft", "deadend"): 0.0,
    ("dpo", "toy1"): 0.30555555555555547,
    ("dpo", "mux2"): 0.18333333333333335,
    ("dpo", "chain2"): 0.5625,
    ("dpo", "adder2"): 0.9166666666666666,
    ("dpo", "deadend"): 0.0,
    ("cddpo", "toy1"): 0.27777777777777773,
    ("cddpo", "mux2"): 0.1652777777777778,
    ("cddpo", "chain2"): 0.4875,
    ("cddpo", "adder2"): 0.95,
    ("cddpo", "deadend"): 0.0,
}


def test_criterion_7_end_to_end_ablation(corpus, demo_run):
    _, _, _, dataset, _, table, _ = demo_run
    assert len(corpus) >= 5
    assert all(lint(dut) == [] for dut in corpus)
    # >= 200 attempted pairs per design were configured (400).

    strictly_better = 0
    for dut in corpus:
        vanilla_mean = table.value("vanilla", dut.name, "average", "mean")
        cddpo_mean = table.value("cddpo", dut.name, "average", "mean")
        if cddpo_mean > vanilla_mean:
            strictly_better += 1
        assert table.value("cddpo", dut.name, "average", "best") >= \
            table.value("vanilla", dut.name, "average", "best"), dut.name
    assert strictly_better > len(corpus) / 2, f"only {strictly_better}/{len(corpus)}"

    for (policy, dut), expected in DEMO_BASELINE_MEAN_AVG.items():
        got = table.value(policy, dut, "average", "mean")
        assert got == pytest.approx(expected, abs=1e-9), (policy, dut)
    print(f"PASS criterion 7: CD-DPO mean@20 > vanilla on {strictly_better}/"
          f"{len(corpus)} designs, best@20 >= vanilla on all; "
          f"full ordering matches recorded baseline")


def test_criterion_8_determinism(corpus, demo_run, tmp_path):
    tmp, dataset_path, curation, dataset, base, table, policies = demo_run
    # Dataset: full-size curation rerun is byte-identical.
    rerun = tmp_path / "pairs.jsonl"
    curate(corpus, curation, rerun)
    assert rerun.read_bytes() == dataset_path.read_bytes()
    # Checkpoint: retraining CD-DPO with the identical config reproduces
    # the checkpoint bytes.
    retrained = train(dataset, base, TabularPolicy(VOCAB, 2, T_MAX)).policy
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    policies["cddpo"].save(c1)
    retrained.save(c2)
    assert c1.read_bytes() == c2.read_bytes()
    # CSV report: repeating a (reduced-epoch) ablation reproduces the bytes.
    small = TrainConfig(**{**base.to_dict(), "epochs": 5})
    table2, _ = ablate(corpus, dataset, small, EvalConfig(n=4, seed=42),
                       TabularPolicy(VOCAB, 2, T_MAX))
    table3, _ = ablate(corpus, dataset, small, EvalConfig(n=4, seed=42),
                       TabularPolicy(VOCAB, 2, T_MAX))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_ablation(table2, p1)
    write_ablation(table3, p2)
    assert p1.read_bytes() == p2.read_bytes()
    print("PASS criterion 8: dataset, checkpoint, and CSV reports "
          "byte-identical across reruns")
