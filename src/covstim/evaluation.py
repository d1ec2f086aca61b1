"""Policy evaluation (mean@N / best@N) and the four-way ablation harness."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .codec import CodecError, Vocab, validate_and_decode
from .policy import TabularPolicy
from .sim import average_score, simulate
from .training import TrainConfig, train

METRICS = ("statement", "branch", "functional", "average")
ABLATION_POLICIES = ("vanilla", "sft", "dpo", "cddpo")


@dataclass
class Generation:
    tokens: list
    valid: bool
    fractions: dict  # metric -> value in [0, 1]; all zero when invalid


@dataclass
class EvalReport:
    dut: str
    n: int
    tau: float
    seed: int
    mean: dict = field(default_factory=dict)
    best: dict = field(default_factory=dict)
    generations: list = field(default_factory=list)

    to_dict = asdict


def eval_policy(policy, dut, n: int, tau: float, seed: int,
                vocab: Vocab, t_max: int) -> EvalReport:
    """Score N independent generations; invalid ones count as zero coverage."""
    if n < 1:
        raise ValueError("n must be >= 1")
    report = EvalReport(dut=dut.name, n=n, tau=tau, seed=seed)
    rngs = [np.random.default_rng([seed, gen_i]) for gen_i in range(n)]
    for tokens in policy.sample(dut.name, tau, rngs):
        try:
            stim = validate_and_decode(dut, tokens, vocab, t_max)
        except CodecError:
            fractions = {m: 0.0 for m in METRICS}
            report.generations.append(Generation(tokens, False, fractions))
            continue
        cov = simulate(dut, stim)
        fractions = {
            "statement": cov.statement.fraction,
            "branch": cov.branch.fraction,
            "functional": cov.functional.fraction,
            "average": average_score(cov),
        }
        report.generations.append(Generation(tokens, True, fractions))
    for m in METRICS:
        values = [g.fractions[m] for g in report.generations]
        report.mean[m] = sum(values) / n
        report.best[m] = max(values)
    return report


@dataclass
class AblationTable:
    n: int
    tau: float
    seed: int
    rows: list = field(default_factory=list)  # {policy, dut, metric, mean, best}
    histories: dict = field(default_factory=dict)  # mode -> TrainHistory

    def to_csv(self) -> str:
        lines = ["policy,dut,metric,aggregate,value"]
        for row in self.rows:
            lines.append(f"{row['policy']},{row['dut']},{row['metric']},mean,{row['mean']!r}")
            lines.append(f"{row['policy']},{row['dut']},{row['metric']},best,{row['best']!r}")
        return "\n".join(lines) + "\n"

    def value(self, policy: str, dut: str, metric: str, aggregate: str) -> float:
        for row in self.rows:
            if row["policy"] == policy and row["dut"] == dut and row["metric"] == metric:
                return row[aggregate]
        raise KeyError((policy, dut, metric))


def ablate(corpus, dataset, base_config: TrainConfig, n: int, seed: int,
           vocab: Vocab, k: int, t_max: int,
           tau_eval: float = 1.0) -> tuple[AblationTable, dict]:
    """Train SFT / DPO / CD-DPO from one initial policy and evaluate all four.

    Returns the table and the trained policies keyed by ablation row name.
    """
    init = TabularPolicy(vocab, k, t_max)
    policies = {"vanilla": init}
    table = AblationTable(n=n, tau=tau_eval, seed=seed)
    for name, mode in (("sft", "SFT"), ("dpo", "DPO"), ("cddpo", "CDDPO")):
        result = train(dataset, replace(base_config, mode=mode), init)
        policies[name] = result.policy
        table.histories[name] = result.history
    for name in ABLATION_POLICIES:
        for dut in corpus:
            report = eval_policy(policies[name], dut, n, tau_eval, seed, vocab, t_max)
            for m in METRICS:
                table.rows.append({"policy": name, "dut": dut.name, "metric": m,
                                   "mean": report.mean[m], "best": report.best[m]})
    return table, policies


def write_ablation(table: AblationTable, csv_path) -> None:
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(table.to_csv())
