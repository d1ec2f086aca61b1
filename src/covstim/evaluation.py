"""Policy evaluation (mean@N / best@N) and the four-way ablation table.

Each block of generations that ``policy.sample_indexed`` yields is scored by
one ``codec.simulate_block`` call, the one scoring rule.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .checks import check_int, check_positive
from .codec import simulate_block
from .policy import sample_indexed
from .sim import METRICS as COVERAGE_METRICS

METRICS = (*COVERAGE_METRICS, "average")
ABLATION_POLICIES = ("vanilla", "sft", "dpo", "cddpo")


@dataclass(frozen=True)
class EvalConfig:
    """N generations per design, sampled at temperature tau from seed."""

    n: int = 20
    tau: float = 1.0
    seed: int = 42

    def __post_init__(self):
        check_int("eval.n", self.n, 1)
        object.__setattr__(self, "tau", check_positive("eval.tau", self.tau))
        check_int("eval.seed", self.seed, 0)


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


def eval_policy(policy, dut, config: EvalConfig) -> EvalReport:
    """Score N independent generations with ``codec.simulate_block``.

    ``sample_indexed`` draws generation i from ``default_rng([seed, i])``,
    and it is decoded under the policy's own ``vocab`` and ``t_max``; an
    invalid one scores 0 on every metric.
    """
    n = config.n
    report = EvalReport(dut=dut.name, n=n, tau=config.tau, seed=config.seed)
    for (block,) in sample_indexed(policy, dut.name, [config.seed], n, (config.tau,)):
        for tokens, cov in zip(block, simulate_block(dut, block, policy.vocab, policy.t_max)):
            if cov is None:
                fractions = dict.fromkeys(METRICS, 0.0)
            else:
                fractions = {name: m.fraction for name, m in cov.metrics().items()}
                fractions["average"] = cov.average
            report.generations.append(Generation(tokens, cov is not None, fractions))
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
