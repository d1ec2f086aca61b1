"""Cycle-accurate simulation of a DutModel with coverage accumulation.

Semantics per cycle: body items evaluate top to bottom; register reads see
pre-latch values; wire reads see the value assigned earlier in the same
cycle, else 0; ``next`` records a pending register value (last write wins,
unset registers hold); exactly one arm of each evaluated conditional runs
and marks its branch outcome; covergroup bins sample the values current at
the end of item evaluation, before registers latch.  All arithmetic is
64-bit unsigned with masking to the target width on assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hdl import Assign, Const, DutModel, Expr, Ident, UnOp

_MASK64 = (1 << 64) - 1


class SimulationError(Exception):
    """Malformed stimulus: names the offending cycle and port."""

    def __init__(self, cycle: int, port: str, message: str):
        self.cycle = cycle
        self.port = port
        super().__init__(f"cycle {cycle}, port {port!r}: {message}")


@dataclass(frozen=True)
class Stimulus:
    """Per-cycle input assignments; each cycle maps every input port name."""

    cycles: tuple[dict, ...]

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class MetricCount:
    covered: int
    total: int

    @property
    def fraction(self) -> float:
        return self.covered / self.total if self.total > 0 else 0.0

    def as_fraction(self) -> Fraction:
        return Fraction(self.covered, self.total) if self.total > 0 else Fraction(0)


@dataclass(frozen=True)
class CoverageReport:
    statement: MetricCount
    branch: MetricCount
    functional: MetricCount
    cycles_run: int

    @property
    def average(self) -> float:
        """Unweighted mean over metrics with a nonzero total; 0 if none."""
        active = [m.as_fraction() for m in (self.statement, self.branch, self.functional)
                  if m.total > 0]
        if not active:
            return 0.0
        return float(sum(active, Fraction(0)) / len(active))

    def to_dict(self) -> dict:
        return {
            "statement": {"covered": self.statement.covered, "total": self.statement.total},
            "branch": {"covered": self.branch.covered, "total": self.branch.total},
            "functional": {"covered": self.functional.covered, "total": self.functional.total},
            "statement_fraction": self.statement.fraction,
            "branch_fraction": self.branch.fraction,
            "functional_fraction": self.functional.fraction,
            "average": self.average,
            "cycles_run": self.cycles_run,
        }


def average_score(report: CoverageReport) -> float:
    """Averaged coverage score used for preference labeling."""
    return report.average


def _eval(expr: Expr, env: dict) -> int:
    if isinstance(expr, Const):
        return expr.value & _MASK64
    if isinstance(expr, Ident):
        return env[expr.name]
    if isinstance(expr, UnOp):
        v = _eval(expr.operand, env)
        if expr.op == "~":
            return v ^ _MASK64
        return 0 if v else 1  # '!'
    left = _eval(expr.left, env)
    right = _eval(expr.right, env)
    op = expr.op
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "&":
        return left & right
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == ">":
        return int(left > right)
    if op == "<<":
        return (left << min(right, 63)) & _MASK64
    if op == ">>":
        return left >> min(right, 63)
    if op == "+":
        return (left + right) & _MASK64
    return (left - right) & _MASK64  # '-'


def simulate(dut: DutModel, stim: Stimulus) -> CoverageReport:
    """Run the stimulus and return cumulative coverage.

    Coverage slots are the parser's statement and conditional indices.
    """
    widths = dut.widths
    input_ports = dut.input_ports
    wire_names = [w.name for w in dut.wires] + [p.name for p in dut.output_ports]

    reg_values = {r.name: r.init & ((1 << r.width) - 1) for r in dut.regs}
    stmt_hit = [False] * dut.total_statements
    branch_hit = [False] * dut.total_branch_outcomes
    bin_hit = [[False] * len(cg.bins) for cg in dut.covergroups]

    for cycle_no, cycle in enumerate(stim.cycles):
        env = dict(reg_values)
        for name in wire_names:
            env[name] = 0
        for port in input_ports:
            if port.name not in cycle:
                raise SimulationError(cycle_no, port.name, "missing input value")
            v = cycle[port.name]
            if not isinstance(v, int) or not 0 <= v < (1 << port.width):
                raise SimulationError(cycle_no, port.name,
                                      f"value {v!r} out of range for {port.width}-bit port")
            env[port.name] = v
        pending: dict = {}

        def run(body) -> None:
            for stmt in body:
                if isinstance(stmt, Assign):
                    value = _eval(stmt.expr, env) & ((1 << widths[stmt.target]) - 1)
                    if stmt.kind == "assign":
                        env[stmt.target] = value
                    else:
                        pending[stmt.target] = value
                    stmt_hit[stmt.index] = True
                else:
                    taken = _eval(stmt.cond, env) != 0
                    base = 2 * stmt.index
                    branch_hit[base if taken else base + 1] = True
                    run(stmt.then_body if taken else stmt.else_body)

        run(dut.body)

        for cg_i, cg in enumerate(dut.covergroups):
            value = env[cg.signal]
            for b_i, b in enumerate(cg.bins):
                if b.lo <= value <= b.hi:
                    bin_hit[cg_i][b_i] = True

        for name, value in pending.items():
            reg_values[name] = value

    total_bins = dut.total_bins
    return CoverageReport(
        statement=MetricCount(sum(stmt_hit), dut.total_statements),
        branch=MetricCount(sum(branch_hit), dut.total_branch_outcomes),
        functional=MetricCount(sum(sum(h) for h in bin_hit), total_bins),
        cycles_run=len(stim.cycles),
    )
