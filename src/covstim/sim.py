"""Cycle-accurate simulation of a DutModel with coverage accumulation.

Semantics per cycle: body items evaluate top to bottom; register reads see
pre-latch values; wire reads see the value assigned earlier in the same
cycle, else 0; ``next`` records a pending register value (last write wins,
unset registers hold); exactly one arm of each evaluated conditional runs
and marks its branch outcome; covergroup bins sample the values current at
the end of item evaluation, before registers latch.  All arithmetic is
64-bit unsigned with masking to the target width on assignment.

Each design is compiled once, by :func:`cycle_source`, into the source of
one Python function that runs a whole stimulus; ``DutModel.compiled``
caches it.  Nothing recurses or dispatches on node types at simulation
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .hdl import Assign, Const, DutModel, Expr, Ident, UnOp

_MASK64 = (1 << 64) - 1
# Python source of each binary operator; shifts get their right operand
# already clamped to 63.
_BINARY = {
    "|": "({a} | {b})",
    "^": "({a} ^ {b})",
    "&": "({a} & {b})",
    "==": "(1 if {a} == {b} else 0)",
    "!=": "(1 if {a} != {b} else 0)",
    "<": "(1 if {a} < {b} else 0)",
    ">": "(1 if {a} > {b} else 0)",
    "+": f"(({{a}} + {{b}}) & {_MASK64})",
    "-": f"(({{a}} - {{b}}) & {_MASK64})",
    "<<": f"(({{a}} << {{b}}) & {_MASK64})",
    ">>": "({a} >> {b})",
}
_FILENAME = "<covstim cycle function>"


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


@dataclass(frozen=True, slots=True)
class MetricCount:
    covered: int
    total: int

    @property
    def fraction(self) -> float:
        return self.covered / self.total if self.total > 0 else 0.0

    def as_fraction(self) -> Fraction:
        return Fraction(self.covered, self.total) if self.total > 0 else Fraction(0)


@dataclass(frozen=True, slots=True)
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


class _Compiler:
    """Emits the source of ``run(inputs, s, b, c)`` for one design.

    Inputs, registers, and wires and outputs live in locals ``i<j>``,
    ``r<j>`` and ``w<j>``, numbered in declaration order.  ``next`` writes
    ``n<j>``, register j's value for the next cycle, whose ``r<j>`` starts
    from it.  ``s``, ``b`` and ``c`` are the statement, branch-outcome and
    cover-bin hit lists.
    """

    def __init__(self, dut: DutModel):
        self.widths = dut.widths
        self.local: dict[str, str] = {}
        for prefix, decls in (("i", dut.input_ports), ("r", dut.regs),
                              ("w", (*dut.wires, *dut.output_ports))):
            for j, d in enumerate(decls):
                if d.name in self.local:
                    raise ValueError(f"identifier {d.name!r} declared twice")
                self.local[d.name] = f"{prefix}{j}"
        self.lines: list[str] = []

    def name(self, name: str) -> str:
        local = self.local.get(name)
        if local is None:
            raise ValueError(f"identifier {name!r} is not declared")
        return local

    def expr(self, e: Expr) -> str:
        if isinstance(e, Const):
            return str(e.value & _MASK64)
        if isinstance(e, Ident):
            return self.name(e.name)
        if isinstance(e, UnOp):
            v = self.expr(e.operand)
            return f"({v} ^ {_MASK64})" if e.op == "~" else f"(0 if {v} else 1)"
        a = self.expr(e.left)
        if e.op in ("<<", ">>"):
            b = (str(min(e.right.value & _MASK64, 63)) if isinstance(e.right, Const)
                 else f"min({self.expr(e.right)}, 63)")
        else:
            b = self.expr(e.right)
        return _BINARY[e.op].format(a=a, b=b)

    def body(self, stmts, indent: str) -> None:
        emit = self.lines.append
        for st in stmts:
            if isinstance(st, Assign):
                target = self.name(st.target)
                if st.kind == "next":
                    if target[0] != "r":
                        raise ValueError(f"'next' target {st.target!r} is not a reg")
                    target = "n" + target[1:]
                mask = (1 << self.widths[st.target]) - 1
                emit(f"{indent}{target} = {self.expr(st.expr)} & {mask}")
                emit(f"{indent}s[{st.index}] = True")
            else:
                emit(f"{indent}if {self.expr(st.cond)}:")
                emit(f"{indent} b[{2 * st.index}] = True")
                self.body(st.then_body, indent + " ")
                emit(f"{indent}else:")
                emit(f"{indent} b[{2 * st.index + 1}] = True")
                self.body(st.else_body, indent + " ")


def cycle_source(dut: DutModel) -> str:
    """Source of ``run(inputs, s, b, c)``, which simulates a whole stimulus.

    ``inputs`` holds one tuple of input values per cycle, in port order;
    ``run`` sets ``s[k]``, ``b[k]`` and ``c[k]`` for every statement, branch
    outcome and cover bin hit.  The source holds only integer constants and
    the locals above, never a name from the design.  Raises ValueError on a
    name it cannot map, which lint reports first.
    """
    comp = _Compiler(dut)
    emit = comp.lines.append
    emit("def run(inputs, s, b, c):")
    for j, r in enumerate(dut.regs):
        emit(f" n{j} = {r.init & ((1 << r.width) - 1)}")
    emit(f" for ({''.join(f'i{j}, ' for j in range(len(dut.input_ports)))}) in inputs:")
    for j in range(len(dut.regs)):
        emit(f"  r{j} = n{j}")
    n_wires = len(dut.wires) + len(dut.output_ports)
    if n_wires:
        emit(f"  {' = '.join(f'w{j}' for j in range(n_wires))} = 0")
    comp.body(dut.body, "  ")
    k = 0
    for cg in dut.covergroups:
        signal = comp.name(cg.signal)
        for b in cg.bins:
            emit(f"  if {b.lo} <= {signal} <= {b.hi}:")
            emit(f"   c[{k}] = True")
            k += 1
    return "\n".join(comp.lines) + "\n"


def compile_model(dut: DutModel):
    """Compile :func:`cycle_source`'s function; ``DutModel.compiled`` caches it."""
    namespace = {"__builtins__": {}, "min": min}
    exec(compile(cycle_source(dut), _FILENAME, "exec"), namespace)
    return namespace["run"]


def _input_rows(dut: DutModel, stim: Stimulus) -> list[tuple]:
    """Every cycle's input values in port order; raise on the first bad one."""
    ports = dut.input_ports
    rows = []
    for cycle_no, cycle in enumerate(stim.cycles):
        row = []
        for port in ports:
            if port.name not in cycle:
                raise SimulationError(cycle_no, port.name, "missing input value")
            v = cycle[port.name]
            if not isinstance(v, int) or not 0 <= v < (1 << port.width):
                raise SimulationError(cycle_no, port.name,
                                      f"value {v!r} out of range for {port.width}-bit port")
            row.append(v)
        rows.append(tuple(row))
    return rows


def simulate(dut: DutModel, stim: Stimulus) -> CoverageReport:
    """Run the stimulus on a lint-clean model and return cumulative coverage.

    Coverage slots are the parser's statement and conditional indices.
    Every cycle's inputs are checked before any cycle runs.
    """
    rows = _input_rows(dut, stim)
    stmt_hit = [False] * dut.total_statements
    branch_hit = [False] * dut.total_branch_outcomes
    bin_hit = [False] * dut.total_bins
    dut.compiled(rows, stmt_hit, branch_hit, bin_hit)
    return _report(sum(stmt_hit), dut.total_statements, sum(branch_hit),
                   dut.total_branch_outcomes, sum(bin_hit), dut.total_bins, len(stim.cycles))


@lru_cache(maxsize=1 << 10)
def _report(stmt: int, stmt_total: int, branch: int, branch_total: int, bins: int,
            bins_total: int, cycles_run: int) -> CoverageReport:
    """One shared report per distinct result.  Reports are immutable values,
    so a caller that keeps many, such as a benchmark loop keeping one per
    call, holds a few objects instead of one per call."""
    return CoverageReport(MetricCount(stmt, stmt_total), MetricCount(branch, branch_total),
                          MetricCount(bins, bins_total), cycles_run)
