"""Seeded generator of lint-clean mini-HDL designs and long random stimuli.

Every design has the same ports, registers, wires and statement count;
the expressions, the conditionals and their nesting, and the cover bins are
drawn at random.  The cost of one design still varies with the seed, so a
run simulates many designs, and what it measures varies little.  The generator imports nothing from covstim: the program under test
receives only the generated text and the per-cycle input values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

INPUTS = (("a0", 8), ("a1", 8), ("c0", 1), ("c1", 3))
OUTPUTS = (("y0", 8), ("y1", 8))
N_REGS = 6
N_WIRES = 4
REG_WIDTH = 8
# Top-level conditionals per design and statements inside each; the
# conditionals nest up to MAX_NEST deep.
N_BLOCKS = 6
STMTS_PER_BLOCK = 7
MAX_NEST = 3
MAX_EXPR_DEPTH = 3
BIN_OPS = ("|", "^", "&", "+", "-", "<<", ">>")
CMP_OPS = ("==", "!=", "<", ">")
CYCLES_MIN = 100
CYCLES_MAX = 150
# Inputs of one simulate_large run: 32 designs average out the cost of any
# one; 16 gave twice the seed-to-seed spread.
DESIGNS = 32
STIMULI_PER_DESIGN = 4


@dataclass(frozen=True)
class Design:
    name: str
    text: str
    lines: int
    statements: int
    conditionals: int
    max_expr_depth: int


class _Writer:
    def __init__(self, rng: random.Random, readable: list[str]):
        self.rng = rng
        self.readable = readable
        self.lines: list[str] = []
        self.statements = 0
        self.conditionals = 0
        self.max_depth = 0

    def expr(self, depth: int = 0) -> str:
        self.max_depth = max(self.max_depth, depth)
        rng = self.rng
        if depth >= MAX_EXPR_DEPTH or rng.random() < 0.3:
            if rng.random() < 0.75:
                return rng.choice(self.readable)
            return str(rng.randrange(256))
        if rng.random() < 0.1:
            return f"~({self.expr(depth + 1)})"
        op = rng.choice(BIN_OPS)
        right = str(rng.randrange(1, 4)) if op in ("<<", ">>") else self.expr(depth + 1)
        return f"({self.expr(depth + 1)} {op} {right})"

    def cond(self) -> str:
        rng = self.rng
        left = self.expr(1)
        return f"{left} {rng.choice(CMP_OPS)} {rng.randrange(256)}"

    def assign(self, indent: str, targets: list[tuple[str, str]]) -> None:
        kind, target = self.rng.choice(targets)
        self.lines.append(f"{indent}{kind} {target} = {self.expr()};")
        self.statements += 1

    def block(self, indent: str, budget: int, nest: int, targets) -> None:
        """Emit ``budget`` statements, some wrapped in nested conditionals."""
        while budget > 0:
            if nest < MAX_NEST and budget >= 3 and self.rng.random() < 0.45:
                inner = self.rng.randrange(2, min(budget, 6) + 1)
                then_n = self.rng.randrange(1, inner)
                self.conditionals += 1
                self.lines.append(f"{indent}if ({self.cond()}) {{")
                self.block(indent + "  ", then_n, nest + 1, targets)
                self.lines.append(f"{indent}}} else {{")
                self.block(indent + "  ", inner - then_n, nest + 1, targets)
                self.lines.append(f"{indent}}}")
                budget -= inner
            else:
                self.assign(indent, targets)
                budget -= 1


def generate_design(rng: random.Random, name: str) -> Design:
    regs = [f"r{i}" for i in range(N_REGS)]
    wires = [f"w{i}" for i in range(N_WIRES)]
    inputs = [n for n, _ in INPUTS]
    w = _Writer(rng, inputs + regs + wires)
    ports = ", ".join([f"input {n}[{width}]" for n, width in INPUTS]
                      + [f"output {n}[{width}]" for n, width in OUTPUTS])
    w.lines.append(f"module {name} ({ports});")
    for r in regs:
        w.lines.append(f"  reg {r}[{REG_WIDTH}] = {rng.randrange(256)};")
    for x in wires:
        w.lines.append(f"  wire {x}[{REG_WIDTH}];")
    # Unconditional drives first, so every wire and output is assigned
    # somewhere, as lint requires.
    for x in wires:
        w.lines.append(f"  assign {x} = {w.expr()};")
        w.statements += 1
    targets = [("next", r) for r in regs] + [("assign", x) for x in wires]
    for _ in range(N_BLOCKS):
        w.block("  ", STMTS_PER_BLOCK, 0, targets)
    for out, _ in OUTPUTS:
        w.lines.append(f"  assign {out} = {w.expr()};")
        w.statements += 1
    for signal in regs + wires[:2] + [OUTPUTS[0][0]]:
        cuts = sorted(rng.sample(range(1, 255), 3))
        edges = [0] + cuts + [256]
        bins = ", ".join(f"b{j}: {lo}..{hi - 1}" for j, (lo, hi) in enumerate(zip(edges, edges[1:])))
        w.lines.append(f"  cover {signal} {{ {bins} }}")
    w.lines.append("endmodule")
    return Design(name=name, text="\n".join(w.lines) + "\n", lines=len(w.lines),
                  statements=w.statements, conditionals=w.conditionals,
                  max_expr_depth=w.max_depth)


def generate_stimulus(rng: random.Random) -> list[dict]:
    n = rng.randrange(CYCLES_MIN, CYCLES_MAX + 1)
    return [{name: rng.randrange(1 << width) for name, width in INPUTS} for _ in range(n)]


def generate(seed: int, n_designs: int, stimuli_per_design: int):
    """Designs and, per design, a list of stimuli; a pure function of ``seed``."""
    rng = random.Random(seed)
    designs = [generate_design(rng, f"gen{i}") for i in range(n_designs)]
    stimuli = [[generate_stimulus(rng) for _ in range(stimuli_per_design)]
               for _ in designs]
    return designs, stimuli


def describe(designs, stimuli) -> dict:
    """Size of the generated input, for the run record."""
    cycles = [len(s) for per in stimuli for s in per]
    return {
        "designs": len(designs),
        "lines": [d.lines for d in designs],
        "statements": [d.statements for d in designs],
        "conditionals": [d.conditionals for d in designs],
        "max_expr_depth": max(d.max_expr_depth for d in designs),
        "stimuli": len(cycles),
        "cycles_per_stimulus": {"min": min(cycles), "max": max(cycles),
                                "mean": sum(cycles) / len(cycles)},
    }
