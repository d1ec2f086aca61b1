"""Independent straightforward interpreter used as a simulation oracle.

Deliberately written with different bookkeeping than the production
simulator: coverage is tracked as sets of source locations and bin names,
and expression evaluation dispatches through an operator table.
"""

from covstim.hdl import Assign, Conditional, Const, DutModel, Ident, UnOp

M64 = 2**64 - 1

OPS = {
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "&": lambda a, b: a & b,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<<": lambda a, b: (a << min(b, 63)) & M64,
    ">>": lambda a, b: a >> min(b, 63),
    "+": lambda a, b: (a + b) & M64,
    "-": lambda a, b: (a - b) & M64,
}


def oracle_eval(expr, values):
    if isinstance(expr, Const):
        return expr.value & M64
    if isinstance(expr, Ident):
        return values[expr.name]
    if isinstance(expr, UnOp):
        v = oracle_eval(expr.operand, values)
        return (v ^ M64) if expr.op == "~" else (0 if v else 1)
    return OPS[expr.op](oracle_eval(expr.left, values), oracle_eval(expr.right, values))


def oracle_simulate(dut: DutModel, cycles):
    """Return (statement, branch, functional) covered/total count pairs."""
    all_stmts = []
    all_branches = []

    def collect(body):
        for s in body:
            if isinstance(s, Assign):
                all_stmts.append((s.line, s.column))
            else:
                all_branches.append((s.line, s.column, True))
                all_branches.append((s.line, s.column, False))
                collect(s.then_body)
                collect(s.else_body)

    collect(dut.body)
    all_bins = [(cg.signal, b.name) for cg in dut.covergroups for b in cg.bins]
    covered = oracle_covered(dut, cycles)
    return tuple((len(c), len(a)) for c, a in zip(covered, (all_stmts, all_branches, all_bins)))


def oracle_covered(dut: DutModel, cycles):
    """Return the (statement, branch, functional) covered sets: statements as
    (line, column), branch outcomes as (line, column, taken), bins as
    (signal, bin name)."""
    width = {}
    for group in (dut.ports, dut.regs, dut.wires):
        for item in group:
            width[item.name] = item.width

    covered_stmts = set()
    covered_branches = set()
    covered_bins = set()
    regs = {r.name: r.init % (2**r.width) for r in dut.regs}

    for cycle in cycles:
        values = {}
        for p in dut.ports:
            if p.direction == "input":
                values[p.name] = cycle[p.name]
            else:
                values[p.name] = 0
        for w in dut.wires:
            values[w.name] = 0
        values.update(regs)
        nxt = {}

        def execute(body):
            for s in body:
                if isinstance(s, Assign):
                    covered_stmts.add((s.line, s.column))
                    result = oracle_eval(s.expr, values) % (2 ** width[s.target])
                    if s.kind == "assign":
                        values[s.target] = result
                    else:
                        nxt[s.target] = result
                else:
                    cond = oracle_eval(s.cond, values) != 0
                    covered_branches.add((s.line, s.column, cond))
                    execute(s.then_body if cond else s.else_body)

        execute(dut.body)
        for cg in dut.covergroups:
            for b in cg.bins:
                if b.lo <= values[cg.signal] <= b.hi:
                    covered_bins.add((cg.signal, b.name))
        regs.update(nxt)

    return covered_stmts, covered_branches, covered_bins
