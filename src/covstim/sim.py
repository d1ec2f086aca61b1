"""Cycle-accurate simulation of a DutModel with coverage accumulation.

Semantics per cycle: body items evaluate top to bottom; register reads see
pre-latch values; wire reads see the value assigned earlier in the same
cycle, else 0; ``next`` records a pending register value (last write wins,
unset registers hold); exactly one arm of each evaluated conditional runs
and marks its branch outcome; covergroup bins sample the values current at
the end of item evaluation, before registers latch.  All arithmetic is
64-bit unsigned with masking to the target width on assignment.

Each design is compiled once, by :func:`cycle_source`, into the source of one
Python function that runs a stimulus from a register state; :func:`compiled`
keeps it on the model.  The compiler alone numbers what a design covers, one
bit per item of a report's covered set.  Only a design that :func:`hdl.lint`
passes compiles.  The function reads each cycle's inputs straight from the
stimulus's dicts and checks them as it goes, giving up on the first bad cycle;
only then does :func:`simulate` look for the cycle and port to name, by
:func:`input_rows`, the one stimulus rule, which ``codec.encode`` applies too.
It computes each subexpression only to the bits that its consumer reads, and
it computes no store that no later read can see: one overwritten on every path
before a read, or one to an output that nothing reads and no covergroup
samples.  Such a store still counts as covered when its arm runs.  One value
range analysis bounds every subexpression as it is emitted: a value is masked
only where its range can outgrow the bits read, a value whose range is one
point is a constant, and a conditional whose range fixes its truth is not
tested: only the arm that runs is emitted, in line, and it sets no flag of its
own.  Each cycle starts by setting only what a read can reach: the
registers that are read, and the wires and outputs read before their first
drive on some path.  It builds the
covered set once, after the last cycle: a statement by the arm that holds it,
a bin by the values its signal took.  Nothing recurses or dispatches on node
types at simulation time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import eq, gt, lt, ne

from .checks import JSON_SCALARS, shown
from .hdl import Assign, BinOp, Const, DutModel, Expr, Ident, UnOp, lint

_MASK64 = (1 << 64) - 1
_COMPARE = {"==": eq, "!=": ne, "<": lt, ">": gt}
_FILENAME = "<covstim cycle function>"
# The coverage metrics, named as CoverageReport's fields.
METRICS = ("statement", "branch", "functional")


class SimulationError(ValueError):
    """Malformed stimulus: names the offending cycle, and its port (None included)
    unless ``has_port`` is False: the cycle is not a mapping, and ``port`` is None."""

    def __init__(self, cycle: int, port, message: str, *, has_port: bool = True):
        self.cycle = cycle
        self.port = port if has_port else None
        where = f", port {shown(port, JSON_SCALARS)}" if has_port else ""
        super().__init__(f"cycle {cycle}{where}: {message}")


@dataclass(frozen=True)
class Stimulus:
    """Per-cycle input assignments; each cycle maps every input port name."""

    cycles: tuple[dict, ...]


@dataclass(frozen=True, slots=True)
class MetricCount:
    covered: int
    total: int

    @property
    def fraction(self) -> float:
        return self.covered / self.total if self.total > 0 else 0.0


@dataclass(frozen=True, slots=True)
class CoverageReport:
    covered: int  # a bit per item, as the compiler numbers them
    masks: tuple[int, ...]  # each metric's item bits, in METRICS order
    cycles_run: int
    # Set once, on construction: each metric's count of its mask's bits, and of those
    # in covered; their unweighted mean over metrics with a nonzero total, 0 if none.
    statement: MetricCount = field(init=False, compare=False)
    branch: MetricCount = field(init=False, compare=False)
    functional: MetricCount = field(init=False, compare=False)
    average: float = field(init=False, compare=False)

    def __post_init__(self):
        # num / den sums covered / total exactly; int / int rounds correctly.
        num, den, n = 0, 1, 0
        for name, mask in zip(METRICS, self.masks, strict=True):
            m = MetricCount((self.covered & mask).bit_count(), mask.bit_count())
            object.__setattr__(self, name, m)
            if m.total > 0:
                num, den, n = num * m.total + m.covered * den, den * m.total, n + 1
        object.__setattr__(self, "average", num / (den * n) if n else 0.0)

    def metrics(self) -> dict[str, MetricCount]:
        """Each metric's count, by name, in ``METRICS`` order."""
        return {name: getattr(self, name) for name in METRICS}

    def to_dict(self) -> dict:
        metrics = self.metrics()
        return {
            **{name: {"covered": m.covered, "total": m.total} for name, m in metrics.items()},
            **{f"{name}_fraction": m.fraction for name, m in metrics.items()},
            "average": self.average,
            "cycles_run": self.cycles_run,
        }


def average_score(report: CoverageReport) -> float:
    """``report.average``; kept for callers outside the package."""
    return report.average


def _ones(bound: int) -> int:
    """The least ``2**k - 1`` at or above ``bound``: a bound on ``a | b`` and ``a ^ b``."""
    return (1 << bound.bit_length()) - 1


class _Compiler:
    """Emits the source of ``run(cycles, n0, …)`` for one design, and numbers what it covers.

    Inputs, registers, and wires and outputs live in locals ``i<j>``,
    ``r<j>`` and ``w<j>``, numbered in declaration order; ``t`` is the
    number of cycles, ``c`` the current cycle's dict, and the global ``k<j>``
    input j's name.  ``next`` writes ``n<j>``, register j's value for the
    next cycle, whose ``r<j>`` starts from it.  ``c<g>[v]`` becomes 1 once
    covergroup g's signal ends a cycle at value v.

    Each coverage item is one bit, numbered as the walk reaches it: a
    statement where it is emitted, a conditional's two outcomes before its
    arms number theirs, the bins last; ``masks`` holds each metric's bits.
    Outcome k of a tested conditional has a flag ``b<k>``, listed in
    ``flags``, which becomes, once it runs, the bits of the outcome and of
    the items that run whenever it does: the statements its arm holds, and
    the outcome and items of each decided conditional's arm that runs.

    Every local holds a value already masked to its width, so
    :meth:`expr` emits a subexpression for its consumer's ``d`` low bits
    only, with the range ``[lo, hi]`` of the value it emits, the one bound
    on values in the compiler: it masks only where that range can leave
    ``[0, 2**d - 1]``.  :meth:`condition` reads a condition's 64-bit range:
    a condition whose range fixes its truth is never emitted, and only its
    arm that runs is.

    Before the body is emitted, :meth:`live` walks it backward from what is
    live at the end of a cycle, every ``n<j>`` and every covergroup's signal,
    and keeps each store that some path reads before storing to its target
    again; it records each conditional's source and truth, from the one walk
    of its condition that compiling makes.  :meth:`body` emits only kept
    stores, though every store keeps its bit, and every undecided condition
    is evaluated and sets a flag for the arm that runs.  The cycle's
    prologue copies ``r<j> = n<j>``, and zeroes a wire or output, only when it
    is live before the body.  Stores are kept by id, as the parser makes one
    object per statement: two equal stores in different places are told apart.
    """

    def __init__(self, dut: DutModel):
        self.dut = dut
        self.widths = dut.widths
        self.local: dict[str, str] = {}
        for prefix, decls in (("i", dut.input_ports), ("r", dut.regs),
                              ("w", (*dut.wires, *dut.output_ports))):
            for j, d in enumerate(decls):
                self.local[d.name] = f"{prefix}{j}"
        self.lines: list[str] = []
        self.masks = dict.fromkeys(METRICS, 0)
        self.kept: set[int] = set()  # the id of each store that a later read can see
        self.flags: list[int] = []  # k for each flag b<k> that the body sets
        self.conditions: dict[int, tuple] = {}  # condition() of each conditional, by id

    def expr(self, e: Expr, d: int) -> tuple[str, int, int]:
        """Source of ``e`` for a consumer that reads its low ``d`` bits, and bounds on its value.

        The source's value lies in ``[lo, hi]``, with ``lo >= 0``, and equals
        ``e``'s value mod ``2**min(d, 64)``: for ``d >= 64`` it is ``e``'s
        value, so ``expr(e, 64)``'s bounds are ``e``'s 64-bit range.  A
        one-point range is emitted as its constant.
        """
        if isinstance(e, Const):
            value = e.value & ((1 << min(d, 64)) - 1)
            return str(value), value, value
        if isinstance(e, Ident):
            return self.local[e.name], 0, (1 << self.widths[e.name]) - 1
        if e.op == "!":
            a, a_lo, a_hi = self.expr(e.operand, 64)
            source, lo, hi = f"(0 if {a} else 1)", int(a_hi == 0), int(a_lo == 0)
        elif e.op in _COMPARE:
            bare, lo, hi = self.compare(e)
            source = f"(1 if {bare} else 0)"
        elif e.op in ("|", "^", "&"):
            a, a_lo, a_hi = self.expr(e.left, d)
            b, b_lo, b_hi = self.expr(e.right, d)
            source = f"({a} {e.op} {b})"
            if e.op == "&":
                lo, hi = 0, min(a_hi, b_hi)
            else:
                lo, hi = (max(a_lo, b_lo) if e.op == "|" else 0), _ones(max(a_hi, b_hi))
        elif e.op == ">>":
            if isinstance(e.right, Const):
                k = k_lo = k_hi = min(e.right.value & _MASK64, 63)
                a, a_lo, a_hi = self.expr(e.left, d + k)
            else:
                a, a_lo, a_hi = self.expr(e.left, 64)
                k, k_lo, k_hi = self.shift_amount(e.right)
            source, lo, hi = f"({a} >> {k})", a_lo >> k_hi, a_hi >> k_lo
        else:
            # '~', '+', '-' and '<<' wrap at 64 bits, and bit i of their result
            # reads only bits <= i of their operands.
            d = min(d, 64)
            mask = (1 << d) - 1
            if e.op == "~":
                a, a_lo, a_hi = self.expr(e.operand, d)
                source = f"({a} ^ {mask})"
                lo, hi = (mask - a_hi, mask - a_lo) if a_hi <= mask else (0, _ones(a_hi))
            elif e.op == "<<":
                if isinstance(e.right, Const):
                    k = k_lo = k_hi = min(e.right.value & _MASK64, 63)
                    a, a_lo, a_hi = self.expr(e.left, max(d - k, 0))
                else:
                    a, a_lo, a_hi = self.expr(e.left, d)
                    k, k_lo, k_hi = self.shift_amount(e.right)
                source, lo, hi = f"({a} << {k})", a_lo << k_lo, a_hi << k_hi
            else:
                a, a_lo, a_hi = self.expr(e.left, d)
                b, b_lo, b_hi = self.expr(e.right, d)
                source = f"({a} {e.op} {b})"
                lo, hi = (a_lo + b_lo, a_hi + b_hi) if e.op == "+" else (a_lo - b_hi, a_hi - b_lo)
            if lo < 0 or hi > mask:
                # The exact range survives the mask unless it crosses a multiple of 2**d.
                source = f"({source} & {mask})"
                lo, hi = (lo & mask, hi & mask) if lo >> d == hi >> d else (0, mask)
        return (str(lo), lo, lo) if lo == hi else (source, lo, hi)

    def shift_amount(self, e: Expr) -> tuple[str, int, int]:
        """Source of a shift amount clamped to 63, and its clamped bounds."""
        k, lo, hi = self.expr(e, 64)
        return (k if hi <= 63 else f"min({k}, 63)"), min(lo, 63), min(hi, 63)

    def compare(self, e: BinOp) -> tuple[str, int, int]:
        """Source of the comparison ``e``, bare, and its range: its one truth where
        the operands' ranges fix it, else ``[0, 1]``.

        Each operand is walked once.  The truth is fixed when every pair of
        values from the two ranges compares alike: for '<' and '>' when the two
        corners that bound them agree, for '==' and '!=' when the ranges are
        disjoint or one and the same point.
        """
        a, a_lo, a_hi = self.expr(e.left, 64)
        b, b_lo, b_hi = self.expr(e.right, 64)
        compare = _COMPARE[e.op]
        if e.op in ("<", ">"):
            fixed = compare(a_lo, b_hi) == compare(a_hi, b_lo)
        else:
            fixed = a_hi < b_lo or b_hi < a_lo or a_lo == a_hi == b_lo == b_hi
        lo, hi = (int(compare(a_lo, b_hi)),) * 2 if fixed else (0, 1)
        return f"{a} {e.op} {b}", lo, hi

    def condition(self, cond: Expr) -> tuple[str, bool | None]:
        """Source of ``cond`` as a truth value, a comparison bare, and its truth
        where its 64-bit range fixes it, else None: false when the range is
        ``[0, 0]``, true when it excludes 0.  One walk of ``cond`` gives both."""
        if isinstance(cond, BinOp) and cond.op in _COMPARE:
            source, lo, hi = self.compare(cond)
        else:
            source, lo, hi = self.expr(cond, 64)
        return source, False if hi == 0 else True if lo > 0 else None

    def bit(self, metric: str) -> int:
        """The next coverage item's bit, added to ``metric``'s mask."""
        self.masks[metric] |= (bit := sum(self.masks.values()) + 1)  # n items' sum: 2**n - 1
        return bit

    def reads(self, e: Expr) -> set[str]:
        """The locals that ``e`` reads."""
        if isinstance(e, Ident):
            return {self.local[e.name]}
        if isinstance(e, UnOp):
            return self.reads(e.operand)
        if isinstance(e, BinOp):
            return self.reads(e.left) | self.reads(e.right)
        return set()

    def target(self, st: Assign) -> str:
        """The local that ``st`` stores to: ``n<j>`` for a ``next``."""
        target = self.local[st.target]
        return "n" + target[1:] if st.kind == "next" else target

    def live(self, stmts, live: set[str]) -> set[str]:
        """The locals live before ``stmts``, given those live after them.

        A store is kept, by its id, when its target is live after it: some
        path reads the target before it is stored to again.  Each
        conditional's ``condition`` is recorded, by its id, for ``body``.  A
        decided conditional is walked through the arm that runs alone; every
        other condition is read.
        """
        for st in reversed(stmts):
            if isinstance(st, Assign):
                target = self.target(st)
                if target in live:
                    self.kept.add(id(st))
                    live = (live - {target}) | self.reads(st.expr)
                continue
            _, truth = self.conditions[id(st)] = self.condition(st.cond)
            if truth is not None:
                live = self.live(st.then_body if truth else st.else_body, live)
            else:
                live = (self.live(st.then_body, live) | self.live(st.else_body, live)
                        | self.reads(st.cond))
        return live

    def body(self, stmts, indent: str) -> int:
        """Emit ``stmts``, leaving out each store that is not kept; return the
        bits of the items that run whenever ``stmts`` do: their statements,
        emitted or not, and each decided conditional's taken outcome and the
        bits its arm that runs returns.

        A decided conditional emits neither its condition, nor a flag, nor the
        arm that never runs, though both arms' items are numbered in walk
        order: the arm that runs goes in line, at ``indent``.
        """
        emit = self.lines.append
        held = 0
        for st in stmts:
            if isinstance(st, Assign):
                held |= self.bit("statement")
                if id(st) not in self.kept:
                    continue
                target = self.target(st)
                width = self.widths[st.target]
                source, _, hi = self.expr(st.expr, width)
                mask = (1 << width) - 1
                emit(f"{indent}{target} = {source}" + (f" & {mask}" if hi > mask else ""))
                continue
            k = self.masks["branch"].bit_count()
            taken = self.bit("branch"), self.bit("branch")  # before the arms number theirs
            arms = zip((k, k + 1), taken, (st.then_body, st.else_body))
            source, truth = self.conditions[id(st)]
            if truth is not None:
                for k, bit, arm in arms:
                    if truth == (k % 2 == 0):
                        held |= bit | self.body(arm, indent)
                    else:
                        self.skip(arm)
                continue
            emit(f"{indent}if {source}:")
            self.flags += k, k + 1
            for k, bit, arm in arms:
                if k % 2:
                    emit(f"{indent}else:")
                # The flag goes last: its arm's statements are numbered as they are emitted.
                flag = bit | self.body(arm, indent + " ")
                emit(f"{indent} b{k} = {flag}")
        return held

    def skip(self, stmts) -> None:
        """Number the items of ``stmts``, an arm that never runs, emitting nothing."""
        for st in stmts:
            if isinstance(st, Assign):
                self.bit("statement")
            else:  # its two outcomes, then its arms
                self.bit("branch")
                self.bit("branch")
                self.skip(st.then_body)
                self.skip(st.else_body)

    def source(self) -> str:
        """Source of ``run``: the body first, numbering its items, then the rest."""
        dut = self.dut
        # Live after the body: each register's next value, and each covergroup's signal.
        live = self.live(dut.body, {f"n{j}" for j in range(len(dut.regs))}
                         | {self.local[cg.signal] for cg in dut.covergroups})
        top = self.body(dut.body, "  ")
        defaults = "".join(f", n{j}={r.init}" for j, r in enumerate(dut.regs))
        state = "".join(f"n{j}, " for j in range(len(dut.regs)))  # the register values
        lines = [f"def run(cycles{defaults}):"]
        if dut.regs:  # the start state, by the inputs' rule, before any cycle
            bad = [f"type(n{j}) is not int or not 0 <= n{j} < {1 << r.width}"
                   for j, r in enumerate(dut.regs)]
            lines.append(f" if {' or '.join(bad)}: refuse_state({state})")
        # t first: cycles with no len raise before any is read, so simulate can re-read them.
        lines.append(" t = len(cycles)")
        lines += [f" b{k} = 0" for k in self.flags]
        lines += [f" c{g} = bytearray({1 << self.widths[cg.signal]})"
                  for g, cg in enumerate(dut.covergroups)]
        lines.append(" for c in cycles:")
        checks = [f"type(c) is not dict or len(c) != {len(dut.input_ports)}"] + [
            f"type(i{j} := c[k{j}]) is not int or not 0 <= i{j} < {1 << p.width}"
            for j, p in enumerate(dut.input_ports)]
        lines.append(f"  if {' or '.join(checks)}: return None")
        lines += [f"  r{j} = n{j}" for j in range(len(dut.regs)) if f"r{j}" in live]
        zeroed = [f"w{j}" for j in range(len(dut.wires) + len(dut.output_ports))
                  if f"w{j}" in live]
        if zeroed:
            lines.append(f"  {' = '.join(zeroed)} = 0")
        lines += self.lines
        lines += [f"  c{g}[{self.local[cg.signal]}] = 1" for g, cg in enumerate(dut.covergroups)]
        covered = ([f"({top} if t else 0)"] if top else []) + [f"b{k}" for k in self.flags]
        covered += [f"({self.bit('functional')} if c{g}.find(1, {b.lo}, {b.hi + 1}) >= 0 else 0)"
                    for g, cg in enumerate(dut.covergroups) for b in cg.bins]
        masks = ", ".join(map(str, self.masks.values()))
        lines.append(f" return report({' | '.join(covered) or '0'}, ({masks}), t), ({state})")
        return "\n".join(lines) + "\n"


def cycle_source(dut: DutModel) -> str:
    """Source of ``run(cycles, n0, …)``, which simulates a whole stimulus.

    ``cycles`` holds one dict of input values per cycle, as
    ``Stimulus.cycles`` does; ``run`` reads input j of cycle ``c`` as
    ``c[k<j>]``.  ``n<j>`` is register j's value to start from, its reset
    value by default; a start value that is not an int (of type int
    exactly) that fits its register raises ValueError before any cycle
    runs.  In one line per cycle it checks that ``c`` is a dict
    with one key per input port and that each value is an int (of type int
    exactly) in its port's range, and it returns None at the first cycle that
    fails.  Otherwise it returns the stimulus's CoverageReport, whose
    ``covered`` has one bit per statement, branch outcome and bin, and the
    final register values, from which a second run goes on.  A store that no
    later read can see, and no covergroup samples, is left out of the source,
    though its statement still counts; so are a conditional's test, its flags
    and the arm that never runs when its 64-bit value range decides it, though
    every item in both arms still counts; a value whose range is one point is
    emitted as a constant; each cycle sets only the registers,
    wires and outputs that a read can reach before a store.  The source holds
    only integer constants, builtins, ``report`` and the locals above, never a
    name from the design; :func:`compiled` binds ``k<j>`` to port j's name.  A
    design that :func:`hdl.lint` flags raises ValueError naming its first
    issue, as ``covstim lint`` prints it, and how many more there are.
    """
    issues = lint(dut)
    if issues:
        more = f" (and {len(issues) - 1} more)" if len(issues) > 1 else ""
        raise ValueError(f"design {shown(dut.name)} does not lint clean: {issues[0]}{more}")
    return _Compiler(dut).source()


def compiled(dut: DutModel):
    """The function :func:`cycle_source` emits, compiled on the first call and kept on the model.

    The one design gate: whatever reads a design's widths calls it first,
    so each design is linted once, and refused by :func:`cycle_source`.
    The function's namespace holds the builtins the source calls,
    ``report`` (the cached ``_report``), ``refuse_state`` (:func:`_refuse_state`
    given the registers' names and widths) and ``k<j>``, the name of input
    port j, so the source itself names nothing from the design.
    """
    run = dut.__dict__.get("_run")
    if run is None:
        regs = tuple((r.name, r.width) for r in dut.regs)
        namespace = {"__builtins__": {}, "min": min, "bytearray": bytearray, "type": type,
                     "int": int, "dict": dict, "len": len, "report": _report,
                     "refuse_state": partial(_refuse_state, regs),
                     **{f"k{j}": p.name for j, p in enumerate(dut.input_ports)}}
        exec(compile(cycle_source(dut), _FILENAME, "exec"), namespace)
        run = dut.__dict__.setdefault("_run", namespace["run"])
    return run


def _refuse_state(regs, *state):
    """Raise a ValueError naming the first register whose start value in ``state`` is not
    an int (of type int exactly) that fits its width; ``regs`` holds each (name, width)."""
    for (name, width), value in zip(regs, state):
        if type(value) is not int or not 0 <= value < 1 << width:
            raise ValueError(f"register {shown(name)} cannot start at "
                             f"{shown(value, JSON_SCALARS)}: it holds an int in "
                             f"0..{(1 << width) - 1}")


def input_rows(dut: DutModel, stim: Stimulus) -> list[dict]:
    """Every cycle's inputs as a dict of plain ints; raise SimulationError on the first bad one.

    The one stimulus rule: a cycle must be a mapping that gives every input
    port an int (not a bool) in its range, and names no other port.  It gates the design first.
    """
    compiled(dut)
    ports = dut.input_ports
    rows = []
    for cycle_no, cycle in enumerate(stim.cycles):
        if not isinstance(cycle, Mapping):
            raise SimulationError(cycle_no, None, "must be a mapping of port names to values, "
                                  f"got {shown(cycle, Mapping)}", has_port=False)
        row = {}
        for port in ports:
            if port.name not in cycle:
                raise SimulationError(cycle_no, port.name, "missing input value")
            v = cycle[port.name]
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < (1 << port.width):
                raise SimulationError(cycle_no, port.name, f"value {shown(v, JSON_SCALARS)} "
                                      f"out of range for {port.width}-bit port")
            row[port.name] = int(v)
        if len(cycle) > len(ports):
            names = {port.name for port in ports}
            extra = next(name for name in cycle if name not in names)
            raise SimulationError(cycle_no, extra, "no such input port")
        rows.append(row)
    return rows


def simulate(dut: DutModel, stim: Stimulus) -> CoverageReport:
    """Run the stimulus from reset on a lint-clean model and return cumulative coverage.

    The compiled function checks each cycle's inputs as it runs them, and
    there is no report unless every cycle passes.  When it refuses a
    stimulus, :func:`input_rows` names the first bad cycle and port in a
    SimulationError; a stimulus it accepts there (an int subclass other
    than bool as a value, a mapping other than a dict as a cycle, cycles
    in an iterable that has no len) runs again with its values as plain
    ints in plain dicts.  A model with lint issues raises :func:`cycle_source`'s ValueError.
    """
    run = compiled(dut)
    try:
        result = run(stim.cycles)
    except (LookupError, TypeError):
        result = None
    return (run(input_rows(dut, stim)) if result is None else result)[0]


# One shared report per distinct result.  Reports are immutable values, so a caller that
# keeps many, such as a benchmark loop keeping one per call, holds a few objects, not one per call.
_report = lru_cache(maxsize=1 << 10)(CoverageReport)
