"""Mini-HDL frontend: lexer, parser, lint checks, and a debug emitter.

Designs are single modules with input/output ports, registers updated
through ``next`` statements, wires driven by ``assign``, conditionals, and
``cover`` groups declaring value bins on a signal.  The parser is total
over arbitrary text: it either returns a :class:`DutModel` or raises
:class:`ParseError` at the first offending token.  Expressions and
conditionals nested deeper than ``MAX_DEPTH`` are syntax errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

MAX_WIDTH = 16
# Most operators (unary or binary) on one path of an expression tree, and
# most conditionals nested in one another, that parse accepts.  Every walker
# over a model (lint, pretty_print, and sim's compiler) recurses once per
# level, so the bound keeps them far from Python's recursion limit; the
# compiled cycle function nests at most two parentheses per operator and
# one indent per conditional, well inside CPython's limits of 200 and 100.
# The simulation itself does not recurse.  Parentheses and unary operators
# open at once are bounded by 2 * MAX_DEPTH, which bounds the parser's own
# recursion and still admits pretty_print's output, which writes two of
# them per operator.
MAX_DEPTH = 24

KEYWORDS = {
    "module", "endmodule", "input", "output", "reg", "wire",
    "assign", "next", "if", "else", "cover",
}

# Longest-first so '==' wins over '=', '<<' over '<', '..' over error.
_SYMBOLS = [
    "==", "!=", "<<", ">>", "..",
    "|", "^", "&", "<", ">", "+", "-", "~", "!",
    "(", ")", "{", "}", "[", "]", ";", ",", ":", "=",
]
# One alternative per token class, tried in order at each position.  \w is
# str.isalnum plus '_', and \d the decimal digits that int() reads.
_TOKEN_RE = re.compile(r"""
    (?P<blank>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<word>[^\W\d]\w*)
  | (?P<hex>0[xX][0-9a-fA-F]*)
  | (?P<int>\d+)
  | (?P<sym>""" + "|".join(map(re.escape, _SYMBOLS)) + ")", re.VERBOSE)


class ParseError(Exception):
    """Lex or syntax failure, located at a 1-based line/column."""

    def __init__(self, line: int, column: int, kind: str, message: str):
        self.line = line
        self.column = column
        self.kind = kind  # 'lex' | 'syntax'
        self.message = message
        super().__init__(f"{kind} error at {line}:{column}: {message}")


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # 'ident' | 'int' | 'kw' | 'sym' | 'eof'
    text: str
    value: int
    line: int
    column: int


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos, n = 0, len(text)
    line, line_start = 1, 0
    kind, comment_col = None, 0  # a comment ending the text leaves EOF at its start
    while pos < n:
        col = pos - line_start + 1
        m = match(text, pos)
        kind = m.lastgroup if m else None
        # \w also holds numerals such as '²' that are not letters.
        if kind is None or kind == "word" and not (text[pos].isalpha() or text[pos] == "_"):
            raise ParseError(line, col, "lex", f"unexpected character {text[pos]!r}")
        end = m.end()
        if kind == "blank":
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        elif kind == "comment":
            comment_col = col
        elif kind == "word":
            word = m.group()
            append(Token("kw" if word in KEYWORDS else "ident", word, 0, line, col))
        elif kind == "sym":
            append(Token("sym", m.group(), 0, line, col))
        elif kind == "hex":
            if end == pos + 2:
                raise ParseError(line, col, "lex", "incomplete hex literal")
            append(Token("int", m.group(), int(m.group(), 16), line, col))
        else:
            # Reject '12ab' outright rather than splitting tokens.
            if end < n and (text[end].isalpha() or text[end] == "_"):
                raise ParseError(line, col, "lex", f"malformed number {text[pos:end + 1]!r}")
            try:
                value = int(m.group())
            except ValueError:  # more digits than int() converts
                raise ParseError(line, col, "lex", "number literal too long") from None
            append(Token("int", m.group(), value, line, col))
        pos = end
    col = comment_col if kind == "comment" else pos - line_start + 1
    append(Token("eof", "", 0, line, col))
    return tokens


# --- AST ------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Ident:
    name: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class Const:
    value: int


@dataclass(frozen=True, slots=True)
class UnOp:
    op: str  # '~' | '!'
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Ident, Const, UnOp, BinOp]


@dataclass(frozen=True, slots=True)
class Assign:
    """'assign' (combinational wire drive) or 'next' (register update)."""

    kind: str  # 'assign' | 'next'
    target: str
    expr: Expr
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)
    index: int = field(default=0, compare=False)  # pre-order among Assigns


@dataclass(frozen=True, slots=True)
class Conditional:
    cond: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)
    index: int = field(default=0, compare=False)  # pre-order among Conditionals


Stmt = Union[Assign, Conditional]


@dataclass(frozen=True, slots=True)
class Port:
    name: str
    direction: str  # 'input' | 'output'
    width: int
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class Reg:
    name: str
    width: int
    init: int
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class Wire:
    name: str
    width: int
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class CoverBin:
    name: str
    lo: int
    hi: int


@dataclass(frozen=True, slots=True)
class Covergroup:
    signal: str
    bins: tuple[CoverBin, ...]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DutModel:
    """A parsed design; the parser numbers its statements and sets the totals."""

    name: str
    ports: tuple[Port, ...]
    regs: tuple[Reg, ...]
    wires: tuple[Wire, ...]
    body: tuple[Stmt, ...]
    covergroups: tuple[Covergroup, ...]
    total_statements: int
    total_branch_outcomes: int

    @cached_property
    def input_ports(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.direction == "input")

    @cached_property
    def output_ports(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.direction == "output")

    @cached_property
    def widths(self) -> dict[str, int]:
        """Width of every declared name; the first of ports, regs, wires wins."""
        widths: dict[str, int] = {}
        for d in (*self.ports, *self.regs, *self.wires):
            widths.setdefault(d.name, d.width)
        return widths

    @property
    def total_bins(self) -> int:
        return sum(len(cg.bins) for cg in self.covergroups)

    @cached_property
    def compiled(self):
        """The design as one Python function over a whole stimulus (``sim.cycle_source``)."""
        from .sim import compile_model  # sim imports this module
        return compile_model(self)


# --- Parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.n_statements = 0
        self.n_conditionals = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def _fail(self, message: str):
        t = self.cur
        raise ParseError(t.line, t.column, "syntax", message)

    def advance(self) -> Token:
        t = self.cur
        self.pos += 1
        return t

    def expect_sym(self, sym: str) -> Token:
        if self.cur.kind == "sym" and self.cur.text == sym:
            return self.advance()
        self._fail(f"expected {sym!r}, found {self.cur.text or 'end of input'!r}")

    def expect_kw(self, kw: str) -> Token:
        if self.cur.kind == "kw" and self.cur.text == kw:
            return self.advance()
        self._fail(f"expected {kw!r}, found {self.cur.text or 'end of input'!r}")

    def expect_ident(self) -> Token:
        if self.cur.kind == "ident":
            return self.advance()
        self._fail(f"expected identifier, found {self.cur.text or 'end of input'!r}")

    def expect_int(self) -> Token:
        if self.cur.kind == "int":
            return self.advance()
        self._fail(f"expected integer, found {self.cur.text or 'end of input'!r}")

    def at_sym(self, sym: str) -> bool:
        return self.cur.kind == "sym" and self.cur.text == sym

    def at_kw(self, kw: str) -> bool:
        return self.cur.kind == "kw" and self.cur.text == kw

    @staticmethod
    def _nest(tok: Token, depth: int, limit: int, what: str) -> None:
        if depth > limit:
            raise ParseError(tok.line, tok.column, "syntax",
                             f"more than {limit} {what} nested")

    def parse_dut(self) -> DutModel:
        self.expect_kw("module")
        name = self.expect_ident().text
        self.expect_sym("(")
        ports = [self.parse_port()]
        while self.at_sym(","):
            self.advance()
            ports.append(self.parse_port())
        self.expect_sym(")")
        self.expect_sym(";")

        regs: list[Reg] = []
        wires: list[Wire] = []
        body: list[Stmt] = []
        covergroups: list[Covergroup] = []
        while not self.at_kw("endmodule"):
            if self.cur.kind == "eof":
                self._fail("expected 'endmodule'")
            if self.at_kw("reg"):
                regs.append(self.parse_reg())
            elif self.at_kw("wire"):
                wires.append(self.parse_wire())
            elif self.at_kw("cover"):
                covergroups.append(self.parse_cover())
            else:
                body.append(self.parse_stmt())
        self.advance()  # endmodule
        if self.cur.kind != "eof":
            self._fail("trailing input after 'endmodule'")
        return DutModel(
            name=name,
            ports=tuple(ports),
            regs=tuple(regs),
            wires=tuple(wires),
            body=tuple(body),
            covergroups=tuple(covergroups),
            total_statements=self.n_statements,
            total_branch_outcomes=2 * self.n_conditionals,
        )

    def parse_port(self) -> Port:
        if self.at_kw("input") or self.at_kw("output"):
            dir_tok = self.advance()
        else:
            self._fail("expected 'input' or 'output'")
        name_tok = self.expect_ident()
        self.expect_sym("[")
        width = self.expect_int().value
        self.expect_sym("]")
        return Port(name_tok.text, dir_tok.text, width, dir_tok.line, dir_tok.column)

    def parse_reg(self) -> Reg:
        kw = self.advance()
        name = self.expect_ident().text
        self.expect_sym("[")
        width = self.expect_int().value
        self.expect_sym("]")
        self.expect_sym("=")
        init = self.expect_int().value
        self.expect_sym(";")
        return Reg(name, width, init, kw.line, kw.column)

    def parse_wire(self) -> Wire:
        kw = self.advance()
        name = self.expect_ident().text
        self.expect_sym("[")
        width = self.expect_int().value
        self.expect_sym("]")
        self.expect_sym(";")
        return Wire(name, width, kw.line, kw.column)

    def parse_cover(self) -> Covergroup:
        kw = self.advance()
        signal = self.expect_ident().text
        self.expect_sym("{")
        bins = [self.parse_bin()]
        while self.at_sym(","):
            self.advance()
            bins.append(self.parse_bin())
        self.expect_sym("}")
        return Covergroup(signal, tuple(bins), kw.line, kw.column)

    def parse_bin(self) -> CoverBin:
        name = self.expect_ident().text
        self.expect_sym(":")
        lo = self.expect_int().value
        self.expect_sym("..")
        hi = self.expect_int().value
        return CoverBin(name, lo, hi)

    def parse_stmt(self, nest: int = 0) -> Stmt:
        """Parse one statement inside ``nest`` enclosing conditionals."""
        if self.at_kw("assign") or self.at_kw("next"):
            kw = self.advance()
            index = self.n_statements
            self.n_statements += 1
            target = self.expect_ident().text
            self.expect_sym("=")
            expr, _ = self.parse_expr()
            self.expect_sym(";")
            return Assign(kw.text, target, expr, kw.line, kw.column, index)
        if self.at_kw("if"):
            kw = self.advance()
            self._nest(kw, nest + 1, MAX_DEPTH, "conditionals")
            index = self.n_conditionals
            self.n_conditionals += 1
            self.expect_sym("(")
            cond, _ = self.parse_expr()
            self.expect_sym(")")
            then_body = self.parse_block(nest + 1)
            else_body: tuple[Stmt, ...] = ()
            if self.at_kw("else"):
                self.advance()
                else_body = self.parse_block(nest + 1)
            return Conditional(cond, then_body, else_body, kw.line, kw.column, index)
        self._fail(f"expected statement, found {self.cur.text or 'end of input'!r}")

    def parse_block(self, nest: int) -> tuple[Stmt, ...]:
        self.expect_sym("{")
        stmts: list[Stmt] = []
        while not self.at_sym("}"):
            if self.cur.kind == "eof":
                self._fail("expected '}'")
            stmts.append(self.parse_stmt(nest))
        self.advance()
        return tuple(stmts)

    # Binary precedence, lowest to highest:
    # |  ^  &  (== != < >)  (<< >>)  (+ -)  unary  primary
    _LEVELS = [["|"], ["^"], ["&"], ["==", "!=", "<", ">"], ["<<", ">>"], ["+", "-"]]

    def parse_expr(self, opened: int = 0, level: int = 0) -> tuple[Expr, int]:
        """Parse an expression; return it with its operator depth.

        ``opened`` counts the parentheses and unary operators open around it.
        """
        if level == len(self._LEVELS):
            return self.parse_unary(opened)
        left, depth = self.parse_expr(opened, level + 1)
        ops = self._LEVELS[level]
        while self.cur.kind == "sym" and self.cur.text in ops:
            op = self.advance()
            right, right_depth = self.parse_expr(opened, level + 1)
            depth = 1 + max(depth, right_depth)
            self._nest(op, depth, MAX_DEPTH, "operators")
            left = BinOp(op.text, left, right)
        return left, depth

    def _open(self, opened: int) -> None:
        self._nest(self.cur, opened + 1, 2 * MAX_DEPTH, "parentheses and unary operators")
        self.advance()

    def parse_unary(self, opened: int) -> tuple[Expr, int]:
        if self.cur.kind == "sym" and self.cur.text in ("~", "!"):
            op = self.cur
            self._open(opened)
            operand, depth = self.parse_unary(opened + 1)
            self._nest(op, depth + 1, MAX_DEPTH, "operators")
            return UnOp(op.text, operand), depth + 1
        return self.parse_primary(opened)

    def parse_primary(self, opened: int) -> tuple[Expr, int]:
        if self.cur.kind == "ident":
            t = self.advance()
            return Ident(t.text, t.line, t.column), 0
        if self.cur.kind == "int":
            return Const(self.advance().value), 0
        if self.at_sym("("):
            self._open(opened)
            expr, depth = self.parse_expr(opened + 1)
            self.expect_sym(")")
            return expr, depth
        self._fail(f"expected expression, found {self.cur.text or 'end of input'!r}")


def parse(text: str) -> DutModel:
    """Parse mini-HDL source into a DutModel, raising ParseError on failure."""
    return _Parser(_lex(text)).parse_dut()


# --- Lint -----------------------------------------------------------------

@dataclass(frozen=True)
class LintIssue:
    kind: str
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.kind}: {self.message}"


def lint(dut: DutModel) -> list[LintIssue]:
    """Static checks on a parsed design; an empty result means simulatable."""
    issues: list[LintIssue] = []

    declared: dict[str, object] = {}
    decls = list(dut.ports) + list(dut.regs) + list(dut.wires)
    decls.sort(key=lambda d: (d.line, d.column))
    for d in decls:
        if d.name in declared:
            issues.append(LintIssue("duplicate_identifier", d.line, d.column,
                                    f"identifier {d.name!r} already declared"))
        else:
            declared[d.name] = d
        if not 1 <= d.width <= MAX_WIDTH:
            issues.append(LintIssue("width_out_of_range", d.line, d.column,
                                    f"width {d.width} of {d.name!r} outside 1..{MAX_WIDTH}"))
        if isinstance(d, Reg) and d.width >= 1 and not 0 <= d.init < (1 << d.width):
            issues.append(LintIssue("width_out_of_range", d.line, d.column,
                                    f"init {d.init} of {d.name!r} does not fit in {d.width} bits"))

    if not dut.input_ports:
        issues.append(LintIssue("no_inputs", 1, 1, "module declares no input ports"))
    if not dut.output_ports:
        issues.append(LintIssue("no_outputs", 1, 1, "module declares no output ports"))

    input_names = {p.name for p in dut.input_ports}
    reg_names = {r.name for r in dut.regs}
    assigned_wires: set[str] = set()

    def check_expr(expr: Expr) -> None:
        if isinstance(expr, Ident):
            if expr.name not in declared:
                issues.append(LintIssue("undeclared_identifier", expr.line, expr.column,
                                        f"identifier {expr.name!r} is not declared"))
        elif isinstance(expr, UnOp):
            check_expr(expr.operand)
        elif isinstance(expr, BinOp):
            check_expr(expr.left)
            check_expr(expr.right)

    def check_stmt(stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            if stmt.target not in declared:
                issues.append(LintIssue("undeclared_identifier", stmt.line, stmt.column,
                                        f"target {stmt.target!r} is not declared"))
            elif stmt.kind == "assign" and stmt.target in input_names:
                issues.append(LintIssue("assign_to_input", stmt.line, stmt.column,
                                        f"input port {stmt.target!r} cannot be assigned"))
            elif stmt.kind == "assign" and stmt.target in reg_names:
                # It would change the reg's value for the rest of the cycle
                # only; the latched value comes back in the next one.
                issues.append(LintIssue("assign_to_reg", stmt.line, stmt.column,
                                        f"reg {stmt.target!r} takes 'next', not 'assign'"))
            elif stmt.kind == "next" and stmt.target not in reg_names:
                issues.append(LintIssue("next_to_non_reg", stmt.line, stmt.column,
                                        f"'next' target {stmt.target!r} is not a reg"))
            if stmt.kind == "assign":
                assigned_wires.add(stmt.target)
            check_expr(stmt.expr)
        else:
            check_expr(stmt.cond)
            for s in stmt.then_body:
                check_stmt(s)
            for s in stmt.else_body:
                check_stmt(s)

    for stmt in dut.body:
        check_stmt(stmt)

    # A bin is meant to be known by (signal, bin name); the simulator counts
    # every declared bin, so a repeated pair would count one bin twice.
    covered: set[str] = set()
    for cg in dut.covergroups:
        if not cg.bins:
            issues.append(LintIssue("empty_covergroup", cg.line, cg.column,
                                    f"covergroup on {cg.signal!r} declares no bins"))
        if cg.signal in covered:
            issues.append(LintIssue("duplicate_covergroup", cg.line, cg.column,
                                    f"signal {cg.signal!r} already has a covergroup"))
        covered.add(cg.signal)
        bin_names: set[str] = set()
        for b in cg.bins:
            if b.name in bin_names:
                issues.append(LintIssue("duplicate_bin", cg.line, cg.column,
                                        f"bin {b.name!r} repeated in covergroup on {cg.signal!r}"))
            bin_names.add(b.name)
        if cg.signal not in declared:
            issues.append(LintIssue("undeclared_identifier", cg.line, cg.column,
                                    f"covered signal {cg.signal!r} is not declared"))
            continue
        width = dut.widths[cg.signal]
        for b in cg.bins:
            if b.lo > b.hi or b.hi >= (1 << width):
                issues.append(LintIssue("bin_out_of_range", cg.line, cg.column,
                                        f"bin {b.name!r} range {b.lo}..{b.hi} invalid "
                                        f"for {width}-bit signal {cg.signal!r}"))

    for w in list(dut.wires) + list(dut.output_ports):
        if w.name not in assigned_wires:
            issues.append(LintIssue("wire_never_assigned", w.line, w.column,
                                    f"wire {w.name!r} is never assigned"))

    issues.sort(key=lambda i: (i.line, i.column))
    return issues


# --- Debug emitter --------------------------------------------------------

def _emit_expr(expr: Expr) -> str:
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, UnOp):
        return f"{expr.op}({_emit_expr(expr.operand)})"
    return f"({_emit_expr(expr.left)} {expr.op} {_emit_expr(expr.right)})"


def _emit_stmt(stmt: Stmt, indent: str) -> list[str]:
    if isinstance(stmt, Assign):
        return [f"{indent}{stmt.kind} {stmt.target} = {_emit_expr(stmt.expr)};"]
    lines = [f"{indent}if ({_emit_expr(stmt.cond)}) {{"]
    for s in stmt.then_body:
        lines.extend(_emit_stmt(s, indent + "  "))
    if stmt.else_body:
        lines.append(f"{indent}}} else {{")
        for s in stmt.else_body:
            lines.extend(_emit_stmt(s, indent + "  "))
    lines.append(f"{indent}}}")
    return lines


def pretty_print(dut: DutModel) -> str:
    """Emit canonical source that reparses to a structurally equal model."""
    ports = ", ".join(f"{p.direction} {p.name}[{p.width}]" for p in dut.ports)
    lines = [f"module {dut.name} ({ports});"]
    for r in dut.regs:
        lines.append(f"  reg {r.name}[{r.width}] = {r.init};")
    for w in dut.wires:
        lines.append(f"  wire {w.name}[{w.width}];")
    for stmt in dut.body:
        lines.extend(_emit_stmt(stmt, "  "))
    for cg in dut.covergroups:
        bins = ", ".join(f"{b.name}: {b.lo}..{b.hi}" for b in cg.bins)
        lines.append(f"  cover {cg.signal} {{ {bins} }}")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
