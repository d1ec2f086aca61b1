"""Mini-HDL frontend: lexer, parser, lint checks, and a debug emitter.

Designs are single modules with input/output ports, registers updated
through ``next`` statements, wires driven by ``assign``, conditionals, and
``cover`` groups declaring value bins on a signal.  The parser is total
over arbitrary text: it either returns a :class:`DutModel` or raises
:class:`ParseError` at the first offending token.  Expressions and
conditionals nested deeper than ``MAX_DEPTH`` are syntax errors.  Only
syntax and lint live here: ``sim``'s compiler counts what a design covers.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple, Union

from .checks import shown

MAX_WIDTH = 16
# Most operators (unary or binary) on one path of an expression tree, and
# most conditionals nested in one another, that parse accepts.  Every walker
# over a model (lint, pretty_print, and sim's compiler) recurses once per
# level, so the bound keeps them far from Python's recursion limit; the
# compiled cycle function nests at most three parentheses per operator and
# one indent per conditional, well inside CPython's limits of 200 and 100.
# The simulation itself does not recurse.  Parentheses and unary operators
# open at once are bounded by 2 * MAX_DEPTH, which still admits
# pretty_print's output, which writes two of them per operator, and bounds
# the parser's own recursion: two frames per open parenthesis, one per open
# unary operator and one per binary operator whose right operand is open.
# An accepted expression takes at most 2 * 48 + 24 = 120 frames; a rejected
# one at most eight per parenthesis (one binary operator per level), ~400.
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
# Blanks, then one alternative per token class, tried in order, or any other
# character as 'bad'.  It is matched against one line at a time, so '.' takes
# any character; blanks that end a line match nothing, and every other
# character is in some match, so the matches tile the line.  \w is
# str.isalnum plus '_', and \d the decimal digits that int() reads.
_TOKEN_RE = re.compile(r"""(?P<blank>[ \t\r]*)(?:
    (?P<sym>""" + "|".join(map(re.escape, _SYMBOLS)) + r""")
  | (?P<word>[^\W\d]\w*)
  | (?P<hex>0[xX][0-9a-fA-F]*)
  | (?P<int>\d+)
  | (?P<comment>//.*)
  | (?P<bad>[^ \t\r]))""", re.VERBOSE)


class ParseError(Exception):
    """Lex or syntax failure, located at a 1-based line/column."""

    def __init__(self, line: int, column: int, kind: str, message: str):
        self.line = line
        self.column = column
        self.kind = kind  # 'lex' | 'syntax'
        self.message = message
        super().__init__(f"{kind} error at {line}:{column}: {message}")


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'kw' | 'sym' | 'eof'
    text: str
    value: int
    line: int
    column: int


def _lex(text: str) -> list[Token]:
    """Tokens of ``text``, ending with 'eof'; raise ParseError at the first bad one.

    No token spans a newline, so each line is matched on its own, by one
    ``findall`` whose matches tile it: each gives its blanks and the text
    of its one token class, and a running offset past them gives the
    column.  A comment that ends the text leaves 'eof' at its start.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without its Python-level __new__
    findall = _TOKEN_RE.findall
    for lineno, line in enumerate(text.split("\n"), 1):
        end = comment_col = 0
        for blank, sym, word, hexa, num, comment, bad in findall(line):
            start = end + len(blank)
            end = start + len(sym or word or hexa or num or comment or bad)
            col = start + 1
            if sym:
                append(new(Token, ("sym", sym, 0, lineno, col)))
            elif word:
                # \w also holds numerals such as '²' that are not letters.
                if not (word[0].isalpha() or word[0] == "_"):
                    raise ParseError(lineno, col, "lex", f"unexpected character {word[0]!r}")
                append(new(Token, ("kw" if word in KEYWORDS else "ident", word, 0, lineno, col)))
            elif num:
                # Reject '12ab' outright rather than splitting tokens.
                if end < len(line) and (line[end].isalpha() or line[end] == "_"):
                    raise ParseError(lineno, col, "lex",
                                     f"malformed number {shown(line[start:end + 1])}")
                try:
                    value = int(num)
                except ValueError:  # more digits than int() converts
                    raise ParseError(lineno, col, "lex", "number literal too long") from None
                append(new(Token, ("int", num, value, lineno, col)))
            elif hexa:
                if len(hexa) == 2:
                    raise ParseError(lineno, col, "lex", "incomplete hex literal")
                append(new(Token, ("int", hexa, int(hexa, 16), lineno, col)))
            elif comment:
                comment_col = col
            else:
                raise ParseError(lineno, col, "lex", f"unexpected character {bad!r}")
    append(Token("eof", "", 0, lineno, comment_col or len(line) + 1))
    return tokens


# --- AST ------------------------------------------------------------------
# Plain classes, so that importing hdl generates no code: a node's
# constructor sets its slots directly.  Nodes do not refuse assignment, but
# nothing changes one after the parser builds it.

def _repr(obj, names) -> str:
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    return f"{type(obj).__qualname__}({fields})"


class _Node:
    """A syntax node, equal to a node of its own class whose ``_key`` fields
    are equal: every field but its position (``line``, ``column``).  Its
    repr shows every slot, position included."""

    __slots__ = ()
    _key: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._key])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return _repr(self, self.__slots__)


class Ident(_Node):
    __slots__ = ("name", "line", "column")
    _key = ("name",)

    def __init__(self, name: str, line: int = 0, column: int = 0):
        self.name = name
        self.line = line
        self.column = column


class Const(_Node):
    __slots__ = _key = ("value",)

    def __init__(self, value: int):
        self.value = value


class UnOp(_Node):
    __slots__ = _key = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op  # '~' | '!'
        self.operand = operand


class BinOp(_Node):
    __slots__ = _key = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right


Expr = Union[Ident, Const, UnOp, BinOp]


class Assign(_Node):
    """'assign' (combinational wire drive) or 'next' (register update)."""

    __slots__ = ("kind", "target", "expr", "line", "column")
    _key = ("kind", "target", "expr")

    def __init__(self, kind: str, target: str, expr: Expr, line: int = 0, column: int = 0):
        self.kind = kind  # 'assign' | 'next'
        self.target = target
        self.expr = expr
        self.line = line
        self.column = column


class Conditional(_Node):
    __slots__ = ("cond", "then_body", "else_body", "line", "column")
    _key = ("cond", "then_body", "else_body")

    def __init__(self, cond: Expr, then_body: tuple[Stmt, ...], else_body: tuple[Stmt, ...],
                 line: int = 0, column: int = 0):
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body
        self.line = line
        self.column = column


Stmt = Union[Assign, Conditional]


class Port(_Node):
    __slots__ = ("name", "direction", "width", "line", "column")
    _key = ("name", "direction", "width")

    def __init__(self, name: str, direction: str, width: int, line: int = 0, column: int = 0):
        self.name = name
        self.direction = direction  # 'input' | 'output'
        self.width = width
        self.line = line
        self.column = column


class Reg(_Node):
    __slots__ = ("name", "width", "init", "line", "column")
    _key = ("name", "width", "init")

    def __init__(self, name: str, width: int, init: int, line: int = 0, column: int = 0):
        self.name = name
        self.width = width
        self.init = init
        self.line = line
        self.column = column


class Wire(_Node):
    __slots__ = ("name", "width", "line", "column")
    _key = ("name", "width")

    def __init__(self, name: str, width: int, line: int = 0, column: int = 0):
        self.name = name
        self.width = width
        self.line = line
        self.column = column


class CoverBin(_Node):
    __slots__ = _key = ("name", "lo", "hi")

    def __init__(self, name: str, lo: int, hi: int):
        self.name = name
        self.lo = lo
        self.hi = hi


class Covergroup(_Node):
    __slots__ = ("signal", "bins", "line", "column")
    _key = ("signal", "bins")

    def __init__(self, signal: str, bins: tuple[CoverBin, ...], line: int = 0, column: int = 0):
        self.signal = signal
        self.bins = bins
        self.line = line
        self.column = column


class DutModel(_Node):
    """A parsed design, as written: what it covers is counted by ``sim``'s compiler.

    Unlike a syntax node it has a ``__dict__``, which holds its cached
    properties and ``sim.compiled``'s function; equality, hash and repr
    read its six fields alone.
    """

    _key = ("name", "ports", "regs", "wires", "body", "covergroups")

    def __init__(self, name: str, ports: tuple[Port, ...], regs: tuple[Reg, ...],
                 wires: tuple[Wire, ...], body: tuple[Stmt, ...],
                 covergroups: tuple[Covergroup, ...]):
        self.name = name
        self.ports = ports
        self.regs = regs
        self.wires = wires
        self.body = body
        self.covergroups = covergroups

    def __repr__(self) -> str:
        return _repr(self, self._key)

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


# --- Parser ---------------------------------------------------------------

class _Parser:
    """Recursive descent over one design's tokens, with one precedence-climbing
    loop for binary operators.

    Statements and declarations descend one method per construct.  An
    expression takes one :meth:`parse_expr` frame per open parenthesis and
    per binary operator whose right operand is still open, and one
    :meth:`parse_unary` frame per open parenthesis and unary operator.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def _fail(self, message: str):
        t = self.cur
        raise ParseError(t.line, t.column, "syntax", message)

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def _expected(self, what: str):
        self._fail(f"expected {what}, found {shown(self.cur.text or 'end of input')}")

    def at(self, text: str) -> bool:
        """Whether the current token is keyword or symbol ``text``; no other kind spells one."""
        return self.tokens[self.pos].text == text

    def expect(self, text: str) -> Token:
        t = self.tokens[self.pos]
        if t.text == text:
            self.pos += 1
            return t
        self._expected(repr(text))

    _KIND_NAMES = {"ident": "identifier", "int": "integer"}

    def expect_kind(self, kind: str) -> Token:
        t = self.tokens[self.pos]
        if t.kind == kind:
            self.pos += 1
            return t
        self._expected(self._KIND_NAMES[kind])

    @staticmethod
    def _nest(tok: Token, depth: int, limit: int, what: str) -> None:
        if depth > limit:
            raise ParseError(tok.line, tok.column, "syntax",
                             f"more than {limit} {what} nested")

    def parse_dut(self) -> DutModel:
        self.expect("module")
        name = self.expect_kind("ident").text
        self.expect("(")
        ports = [self.parse_port()]
        while self.at(","):
            self.advance()
            ports.append(self.parse_port())
        self.expect(")")
        self.expect(";")

        regs: list[Reg] = []
        wires: list[Wire] = []
        body: list[Stmt] = []
        covergroups: list[Covergroup] = []
        while not self.at("endmodule"):
            if self.cur.kind == "eof":
                self._fail("expected 'endmodule'")
            if self.at("reg"):
                regs.append(self.parse_reg())
            elif self.at("wire"):
                wires.append(self.parse_wire())
            elif self.at("cover"):
                covergroups.append(self.parse_cover())
            else:
                body.append(self.parse_stmt())
        self.advance()  # endmodule
        if self.cur.kind != "eof":
            self._fail("trailing input after 'endmodule'")
        return DutModel(name=name, ports=tuple(ports), regs=tuple(regs), wires=tuple(wires),
                        body=tuple(body), covergroups=tuple(covergroups))

    def parse_port(self) -> Port:
        if not (self.at("input") or self.at("output")):
            self._fail("expected 'input' or 'output'")
        dir_tok = self.advance()
        name, width = self.parse_head()
        return Port(name, dir_tok.text, width, dir_tok.line, dir_tok.column)

    def parse_head(self) -> tuple[str, int]:
        """The ``name [ width ]`` that follows a port's direction, 'reg' or 'wire'."""
        name = self.expect_kind("ident").text
        self.expect("[")
        width = self.expect_kind("int").value
        self.expect("]")
        return name, width

    def parse_reg(self) -> Reg:
        kw = self.advance()
        name, width = self.parse_head()
        self.expect("=")
        init = self.expect_kind("int").value
        self.expect(";")
        return Reg(name, width, init, kw.line, kw.column)

    def parse_wire(self) -> Wire:
        kw = self.advance()
        name, width = self.parse_head()
        self.expect(";")
        return Wire(name, width, kw.line, kw.column)

    def parse_cover(self) -> Covergroup:
        kw = self.advance()
        signal = self.expect_kind("ident").text
        self.expect("{")
        bins = [self.parse_bin()]
        while self.at(","):
            self.advance()
            bins.append(self.parse_bin())
        self.expect("}")
        return Covergroup(signal, tuple(bins), kw.line, kw.column)

    def parse_bin(self) -> CoverBin:
        name = self.expect_kind("ident").text
        self.expect(":")
        lo = self.expect_kind("int").value
        self.expect("..")
        hi = self.expect_kind("int").value
        return CoverBin(name, lo, hi)

    def parse_stmt(self, nest: int = 0) -> Stmt:
        """Parse one statement inside ``nest`` enclosing conditionals."""
        if self.at("assign") or self.at("next"):
            kw = self.advance()
            target = self.expect_kind("ident").text
            self.expect("=")
            expr, _ = self.parse_expr()
            self.expect(";")
            return Assign(kw.text, target, expr, kw.line, kw.column)
        if self.at("if"):
            kw = self.advance()
            self._nest(kw, nest + 1, MAX_DEPTH, "conditionals")
            self.expect("(")
            cond, _ = self.parse_expr()
            self.expect(")")
            then_body = self.parse_block(nest + 1)
            else_body: tuple[Stmt, ...] = ()
            if self.at("else"):
                self.advance()
                else_body = self.parse_block(nest + 1)
            return Conditional(cond, then_body, else_body, kw.line, kw.column)
        self._fail(f"expected statement, found {shown(self.cur.text or 'end of input')}")

    def parse_block(self, nest: int) -> tuple[Stmt, ...]:
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            if self.cur.kind == "eof":
                self._fail("expected '}'")
            stmts.append(self.parse_stmt(nest))
        self.advance()
        return tuple(stmts)

    # Binary precedence, lowest to highest:
    # |  ^  &  (== != < >)  (<< >>)  (+ -)  unary  primary
    _LEVELS = [["|"], ["^"], ["&"], ["==", "!=", "<", ">"], ["<<", ">>"], ["+", "-"]]
    # Each binary operator's level, its index in _LEVELS; only a symbol spells one.
    _BINDING = {op: level for level, ops in enumerate(_LEVELS) for op in ops}

    def parse_expr(self, opened: int = 0, floor: int = 0) -> tuple[Expr, int]:
        """Parse an expression whose binary operators are at level ``floor``
        of ``_LEVELS`` or above; return it with its operator depth.

        ``opened`` counts the parentheses and unary operators open around
        it.  Operators of one level chain left to right in the loop; an
        operator's right operand holds only those of higher levels.
        """
        tokens, binding = self.tokens, self._BINDING
        left, depth = self.parse_unary(opened)
        op = tokens[self.pos]
        level = binding.get(op.text, -1)
        while level >= floor:
            self.pos += 1
            right, right_depth = self.parse_expr(opened, level + 1)
            depth = 1 + max(depth, right_depth)
            self._nest(op, depth, MAX_DEPTH, "operators")
            left = BinOp(op.text, left, right)
            op = tokens[self.pos]
            level = binding.get(op.text, -1)
        return left, depth

    def _open(self, tok: Token, opened: int) -> None:
        self._nest(tok, opened + 1, 2 * MAX_DEPTH, "parentheses and unary operators")
        self.pos += 1

    def parse_unary(self, opened: int) -> tuple[Expr, int]:
        """Parse unary operators applied to a name, a number or a parenthesized
        expression; return it with its operator depth."""
        t = self.tokens[self.pos]
        kind = t.kind
        if kind == "ident":
            self.pos += 1
            return Ident(t.text, t.line, t.column), 0
        if kind == "int":
            self.pos += 1
            return Const(t.value), 0
        if t.text == "~" or t.text == "!":
            self._open(t, opened)
            operand, depth = self.parse_unary(opened + 1)
            self._nest(t, depth + 1, MAX_DEPTH, "operators")
            return UnOp(t.text, operand), depth + 1
        if t.text == "(":
            self._open(t, opened)
            expr, depth = self.parse_expr(opened + 1)
            self.expect(")")
            return expr, depth
        self._expected("expression")


def parse(text: str) -> DutModel:
    """Parse mini-HDL source into a DutModel, raising ParseError on failure."""
    return _Parser(_lex(text)).parse_dut()


# --- Lint -----------------------------------------------------------------

class LintIssue(NamedTuple):
    kind: str
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.kind}: {self.message}"


def lint(dut: DutModel) -> list[LintIssue]:
    """Static checks on a parsed design; an empty result means simulatable.

    Each name and number that a message echoes is bounded by ``checks.shown``.
    """
    issues: list[LintIssue] = []

    def issue(kind: str, at, message: str) -> None:
        """Record an issue located where ``at``, a declaration or statement, starts."""
        issues.append(LintIssue(kind, at.line, at.column, message))

    declared: dict[str, object] = {}
    decls = list(dut.ports) + list(dut.regs) + list(dut.wires)
    decls.sort(key=lambda d: (d.line, d.column))
    for d in decls:
        if d.name in declared:
            issue("duplicate_identifier", d, f"identifier {shown(d.name)} already declared")
        else:
            declared[d.name] = d
        if not 1 <= d.width <= MAX_WIDTH:
            issue("width_out_of_range", d,
                  f"width {shown(d.width, int)} of {shown(d.name)} outside 1..{MAX_WIDTH}")
        # A bit length, not ``1 << width``: a width may have any number of digits.
        if isinstance(d, Reg) and d.width >= 1 and d.init.bit_length() > d.width:
            issue("width_out_of_range", d, f"init {shown(d.init, int)} of {shown(d.name)} "
                  f"does not fit in {shown(d.width, int)} bits")

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
                issue("undeclared_identifier", expr,
                      f"identifier {shown(expr.name)} is not declared")
        elif isinstance(expr, UnOp):
            check_expr(expr.operand)
        elif isinstance(expr, BinOp):
            check_expr(expr.left)
            check_expr(expr.right)

    def check_stmt(stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            if stmt.target not in declared:
                issue("undeclared_identifier", stmt,
                      f"target {shown(stmt.target)} is not declared")
            elif stmt.kind == "assign" and stmt.target in input_names:
                issue("assign_to_input", stmt,
                      f"input port {shown(stmt.target)} cannot be assigned")
            elif stmt.kind == "assign" and stmt.target in reg_names:
                # It would change the reg's value for the rest of the cycle
                # only; the latched value comes back in the next one.
                issue("assign_to_reg", stmt, f"reg {shown(stmt.target)} takes 'next', not 'assign'")
            elif stmt.kind == "next" and stmt.target not in reg_names:
                issue("next_to_non_reg", stmt, f"'next' target {shown(stmt.target)} is not a reg")
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
        if cg.signal in covered:
            issue("duplicate_covergroup", cg, f"signal {shown(cg.signal)} already has a covergroup")
        covered.add(cg.signal)
        bin_names: set[str] = set()
        for b in cg.bins:
            if b.name in bin_names:
                issue("duplicate_bin", cg,
                      f"bin {shown(b.name)} repeated in covergroup on {shown(cg.signal)}")
            bin_names.add(b.name)
        if cg.signal not in declared:
            issue("undeclared_identifier", cg, f"covered signal {shown(cg.signal)} is not declared")
            continue
        width = dut.widths[cg.signal]
        for b in cg.bins:
            if b.lo > b.hi:
                issue("bin_out_of_range", cg, f"bin {shown(b.name)} range {shown(b.lo, int)}.."
                      f"{shown(b.hi, int)} on {shown(cg.signal)} is empty")
            # A width outside 1..MAX_WIDTH is reported at its declaration.
            elif 1 <= width <= MAX_WIDTH and b.hi.bit_length() > width:
                issue("bin_out_of_range", cg, f"bin {shown(b.name)} range {shown(b.lo, int)}.."
                      f"{shown(b.hi, int)} invalid for {width}-bit signal {shown(cg.signal)}")

    for w in list(dut.wires) + list(dut.output_ports):
        if w.name not in assigned_wires:
            issue("wire_never_assigned", w, f"wire {shown(w.name)} is never assigned")

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
