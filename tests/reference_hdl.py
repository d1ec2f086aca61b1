"""The lexer and parser that tuple tokens and precedence climbing replaced, kept as a reference.

The lexer matches each run of blanks as a match of its own and calls the
``Token`` constructor once per token; the parser descends one ``parse_expr``
frame per precedence level, seven per operand.  Tests
require ``hdl.parse`` to give the same models, the same ``pretty_print``
text and the same ``ParseError`` (kind, line, column, message) as
:func:`reference_parse`.
"""

from __future__ import annotations

import re

from covstim.checks import shown
from covstim.hdl import (_SYMBOLS, KEYWORDS, MAX_DEPTH, Assign, BinOp, Conditional, Const,
                         CoverBin, Covergroup, DutModel, Expr, Ident, ParseError, Port, Reg,
                         Stmt, Token, UnOp, Wire)

# One alternative per token class, tried in order at each position.  \w is
# str.isalnum plus '_', and \d the decimal digits that int() reads.
_TOKEN_RE = re.compile(r"""
    (?P<blank>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<word>[^\W\d]\w*)
  | (?P<hex>0[xX][0-9a-fA-F]*)
  | (?P<int>\d+)
  | (?P<sym>""" + "|".join(map(re.escape, _SYMBOLS)) + ")", re.VERBOSE)


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
                raise ParseError(line, col, "lex", f"malformed number {shown(text[pos:end + 1])}")
            try:
                value = int(m.group())
            except ValueError:  # more digits than int() converts
                raise ParseError(line, col, "lex", "number literal too long") from None
            append(Token("int", m.group(), value, line, col))
        pos = end
    col = comment_col if kind == "comment" else pos - line_start + 1
    append(Token("eof", "", 0, line, col))
    return tokens


class _Parser:
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
        t = self.cur
        self.pos += 1
        return t

    def _expected(self, what: str):
        self._fail(f"expected {what}, found {shown(self.cur.text or 'end of input')}")

    def at(self, text: str) -> bool:
        """Whether the current token is keyword or symbol ``text``; no other kind spells one."""
        return self.cur.text == text

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.advance()
        self._expected(repr(text))

    _KIND_NAMES = {"ident": "identifier", "int": "integer"}

    def expect_kind(self, kind: str) -> Token:
        if self.cur.kind == kind:
            return self.advance()
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
        if self.at("("):
            self._open(opened)
            expr, depth = self.parse_expr(opened + 1)
            self.expect(")")
            return expr, depth
        self._expected("expression")


def reference_parse(text: str) -> DutModel:
    """``hdl.parse`` as it was: the old lexer, then the old parser."""
    return _Parser(_lex(text)).parse_dut()
