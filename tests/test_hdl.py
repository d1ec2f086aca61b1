import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covstim.corpus import BUNDLED_NAMES, bundled_source
from covstim import hdl
from covstim.hdl import (_SYMBOLS, KEYWORDS, MAX_DEPTH, Assign, BinOp, Conditional, Const,
                         CoverBin, Covergroup, DutModel, Ident, LintIssue, ParseError, Port, Reg,
                         Token, UnOp, Wire, _lex, lint, parse, pretty_print)
from covstim.sim import Stimulus, compiled, simulate

import reference_hdl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ASSIGN_Y = "module m (input a[1], output y[1]); assign y = {}; endmodule"


def totals(dut):
    """The statement, branch-outcome and bin totals that ``sim`` counts for the design."""
    report = simulate(dut, Stimulus(()))
    return report.statement.total, report.branch.total, report.functional.total


class TestParse:
    def test_toy1_counts(self, toy1_source):
        dut = parse(toy1_source)
        assert dut.name == "toy1"
        assert totals(dut) == (3, 2, 2)

    def test_minimal_design(self):
        dut = parse("module m (input a[1], output y[1]); assign y = a; endmodule")
        assert totals(dut) == (1, 0, 0)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError) as exc:
            parse("module m (input a[1], output y[1]); assign y = a endmodule")
        assert exc.value.kind == "syntax"
        # Error points at the token 'endmodule'.
        assert "endmodule" in exc.value.message

    @pytest.mark.parametrize("text, line, column", [
        ("module m (input a[1], output y[1]);", 1, 36),
        ("module m (input a[1], output y[1]);\n  assign y = a;\n", 3, 1),
        ("module m (input a[1], output y[1]);\n  assign y = a; // no end", 2, 17),
    ])
    def test_missing_endmodule_points_at_eof(self, text, line, column):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.kind, exc.value.line, exc.value.column) == ("syntax", line, column)
        assert exc.value.message == "expected 'endmodule'"

    def test_lex_error(self):
        with pytest.raises(ParseError) as exc:
            parse("module m (input a[1], output y[1]); assign y = a @ 1; endmodule")
        assert exc.value.kind == "lex"
        assert exc.value.line == 1 and exc.value.column > 1

    def test_hex_literals(self):
        dut = parse("module m (input a[4], output y[4]); assign y = a & 0xF; endmodule")
        assert totals(dut)[0] == 1

    def test_precedence(self):
        # '|' binds loosest, '+' tighter than '==': a == b + 1 | c parses
        # as (a == (b + 1)) | c.
        dut = parse(
            "module m (input a[2], input b[2], input c[1], output y[1]);"
            " assign y = a == b + 1 | c; endmodule"
        )
        top = dut.body[0].expr
        assert top.op == "|"
        assert top.left.op == "=="
        assert top.left.right.op == "+"

    def test_if_without_else_counts_two_outcomes(self):
        dut = parse(
            "module m (input a[1], output y[1]);"
            " if (a) { assign y = 1; } endmodule"
        )
        assert totals(dut)[1] == 2

    def test_nested_conditionals(self):
        dut = parse(
            "module m (input a[1], input b[1], output y[1]);"
            " if (a) { if (b) { assign y = 1; } } else { assign y = 0; }"
            " endmodule"
        )
        assert totals(dut)[:2] == (2, 4)

    def test_determinism(self, toy1_source):
        assert parse(toy1_source) == parse(toy1_source)

    def test_never_panics_on_garbage(self):
        for text in ("", "module", "endmodule", "module m (); endmodule", "}{",
                     ASSIGN_Y.format("(" * 110 + "a" + ")" * 110),
                     ASSIGN_Y.format("~" * 1000 + "a"),
                     ASSIGN_Y.format(" + ".join(["a"] * 1000)),
                     ASSIGN_Y.format("1" * 5000),
                     "module m (input a[1], output y[1]); "
                     + "if (a) { " * 1000 + "assign y = 1;" + " }" * 1000 + " endmodule"):
            with pytest.raises(ParseError):
                parse(text)

    @pytest.mark.parametrize("expr", [
        "(" * (2 * MAX_DEPTH) + "a" + ")" * (2 * MAX_DEPTH),
        "~" * MAX_DEPTH + "a",
        " + ".join(["a"] * (MAX_DEPTH + 1)),
        "(" * MAX_DEPTH + "~" * (MAX_DEPTH - 1) + "a + a" + ")" * MAX_DEPTH,
    ])
    def test_depth_bound(self, expr):
        # At the bound the model parses, round-trips through pretty_print
        # and simulates; one more '~' passes a bound.
        dut = parse(ASSIGN_Y.format(expr))
        assert lint(dut) == []
        assert parse(pretty_print(dut)) == dut
        simulate(dut, Stimulus(({"a": 1},)))
        with pytest.raises(ParseError) as exc:
            parse(ASSIGN_Y.format("~" + expr))
        assert exc.value.kind == "syntax"

    @pytest.mark.parametrize("expr", [
        "(" * (2 * MAX_DEPTH) + "a" + ")" * (2 * MAX_DEPTH),
        "~" * MAX_DEPTH + "a",
        " + ".join(["a"] * (MAX_DEPTH + 1)),
        "(" * MAX_DEPTH + "~" * (MAX_DEPTH - 1) + "a + a" + ")" * MAX_DEPTH,
    ])
    def test_depth_bound_parses_in_a_small_stack(self, expr):
        # The parser takes two frames per open parenthesis, and one per open
        # unary operator or binary operator whose right operand is open: at
        # most 2 * 48 + 24 = 120 on an accepted expression.  The 20 more cover
        # the thread's own frames, parse's, and the module's and statement's.
        # The parser in reference_hdl needs 451 on the first text.
        limit = 2 * (2 * MAX_DEPTH) + MAX_DEPTH + 20
        outcome = []

        def run():
            # A new thread's stack starts empty, so the limit counts only these frames.
            saved = sys.getrecursionlimit()
            sys.setrecursionlimit(limit)
            try:
                outcome.append(parse(ASSIGN_Y.format(expr)))
            except RecursionError as err:
                outcome.append(err)
            finally:
                sys.setrecursionlimit(saved)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert outcome == [parse(ASSIGN_Y.format(expr))]

    def test_conditional_nesting_bound(self):
        def nested(n):
            return ("module m (input a[1], output y[1]); assign y = 0; "
                    + "if (a) { " * n + "assign y = 1;" + " }" * n + " endmodule")

        dut = parse(nested(MAX_DEPTH))
        assert totals(dut)[1] == 2 * MAX_DEPTH
        assert simulate(dut, Stimulus(({"a": 1},))).branch.covered == MAX_DEPTH
        with pytest.raises(ParseError) as exc:
            parse(nested(MAX_DEPTH + 1))
        assert exc.value.kind == "syntax"


_HDL_TOKENS = st.sampled_from(sorted(KEYWORDS) + _SYMBOLS + ["a", "y", "0", "1", "0x", "15", "//"])


@given(st.one_of(st.text(max_size=200),
                 st.lists(_HDL_TOKENS, max_size=120).map(" ".join),
                 st.lists(_HDL_TOKENS, max_size=120).map("".join)))
@settings(max_examples=500, deadline=None)
def test_parse_raises_only_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


# Names: a few that repeat, so that declarations clash and uses resolve, and long ones.
_NAMES = st.one_of(st.sampled_from("ayrw"), st.integers(1, 5_000).map("z".__mul__))
# Widths, inits and bin bounds: small, or above 2**64, which no shift could take.
_NUMBERS = st.one_of(st.integers(0, 2**16).map(str), st.integers(2**64 + 1, 16**5_000).map(hex))
_LINT_TEMPLATE = (
    "module {n[0]} (input {n[1]}[{k[0]}], output {n[2]}[{k[1]}]);\n"
    "  reg {n[3]}[{k[2]}] = {k[3]};\n"
    "  wire {n[4]}[{k[4]}];\n"
    "  assign {n[4]} = {n[1]} + {n[5]};\n"
    "  next {n[6]} = {n[4]};\n"
    "  assign {n[2]} = {n[3]};\n"
    "  cover {n[7]} {{ {n[8]}: {k[5]}..{k[6]}, {n[8]}: 0..1 }}\n"
    "endmodule\n")


@given(st.lists(_NAMES, min_size=9, max_size=9), st.lists(_NUMBERS, min_size=7, max_size=7))
@settings(max_examples=100, deadline=None)
def test_lint_messages_stay_short(names, numbers):
    try:
        issues = lint(parse(_LINT_TEMPLATE.format(n=names, k=numbers)))
    except ParseError:
        return
    assert all(len(issue.message) < 200 for issue in issues), [i.kind for i in issues]


def char_loop_lex(text):
    """Reference lexer: one character test at a time, each symbol tried in turn."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c in " \t\r":
            i, col = i + 1, col + 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "kw" if text[i:j] in KEYWORDS else "ident"
            tokens.append(Token(kind, text[i:j], 0, line, col))
            col, i = col + j - i, j
        elif c.isdigit():
            j = i
            if text.startswith(("0x", "0X"), i):
                j = i + 2
                while j < n and text[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 2:
                    raise ParseError(line, col, "lex", "incomplete hex literal")
                value = int(text[i:j], 16)
            else:
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and (text[j].isalpha() or text[j] == "_"):
                    raise ParseError(line, col, "lex", f"malformed number {text[i:j + 1]!r}")
                try:
                    value = int(text[i:j])
                except ValueError:
                    raise ParseError(line, col, "lex", "number literal too long") from None
            tokens.append(Token("int", text[i:j], value, line, col))
            col, i = col + j - i, j
        else:
            sym = next((s for s in _SYMBOLS if text.startswith(s, i)), None)
            if sym is None:
                raise ParseError(line, col, "lex", f"unexpected character {c!r}")
            tokens.append(Token("sym", sym, 0, line, col))
            col, i = col + len(sym), i + len(sym)
    tokens.append(Token("eof", "", 0, line, col))
    return tokens


def lex_outcome(lex, text):
    try:
        return lex(text)
    except ParseError as err:
        return (err.kind, err.line, err.column, err.message)


# Letters and decimal digits beyond ASCII lex as in ASCII.  Numerals that are
# not decimal digits ('²', '½') are left out: the reference reads a leading
# '²' as a number, the lexer as an unexpected character.
_LEX_CHARS = st.one_of(st.characters(min_codepoint=9, max_codepoint=126),
                       st.sampled_from("é٣Ωß"))


class TestLex:
    def test_tokens_match_reference_on_designs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import designgen

        texts = [bundled_source(name) for name in BUNDLED_NAMES]
        for seed in range(2):
            texts += [d.text for d in designgen.generate(seed, designgen.DESIGNS, 0)[0]]
        for text in texts:
            assert _lex(text) == char_loop_lex(text)

    @pytest.mark.parametrize("expr, column, message", [
        ("12ab", 14, "malformed number '12a'"),
        ("0x", 14, "incomplete hex literal"),
        ("1" * 5000, 14, "number literal too long"),
        ("a @ 1", 16, "unexpected character '@'"),
    ])
    def test_errors_pinned(self, expr, column, message):
        text = f"module m (input a[1], output y[1]);\n  assign y = {expr}; endmodule"
        assert lex_outcome(_lex, text) == ("lex", 2, column, message)
        assert lex_outcome(char_loop_lex, text) == ("lex", 2, column, message)

    def test_comment_at_end_leaves_eof_at_its_start(self):
        assert _lex("a\n  b // c")[-1] == Token("eof", "", 0, 2, 5)

    def test_non_decimal_numeral_is_unexpected(self):
        assert lex_outcome(_lex, "a ²") == ("lex", 1, 3, "unexpected character '²'")

    @given(st.one_of(st.text(_LEX_CHARS, max_size=60),
                     st.lists(_HDL_TOKENS, max_size=40).map("".join)))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, text):
        assert lex_outcome(_lex, text) == lex_outcome(char_loop_lex, text)


class TestRoundTrip:
    SOURCES = [
        "module m (input a[1], output y[1]); assign y = a; endmodule",
        "module m (input a[3], output y[3]); wire w[3]; reg r[3] = 5;"
        " assign w = ~a; if (a > 2) { next r = a << 1; } else { next r = r - 1; }"
        " assign y = w ^ r; cover y { lo: 0..3, hi: 4..7 } endmodule",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_round_trip(self, source):
        dut = parse(source)
        assert parse(pretty_print(dut)) == dut

    def test_round_trip_corpus(self, corpus):
        for dut in corpus:
            assert parse(pretty_print(dut)) == dut


class TestLint:
    def _issues(self, text):
        return [i.kind for i in lint(parse(text))]

    def test_toy1_clean(self, toy1_source):
        assert lint(parse(toy1_source)) == []

    def test_corpus_clean(self, corpus):
        for dut in corpus:
            assert lint(dut) == []

    def test_assign_to_input(self):
        kinds = self._issues(
            "module m (input a[1], output y[1]); assign a = 1; assign y = a; endmodule")
        assert kinds == ["assign_to_input"]

    def test_assign_to_reg(self):
        kinds = self._issues(
            "module m (input a[1], output y[1]); reg r[1] = 0;"
            " assign r = a; next r = a; assign y = r; endmodule")
        assert kinds == ["assign_to_reg"]

    def test_next_to_non_reg(self):
        kinds = self._issues(
            "module m (input a[1], output y[1]); wire w[1];"
            " next w = 1; assign y = a; endmodule")
        assert "next_to_non_reg" in kinds

    def test_undeclared_identifier(self):
        kinds = self._issues(
            "module m (input a[1], output y[1]); assign y = q; endmodule")
        assert kinds == ["undeclared_identifier"]

    def test_duplicate_identifier(self):
        kinds = self._issues(
            "module m (input a[1], output y[1]); reg a[1] = 0;"
            " next a = 1; assign y = 1; endmodule")
        assert "duplicate_identifier" in kinds

    def test_width_out_of_range(self):
        kinds = self._issues(
            "module m (input a[17], output y[1]); assign y = a; endmodule")
        assert "width_out_of_range" in kinds

    def test_reg_init_out_of_range(self):
        kinds = self._issues(
            "module m (input a[1], output y[1]); reg r[1] = 2;"
            " next r = a; assign y = r; endmodule")
        assert "width_out_of_range" in kinds

    def test_bin_out_of_range(self):
        kinds = self._issues(
            "module m (input a[1], output y[1]); assign y = a;"
            " cover y { big: 0..2 } endmodule")
        assert "bin_out_of_range" in kinds

    def test_empty_bin_message_stays_short(self):
        # Long names, both bounds far past 2**64 and a signal width that is itself
        # out of range: the message once echoed all five and reached 200 characters.
        name, huge = "z" * 3000, "0x" + "f" * 5000
        issues = lint(parse(
            f"module m (input a[1], output {name}[{huge}]); assign {name} = a;"
            f" cover {name} {{ {name}: {huge}1..{huge} }} endmodule"))
        bins = [i for i in issues if i.kind == "bin_out_of_range"]
        assert len(bins) == 1 and bins[0].message.endswith("is empty")
        assert len(bins[0].message) < 200

    def test_duplicate_covergroup(self):
        # Lint-clean before: simulate counted 4/4 bins here, while a reader
        # naming bins by (signal, bin name), as tests/oracle_sim.py does, counts 2.
        kinds = self._issues(
            "module m (input a[1], output y[1]); assign y = a;"
            " cover a { b0: 0..0, b1: 0..0 } cover a { b0: 0..0, b1: 0..0 } endmodule")
        assert kinds == ["duplicate_covergroup"]

    def test_duplicate_bin(self):
        kinds = self._issues(
            "module m (input a[1], output y[1]); assign y = a;"
            " cover y { b: 0..0, b: 1..1 } endmodule")
        assert kinds == ["duplicate_bin"]

    def test_generated_designs_lint_clean(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import designgen

        for seed in range(4):
            for design in designgen.generate(seed, designgen.DESIGNS, 0)[0]:
                assert lint(parse(design.text)) == [], design.name

    def test_no_inputs_no_outputs(self):
        assert "no_inputs" in self._issues("module m (output y[1]); assign y = 1; endmodule")
        assert "no_outputs" in self._issues("module m (input a[1]); endmodule")

    def test_wire_never_assigned(self):
        kinds = self._issues(
            "module m (input a[1], output y[1]); wire w[1]; assign y = w; endmodule")
        assert "wire_never_assigned" in kinds

    def test_unassigned_output_flagged(self):
        kinds = self._issues("module m (input a[1], output y[1]); endmodule")
        assert "wire_never_assigned" in kinds

    def test_issue_order_is_source_order(self):
        issues = lint(parse(
            "module m (input a[1], output y[1]);\n"
            "assign a = 1;\n"
            "assign y = q;\n"
            "endmodule"))
        assert [i.kind for i in issues] == ["assign_to_input", "undeclared_identifier"]
        assert issues[0].line < issues[1].line


# Expression-heavy designs for comparing parse with the reference parser: chains
# of up to 30 binary operators, up to 50 parentheses open at once, unary runs,
# parentheses left open or closed once too often, and one token dropped or
# added now and then, so that parses fail at every kind of token.
_OPERANDS = ["a", "y", "r", "0", "1", "0x3", "15"]
_BINARY_OPS = ["|", "^", "&", "==", "!=", "<", ">", "<<", ">>", "+", "-"]


@st.composite
def _expr_tokens(draw, nest=0):
    # Few draws: each operand, its unary operators and the operator before it
    # come from three bytes of one draw.
    shape = draw(st.integers(0, 8)) if nest == 0 else 8  # 0-2: deep, long or both
    opened = draw(st.integers(40, 50) if shape in (0, 2) else st.integers(0, 2))
    n_ops = draw(st.integers(20, 30) if shape in (1, 2) else st.integers(0, 3))
    ops = draw(st.sampled_from([_BINARY_OPS, ["+", "-"], ["|"], ["<<", "&"]]))
    size = 3 * n_ops + 3 + opened
    picks = draw(st.binary(min_size=size, max_size=size))
    tokens = []
    for pick in picks[:opened]:
        tokens += ["(", "~"] if pick < 16 else ["("]
    for i in range(n_ops + 1):
        op, unary, operand = picks[opened + 3 * i: opened + 3 * i + 3]
        if i:
            tokens.append(ops[op % len(ops)])
        # Mostly none, sometimes one or two, now and then a run of 20-35.
        if unary >= 240:
            tokens += ["~", "!"] * (10 + unary % 8)
        elif unary >= 160:
            tokens += (["~"], ["!"], ["~", "!"], ["!", "~"])[unary % 4]
        if nest < 2 and operand < 16:
            tokens += ["(", *draw(_expr_tokens(nest + 1)), ")"]
        else:
            tokens.append(_OPERANDS[operand % len(_OPERANDS)])
    return tokens + [")"] * max(0, opened + draw(st.sampled_from([-1, 1] + [0] * 18)))


@st.composite
def _expression_design(draw):
    joiner = draw(st.sampled_from([" ", "", "\n", " \t"]))
    exprs = [joiner.join(draw(_expr_tokens())) for _ in range(3)]
    tokens = ["module m (input a[4], output y[4]); reg r[4] = 0;", "assign y =", exprs[0],
              "; if (", exprs[1], ") { next r =", exprs[2], "; } endmodule"]
    text = "\n".join(tokens)
    if draw(st.integers(0, 3)) == 0:
        # One token dropped, doubled or replaced.
        tokens = text.split(" ")
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at:at + 1] = draw(st.sampled_from([[], [tokens[at], tokens[at]],
                                                  [draw(_HDL_TOKENS)]]))
        text = " ".join(tokens)
    return text


def parse_outcome(parse_fn, text):
    """The model, its repr (which shows every position) and its text, or the error."""
    try:
        dut = parse_fn(text)
    except ParseError as err:
        return (err.kind, err.line, err.column, err.message)
    return dut, repr(dut), pretty_print(dut)


class TestMatchesReference:
    def test_designs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import designgen

        texts = [bundled_source(name) for name in BUNDLED_NAMES]
        for seed in range(4):
            texts += [d.text for d in designgen.generate(seed, designgen.DESIGNS, 0)[0]]
        # Two errors found only where the input ends.
        ends = {texts[0] + "endmodule\n": "trailing input after 'endmodule'",
                "module m (input a[1], output y[1]); if (a) { assign y = a;": "expected '}'"}
        for text, message in ends.items():
            assert parse_outcome(parse, text)[3] == message
        texts += ends
        for text in texts:
            assert _lex(text) == reference_hdl._lex(text)
            assert parse_outcome(parse, text) == parse_outcome(reference_hdl.reference_parse, text)

    @given(_expression_design())
    @settings(max_examples=400, deadline=None)
    def test_expression_designs(self, text):
        assert lex_outcome(_lex, text) == lex_outcome(reference_hdl._lex, text)
        assert parse_outcome(parse, text) == parse_outcome(reference_hdl.reference_parse, text)


# Every syntax class, built by keyword in its field order; a position ('line',
# 'column') follows the other fields and defaults to 0.
_NODES = [
    (Ident, {"name": "a"}),
    (Const, {"value": 3}),
    (UnOp, {"op": "~", "operand": Const(1)}),
    (BinOp, {"op": "+", "left": Ident("a", 1, 2), "right": Const(1)}),
    (Assign, {"kind": "assign", "target": "y", "expr": Ident("a", 1, 2)}),
    (Conditional, {"cond": Ident("a"), "then_body": (Assign("next", "r", Const(0)),),
                   "else_body": ()}),
    (Port, {"name": "a", "direction": "input", "width": 1}),
    (Reg, {"name": "r", "width": 2, "init": 1}),
    (Wire, {"name": "w", "width": 2}),
    (CoverBin, {"name": "lo", "lo": 0, "hi": 1}),
    (Covergroup, {"signal": "a", "bins": (CoverBin("lo", 0, 1),)}),
]
_LOCATED = {Ident, Assign, Conditional, Port, Reg, Wire, Covergroup}
DUT_FIELDS = ("name", "ports", "regs", "wires", "body", "covergroups")


def shown_fields(fields: dict) -> str:
    return ", ".join(f"{name}={value!r}" for name, value in fields.items())


class TestNodeContract:
    """What the parser's tests and ``sim`` read of a node: keyword construction,
    equality and hash over every field but the position, and a repr of every field."""

    def test_every_node_class_is_covered(self):
        assert set(hdl._Node.__subclasses__()) == {cls for cls, _ in _NODES} | {DutModel}

    @pytest.mark.parametrize("cls, fields", _NODES, ids=[cls.__name__ for cls, _ in _NODES])
    def test_syntax_node(self, cls, fields):
        node = cls(**fields)
        assert node == cls(*fields.values())
        assert [getattr(node, name) for name in fields] == list(fields.values())
        assert not hasattr(node, "__dict__")
        if cls in _LOCATED:
            assert (node.line, node.column) == (0, 0)
            moved = cls(**fields, line=3, column=7)
            assert moved == node and hash(moved) == hash(node)
            assert repr(moved) == f"{cls.__name__}({shown_fields(fields)}, line=3, column=7)"
        else:
            with pytest.raises(TypeError):
                cls(**fields, line=3)
            assert repr(node) == f"{cls.__name__}({shown_fields(fields)})"
        for name in fields:
            assert cls(**{**fields, name: "other"}) != node, name

        class Twin(cls):
            __slots__ = ()

        assert Twin(**fields) != node and node != Twin(**fields)
        assert node != tuple(fields.values())
        assert all(node != other(**values) for other, values in _NODES if other is not cls)

    def test_dut_model(self, toy1_source):
        dut = parse(toy1_source)
        fields = {name: getattr(dut, name) for name in DUT_FIELDS}
        assert DutModel(**fields) == dut == DutModel(*fields.values())
        moved = parse("\n\n" + toy1_source)
        assert repr(moved) != repr(dut)
        assert moved == dut and hash(moved) == hash(dut)
        for name in fields:
            assert DutModel(**{**fields, name: "other"}) != dut, name
        simulate(dut, Stimulus(({"a": 1},)))
        assert {"_run", "widths", "input_ports"} <= set(dut.__dict__)
        assert compiled(dut) is dut.__dict__["_run"]
        assert dut == moved and hash(dut) == hash(DutModel(**fields))
        assert repr(dut) == f"DutModel({shown_fields(fields)})"

    def test_lint_issue(self):
        issue = LintIssue(kind="no_inputs", line=1, column=2, message="none")
        assert issue == LintIssue("no_inputs", 1, 2, "none")
        assert hash(issue) == hash(LintIssue("no_inputs", 1, 2, "none"))
        assert issue != LintIssue("no_inputs", 1, 3, "none")
        assert str(issue) == "1:2: no_inputs: none"
        assert repr(issue) == "LintIssue(kind='no_inputs', line=1, column=2, message='none')"
