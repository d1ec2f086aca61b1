from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covstim.corpus import BUNDLED_NAMES, bundled_source
from covstim.hdl import (_SYMBOLS, KEYWORDS, MAX_DEPTH, DutModel, ParseError, Token, _lex, lint,
                         parse, pretty_print)
from covstim.sim import Stimulus, simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ASSIGN_Y = "module m (input a[1], output y[1]); assign y = {}; endmodule"


class TestParse:
    def test_toy1_counts(self, toy1_source):
        dut = parse(toy1_source)
        assert dut.name == "toy1"
        assert dut.total_statements == 3
        assert dut.total_branch_outcomes == 2
        assert dut.total_bins == 2

    def test_minimal_design(self):
        dut = parse("module m (input a[1], output y[1]); assign y = a; endmodule")
        assert dut.total_statements == 1
        assert dut.total_branch_outcomes == 0
        assert dut.total_bins == 0

    def test_missing_semicolon(self):
        with pytest.raises(ParseError) as exc:
            parse("module m (input a[1], output y[1]); assign y = a endmodule")
        assert exc.value.kind == "syntax"
        # Error points at the token 'endmodule'.
        assert "endmodule" in exc.value.message

    def test_lex_error(self):
        with pytest.raises(ParseError) as exc:
            parse("module m (input a[1], output y[1]); assign y = a @ 1; endmodule")
        assert exc.value.kind == "lex"
        assert exc.value.line == 1 and exc.value.column > 1

    def test_hex_literals(self):
        dut = parse("module m (input a[4], output y[4]); assign y = a & 0xF; endmodule")
        assert dut.total_statements == 1

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
        assert dut.total_branch_outcomes == 2

    def test_nested_conditionals(self):
        dut = parse(
            "module m (input a[1], input b[1], output y[1]);"
            " if (a) { if (b) { assign y = 1; } } else { assign y = 0; }"
            " endmodule"
        )
        assert dut.total_branch_outcomes == 4
        assert dut.total_statements == 2
        # Pre-order: a conditional is numbered before its arms; statements
        # and conditionals are numbered separately.
        outer = dut.body[0]
        inner = outer.then_body[0]
        assert (outer.index, inner.index) == (0, 1)
        assert (inner.then_body[0].index, outer.else_body[0].index) == (0, 1)

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

    def test_conditional_nesting_bound(self):
        def nested(n):
            return ("module m (input a[1], output y[1]); assign y = 0; "
                    + "if (a) { " * n + "assign y = 1;" + " }" * n + " endmodule")

        dut = parse(nested(MAX_DEPTH))
        assert dut.total_branch_outcomes == 2 * MAX_DEPTH
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
