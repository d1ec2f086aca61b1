import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covstim.hdl import _SYMBOLS, KEYWORDS, MAX_DEPTH, DutModel, ParseError, lint, parse, pretty_print
from covstim.sim import Stimulus, simulate

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
