import io
import itertools
import random
import re
import tokenize
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covstim import sim
from covstim.checks import JSON_SCALARS, shown
from covstim.codec import Vocab, encode
from covstim.corpus import load_bundled_corpus
from covstim.hdl import MAX_DEPTH, MAX_WIDTH, Assign, BinOp, Const, Ident, UnOp, lint, parse
from covstim.sim import (METRICS, CoverageReport, SimulationError, Stimulus,
                         average_score, cycle_source, input_rows, simulate)

from oracle_sim import oracle_covered, oracle_eval, oracle_simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def stim(*values):
    return Stimulus(tuple({"a": v} for v in values))


class TestSimulateToy1:
    def test_single_cycle(self, toy1):
        report = simulate(toy1, stim(1))
        assert (report.statement.covered, report.statement.total) == (2, 3)
        assert (report.branch.covered, report.branch.total) == (1, 2)
        assert (report.functional.covered, report.functional.total) == (1, 2)
        assert report.average == pytest.approx(5 / 9, abs=1e-15)

    def test_two_cycles_full_coverage(self, toy1):
        report = simulate(toy1, stim(1, 0))
        assert (report.statement.covered, report.statement.total) == (3, 3)
        assert (report.branch.covered, report.branch.total) == (2, 2)
        assert (report.functional.covered, report.functional.total) == (2, 2)
        assert report.average == 1.0

    def test_zero_cycles(self, toy1):
        report = simulate(toy1, Stimulus(()))
        assert report.statement.covered == 0
        assert report.branch.covered == 0
        assert report.functional.covered == 0
        assert report.average == 0.0
        assert report.cycles_run == 0


def built_report(counts, cycles_run):
    """A report whose metrics have the (covered, total) counts given, in METRICS order:
    each metric's mask is the next ``total`` bits, and its low ``covered`` ones are covered."""
    covered, masks, at = 0, [], 0
    for c, t in counts:
        covered |= ((1 << c) - 1) << at
        masks.append(((1 << t) - 1) << at)
        at += t
    report = CoverageReport(covered, tuple(masks), cycles_run)
    assert [(m.covered, m.total) for m in report.metrics().values()] == list(counts)
    return report


class TestAverageScore:
    def test_mean_of_fractions(self, toy1):
        assert average_score(simulate(toy1, stim(1))) == pytest.approx(5 / 9, abs=1e-15)

    def test_full_coverage(self):
        report = built_report([(3, 3), (2, 2), (2, 2)], 5)
        assert average_score(report) == 1.0

    def test_zero_total_metric_excluded(self):
        report = built_report([(1, 2), (1, 2), (0, 0)], 1)
        assert average_score(report) == 0.5

    def test_all_totals_zero(self):
        report = built_report([(0, 0), (0, 0), (0, 0)], 0)
        assert average_score(report) == 0.0


def y_seen(source, cycles, value):
    """Whether output y held ``value`` at the end of some cycle.

    Read through a one-value cover bin on y, which samples where a value
    trace would: after the body runs, before registers latch.
    """
    dut = parse(source.replace("endmodule", f"cover y {{ seen: {value}..{value} }} endmodule"))
    return simulate(dut, Stimulus(tuple(cycles))).functional.covered == 1


class TestSemantics:
    def test_register_reads_pre_latch(self):
        # y sees the register value from the previous cycle.
        source = ("module m (input a[1], output y[1]); reg r[1] = 0;"
                  " next r = a; assign y = r; endmodule")
        assert y_seen(source, [{"a": 1}], 0)
        assert not y_seen(source, [{"a": 1}], 1)
        assert y_seen(source, [{"a": 1}, {"a": 0}], 1)

    def test_unassigned_wire_reads_zero(self):
        source = ("module m (input a[1], output y[1]); wire w[1];"
                  " if (a) { assign w = 1; } assign y = w; endmodule")
        assert y_seen(source, [{"a": 0}], 0)
        assert not y_seen(source, [{"a": 0}], 1)

    def test_last_assign_wins(self):
        source = ("module m (input a[1], output y[1]);"
                  " assign y = 1; assign y = 0; endmodule")
        assert y_seen(source, [{"a": 0}], 0)
        assert not y_seen(source, [{"a": 0}], 1)

    def test_last_next_wins(self):
        source = ("module m (input a[1], output y[1]); reg r[1] = 0;"
                  " next r = 1; next r = 0; assign y = r; endmodule")
        # y reads r: 0 at cycle 0 (init), 0 at cycle 1 only if 'next r = 0' won.
        assert not y_seen(source, [{"a": 0}, {"a": 0}], 1)

    def test_masking_on_assignment(self):
        source = ("module m (input a[2], output y[2]);"
                  " assign y = a + 3; endmodule")
        assert y_seen(source, [{"a": 3}], 2)  # 6 masked to 2 bits

    def test_shift_clamped(self):
        dut = parse(
            "module m (input a[4], output y[4]);"
            " assign y = 1 << a + 100; endmodule")
        simulate(dut, Stimulus(({"a": 15},)))  # must not raise

    def test_covergroup_samples_pre_latch_register(self):
        dut = parse(
            "module m (input a[1], output y[1]); reg r[1] = 0;"
            " next r = a; assign y = r; cover r { one: 1..1 } endmodule")
        report = simulate(dut, stim(1))
        assert report.functional.covered == 0  # r still 0 when sampled
        report = simulate(dut, stim(1, 1))
        assert report.functional.covered == 1

    def test_malformed_stimulus_missing_port(self, toy1):
        with pytest.raises(SimulationError) as exc:
            simulate(toy1, Stimulus(({},)))
        assert exc.value.cycle == 0 and exc.value.port == "a"

    def test_malformed_stimulus_out_of_range(self, toy1):
        with pytest.raises(SimulationError):
            simulate(toy1, Stimulus(({"a": 2},)))

    def test_malformed_stimulus_unknown_port_or_bool(self, toy1):
        with pytest.raises(SimulationError, match="no such input port") as exc:
            simulate(toy1, Stimulus(({"a": 1}, {"a": 0, "typo": 0})))
        assert (exc.value.cycle, exc.value.port) == (1, "typo")
        with pytest.raises(SimulationError, match="value True") as exc:
            simulate(toy1, Stimulus(({"a": 0}, {"a": True})))
        assert (exc.value.cycle, exc.value.port) == (1, "a")

    @pytest.mark.parametrize("cycle", [None, 0, ["a"], "ab"], ids=repr)
    def test_cycle_not_a_mapping_refused(self, toy1, cycle):
        stimulus = Stimulus(({"a": 1}, cycle))
        for call in (lambda: simulate(toy1, stimulus), lambda: encode(toy1, stimulus, Vocab(4), 8)):
            with pytest.raises(SimulationError) as exc:
                call()
            assert (exc.value.cycle, exc.value.port) == (1, None)
            assert str(exc.value) == ("cycle 1: must be a mapping of port names to values, "
                                      f"got {type(cycle).__name__}")

    def test_extra_none_key_named(self, toy1):
        stimulus = Stimulus(({"a": 1, None: 0},))
        for call in (lambda: simulate(toy1, stimulus), lambda: encode(toy1, stimulus, Vocab(4), 8)):
            with pytest.raises(SimulationError) as exc:
                call()
            assert (exc.value.cycle, exc.value.port) == (0, None)
            assert str(exc.value) == "cycle 0, port None: no such input port"


class TestProperties:
    def test_oracle_equivalence_toy1(self, toy1):
        # All 2 + 4 + 8 + 16 = 30 stimuli of length 1..4 over the 1-bit input.
        count = 0
        for length in range(1, 5):
            for bits in itertools.product((0, 1), repeat=length):
                cycles = tuple({"a": b} for b in bits)
                report = simulate(toy1, Stimulus(cycles))
                got = (
                    (report.statement.covered, report.statement.total),
                    (report.branch.covered, report.branch.total),
                    (report.functional.covered, report.functional.total),
                )
                assert got == oracle_simulate(toy1, cycles), bits
                count += 1
        assert count == 30

    def test_oracle_equivalence_corpus(self, corpus):
        rng = np.random.default_rng(3)
        for dut in corpus:
            for _ in range(50):
                cycles = tuple(
                    {p.name: int(rng.integers(0, 2**p.width)) for p in dut.input_ports}
                    for _ in range(int(rng.integers(0, 9)))
                )
                report = simulate(dut, Stimulus(cycles))
                got = (
                    (report.statement.covered, report.statement.total),
                    (report.branch.covered, report.branch.total),
                    (report.functional.covered, report.functional.total),
                )
                assert got == oracle_simulate(dut, cycles)

    def test_totals_match_oracle(self, corpus):
        # The compiler counts what a design covers; the oracle walks the model on its own.
        for dut in corpus:
            assert counts(simulate(dut, Stimulus(()))) == oracle_simulate(dut, ()), dut.name

    def test_oracle_equivalence_generated(self, monkeypatch):
        # The benchmark's generated designs: ~100 lines, 48 statements,
        # conditionals nested up to 3 deep (gen0 of seed 0 reaches 3),
        # stimuli of 100-150 cycles.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import designgen

        designs, stimuli = designgen.generate(0, 3, 2)
        for design, per_design in zip(designs, stimuli):
            dut = parse(design.text)
            empty = simulate(dut, Stimulus(()))
            assert empty.statement.total == design.statements == 48
            assert empty.branch.total == 2 * design.conditionals
            for cycles in per_design:
                report = simulate(dut, Stimulus(tuple(cycles)))
                got = (
                    (report.statement.covered, report.statement.total),
                    (report.branch.covered, report.branch.total),
                    (report.functional.covered, report.functional.total),
                )
                assert got == oracle_simulate(dut, cycles), design.name

    def test_prefix_monotonicity(self, corpus):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dut = corpus[int(rng.integers(0, len(corpus)))]
            total = int(rng.integers(1, 9))
            cut = int(rng.integers(0, total + 1))
            cycles = tuple(
                {p.name: int(rng.integers(0, 2**p.width)) for p in dut.input_ports}
                for _ in range(total)
            )
            full = simulate(dut, Stimulus(cycles))
            prefix = simulate(dut, Stimulus(cycles[:cut]))
            assert full.statement.covered >= prefix.statement.covered
            assert full.branch.covered >= prefix.branch.covered
            assert full.functional.covered >= prefix.functional.covered

    def test_determinism(self, corpus):
        for dut in corpus:
            cycles = tuple(
                {p.name: (i % (2**p.width)) for p in dut.input_ports} for i in range(5))
            assert simulate(dut, Stimulus(cycles)) == simulate(dut, Stimulus(cycles))

    def test_bounds_and_average_one_iff_full(self, corpus):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dut = corpus[int(rng.integers(0, len(corpus)))]
            cycles = tuple(
                {p.name: int(rng.integers(0, 2**p.width)) for p in dut.input_ports}
                for _ in range(int(rng.integers(0, 9)))
            )
            report = simulate(dut, Stimulus(cycles))
            for m in (report.statement, report.branch, report.functional):
                assert 0.0 <= m.fraction <= 1.0
                assert m.covered <= m.total
            assert 0.0 <= report.average <= 1.0
            fully = all(
                m.covered == m.total
                for m in (report.statement, report.branch, report.functional)
                if m.total > 0
            )
            assert (report.average == 1.0) == fully

    def test_average_is_exact_mean(self, toy1):
        report = simulate(toy1, stim(1))
        expected = (Fraction(2, 3) + Fraction(1, 2) + Fraction(1, 2)) / 3
        assert report.average == float(expected)

    # Each total is a mask's bit count, so totals stop at 2**20; the product of three,
    # the mean's denominator, still passes 2**53, where an int's float is no longer exact.
    @given(st.lists(st.integers(0, 2**20).flatmap(
        lambda total: st.tuples(st.integers(0, total), st.just(total))), min_size=3, max_size=3))
    @example([(2**20 - 1, 2**20), (1, 2**20 - 1), (2**19 + 1, 2**20 - 3)])
    @settings(max_examples=500, deadline=None)
    def test_average_equals_the_fraction_mean(self, triple):
        # Totals of 0 drop out of the mean; the reference sums Fractions.
        report = built_report(triple, 1)
        active = [Fraction(c, t) for c, t in triple if t > 0]
        expected = float(sum(active, Fraction(0)) / len(active)) if active else 0.0
        assert report.average == expected


def refusal(name, issues):
    """The ValueError message for a design with lint issues: the first, and a count of the rest."""
    more = f" (and {len(issues) - 1} more)" if len(issues) > 1 else ""
    return f"design '{name}' does not lint clean: {issues[0]}{more}"


def counts(report):
    return ((report.statement.covered, report.statement.total),
            (report.branch.covered, report.branch.total),
            (report.functional.covered, report.functional.total))


_BIN_OPS = ("|", "^", "&", "==", "!=", "<", ">", "<<", ">>", "+", "-")
# Every name a generated design declares, with the kind of declaration.
_DECLS = (("input", "a"), ("input", "c"), ("reg", "r"), ("reg", "q"),
          ("wire", "u"), ("output", "y"))
_TARGETS = ("assign u", "assign y", "next r", "next q")


def _random_expr(rng, depth=0) -> str:
    if depth == 4 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return rng.choice(_DECLS)[1]
        return str(rng.randrange(8) if rng.random() < 0.5 else rng.randrange(1 << 70))
    if rng.random() < 0.15:
        return f"{rng.choice('~!')}({_random_expr(rng, depth + 1)})"
    left, right = _random_expr(rng, depth + 1), _random_expr(rng, depth + 1)
    return f"({left} {rng.choice(_BIN_OPS)} {right})"


def _random_body(rng, budget: int, nest: int) -> str:
    stmts = []
    for _ in range(budget):
        if nest < 3 and rng.random() < 0.3:
            arms = [_random_body(rng, rng.randrange(3), nest + 1) for _ in range(2)]
            stmts.append(f"if ({_random_expr(rng)}) {{ {arms[0]} }} else {{ {arms[1]} }}")
        else:
            stmts.append(f"{rng.choice(_TARGETS)} = {_random_expr(rng)};")
    return " ".join(stmts)


def random_design(seed: int, widths=(1, 16)):
    """A design over every operator, and a stimulus.

    Widths are drawn from ``widths``; the design is lint-clean unless one is
    outside 1..16, and only signals of at most ``MAX_WIDTH`` bits get a covergroup.
    """
    rng = random.Random(seed)
    width = {n: rng.randint(*widths) for _, n in _DECLS}
    ports = ", ".join(f"{kind} {n}[{width[n]}]" for kind, n in _DECLS
                      if kind in ("input", "output"))
    lines = [f"module g ({ports});"]
    for kind, n in _DECLS:
        if kind == "reg":
            lines.append(f"reg {n}[{width[n]}] = {rng.randrange(1 << width[n])};")
        elif kind == "wire":
            lines.append(f"wire {n}[{width[n]}];")
    lines.append(_random_body(rng, rng.randrange(7), 0))
    # Drive every wire last, so that earlier reads of it see 0 or an earlier drive.
    lines += [f"assign u = {_random_expr(rng)};", f"assign y = {_random_expr(rng)};"]
    # One covergroup per signal: the oracle names a bin by signal and bin name.
    for _, n in rng.sample(_DECLS, rng.randrange(4)):
        if width[n] > MAX_WIDTH:
            continue
        lo = rng.randrange(1 << width[n])
        lines.append(f"cover {n} {{ b0: {lo}..{rng.randrange(lo, 1 << width[n])}, b1: 0..0 }}")
    lines.append("endmodule")
    cycles = [{n: rng.randrange(1 << width[n]) for kind, n in _DECLS if kind == "input"}
              for _ in range(rng.randrange(7))]
    return "\n".join(lines), cycles


def _narrow_expr(rng, names, depth=0):
    """A random expression over every operator; constants reach 2**70, and a
    shift's amount is often a small constant, the case that narrows its operand."""
    if depth == 4 or rng.random() < 0.2:
        pick = rng.random()
        if pick < 0.5:
            return Ident(rng.choice(names))
        return Const(rng.randrange(20) if pick < 0.75 else rng.randrange(1 << 70))
    if rng.random() < 0.15:
        return UnOp(rng.choice("~!"), _narrow_expr(rng, names, depth + 1))
    op = rng.choice(_BIN_OPS)
    left = _narrow_expr(rng, names, depth + 1)
    if op in ("<<", ">>") and rng.random() < 0.5:
        return BinOp(op, left, Const(rng.randrange(20)))
    return BinOp(op, left, _narrow_expr(rng, names, depth + 1))


class TestNarrowBits:
    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_expression_exact_in_the_bits_read(self, seed):
        # Operands 1-16 bits wide, read at every width d a consumer can ask for.
        rng = random.Random(seed)
        width = {f"v{j}": rng.randint(1, 16) for j in range(4)}
        ports = ", ".join(f"input {n}[{w}]" for n, w in width.items())
        comp = sim._Compiler(parse(f"module m ({ports}, output z[1]); endmodule"))
        expr = _narrow_expr(rng, tuple(width))
        emitted = {d: comp.expr(expr, d) for d in (*range(1, 17), 64)}
        for _ in range(4):
            values = {n: rng.randrange(1 << w) for n, w in width.items()}
            local = {comp.local[n]: v for n, v in values.items()}
            want = oracle_eval(expr, values)
            for d, (source, lo, hi) in emitted.items():
                got = eval(source, {"__builtins__": {}, "min": min}, local)
                assert 0 <= lo <= got <= hi, (source, d)
                assert got % 2**d == want % 2**d, (source, d)

    def test_narrow_design_has_no_64_bit_mask(self):
        dut = parse(
            "module m (input a[8], input b[4], output y[8]); reg r[16] = 3; wire w[1];"
            " assign w = ~(a < b); next r = (r << b) + ~(a - b) ^ (r >> 3);"
            " if ((a + r) > (b << 2)) { assign y = (a | b) - (r & 255); }"
            " else { assign y = !(r >> b); }"
            " cover r { lo: 0..9 } endmodule")
        assert lint(dut) == []
        assert str(2**64 - 1) not in cycle_source(dut)

    def test_wide_covered_signal_refused(self):
        dut = parse("module m (input a[40], output y[1]); assign y = a;"
                    " cover a { lo: 0..9 } endmodule")
        issues = lint(dut)
        assert [issue.kind for issue in issues] == ["width_out_of_range"]
        assert str(issues[0]) == "1:11: width_out_of_range: width 40 of 'a' outside 1..16"
        for call in (lambda: cycle_source(dut), lambda: simulate(dut, Stimulus(({"a": 1},)))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"design 'm' does not lint clean: {issues[0]}"

    def test_oversized_bin_bounds_refused(self):
        # Bounds far past a 2-bit signal's values, one of 5,000 hex digits
        # (beyond what str() of an int converts), are lint issues, and the
        # refusal names the first by its size in bits.
        design = ("module m (input a[2], output y[2]); assign y = a;"
                  " cover y {{ all: 0..{}, none: {}..{}, top: 3..{} }} endmodule")
        huge = "0x" + "f" * 5000
        dut = parse(design.format(huge, huge, huge, "0x1" + "0" * 40))
        issues = lint(dut)
        assert [issue.kind for issue in issues] == ["bin_out_of_range"] * 3
        for call in (lambda: cycle_source(dut), lambda: simulate(dut, stim(0, 3))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"design 'm' does not lint clean: {issues[0]} (and 2 more)"
            assert "0..an integer of 20000 bits" in str(exc.value) and len(str(exc.value)) < 160

    def test_counts_are_ints(self, toy1):
        for cycles in ((), ({"a": 1},), ({"a": 1}, {"a": 0})):
            report, state = sim.compiled(toy1)(cycles)
            assert type(report) is CoverageReport and type(report.cycles_run) is int
            assert all(type(n) is int for m in report.metrics().values()
                       for n in (m.covered, m.total))
            assert type(report.covered) is int and type(state) is tuple
            assert all(type(v) is int for v in state)


M64 = 2**64 - 1


def assert_range_holds(comp, expr, values):
    """Every value of ``expr`` that the oracle computes on ``values`` lies in the
    compiler's 64-bit range, and a truth the compiler decides is the oracle's."""
    lo, hi = comp.expr(expr, 64)[1:]
    assert 0 <= lo <= hi <= M64
    truth = comp.condition(expr)[1]
    for v in values:
        got = oracle_eval(expr, v)
        assert lo <= got <= hi, (expr, v)
        assert truth is None or truth == (got != 0), (expr, v)


class TestRanges:
    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_interval_holds_every_value(self, seed):
        # Operands up to 64 bits wide, so that '+', '-' and '<<' wrap and '~' meets
        # small values; each operand also takes its least and greatest value.
        rng = random.Random(seed)
        width = {f"v{j}": rng.choice((1, rng.randint(2, 16), rng.randint(17, 64)))
                 for j in range(4)}
        ports = ", ".join(f"input {n}[{w}]" for n, w in width.items())
        comp = sim._Compiler(parse(f"module m ({ports}, output z[1]); endmodule"))
        expr = _narrow_expr(rng, tuple(width))
        values = [{n: 0 for n in width}, {n: (1 << w) - 1 for n, w in width.items()}]
        values += [{n: rng.randrange(1 << w) for n, w in width.items()} for _ in range(6)]
        assert_range_holds(comp, expr, values)

    @pytest.mark.parametrize("text, expected", [
        ("~a", (M64 - 255, M64)),
        ("~(a | 16)", (M64 - 255, M64 - 16)),
        ("a + 18446744073709551615", (0, M64)),  # can wrap
        ("a - 1", (0, M64)),  # can wrap
        ("a - 300", (2**64 - 300, 2**64 - 45)),  # always wraps, so still exact
        ("a << 56", (0, 255 << 56)),
        ("a << 60", (0, M64)),  # past bit 63
        ("1 << b", (1, 2**63)),  # the amount clamped to 63
        ("~a >> b", (1, M64)),  # the amount clamped to 63
        ("(a & 5) | 2", (2, 7)),
        ("(a > 255) + (b < 256) + !(a - 300)", (1, 1)),
    ])
    def test_interval_cases(self, text, expected):
        dut = parse(f"module m (input a[8], input b[8], output z[64]); assign z = {text};"
                    " endmodule")
        comp = sim._Compiler(dut)
        expr = dut.body[0].expr
        assert comp.expr(expr, 64)[1:] == expected
        values = [{"a": a, "b": b} for a in range(256) for b in (*range(66), 127, 255)]
        assert_range_holds(comp, expr, values)

    @pytest.mark.parametrize("text, store", [
        # 1..255: the difference cannot wrap, so it is not masked.
        ("(a | 128) - (b & 127)", "  w0 = ((i0 | 128) - (i1 & 127))"),
        ("!(a | 1)", "  w0 = 0"),  # a | 1 is never 0
        ("(r & 0) + a", "  w0 = (0 + i0)"),  # r & 0 is the one point 0
    ])
    def test_range_shapes_the_store(self, text, store):
        dut = parse("module m (input a[8], input b[8], output y[8]); reg r[8] = 5;"
                    f" next r = a ^ b; assign y = {text}; cover y {{ lo: 0..99 }} endmodule")
        assert lint(dut) == []
        assert re.findall(r"^  w0 = .*$", cycle_source(dut), re.MULTILINE) == [store]
        rng = random.Random(7)
        cycles = [{"a": rng.randrange(256), "b": rng.randrange(256)} for _ in range(9)]
        cycles += [{"a": 0, "b": 0}, {"a": 255, "b": 255}, {"a": 128, "b": 127}]
        report = simulate(dut, Stimulus(tuple(cycles)))
        assert counts(report) == oracle_simulate(dut, cycles)
        assert report.covered == oracle_bits(dut, cycles)

    def test_each_comparison_walks_its_operands_once(self, monkeypatch):
        # A condition and a store that are each MAX_DEPTH - 1 nested '<': walking a
        # comparison's operands twice per level would make some 2**23 calls.
        chain = "a"
        for _ in range(MAX_DEPTH - 1):
            chain = f"({chain} < b)"
        dut = parse(f"module m (input a[8], input b[8], output y[1]); assign y = {chain};"
                    f" if {chain} {{ assign y = 0; }} cover y {{ lo: 0..0 }} endmodule")
        assert lint(dut) == []
        # One call per node: the store's 2 * (MAX_DEPTH - 1) + 1, the condition's
        # operands' 2 * (MAX_DEPTH - 1), as its one walk emits it bare, and the
        # constant that 'assign y = 0' stores.
        walks = 4 * (MAX_DEPTH - 1) + 2
        calls = 0
        expr = sim._Compiler.expr

        def counted(self, e, d):
            nonlocal calls
            calls += 1
            assert calls <= walks
            return expr(self, e, d)

        monkeypatch.setattr(sim._Compiler, "expr", counted)
        source = cycle_source(dut)
        assert calls == walks
        monkeypatch.undo()
        assert len(conditional_lines(source)) == 1
        cycles = [{"a": a, "b": b} for a, b in ((0, 0), (1, 0), (0, 1), (1, 1), (200, 3))]
        report = simulate(dut, Stimulus(tuple(cycles)))
        assert counts(report) == oracle_simulate(dut, cycles)
        assert report.covered == oracle_bits(dut, cycles)


def compiler_order(dut):
    """Every coverage item as (metric, oracle key), in the order sim's compiler
    numbers them: statements and conditionals as the walk over the body reaches
    them, a conditional's two outcomes before the items in its arms, bins last."""
    items = []

    def walk(body):
        for s in body:
            if isinstance(s, Assign):
                items.append(("statement", (s.line, s.column)))
            else:
                items.extend(("branch", (s.line, s.column, taken)) for taken in (True, False))
                walk(s.then_body)
                walk(s.else_body)

    walk(dut.body)
    return items + [("functional", (cg.signal, b.name)) for cg in dut.covergroups for b in cg.bins]


def oracle_bits(dut, cycles):
    """The oracle's covered sets as one int, a bit per item in the compiler's order."""
    covered = dict(zip(METRICS, oracle_covered(dut, cycles)))
    return sum(1 << i for i, (metric, key) in enumerate(compiler_order(dut))
               if key in covered[metric])


_BUNDLED = load_bundled_corpus()


@st.composite
def split_runs(draw):
    """A bundled or generated design, a valid stimulus for it, and a cycle to split it at."""
    if draw(st.booleans()):
        dut = draw(st.sampled_from(_BUNDLED))
        cycles = draw(st.lists(st.fixed_dictionaries(
            {p.name: st.integers(0, (1 << p.width) - 1) for p in dut.input_ports}), max_size=8))
    else:
        text, cycles = random_design(draw(st.integers(0, 2**32)))
        dut = parse(text)
    return dut, cycles, draw(st.integers(0, len(cycles)))


def assert_split_equals_whole(dut, cycles, k):
    run = sim.compiled(dut)
    whole, end = run(cycles)
    first, state = run(cycles[:k])
    second, last = run(cycles[k:], *state)
    assert first.covered | second.covered == whole.covered
    assert last == end
    assert first.cycles_run + second.cycles_run == whole.cycles_run
    # The union is the first report with the whole's covered set: its counts follow.
    union = replace(first, covered=first.covered | second.covered,
                    cycles_run=first.cycles_run + second.cycles_run)
    assert union.to_dict() == whole.to_dict()
    assert union == whole


class TestCoveredSet:
    @given(split_runs())
    @settings(max_examples=300, deadline=None)
    def test_split_run_carries_the_state(self, case):
        # Two runs, the second from the first's final registers, cover what one run covers.
        assert_split_equals_whole(*case)

    def test_split_run_on_large_generated_designs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import designgen

        designs, stimuli = designgen.generate(0, 3, 2)
        rng = random.Random(0)
        for design, per_design in zip(designs, stimuli):
            dut = parse(design.text)
            for cycles in per_design:
                for k in (0, rng.randrange(len(cycles) + 1), len(cycles)):
                    assert_split_equals_whole(dut, cycles, k)

    def test_each_bit_is_the_oracles_item(self, corpus, toy1):
        # Criterion 4's designs and stimuli: toy1's 30 stimuli of 1-4 cycles, then
        # 1,000 random stimuli over the corpus and a prefix of each.
        for length in range(1, 5):
            for bits in itertools.product((0, 1), repeat=length):
                cycles = tuple({"a": b} for b in bits)
                assert simulate(toy1, Stimulus(cycles)).covered == oracle_bits(toy1, cycles)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            dut = corpus[int(rng.integers(0, len(corpus)))]
            total = int(rng.integers(1, 9))
            cut = int(rng.integers(0, total + 1))
            cycles = tuple(
                {p.name: int(rng.integers(0, 2**p.width)) for p in dut.input_ports}
                for _ in range(total)
            )
            for part in (cycles, cycles[:cut]):
                assert simulate(dut, Stimulus(part)).covered == oracle_bits(dut, part), dut.name

    def test_toy1_bits(self, toy1):
        # The conditional's two outcomes, the assignment in each arm, the top-level
        # assignment, then the two bins.
        run = sim.compiled(toy1)
        assert [item for item, _ in compiler_order(toy1)] == [
            "branch", "branch", "statement", "statement", "statement", "functional", "functional"]
        first, state = run(({"a": 1},))
        second, _ = run(({"a": 0},), *state)
        assert (first.covered, second.covered, run(({"a": 1}, {"a": 0}))[0].covered) == (53, 90, 127)

    def test_run_refuses_a_start_state_it_cannot_hold(self, toy1):
        # toy1 has one 1-bit register; its first call once raised IndexError, the
        # second returned the state (5,) and the third covered=90.
        run = sim.compiled(toy1)
        for cycles, value in [(({"a": 0},), 2), ((), 5), (({"a": 0},), -1), ((), True),
                              ((), 1.5), ((), 10**100), (({"b": 0},), 7)]:
            with pytest.raises(ValueError) as exc:
                run(cycles, value)
            assert str(exc.value).startswith("register 's' cannot start at "), exc.value
            assert str(exc.value).endswith(": it holds an int in 0..1")
            assert len(str(exc.value)) < 100
        # The first register that does not fit is named, whichever it is.
        dut = parse("module m (input a[1], output y[4]); reg r[4] = 9; reg q[2] = 1;"
                    " next r = r + a; next q = a; assign y = r; endmodule")
        run = sim.compiled(dut)
        assert run(({"a": 1},), 15, 3)[1] == (0, 1)
        for state, name in [((16, 0), "'r'"), ((0, 4), "'q'"), ((0, 1.0), "'q'")]:
            with pytest.raises(ValueError, match=f"^register {name} cannot start at "):
                run(({"a": 1},), *state)

    def test_report_dict_leaves_the_set_out(self, toy1):
        report = simulate(toy1, stim(1, 0))
        assert report.covered and set(report.to_dict()) == {
            *METRICS, *(f"{m}_fraction" for m in METRICS), "average", "cycles_run"}

    def test_input_rows_gates_the_design(self):
        # input_rows reads port widths; unchecked, this one costs a 12.5 MB int per check.
        dut = parse("module m (input a[100000000], output y[1]); assign y = a; endmodule")
        [issue] = lint(dut)
        for call in (lambda: input_rows(dut, Stimulus(({"a": 1},))),
                     lambda: encode(dut, Stimulus(()), Vocab(4), 8)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"design 'm' does not lint clean: {issue}"


# One design per lint kind, the kind its first issue: test_hdl.py's TestLint
# designs, except that the next_to_non_reg one also assigns its wire, which
# lint would otherwise report first as never assigned.
_LINT_DIRTY = (
    ("duplicate_identifier", "module m (input a[1], output y[1]); reg a[1] = 0;"
                             " next a = 1; assign y = 1; endmodule"),
    ("width_out_of_range", "module m (input a[17], output y[1]); assign y = a; endmodule"),
    ("width_out_of_range", "module m (input a[1], output y[1]); reg r[1] = 2;"
                           " next r = a; assign y = r; endmodule"),
    ("no_inputs", "module m (output y[1]); assign y = 1; endmodule"),
    ("no_outputs", "module m (input a[1]); endmodule"),
    ("undeclared_identifier", "module m (input a[1], output y[1]); assign y = q; endmodule"),
    ("assign_to_input", "module m (input a[1], output y[1]); assign a = 1; assign y = a; endmodule"),
    ("assign_to_reg", "module m (input a[1], output y[1]); reg r[1] = 0;"
                      " assign r = a; next r = a; assign y = r; endmodule"),
    ("next_to_non_reg", "module m (input a[1], output y[1]); wire w[1];"
                        " assign w = 0; next w = 1; assign y = a; endmodule"),
    ("duplicate_covergroup", "module m (input a[1], output y[1]); assign y = a;"
                             " cover a { b0: 0..0, b1: 0..0 } cover a { b0: 0..0, b1: 0..0 }"
                             " endmodule"),
    ("duplicate_bin", "module m (input a[1], output y[1]); assign y = a;"
                      " cover y { b: 0..0, b: 1..1 } endmodule"),
    ("bin_out_of_range", "module m (input a[1], output y[1]); assign y = a;"
                         " cover y { big: 0..2 } endmodule"),
    ("wire_never_assigned", "module m (input a[1], output y[1]); wire w[1];"
                            " assign y = w; endmodule"),
    ("wire_never_assigned", "module m (input a[1], output y[1]); endmodule"),
)


class TestCompiled:
    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_compiled_matches_oracle(self, seed):
        text, cycles = random_design(seed)
        dut = parse(text)
        assert lint(dut) == []
        report = simulate(dut, Stimulus(tuple(cycles)))
        assert counts(report) == oracle_simulate(dut, cycles)
        assert report.covered == oracle_bits(dut, cycles)
        assert report.cycles_run == len(cycles)

    @given(st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_widths_up_to_100_bits_match_oracle(self, seed):
        # A lint-clean design simulates exactly; one with a width of 0 or of
        # 17-100 bits is refused in a short message naming its first issue.
        text, cycles = random_design(seed, widths=(0, 100))
        dut = parse(text)
        issues = lint(dut)
        if not issues:
            assert counts(simulate(dut, Stimulus(tuple(cycles)))) == oracle_simulate(dut, cycles)
            return
        assert issues[0].kind == "width_out_of_range"
        with pytest.raises(ValueError) as exc:
            simulate(dut, Stimulus(tuple(cycles)))
        assert str(exc.value) == refusal("g", issues) and len(str(exc.value)) < 120

    @pytest.mark.parametrize("text, name", [
        ("module m (input a[{w}], output y[1]); assign y = a; endmodule", "a"),
        ("module m (input a[1], output y[1]); reg r[{w}] = 1; assign y = r; endmodule", "r"),
        ("module m (input a[1], output y[1]); wire u[{w}]; assign u = a; assign y = u; endmodule",
         "u"),
    ])
    def test_width_beyond_the_compiler_refused_briefly(self, text, name):
        stimulus = Stimulus(({"a": 0},))
        assert simulate(parse(text.format(w=16)), stimulus).cycles_run == 1
        for width, shown_width in ((0, "0"), (17, "17"), (1024, "1024"), (1025, "1025"),
                                   ("0x" + "f" * 40, "an integer of 160 bits")):
            dut = parse(text.format(w=width))
            [issue] = lint(dut)
            assert str(issue).endswith(
                f": width_out_of_range: width {shown_width} of '{name}' outside 1..16")
            with pytest.raises(ValueError) as exc:
                simulate(dut, stimulus)
            assert str(exc.value) == f"design 'm' does not lint clean: {issue}"

    def test_parser_limits_match_oracle(self):
        # MAX_DEPTH operators on one expression path, every operator among
        # them, inside MAX_DEPTH nested conditionals.
        ops = _BIN_OPS + ("~", "!")
        expr = "a"
        for k in range(MAX_DEPTH):
            op = ops[k % len(ops)]
            expr = f"{op}({expr})" if op in "~!" else f"({expr} {op} {('b', 'r', '3')[k % 3]})"
        chain = "(" * MAX_DEPTH + "a" + "".join(f" - {k})" for k in range(MAX_DEPTH))
        body = f"assign y = {expr}; assign u = {chain};"
        for k in range(MAX_DEPTH):
            body = (f"if (((r + a) >> {k % 5}) & 1) {{ next r = r + {k + 1}; {body} }}"
                    f" else {{ assign u = u ^ {k}; }}")
        text = ("module deep (input a[4], input b[3], output y[16]); reg r[8] = 0;"
                f" wire u[16]; assign u = 0; assign y = 0; {body}"
                " cover y { lo: 0..255, hi: 256..65535 } cover r { odd: 1..1, big: 128..255 }"
                " endmodule")
        dut = parse(text)
        assert lint(dut) == []
        assert simulate(dut, Stimulus(())).branch.total == 2 * MAX_DEPTH
        rng = np.random.default_rng(17)
        for length in (1, 10, 200):
            cycles = [{"a": int(rng.integers(0, 16)), "b": int(rng.integers(0, 8))}
                      for _ in range(length)]
            assert counts(simulate(dut, Stimulus(tuple(cycles)))) == oracle_simulate(dut, cycles)

    def test_source_holds_no_design_identifier(self):
        dut = parse(
            "module secret_mod (input alpha[4], input beta_in[2], output omega_out[4]);"
            " reg gamma_reg[4] = 9; wire delta_wire[4];"
            " assign delta_wire = alpha + gamma_reg;"
            " if (beta_in == 2) { next gamma_reg = delta_wire << beta_in; }"
            " else { next gamma_reg = !(alpha >> 1); }"
            " assign omega_out = ~delta_wire;"
            " cover omega_out { lowbin: 0..7, highbin: 8..15 } endmodule")
        source = cycle_source(dut)
        for name in ("secret_mod", "alpha", "beta_in", "omega_out", "gamma_reg",
                     "delta_wire", "lowbin", "highbin"):
            assert name not in source
        allowed = {"def", "run", "c", "for", "in", "if", "else", "min", "return", "bytearray",
                   "find", "cycles", "type", "int", "dict", "len", "is", "not", "or", "None",
                   "report", "t", "refuse_state"}
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type != tokenize.STRING
            if tok.type == tokenize.NAME:
                assert tok.string in allowed or re.fullmatch(r"[inrwbck]\d+", tok.string), tok
            if tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok

    def test_compiles_once_per_model(self, monkeypatch, toy1_source):
        dut = parse(toy1_source)
        calls = []
        real = sim.cycle_source
        monkeypatch.setattr(sim, "cycle_source", lambda d: calls.append(d) or real(d))
        for _ in range(3):
            simulate(dut, stim(1, 0))
        assert len(calls) == 1 and sim.compiled(dut) is sim.compiled(dut)

    def test_first_bad_cycle_and_port_reported(self):
        dut = parse("module m (input p[1], input q[2], output y[2]); assign y = p + q; endmodule")
        cycles = [{"p": 0, "q": 0}, {"p": 1, "q": 3}, {"p": 2, "q": 9}, {"p": 0, "q": 1},
                  {"p": 1, "q": 1}, {"q": 7}]
        with pytest.raises(SimulationError) as exc:
            simulate(dut, Stimulus(tuple(cycles)))
        assert (exc.value.cycle, exc.value.port) == (2, "p")
        assert "value 2 out of range for 1-bit port" in str(exc.value)
        cycles[2] = {"p": 1, "q": 9}
        with pytest.raises(SimulationError) as exc:
            simulate(dut, Stimulus(tuple(cycles)))
        assert (exc.value.cycle, exc.value.port) == (2, "q")
        cycles[2] = {"p": 1, "q": 1}
        with pytest.raises(SimulationError) as exc:
            simulate(dut, Stimulus(tuple(cycles)))
        assert (exc.value.cycle, exc.value.port) == (5, "p")
        assert "missing input value" in str(exc.value)

    @pytest.mark.parametrize("source, name", [
        ("module m (input a[1], output y[1]); assign y = zz; endmodule", "'zz'"),
        ("module m (input a[1], output y[1]); next y = a; endmodule", "'y'"),
        ("module m (input a[1], output a[1]); assign a = 1; endmodule", "'a'"),
    ])
    def test_unmappable_name_raises_value_error(self, source, name):
        dut = parse(source)
        assert lint(dut) != []
        with pytest.raises(ValueError, match=name):
            simulate(dut, Stimulus(({"a": 0},)))

    @pytest.mark.parametrize("kind, source", _LINT_DIRTY, ids=[kind for kind, _ in _LINT_DIRTY])
    def test_every_lint_issue_refused(self, kind, source):
        dut = parse(source)
        issues = lint(dut)
        assert issues[0].kind == kind
        for call in (lambda: cycle_source(dut), lambda: simulate(dut, Stimulus(({"a": 0},)))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == refusal("m", issues)

    def test_every_lint_kind_has_a_refused_design(self):
        hdl_source = (Path(__file__).resolve().parents[1] / "src/covstim/hdl.py").read_text()
        kinds = set(re.findall(r'(?:issue|LintIssue)\("(\w+)"', hdl_source))
        assert kinds == {kind for kind, _ in _LINT_DIRTY}

    def test_reports_are_small_shared_values(self, toy1):
        report = simulate(toy1, stim(1))
        for obj in (report, report.statement):
            assert not hasattr(obj, "__dict__")
        assert simulate(toy1, stim(1)) is report
        assert simulate(toy1, stim(1, 0)) != report


# Inputs for the dead-store designs below: both arms of every conditional, and a
# range of values, run from reset; each prefix is checked too.
_DEAD_CYCLES = [{"a": a, "c": c} for a, c in ((5, 1), (200, 0), (77, 1), (0, 0), (255, 1), (9, 0))]


def zeroed(source):
    """The wires and outputs that the per-cycle prologue zeroes."""
    line = re.search(r"^  ((?:w\d+ = )+)0$", source, re.MULTILINE)
    return set(line.group(1).split(" = ")[:-1]) if line else set()


def dead_store_case(text, dropped=(), kept=()):
    """``text``'s compiled source, after checking that the store of ``a + k`` is left
    out for each k in ``dropped`` and emitted for each in ``kept``, and that every
    prefix of ``_DEAD_CYCLES`` covers what the oracle covers."""
    dut = parse(text)
    assert lint(dut) == []
    source = cycle_source(dut)
    for k in dropped:
        assert f"+ {k})" not in source, k
    for k in kept:
        assert f"+ {k})" in source, k
    for n in range(len(_DEAD_CYCLES) + 1):
        cycles = _DEAD_CYCLES[:n]
        report = simulate(dut, Stimulus(tuple(cycles)))
        assert counts(report) == oracle_simulate(dut, cycles)
        assert report.covered == oracle_bits(dut, cycles)
    return source


class TestDeadStores:
    # Each store's value is ``a + k`` for a k that no other line of the source holds.
    PORTS = "module m (input a[8], input c[1], output y[8]);"

    def test_overwritten_store_dropped(self):
        dead_store_case(
            f"{self.PORTS} reg r[8] = 3; wire w[8];"
            " assign w = a + 11; next r = a + 33; assign w = a + 22; next r = a + 44;"
            " assign y = w ^ r; cover y { lo: 0..99 } endmodule",
            dropped=(11, 33), kept=(22, 44))

    def test_store_overwritten_in_one_arm_kept(self):
        dead_store_case(
            f"{self.PORTS} wire w[8];"
            " assign w = a + 11; if (c) { assign w = a + 22; } assign y = w;"
            " cover y { lo: 0..99 } endmodule",
            kept=(11, 22))

    def test_only_wires_read_before_a_drive_are_zeroed(self):
        # u (w0) is read before any drive when c is 0; v (w1) and y (w2) are always
        # driven first.  Register q is never read, so it is not copied from its next value.
        source = dead_store_case(
            f"{self.PORTS} reg r[8] = 1; reg q[8] = 2; wire u[8]; wire v[8];"
            " if (c) { assign u = a + 11; } assign v = a + 22; assign y = u ^ v;"
            " next r = a + 33; next q = r + 44; cover y { lo: 0..99 } endmodule",
            kept=(11, 22, 33, 44))
        assert zeroed(source) == {"w0"}
        assert "r0 = n0" in source and "r1 = n1" not in source

    def test_unread_uncovered_output_not_computed(self, corpus):
        source = dead_store_case(
            f"{self.PORTS} reg r[8] = 0; next r = a; assign y = r + 11;"
            " cover r { lo: 0..99 } endmodule", dropped=(11,))
        assert zeroed(source) == set()
        # deadend drives an output that nothing reads and no covergroup samples;
        # its statement bit still counts.
        deadend = next(dut for dut in corpus if dut.name == "deadend")
        source = cycle_source(deadend)
        assert re.search(r"\bw\d", source) is None
        report = simulate(deadend, stim(0, 1))
        assert (report.statement.covered, report.statement.total) == (1, 2)
        assert counts(report) == oracle_simulate(deadend, stim(0, 1).cycles)

    def test_next_last_on_some_path_kept(self):
        text = (f"{self.PORTS} reg r[8] = 7; next r = a + 11; if (c) {{ next r = a + 22; }}"
                " assign y = r; cover y { lo: 0..99 } endmodule")
        dead_store_case(text, kept=(11, 22))
        # The final register state is the last cycle's a + 22 when c is 1, else a + 11.
        run = sim.compiled(parse(text))
        for cycles in _DEAD_CYCLES[:3], _DEAD_CYCLES[:4]:
            a, c = cycles[-1]["a"], cycles[-1]["c"]
            assert run(cycles)[1] == ((a + (22 if c else 11)) % 256,)

    def test_arms_without_stores_record_both_outcomes(self):
        dead_store_case(
            f"{self.PORTS} wire w[8];"
            " if (c) { assign w = a + 11; } else { assign w = a + 22; } assign w = a + 33;"
            " assign y = w; cover y { lo: 0..99 } endmodule",
            dropped=(11, 22), kept=(33,))
        text = (f"{self.PORTS} if (c) {{ assign y = a + 11; }} else {{ assign y = a + 22; }}"
                " endmodule")
        dead_store_case(text, dropped=(11, 22))
        report = simulate(parse(text), Stimulus(tuple(_DEAD_CYCLES[:2])))
        assert counts(report) == ((2, 2), (2, 2), (0, 0))

    @pytest.mark.parametrize("seed", [61, 101])
    def test_generated_designs_match_oracle(self, monkeypatch, seed):
        # perfbench's designs, where about half the stores are dead.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import designgen

        designs, stimuli = designgen.generate(seed, 4, 2)
        for design, per_design in zip(designs, stimuli):
            dut = parse(design.text)
            for cycles in per_design:
                report = simulate(dut, Stimulus(tuple(cycles)))
                assert counts(report) == oracle_simulate(dut, cycles), design.name
                assert report.covered == oracle_bits(dut, cycles), design.name


def conditional_lines(source):
    """The compiled source's lines that test a design's condition."""
    return re.findall(r"^ +if .*:$", source, re.MULTILINE)


def decided_case(dut, never=()):
    """``dut``'s compiled source, after checking that every prefix of ``_DEAD_CYCLES``,
    each value cut to its port's width, covers what the oracle covers, and that the
    whole splits anywhere into two runs that cover it too.  Branch outcome k, for each
    k in ``never``, is counted but never covered nor flagged; every other is covered.
    Only a tested conditional sets flags, one per arm."""
    assert lint(dut) == []
    source = cycle_source(dut)
    cycles = [{p.name: row[p.name] % (1 << p.width) for p in dut.input_ports}
              for row in _DEAD_CYCLES]
    for n in range(len(cycles) + 1):
        report = simulate(dut, Stimulus(tuple(cycles[:n])))
        assert counts(report) == oracle_simulate(dut, cycles[:n])
        assert report.covered == oracle_bits(dut, cycles[:n])
        assert_split_equals_whole(dut, cycles, n)
    outcomes = [1 << i for i in range(report.masks[1].bit_length()) if report.masks[1] >> i & 1]
    for k, bit in enumerate(outcomes):
        assert bool(report.covered & bit) == (k not in never), k
    for k in never:
        assert re.search(rf"\bb{k}\b", source) is None, k
    loop = source.split(" for c in cycles:")[1]
    flags = re.findall(r"^ +b\d+ = ", loop, re.MULTILINE)
    assert len(flags) == 2 * len(conditional_lines(source))
    return source


class TestDecidedConditionals:
    PORTS = TestDeadStores.PORTS

    def test_constant_against_constant(self):
        source = decided_case(parse(
            f"{self.PORTS} if (94 < 148) {{ assign y = a + 11; }} else {{ assign y = a + 22; }}"
            " cover y { lo: 0..99 } endmodule"), never=(1,))
        assert conditional_lines(source) == [] and "148" not in source
        assert "+ 11)" in source and "+ 22)" not in source

    def test_inverted_input_against_a_small_constant(self):
        # ~a is at least 2**64 - 256: never below 230, and never equal to it.
        source = decided_case(parse(
            f"{self.PORTS} if (~(a) < 230) {{ assign y = a + 11; }}"
            " if (~(a) != 230) { assign y = a + 22; } endmodule"), never=(0, 3))
        assert conditional_lines(source) == [] and "230" not in source

    def test_deadend_one_bit_input_above_one(self, corpus):
        deadend = next(dut for dut in corpus if dut.name == "deadend")
        source = decided_case(deadend, never=(0,))
        assert conditional_lines(source) == []
        assert counts(simulate(deadend, stim(0, 1))) == ((1, 2), (1, 2), (0, 0))

    def test_conditional_nested_in_a_dead_arm(self):
        # Outcomes 2 and 3 belong to the conditional on c, inside the arm that never runs;
        # the live conditional after it still numbers its outcomes 4 and 5.
        source = decided_case(parse(
            f"{self.PORTS} if (3 > 5) {{ if (c) {{ assign y = a + 11; }}"
            " else { assign y = a + 22; } } else { assign y = a + 33; }"
            " if (c) { assign y = a + 44; } endmodule"), never=(0, 2, 3))
        assert conditional_lines(source) == ["  if i1:"]
        assert "b4 = " in source and "+ 11)" not in source and "+ 22)" not in source

    def test_liveness_follows_the_arm_that_runs(self):
        # Only the arm that never runs reads a + 11's store; the arm that runs always
        # overwrites a + 33's.
        dead_store_case(
            f"{self.PORTS} wire w[8]; wire v[8]; assign w = a + 11; assign v = a + 33;"
            " if (3 > 5) { assign y = w; } else { assign y = a + 22; assign v = a + 44; }"
            " assign y = y ^ v; cover y { lo: 0..99 } endmodule",
            dropped=(11, 33), kept=(22, 44))

    def test_decided_comparison_as_a_value(self):
        # a > 300 is always 0 and c < 2 always 1; a == c stays a comparison.
        source = decided_case(parse(
            f"{self.PORTS} assign y = (a + (a > 300)) + ((c < 2) + (a == c));"
            " cover y { lo: 0..99 } endmodule"))
        assert "  w0 = (((i0 + 0) + (1 + (1 if i0 == i1 else 0))) & 255)\n" in source

    def test_generated_designs_fold_conditionals(self, monkeypatch):
        # perfbench's designs, where operand ranges alone decide about a third of the
        # conditionals: fewer are left in the source than the designs hold.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import designgen

        designs, stimuli = designgen.generate(61, 4, 2)
        duts = [parse(design.text) for design in designs]
        left = sum(len(conditional_lines(cycle_source(dut))) for dut in duts)
        assert left < sum(design.conditionals for design in designs)
        for dut, per_design in zip(duts, stimuli):
            for cycles in per_design:
                report = simulate(dut, Stimulus(tuple(cycles)))
                assert counts(report) == oracle_simulate(dut, cycles), dut.name
                assert report.covered == oracle_bits(dut, cycles), dut.name


def parent_input_rows(dut, stim):
    """The input check ``simulate`` made before the compiled function checked
    its own inputs: a copy kept as the reference for every refusal."""
    ports = dut.input_ports
    rows = []
    for cycle_no, cycle in enumerate(stim.cycles):
        if not isinstance(cycle, Mapping):
            raise SimulationError(cycle_no, None, "must be a mapping of port names to values, "
                                  f"got {type(cycle).__name__}", has_port=False)
        row = []
        for port in ports:
            if port.name not in cycle:
                raise SimulationError(cycle_no, port.name, "missing input value")
            v = cycle[port.name]
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < (1 << port.width):
                raise SimulationError(cycle_no, port.name, f"value {shown(v, JSON_SCALARS)} "
                                      f"out of range for {port.width}-bit port")
            row.append(v)
        if len(cycle) > len(ports):
            names = {port.name for port in ports}
            extra = next(name for name in cycle if name not in names)
            raise SimulationError(cycle_no, extra, "no such input port")
        rows.append(tuple(row))
    return rows


def outcome(call):
    """What ``call()`` raised, as (class, message, cycle, port); None if it returned."""
    try:
        call()
    except Exception as err:  # every exception is compared, not only SimulationError
        return type(err), str(err), getattr(err, "cycle", None), getattr(err, "port", None)
    return None


_REFUSAL_DESIGNS = (*load_bundled_corpus(), parse(
    "module wide (input p[1], input q[5], input r[16], output y[16]);"
    " assign y = p + q + r; cover r { lo: 0..9 } endmodule"))
_FAULTS = ("missing", "extra", "bool", "float", "str", "none", "negative", "too_wide", "not_dict")


def corrupt(cycle, port, fault, extra):
    """``cycle`` with one fault at ``port``; a non-dict cycle for "not_dict".

    One "extra" fault in ten adds the key None, which must be named as a port."""
    if fault == "not_dict":
        return (list(cycle.values()), tuple(cycle), "".join(map(str, cycle)), None, 0)[extra % 5]
    cycle = dict(cycle)
    if fault == "missing":
        cycle.pop(port.name, None)
    elif fault == "extra":
        cycle[None if extra % 10 == 0 else f"no_port_{extra}"] = 0
    else:
        cycle[port.name] = {"bool": extra % 2 == 0, "float": float(extra), "str": str(extra),
                            "none": None, "negative": -1 - extra,
                            "too_wide": (1 << port.width) + extra}[fault]
    return cycle


def valid_cycles(dut):
    return st.lists(st.fixed_dictionaries(
        {p.name: st.integers(0, (1 << p.width) - 1) for p in dut.input_ports}),
        min_size=1, max_size=6)


@st.composite
def corrupted_stimuli(draw):
    dut = draw(st.sampled_from(_REFUSAL_DESIGNS))
    ports = dut.input_ports
    cycles = draw(valid_cycles(dut))
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(cycles) - 1))
        fault = draw(st.sampled_from(_FAULTS))
        if isinstance(cycles[at], dict):
            cycles[at] = corrupt(cycles[at], draw(st.sampled_from(ports)), fault,
                                 draw(st.integers(0, 99)))
    return dut, Stimulus(tuple(cycles))


class TestRefusal:
    @given(corrupted_stimuli())
    @settings(max_examples=400, deadline=None)
    def test_refusal_matches_the_parent_check(self, case):
        dut, stimulus = case
        expected = outcome(lambda: parent_input_rows(dut, stimulus))
        assert expected is not None
        assert outcome(lambda: simulate(dut, stimulus)) == expected

    @given(corrupted_stimuli())
    @settings(max_examples=400, deadline=None)
    def test_encode_refuses_what_simulate_refuses(self, case):
        dut, stimulus = case
        expected = outcome(lambda: simulate(dut, stimulus))
        assert expected is not None
        assert outcome(lambda: encode(dut, stimulus, Vocab(4), 8)) == expected

    @given(st.sampled_from(_REFUSAL_DESIGNS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_int_enum_value_gives_the_plain_int_report(self, dut, data):
        cycles = data.draw(valid_cycles(dut))
        at = data.draw(st.integers(0, len(cycles) - 1))
        port = data.draw(st.sampled_from(dut.input_ports)).name
        enum_cycles = [dict(c) for c in cycles]
        enum_cycles[at][port] = IntEnum("Value", {"V": cycles[at][port]}).V
        assert simulate(dut, Stimulus(tuple(enum_cycles))) == simulate(dut, Stimulus(tuple(cycles)))

    def test_cycles_without_len_read_once(self, toy1):
        cycles = ({"a": 1}, {"a": 0})
        assert simulate(toy1, Stimulus(iter(cycles))) == simulate(toy1, Stimulus(cycles))

    def test_dict_subclass_with_defaults_refused_like_a_dict(self):
        # A defaultdict or Counter answers a missing port with 0; it must still be refused,
        # and the lookup must not add the port to the caller's dict.
        dut = _REFUSAL_DESIGNS[-1]
        cycle = defaultdict(int, {"p": 0, "q": 1, "typo": 0})
        with pytest.raises(SimulationError, match="missing input value") as exc:
            simulate(dut, Stimulus((cycle,)))
        assert (exc.value.cycle, exc.value.port) == (0, "r") and "r" not in cycle
        assert simulate(dut, Stimulus((defaultdict(int, {"p": 1, "q": 2, "r": 3}),))) == simulate(
            dut, Stimulus(({"p": 1, "q": 2, "r": 3},)))
