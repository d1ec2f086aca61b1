import io
import itertools
import random
import re
import tokenize
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covstim import sim
from covstim.hdl import MAX_DEPTH, lint, parse
from covstim.sim import (CoverageReport, MetricCount, SimulationError, Stimulus, average_score,
                         cycle_source, simulate)

from oracle_sim import oracle_simulate

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


class TestAverageScore:
    def test_mean_of_fractions(self, toy1):
        assert average_score(simulate(toy1, stim(1))) == pytest.approx(5 / 9, abs=1e-15)

    def test_full_coverage(self):
        report = CoverageReport(MetricCount(3, 3), MetricCount(2, 2), MetricCount(2, 2), 5)
        assert average_score(report) == 1.0

    def test_zero_total_metric_excluded(self):
        report = CoverageReport(MetricCount(1, 2), MetricCount(1, 2), MetricCount(0, 0), 1)
        assert average_score(report) == 0.5

    def test_all_totals_zero(self):
        report = CoverageReport(MetricCount(0, 0), MetricCount(0, 0), MetricCount(0, 0), 0)
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

    def test_oracle_equivalence_generated(self, monkeypatch):
        # The benchmark's generated designs: ~100 lines, 48 statements,
        # conditionals nested up to 3 deep (gen0 of seed 0 reaches 3),
        # stimuli of 100-150 cycles.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import designgen

        designs, stimuli = designgen.generate(0, 3, 2)
        for design, per_design in zip(designs, stimuli):
            dut = parse(design.text)
            assert dut.total_statements == design.statements == 48
            assert dut.total_branch_outcomes == 2 * design.conditionals
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


def counts(report):
    return ((report.statement.covered, report.statement.total),
            (report.branch.covered, report.branch.total),
            (report.functional.covered, report.functional.total))


_BIN_OPS = ("|", "^", "&", "==", "!=", "<", ">", "<<", ">>", "+", "-")
# Every name a generated design declares, with the kind of declaration.
_DECLS = (("input", "a"), ("input", "c"), ("reg", "r"), ("reg", "q"),
          ("wire", "u"), ("output", "y"))
_TARGETS = ("assign u", "assign y", "assign r", "next r", "next q")


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


def random_design(seed: int):
    """A design over every operator, lint-clean but for ``assign`` to a reg, and a stimulus.

    ``simulate`` does not lint, and its ``assign`` to a reg must still match the oracle.
    """
    rng = random.Random(seed)
    width = {n: rng.randint(1, 16) for _, n in _DECLS}
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
        lo = rng.randrange(1 << width[n])
        lines.append(f"cover {n} {{ b0: {lo}..{rng.randrange(lo, 1 << width[n])}, b1: 0..0 }}")
    lines.append("endmodule")
    cycles = [{n: rng.randrange(1 << width[n]) for kind, n in _DECLS if kind == "input"}
              for _ in range(rng.randrange(7))]
    return "\n".join(lines), cycles


class TestCompiled:
    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_compiled_matches_oracle(self, seed):
        text, cycles = random_design(seed)
        dut = parse(text)
        assert {issue.kind for issue in lint(dut)} <= {"assign_to_reg"}
        report = simulate(dut, Stimulus(tuple(cycles)))
        assert counts(report) == oracle_simulate(dut, cycles)
        assert report.cycles_run == len(cycles)

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
        assert dut.total_branch_outcomes == 2 * MAX_DEPTH
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
        allowed = {"def", "run", "inputs", "s", "b", "c", "for", "in", "if", "else", "True",
                   "min"}
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type != tokenize.STRING
            if tok.type == tokenize.NAME:
                assert tok.string in allowed or re.fullmatch(r"[inrw]\d+", tok.string), tok
            if tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok

    def test_compiles_once_per_model(self, monkeypatch, toy1_source):
        dut = parse(toy1_source)
        calls = []
        real = sim.compile_model
        monkeypatch.setattr(sim, "compile_model", lambda d: calls.append(d) or real(d))
        for _ in range(3):
            simulate(dut, stim(1, 0))
        assert len(calls) == 1 and dut.compiled is dut.compiled

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

    def test_reports_are_small_shared_values(self, toy1):
        report = simulate(toy1, stim(1))
        for obj in (report, report.statement):
            assert not hasattr(obj, "__dict__")
        assert simulate(toy1, stim(1)) is report
        assert simulate(toy1, stim(1, 0)) != report
