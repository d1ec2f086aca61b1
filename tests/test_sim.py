import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from covstim.hdl import parse
from covstim.sim import CoverageReport, MetricCount, SimulationError, Stimulus, average_score, simulate

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
