import contextlib
import importlib
import io
import json
import os
import re
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covstim.cli import main
from covstim.codec import Vocab
from covstim.corpus import BUNDLED_NAMES, bundled_source, load_bundled_corpus
from covstim.curation import CurationConfig
from covstim.evaluation import EvalConfig
from covstim.hdl import lint
from covstim.pipeline import ExperimentConfig, load_corpus_dir
from covstim.policy import TabularPolicy
from covstim.sim import Stimulus, simulate
from covstim.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
# A checkpoint's settings under the shipped defaults.
_CKPT_DOC = {"version": "tabular_policy/1", "wmax": 4, "k": 2, "t_max": 8}


@pytest.fixture
def toy1_file(tmp_path, toy1_source):
    path = tmp_path / "toy1.hdl"
    path.write_text(toy1_source)
    return str(path)


def small_config(tmp_path, **overrides):
    doc = {
        "report_dir": str(tmp_path / "report"),
        "curation": {"pairs_per_dut": 60, "teacher": "novelty", "seed": 42},
        "train": {"mode": "CDDPO", "epochs": 4, "batch_size": 16, "seed": 42,
                  "learning_rate": 2.0},
        "eval": {"n": 4, "tau": 1.0, "seed": 42},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path), Path(doc["report_dir"])


class TestLintCommand:
    def test_clean_design_exit_zero(self, toy1_file, capsys):
        assert main(["lint", toy1_file]) == 0
        assert capsys.readouterr().out == ""

    def test_dirty_design_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.hdl"
        path.write_text("module bad (input a[1], output y[1]);"
                        " assign a = 1; assign y = a; endmodule")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "assign_to_input" in out

    def test_parse_failure_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.hdl"
        path.write_text("module broken (")
        assert main(["lint", str(path)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.hdl")]) == 2
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("command", [["lint"], ["simulate", "--stim", "1"]],
                             ids=["lint", "simulate"])
    @pytest.mark.parametrize("source, kind", [
        (f"module m (input a[1], output y[1]); assign y = {'x' * 20_000}; endmodule",
         "undeclared_identifier"),
        (f"module m (input {'x' * 20_000}[1], input {'x' * 20_000}[1], output y[1]);"
         " assign y = 0; endmodule", "duplicate_identifier"),
        (f"module m (input a[1], output y[1]); assign y = a {'x' * 20_000} endmodule",
         "expected ';'"),
        (f"module m (input a[1], output y[1]); assign y = {'1' * 20_000}a; endmodule",
         "malformed number"),
        (f"module m (input a[0x{'f' * 5_000}], output y[1]); assign y = a; endmodule",
         "width_out_of_range"),
        (f"module m (input a[1], output y[1]); reg r[0x{'f' * 40}] = 0; assign y = a;"
         " endmodule", "width_out_of_range"),
        (f"module m (input a[1], output y[1]); wire w[0x{'f' * 40}]; assign w = a;"
         " assign y = a; cover w { lo: 0..1 } endmodule", "width_out_of_range"),
    ], ids=["long_undeclared", "long_duplicate_port", "long_unexpected", "long_number",
            "5000_hex_digit_width", "40_hex_digit_reg", "40_hex_digit_covered_wire"])
    def test_hostile_design_named_briefly(self, tmp_path, capsys, command, source, kind):
        path = tmp_path / "hostile.hdl"
        path.write_text(source)
        assert main([command[0], str(path), *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert kind in out + err and "Traceback" not in out + err
        assert all(len(line) < 200 for line in (out + err).splitlines()), out + err


class TestSimulateCommand:
    def test_token_stimulus(self, toy1_file, capsys):
        assert main(["simulate", toy1_file, "--stim", "1,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["average"] == 1.0

    def test_invalid_token(self, toy1_file, capsys):
        assert main(["simulate", toy1_file, "--stim", "3"]) == 1
        assert "value_exceeds_input_width" in capsys.readouterr().err

    def test_cycle_stimulus(self, toy1_file, capsys):
        assert main(["simulate", toy1_file, "--cycles", "a=1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["average"] == pytest.approx(5 / 9)

    @pytest.mark.parametrize("cycles, message", [
        ("a=5", "out of range"),
        ("a=1;b=1", "missing input value"),
    ])
    def test_bad_cycle_stimulus(self, toy1_file, capsys, cycles, message):
        assert main(["simulate", toy1_file, "--cycles", cycles]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("cycles, message", [
        ("a=1,typo=0", "error: cycle 0, port 'typo': no such input port"),
        ("a=1;a=0,a=1", "error: --cycles: cycle 1: port 'a' given twice"),
        ("a=1;", "error: --cycles: cycle 1: expected name=integer, got ''"),
        ("a=0;a=1;a=x", "error: --cycles: cycle 2: expected name=integer, got 'a=x'"),
        ("a=1,b", "error: --cycles: cycle 0: expected name=integer, got 'b'"),
    ])
    def test_malformed_cycle_named(self, toy1_file, capsys, cycles, message):
        assert main(["simulate", toy1_file, "--cycles", cycles]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == message + "\n"

    @pytest.mark.parametrize("stim, message", [
        ("1,x", "error: --stim: cycle 1: expected an integer, got 'x'"),
        ("1,,0", "error: --stim: cycle 1: expected an integer, got ''"),
        ("1,0,", "error: --stim: cycle 2: expected an integer, got ''"),
        ("", "error: --stim: cycle 0: expected an integer, got ''"),
        ("1_0", "error: --stim: cycle 0: expected an integer, got '1_0'"),
        ("\u0661", "error: --stim: cycle 0: expected an integer, got '\u0661'"),
        ("+1", "error: --stim: cycle 0: expected an integer, got '+1'"),
    ])
    def test_malformed_stim_named(self, toy1_file, capsys, stim, message):
        assert main(["simulate", toy1_file, f"--stim={stim}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == message + "\n"

    @pytest.mark.parametrize("flag, message", [
        ("--stim", "error: --stim: cycle 0: expected an integer, got '--'"),
        ("--cycles", "error: --cycles: cycle 0: expected name=integer, got '--'"),
    ])
    def test_double_dash_value_named(self, toy1_file, capsys, flag, message):
        # argparse hands a "--" option value over as [].
        assert main(["simulate", toy1_file, f"{flag}=--"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == message + "\n"

    def test_oversized_stim_integer_named(self, toy1_file, capsys):
        # 5,000 digits is past int()'s default 4,300-digit string limit.
        assert main(["simulate", toy1_file, "--stim", "0,0," + "1" * 5000]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: --stim: cycle 2: integer of 5000 digits "
                                     "is too long to convert\n")

    def test_oversized_cycles_integer_named(self, toy1_file, capsys):
        assert main(["simulate", toy1_file, "--cycles", "a=1;a=-" + "1" * 5000]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: --cycles: cycle 1: port 'a': integer of 5000 "
                                     "digits is too long to convert\n")

    @pytest.mark.parametrize("flag, text, message", [
        ("--stim", "1," + "9" * 4000, "error: not_well_formed at position 2: interior token "
                                      "an integer of 13288 bits is not a value token"),
        ("--stim", "1," + "x" * 5000,
         f"error: --stim: cycle 1: expected an integer, got '{'x' * 40}'..."),
        ("--cycles", "a=1;" + "x" * 5000 + "=1x",
         f"error: --cycles: cycle 1: expected name=integer, got '{'x' * 40}'..."),
        ("--cycles", "a=" + "9" * 4000,
         "error: cycle 0, port 'a': value an integer of 13288 bits out of range for 1-bit port"),
        ("--cycles", "a=1," + "x" * 5000 + "=1",
         f"error: cycle 0, port '{'x' * 40}'...: no such input port"),
        ("--cycles", "x" * 5000 + "=1," + "x" * 5000 + "=1",
         f"error: --cycles: cycle 0: port '{'x' * 40}'... given twice"),
    ], ids=["stim_4000_digits", "stim_5000_chars", "cycles_5000_chars", "cycles_4000_digits",
            "cycles_long_port", "cycles_long_port_twice"])
    def test_long_value_message_is_bounded(self, toy1_file, capsys, flag, text, message):
        assert main(["simulate", toy1_file, flag, text]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == message + "\n" and len(err) < 200

    def test_stim_values_may_carry_blanks(self, toy1_file, capsys):
        assert main(["simulate", toy1_file, "--stim", " 1 ,0 "]) == 0
        spaced = capsys.readouterr().out
        assert main(["simulate", toy1_file, "--stim", "1,0"]) == 0
        assert capsys.readouterr().out == spaced

    @pytest.mark.parametrize("flags, message", [
        (["--wmax", "-1"], "--wmax: wmax must be in 1..16, got -1"),
        (["--wmax", "0"], "--wmax: wmax must be in 1..16, got 0"),
        (["--wmax", "17"], "--wmax: wmax must be in 1..16, got 17"),
        (["--wmax", str(10**9)], "--wmax: wmax must be in 1..16"),
        (["--t-max", "0"], "--t-max must be >= 1, got 0"),
        (["--t-max", "-3"], "--t-max must be >= 1, got -3"),
    ])
    def test_out_of_range_flag_named(self, toy1_file, capsys, flags, message):
        assert main(["simulate", toy1_file, "--stim", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestBundledCorpus:
    def test_at_least_five_clean_designs(self):
        corpus = load_bundled_corpus()
        assert len(corpus) >= 5
        for dut in corpus:
            assert lint(dut) == []

    def test_full_coverage_reachable_except_deadend(self):
        # Witness stimuli of length <= 8 reaching average 1.0.
        witnesses = {
            "toy1": [{"a": 1}, {"a": 0}],
            "mux2": [{"sel": 1, "a": 1, "b": 0}, {"sel": 1, "a": 0, "b": 0},
                     {"sel": 0, "a": 0, "b": 1}, {"sel": 0, "a": 0, "b": 0}],
            "chain2": [{"d": 1}, {"d": 1}, {"d": 1}, {"d": 0}, {"d": 0}],
            "adder2": [{"a": 0, "b": 0}, {"a": 1, "b": 1}, {"a": 3, "b": 3}],
        }
        for dut in load_bundled_corpus():
            if dut.name == "deadend":
                continue
            report = simulate(dut, Stimulus(tuple(witnesses[dut.name])))
            assert report.average == 1.0, dut.name

    def test_deadend_capped_below_full(self):
        import itertools
        dut = next(d for d in load_bundled_corpus() if d.name == "deadend")
        best = 0.0
        for length in range(1, 5):
            for bits in itertools.product((0, 1), repeat=length):
                best = max(best, simulate(dut, Stimulus(tuple({"a": b} for b in bits))).average)
        assert best == 0.5

    def test_corpus_dir_loaded_by_filename(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        with pytest.raises(ValueError, match=r"^no \*\.hdl files in .*corpus$"):
            load_corpus_dir(corpus)
        # Filenames sort in neither module-name order nor the order they are written in.
        names = ["mux2", "deadend", "toy1", "adder2", "chain2"]
        assert sorted(names) == sorted(BUNDLED_NAMES)
        for i, name in reversed(list(enumerate(names))):
            (corpus / f"{i}_{name}.hdl").write_text(bundled_source(name))
        bundled = {dut.name: dut for dut in load_bundled_corpus()}
        assert load_corpus_dir(corpus) == [bundled[name] for name in names]
        # Pairs are sparse on toy1, chain2 and deadend; at this seed the uniform
        # teacher gives each design at least one.
        config, report_dir = small_config(tmp_path, corpus_dir=str(corpus), curation={
            "pairs_per_dut": 400, "teacher": "uniform", "seed": 42})
        assert main(["curate", "--config", config]) == 0
        lines = (report_dir / "pairs.jsonl").read_text(encoding="utf-8").splitlines()
        assert {json.loads(line)["dut"] for line in lines} == set(names)

    def test_duplicate_module_names_rejected(self, tmp_path, toy1_source):
        (tmp_path / "a.hdl").write_text(toy1_source)
        (tmp_path / "b.hdl").write_text(toy1_source.replace("a == 1", "a == 0"))
        with pytest.raises(ValueError, match=r"a\.hdl and .*b\.hdl both declare module 'toy1'"):
            load_corpus_dir(tmp_path)

    @pytest.mark.parametrize("content, prefix, message", [
        (b"module b (input a[1], output y[1]);\nassign y = a +;\nendmodule\n", "parse error: ",
         "syntax error at 2:15: expected expression, found ';'"),
        (b"\xffmodule", "error: ", "'utf-8' codec can't decode byte 0xff in position 0"),
    ])
    def test_corpus_dir_error_names_file(self, tmp_path, capsys, toy1_source, content, prefix,
                                         message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.hdl").write_text(toy1_source)
        (corpus / "b.hdl").write_bytes(content)
        config, report_dir = small_config(tmp_path, corpus_dir=str(corpus))
        assert main(["curate", "--config", config]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{prefix}{corpus / 'b.hdl'}: {message}")
        assert len(err.splitlines()) == 1 and not (report_dir / "pairs.jsonl").exists()

    def test_corpus_dir_lint_issues_summarised(self, tmp_path, capsys, toy1_source):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.hdl").write_text(toy1_source)
        body = "\n".join(f"assign y = q{i};" for i in range(2000))
        (corpus / "b.hdl").write_text(f"module b (input a[1], output y[1]);\n{body}\nendmodule\n")
        config, report_dir = small_config(tmp_path, corpus_dir=str(corpus))
        assert main(["curate", "--config", config]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {corpus / 'b.hdl'}: design 'b' does not lint clean: 2:12: "
                       f"undeclared_identifier: identifier 'q0' is not declared (and 1999 more)\n")
        assert not (report_dir / "pairs.jsonl").exists()

    def test_bundled_names(self):
        assert set(BUNDLED_NAMES) == {"toy1", "mux2", "chain2", "adder2", "deadend"}
        assert "module toy1" in bundled_source("toy1")


class TestPipelineCommands:
    def test_curate_then_train_then_eval(self, tmp_path, capsys):
        config, report_dir = small_config(tmp_path)
        assert main(["curate", "--config", config]) == 0
        assert (report_dir / "pairs.jsonl").exists()
        assert (report_dir / "curation_stats.json").exists()

        assert main(["train", "--config", config, "--mode", "CDDPO"]) == 0
        assert (report_dir / "cddpo.ckpt.json").exists()
        history = json.loads((report_dir / "cddpo.history.json").read_text())
        assert history["config"]["beta"] == 0.2
        assert history["config"]["f_variant"] == "identity_clamp"
        assert len(history["epoch_loss"]) == 4

        assert main(["eval", "--config", config,
                     "--checkpoint", str(report_dir / "cddpo.ckpt.json")]) == 0
        assert (report_dir / "eval.json").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_stage_creates_missing_report_dir(self, tmp_path, monkeypatch, capsys, command):
        config, report_dir = small_config(tmp_path)
        assert main(["curate", "--config", config]) == 0
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        config, _ = small_config(tmp_path, report_dir="missing/dir",
                                 dataset_file=str(report_dir / "pairs.jsonl"))
        assert main([command, "--config", config]) == 0
        assert (work / "missing" / "dir" / "cddpo.ckpt.json").is_file()

    def test_post_sft_train_matches_ablate(self, tmp_path, capsys):
        train = {"mode": "CDDPO", "epochs": 4, "batch_size": 16, "seed": 42,
                 "learning_rate": 2.0, "ref_source": "post_sft_policy"}
        config, report_dir = small_config(tmp_path, train=train)
        assert main(["curate", "--config", config]) == 0
        assert main(["ablate", "--config", config]) == 0
        written = {name: (report_dir / name).read_bytes()
                   for name in ("cddpo.ckpt.json", "cddpo.history.json")}
        for name in written:
            (report_dir / name).unlink()
        assert main(["train", "--config", config, "--mode", "CDDPO"]) == 0
        for name, data in written.items():
            assert (report_dir / name).read_bytes() == data, name

    def test_eval_rejects_checkpoint_of_other_settings(self, tmp_path, capsys):
        config, report_dir = small_config(tmp_path)
        report_dir.mkdir()
        path = report_dir / "wmax3.ckpt.json"
        TabularPolicy(Vocab(3), 2, 8).save(path)
        assert main(["eval", "--config", config, "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert "wmax 3 (run config 4)" in err and "Traceback" not in err
        assert not (report_dir / "eval.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"version": "tabular_policy/1", "wmax": 4}, "checkpoint field k must be an integer"),
        ([1], "checkpoint top level must be a JSON object"),
        ({"version": "tabular_policy/1", "wmax": 4, "k": 2, "t_max": 8,
          "table": [["toy1", [16, 16], [0.0, 1.0]]]}, "row has 2 logits, expected 18"),
        ({"version": "tabular_policy/1", "wmax": 4, "k": 2, "t_max": 8,
          "table": [["toy1", [16], [0.0] * 18]]}, "context [16] must be k=2 tokens"),
    ])
    def test_eval_rejects_malformed_checkpoint(self, tmp_path, capsys, doc, message):
        config, report_dir = small_config(tmp_path)
        path = tmp_path / "bad.ckpt.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--config", config, "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not report_dir.exists()

    @pytest.mark.parametrize("doc, message", [
        ({**_CKPT_DOC, "table": [["toy1", [0] * 20_000, [0.0] * 18]]},
         "checkpoint table[0] context of length 20000 must be k=2 tokens in 0..17"),
        ({**_CKPT_DOC, "table": [["x" * 20_000, [0, 0], [0.0] * 18]] * 2},
         f"checkpoint table[1] repeats context [0, 0] of '{'x' * 40}'..."),
        ({**_CKPT_DOC, "version": "x" * 20_000},
         f"unsupported checkpoint version '{'x' * 40}'..."),
    ], ids=["long_context", "long_dut_id", "long_version"])
    def test_eval_message_of_long_checkpoint_value_is_bounded(self, tmp_path, capsys, doc,
                                                              message):
        config, report_dir = small_config(tmp_path)
        path = tmp_path / "bad.ckpt.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--config", config, "--checkpoint", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n" and len(err) < 200
        assert not report_dir.exists()

    def test_curate_rejects_malformed_checkpoint_teacher(self, tmp_path, capsys):
        path = tmp_path / "bad.ckpt.json"
        path.write_text("[1]")
        config, report_dir = small_config(
            tmp_path, curation={"pairs_per_dut": 2, "teacher": str(path), "seed": 0})
        assert main(["curate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "checkpoint top level must be a JSON object" in err and "Traceback" not in err

    @pytest.mark.parametrize("char", ["x", "\x01", "\U0001f600"], ids=["ascii", "control",
                                                                       "non_bmp"])
    @pytest.mark.parametrize("where", ["teacher", "corpus_dir", "report_dir", "checkpoint",
                                       "lint"])
    def test_long_path_io_error_is_one_bounded_line(self, tmp_path, capsys, monkeypatch,
                                                     where, char):
        # A 100,000-character path the OS refuses is quoted cut, with its length.
        monkeypatch.chdir(tmp_path)
        path = char * 100_000
        if where == "checkpoint":
            argv = ["eval", "--checkpoint", path]
        elif where == "lint":
            argv = ["lint", path]
        else:
            doc = {"curation": {"pairs_per_dut": 2, "teacher": path}} if where == "teacher" else {
                where: path}
            (tmp_path / "config.json").write_text(json.dumps(doc))
            argv = ["curate", "--config", "config.json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and len(err) < 300, err
        assert re.fullmatch(r"io error: [^:\n]+: (['\"]).+\1\.\.\. \(100000 characters\)\n", err)
        assert "Traceback" not in err

    def test_io_error_names_a_short_path_in_full(self, tmp_path, capsys):
        path = str(tmp_path / "no\nsuch.hdl")
        assert main(["lint", path]) == 2
        assert capsys.readouterr().err == f"io error: No such file or directory: {path!r}\n"

    @pytest.mark.parametrize("flag", ["--config", "--checkpoint"])
    def test_deep_json_exits_one(self, tmp_path, capsys, monkeypatch, flag):
        # A 100,000-deep array overflows json's decoder with RecursionError.
        monkeypatch.chdir(tmp_path)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["curate", "--config", str(deep)] if flag == "--config" else [
            "eval", "--checkpoint", str(deep)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(deep) in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "{nonsense", '{"version": "tabular_policy/1",'])
    @pytest.mark.parametrize("where", ["config", "checkpoint", "teacher"])
    def test_malformed_json_names_its_file(self, tmp_path, capsys, where, text):
        # Whether the config or a checkpoint is malformed, the message names the file.
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        if where == "config":
            argv = ["curate", "--config", str(bad)]
        elif where == "checkpoint":
            argv = ["eval", "--config", small_config(tmp_path)[0], "--checkpoint", str(bad)]
        else:
            config, _ = small_config(tmp_path, curation={"pairs_per_dut": 2,
                                                         "teacher": str(bad)})
            argv = ["curate", "--config", config]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(rf"error: .* line 1 column \d+ \(char \d+\) in {re.escape(str(bad))}\n",
                            err)

    def test_malformed_dataset_line_names_line_first(self, tmp_path, capsys):
        config, report_dir = small_config(tmp_path)
        report_dir.mkdir()
        (report_dir / "pairs.jsonl").write_text("\n{nonsense\n")
        assert main(["train", "--config", config, "--mode", "SFT"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset line 2: Expecting property name enclosed in "
                              "double quotes: line 1 column 2 (char 1) in ")
        assert str(report_dir / "pairs.jsonl") in err

    def test_eval_overflowing_temperature_exits_one(self, tmp_path, capsys):
        # 1e300 / 1e-10 overflows: one error naming the temperature, no numpy warning.
        config, report_dir = small_config(tmp_path, eval={"n": 4, "tau": 1e-10, "seed": 42})
        path = tmp_path / "huge.ckpt.json"
        path.write_text(json.dumps({"version": "tabular_policy/1", "wmax": 4, "k": 2, "t_max": 8,
                                    "table": [["toy1", [16, 16], [0.0, 1e300] + [0.0] * 16]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--config", config, "--checkpoint", str(path)]) == 1
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "1e-10" in err
        assert "RuntimeWarning" not in out + err and "Traceback" not in out + err
        assert not (report_dir / "eval.json").exists()

    # Sizes of 10**15 fail to allocate before any memory is touched.
    @pytest.mark.parametrize("command, doc", [
        ("curate", {"t_max": 10**15, "curation": {"pairs_per_dut": 1}}),
    ])
    def test_out_of_memory_exits_one(self, tmp_path, capsys, command, doc):
        config, _ = small_config(tmp_path, **doc)
        capsys.readouterr()
        assert main([command, "--config", config]) == 1
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith("error: out of memory")
        assert "Traceback" not in out + err

    # A k past t_max + 1 only pads each context with BOS: the config refuses it before
    # any stage runs, a dataset written under a valid k included.
    @pytest.mark.parametrize("command, doc", [
        ("curate", {"k": 10**15, "curation": {"pairs_per_dut": 1, "teacher": "uniform"}}),
        ("train", {"k": 10**15, "curation": {"pairs_per_dut": 1, "teacher": "uniform"}}),
        ("curate", {"k": 20000}),
        ("demo", {"k": 10}),
        ("demo", {"k": 3, "t_max": 1}),
    ])
    def test_k_above_t_max_plus_one_exits_one(self, tmp_path, capsys, command, doc):
        if command == "train":
            assert main(["curate", "--config", small_config(tmp_path)[0]]) == 0
        config, report_dir = small_config(tmp_path, **doc)
        capsys.readouterr()
        assert main([command, "--config", config]) == 1
        t_max = doc.get("t_max", 8)
        assert capsys.readouterr() == ("", f"error: k must be in 1..{t_max + 1}, got {doc['k']}\n")
        assert command == "train" or not report_dir.exists()

    @pytest.mark.parametrize("doc", [{"k": 9}, {"t_max": 1}])
    def test_k_up_to_t_max_plus_one_runs(self, tmp_path, capsys, doc):
        config, report_dir = small_config(tmp_path, **doc, curation={"pairs_per_dut": 4})
        assert main(["curate", "--config", config]) == 0
        assert (report_dir / "pairs.jsonl").exists()

    @pytest.mark.parametrize("section", ["curation", "train", "eval"])
    @pytest.mark.parametrize("command", ["curate", "train", "eval", "ablate", "demo"])
    def test_negative_seed_named_before_any_stage_runs(self, tmp_path, capsys, command, section):
        config, report_dir = small_config(tmp_path, **{section: {"seed": -1}})
        extra = ["--checkpoint", str(tmp_path / "missing.ckpt.json")] if command == "eval" else []
        assert main([command, "--config", config, *extra]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {section}.seed must be >= 0, got -1\n")
        assert not report_dir.exists()

    def test_demo_artifact_inventory(self, tmp_path, capsys):
        config, report_dir = small_config(tmp_path)
        assert main(["demo", "--config", config]) == 0
        for name in ("pairs.jsonl", "curation_stats.json",
                     "ablation.csv", "ablation.json",
                     "sft.ckpt.json", "dpo.ckpt.json", "cddpo.ckpt.json",
                     "sft.history.json", "dpo.history.json", "cddpo.history.json"):
            assert (report_dir / name).exists(), name

    def test_diverged_training_exits_one(self, tmp_path, capsys):
        config, report_dir = small_config(
            tmp_path, train={"epochs": 2, "seed": 42, "learning_rate": 1e300})
        assert main(["demo", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at epoch 0") and "Traceback" not in err
        assert not list(report_dir.glob("*.history.json"))

    def test_demo_deterministic(self, tmp_path):
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        config1, dir1 = small_config(tmp_path / "r1", report_dir=str(tmp_path / "r1/out"))
        config2, dir2 = small_config(tmp_path / "r2", report_dir=str(tmp_path / "r2/out"))
        assert main(["demo", "--config", config1]) == 0
        assert main(["demo", "--config", config2]) == 0
        for name in ("pairs.jsonl", "ablation.csv", "cddpo.ckpt.json"):
            assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes(), name

    def test_config_validation_names_field(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"report_dir": "x", "banana": 1}))
        assert main(["curate", "--config", str(path)]) == 1
        assert "banana" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"curation": {"banana": 1}}, "curation.banana"),
        ({"train": {"banana": 1}}, "train.banana"),
        ({"eval": {"banana": 1}}, "eval.banana"),
        ({"curation": {"t_max": 8}}, "curation.t_max"),
        ({"curation": {"wmax": 4}}, "curation.wmax"),
        ({"curation": {"k": 2}}, "curation.k"),
        ([1, 2], "top level"),
        ({"train": [1]}, "train"),
        ({"eval": "n=4"}, "eval"),
        ({"train": {"epochs": 0}}, "epochs"),
        ({"train": {"batch_size": 0}}, "batch_size"),
        ({"train": {"epochs": "3"}}, "train.epochs"),
        ({"curation": {"pairs_per_dut": 1.5}}, "curation.pairs_per_dut"),
        ({"wmax": True}, "wmax"),
        ({"k": 0}, "k must be >= 1"),
        ({"wmax": -1}, "wmax must be in 1..16"),
        ({"wmax": 0}, "wmax must be in 1..16"),
        ({"wmax": 17}, "wmax must be in 1..16"),
        ({"t_max": 0}, "t_max must be >= 1"),
        ({"curation": {"tau1": -0.5}}, "tau1 must be a finite number > 0"),
        ({"curation": {"tau1": 0}}, "tau1 must be a finite number > 0"),
        ({"curation": {"tau2": float("nan")}}, "tau2 must be a finite number > 0"),
        ({"train": {"learning_rate": float("nan")}}, "learning_rate must be a finite number > 0"),
        ({"train": {"beta": float("inf")}}, "beta must be a finite number > 0"),
        ({"eval": {"n": 0}}, "eval.n must be in 1..4294967296"),
        ({"eval": {"tau": -1}}, "eval.tau must be a finite number > 0"),
        ({"eval": {"tau": float("nan")}}, "eval.tau must be a finite number > 0"),
    ])
    def test_config_rejected_at_every_level(self, tmp_path, monkeypatch, capsys, doc, field):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_file(path)
        # Every stage validates the whole config before it runs.
        assert main(["curate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("section, field", [("curation", "pairs_per_dut"), ("eval", "n")])
    def test_sample_count_bounded_by_stream_indices(self, tmp_path, monkeypatch, capsys,
                                                    section, field):
        # Sample i reads stream index i, and Streams refuses an index >= 2**32.
        build = {"curation": CurationConfig, "eval": EvalConfig}[section]
        assert getattr(build(**{field: 2**32}), field) == 2**32
        message = f"{section}.{field} must be in 1..{2**32}, got {2**32 + 1}"
        with pytest.raises(ValueError) as exc:
            build(**{field: 2**32 + 1})
        assert str(exc.value) == message
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: {field: 2**32 + 1}}))
        assert main(["demo", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in out + err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("doc, expected", [
        ({"curation": {"seed": 7}},
         lambda c: (c.curation.pairs_per_dut, c.curation.seed) == (400, 7)),
        ({"train": {"epochs": 3}},
         lambda c: (c.train.learning_rate, c.train.seed, c.train.epochs) == (4.0, 42, 3)),
        ({"eval": {"n": 3}}, lambda c: (c.eval.n, c.eval.tau, c.eval.seed) == (3, 1.0, 42)),
    ])
    def test_omitted_fields_take_shipped_defaults(self, tmp_path, doc, expected):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert expected(ExperimentConfig.from_file(path))

    @pytest.mark.parametrize("line, message", [
        ("[1]", "dataset line 1: record must be a JSON object"),
        ('{"version": "pairanet_mini/1"}', "dataset line 1: missing field dut"),
        ('{"version": "pairanet_mini/1", "dut": "toy1", "prompt": "", "chosen": 5,'
         ' "rejected": [16, 17], "chosen_score": 0.5, "rejected_score": 0.0}',
         "dataset line 1: field chosen must be a list of integers"),
        ('{"version": "pairanet_mini/1", "dut": "toy1", "prompt": "", "chosen": [16, 1, 17],'
         ' "rejected": [16, 17], "chosen_score": "0.5", "rejected_score": 0.0}',
         "dataset line 1: field chosen_score must be a finite number"),
    ])
    def test_train_rejects_malformed_dataset(self, tmp_path, capsys, line, message):
        config, report_dir = small_config(tmp_path)
        report_dir.mkdir()
        (report_dir / "pairs.jsonl").write_text(line + "\n")
        assert main(["train", "--config", config, "--mode", "SFT"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (report_dir / "sft.ckpt.json").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"chosen": [16, int("9" * 4001), 17]},
         "field chosen does not fit the run's wmax 4 and t_max 8: not_well_formed at position 1: "
         "interior token an integer of 13292 bits is not a value token"),
        ({"version": "x" * 20_000}, f"unsupported dataset version '{'x' * 40}'..."),
    ], ids=["4001_digit_token", "long_version"])
    def test_train_message_of_long_dataset_value_is_bounded(self, tmp_path, capsys, edit,
                                                            message):
        config, report_dir = small_config(tmp_path)
        report_dir.mkdir()
        record = {"version": "pairanet_mini/1", "dut": "toy1", "prompt": "", "chosen": [16, 1, 17],
                  "rejected": [16, 17], "chosen_score": 1.0, "rejected_score": 0.0}
        (report_dir / "pairs.jsonl").write_text(json.dumps({**record, **edit}) + "\n")
        assert main(["train", "--config", config]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: dataset line 1: {message}\n" and len(err) < 200
        assert not list(report_dir.glob("*.ckpt.json"))

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("setting, message", [
        ({"wmax": 3}, r"dataset line 1: field chosen does not fit the run's wmax 3 and t_max 8: "
                      r"not_well_formed at position 0: sequence must start with BOS"),
        ({"t_max": 4}, r"dataset line \d+: field (chosen|rejected) does not fit the run's "
                       r"wmax 4 and t_max 4: too_long at position 5: \d cycles exceed limit 4"),
    ], ids=["wmax", "t_max"])
    def test_dataset_of_other_settings_rejected(self, tmp_path, capsys, command, setting,
                                                message):
        # Curated at wmax 4 and t_max 8, then trained under another wmax or t_max.
        config, report_dir = small_config(tmp_path)
        assert main(["curate", "--config", config]) == 0
        config, _ = small_config(tmp_path, **setting)
        capsys.readouterr()
        assert main([command, "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert re.search(message, err), err
        assert not list(report_dir.glob("*.ckpt.json"))

    @staticmethod
    def _edit_third_line(tmp_path, capsys, command, edit):
        """Curate under dataset_minmax, edit line 3 of the dataset by edit(record), then
        run command; return its exit code and its output."""
        train = {"mode": "CDDPO", "f_variant": "dataset_minmax", "epochs": 4, "seed": 42}
        config, report_dir = small_config(tmp_path, train=train)
        assert main(["curate", "--config", config]) == 0
        path = report_dir / "pairs.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        lines[2] = json.dumps({**record, **edit(record)})
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", config])
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in out + err and "Traceback" not in out + err
        assert not list(report_dir.glob("*.ckpt.json"))
        return code, err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("edit, message", [
        ({"dut": "nosuch"}, "field dut names no design of the run's corpus, got 'nosuch'"),
        ({"dut": "x" * 100_000}, "field dut names no design of the run's corpus, got 'xxx"),
        # Finite, but a gap of 2e308 overflows, and dataset_minmax made beta* NaN of it.
        ({"chosen_score": 1e308, "rejected_score": -1e308},
         "field chosen_score must be a finite number in [0, 1]"),
        ({"rejected_score": -1e308}, "field rejected_score must be a finite number in [0, 1]"),
    ], ids=["nosuch", "long_name", "1e308", "-1e308"])
    def test_dataset_line_outside_the_corpus_rejected(self, tmp_path, capsys, command, edit,
                                                      message):
        code, err = self._edit_third_line(tmp_path, capsys, command, lambda record: edit)
        assert code == 1
        assert err.startswith(f"error: dataset line 3: {message}") and err.endswith("\n")
        assert len(err.splitlines()) == 1 and len(err) < 200, err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("field, delta", [("chosen_score", -1e-12), ("rejected_score", 1e-12)])
    def test_dataset_score_off_by_1e_12_rejected(self, tmp_path, capsys, command, field, delta):
        code, err = self._edit_third_line(tmp_path, capsys, command,
                                          lambda record: {field: record[field] + delta})
        assert code == 1
        assert re.fullmatch(rf"error: dataset line 3: field {field} is [0-9.e-]+, but its "
                            rf"sequence scores [0-9.]+\n", err), err

    # beta* (r_w - r_l) overflows; the logits pass 1e299 in one step; and, on the shipped
    # curation's pairs, a DPO step of 1e308 makes logits of inf, and softmax takes inf - inf.
    @pytest.mark.parametrize("commands, pairs_per_dut, train, message", [
        ([["demo"]], 60, {"beta": 1e300}, "non-finite loss inf at epoch 0"),
        ([["demo"]], 60, {"learning_rate": 1e300, "batch_size": 1},
         "training diverged at epoch 0"),
        ([["curate"], ["train", "--mode", "DPO"]], 400,
         {"mode": "DPO", "learning_rate": 1e308, "batch_size": 1},
         "non-finite loss nan at epoch 0"),
    ], ids=["beta", "learning_rate", "dpo_step"])
    def test_diverging_run_warns_nothing(self, tmp_path, capsys, commands, pairs_per_dut, train,
                                         message):
        curation = {"pairs_per_dut": pairs_per_dut, "teacher": "novelty", "seed": 42}
        base = {"mode": "CDDPO", "epochs": 4, "batch_size": 16, "seed": 42, "learning_rate": 2.0}
        config, report_dir = small_config(tmp_path, curation=curation, train={**base, **train})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codes = [main([*command, "--config", config]) for command in commands]
        out, err = capsys.readouterr()
        assert codes[-1] == 1 and all(code == 0 for code in codes[:-1])
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in out + err and "Traceback" not in out + err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1, err
        assert not list(report_dir.glob("*.ckpt.json"))

    @pytest.mark.parametrize("source", ["readme", "benchmark", "empty"])
    def test_one_set_of_defaults(self, tmp_path, monkeypatch, source):
        # The README's example and the benchmark's demo config spell out the
        # shipped defaults; each must load as ExperimentConfig() does.
        if source == "readme":
            readme = (ROOT / "README.md").read_text(encoding="utf-8")
            example = readme.split("### Config file", 1)[1].split("```json\n", 1)[1]
            doc = json.loads(example.split("```", 1)[0])
        elif source == "benchmark":
            monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
            workloads = importlib.import_module("workloads")
            doc = workloads.Demo(42, tmp_path).config(tmp_path / "report")
        else:
            doc = {}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = ExperimentConfig.from_file(path)
        assert replace(config, report_dir=ExperimentConfig().report_dir) == ExperimentConfig()

    def test_default_config_values(self):
        config = ExperimentConfig()
        assert (config.eval.n, config.eval.tau, config.eval.seed) == (20, 1.0, 42)
        assert config.train.beta == 0.2
        assert config.curation.pairs_per_dut >= 200

    @pytest.mark.parametrize("build, message", [
        (lambda: CurationConfig(teacher=7), "curation.teacher must be a string, got int"),
        (lambda: TrainConfig(epochs=2.5), "train.epochs must be an integer >= 1, got float"),
        (lambda: EvalConfig(n=True), "eval.n must be an integer in 1..4294967296, got bool"),
        (lambda: CurationConfig(wmax=True), "wmax must be an integer in 1..16, got bool"),
        (lambda: Vocab("4"), "wmax must be an integer in 1..16, got str"),
        (lambda: TrainConfig(mode="sft"), "train.mode must be one of 'SFT', 'DPO', 'CDDPO', got 'sft'"),
        (lambda: CurationConfig(tau1=1.2), "curation.tau1 and curation.tau2 must be distinct, got 1.2"),
        (lambda: CurationConfig(seed=-10**5000),
         "curation.seed must be >= 0, got a negative integer of 16610 bits"),
        (lambda: ExperimentConfig(corpus_dir=0), "corpus_dir must be a string, got int"),
        (lambda: ExperimentConfig(eval={"n": 3}), "eval must be of type EvalConfig, got dict"),
    ])
    def test_constructors_check_type_and_range(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("doc, message", [
        ({"curation": {"teacher": 7}}, "curation.teacher must be a string, got int"),
        ({"train": {"epochs": 2.5}}, "train.epochs must be an integer >= 1, got float"),
        ({"eval": {"n": True}}, "eval.n must be an integer in 1..4294967296, got bool"),
        ({"wmax": True}, "wmax must be an integer in 1..16, got bool"),
        ({"report_dir": ["x"]}, "report_dir must be a string, got list"),
        ({"train": "x"}, "train must be a JSON object, got str"),
        ({"curation": {"k": 2}}, "config key must be a field name, got 'curation.k'"),
    ])
    def test_config_file_gives_constructor_message(self, tmp_path, doc, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.from_file(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("cls", [CurationConfig, TrainConfig, EvalConfig])
    def test_megabyte_string_in_numeric_field_gives_short_message(self, cls):
        for f in fields(cls):
            if isinstance(f.default, (int, float)):
                with pytest.raises(ValueError, match=f.name) as exc:
                    cls(**{f.name: "9" * 10**6})
                assert len(str(exc.value)) < 200

    def test_unknown_key_message_is_short(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"train": {"x" * 10**6: 1}}))
        with pytest.raises(ValueError, match="got 'train.xxx") as exc:
            ExperimentConfig.from_file(path)
        assert len(str(exc.value)) < 200

    def test_number_field_takes_an_int_as_a_float(self):
        config = ExperimentConfig(curation=CurationConfig(tau1=1), train=TrainConfig(beta=2),
                                  eval=EvalConfig(tau=3))
        values = (config.curation.tau1, config.train.beta, config.eval.tau)
        assert values == (1.0, 2.0, 3.0) and {type(v) for v in values} == {float}


@pytest.fixture(scope="module")
def toy1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("design") / "toy1.hdl"
    path.write_text(bundled_source("toy1"))
    return str(path)


_STIMULUS_TEXT = st.one_of(st.text(max_size=12),
                           st.text(alphabet="0123456789-+,;=_ \tax\u0661", max_size=12))


@given(st.sampled_from(["--stim", "--cycles"]), _STIMULUS_TEXT)
@settings(max_examples=150, deadline=None)
def test_simulate_exits_cleanly_on_any_stimulus_text(toy1_path, flag, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", toy1_path, f"{flag}={text}"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**6),
                     st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4))
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_SECTION_KEYS = ("tau1", "tau2", "pairs_per_dut", "teacher", "seed", "t_max", "wmax", "k",
                 "mode", "beta", "f_variant", "learning_rate", "epochs", "batch_size",
                 "ref_source", "n", "tau", "banana")
_SECTION = st.dictionaries(st.sampled_from(_SECTION_KEYS), _JSON, max_size=4)
_TOP_KEYS = ("corpus_dir", "report_dir", "dataset_file", "wmax", "t_max", "k",
             "curation", "train", "eval", "banana")
_CONFIG = st.one_of(_JSON, st.dictionaries(st.sampled_from(_TOP_KEYS), st.one_of(_SECTION, _JSON),
                                           max_size=5))


@given(_CONFIG)
@settings(max_examples=300, deadline=None)
def test_any_json_config_raises_only_value_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        try:
            config = ExperimentConfig.from_file(path)
        except ValueError:
            return
        # A config that loads holds its sections built and checked.
        assert (type(config.curation), type(config.train), type(config.eval)) == (
            CurationConfig, TrainConfig, EvalConfig)


@given(_CONFIG)
@settings(max_examples=300, deadline=None)
def test_train_exits_one_or_two_on_any_config(doc):
    # No dataset exists, so a config that passes its checks ends in exit 2.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        work = Path(tmp) / "work"
        work.mkdir()
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["train", "--config", str(path)])
        finally:
            os.chdir(cwd)
        assert code in (1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()


# Any JSON value, each kind out to its edges: ints past 64 bits and past what
# repr prints, and floats including NaN and the infinities.
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**64, -10**5000, 10**400]),
    st.floats(), st.text(max_size=50), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
# Each config dataclass and how a config file spells its fields.
_PREFIX = {CurationConfig: "curation.", TrainConfig: "train.", EvalConfig: "eval.",
           ExperimentConfig: ""}


@given(st.sampled_from(list(_PREFIX)).flatmap(
    lambda cls: st.tuples(st.just(cls), st.sampled_from(fields(cls)))), _ANY_VALUE)
# A string whose characters each print as a 10-character escape.
@example((TrainConfig, next(f for f in fields(TrainConfig) if f.name == "ref_source")),
         "0\x1f\U0001da8c" * 16)
@settings(max_examples=500, deadline=None)
def test_each_config_field_checks_its_type_and_range(case, value):
    cls, f = case
    name = f.name if f.name in ("wmax", "t_max", "k") else _PREFIX[cls] + f.name
    try:
        config = cls(**{f.name: value})
    except ValueError as err:
        # "<field> [and <field>] must be <what>, got <value>", bounded in length.
        named, _, rest = str(err).partition(" must be ")
        assert name in named.split(" and ") and ", got " in rest
        assert len(str(err)) < 200
        return
    default = getattr(cls(), f.name)
    allowed = (str, type(None)) if default is None else (type(default),)
    assert type(getattr(config, f.name)) in allowed
