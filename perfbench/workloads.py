"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Each workload drives covstim only through public functions looked up on
their modules at call time (``cli.main``, ``curation.curate``, ``hdl.parse``,
``hdl.lint``, ``sim.simulate``), so the tracing shim sees every call.  All
three are closed loops with one client: the next operation starts when the
previous one returns.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import statistics
from contextlib import redirect_stdout
from pathlib import Path

from covstim import cli, codec, corpus, curation, hdl, sim

import designgen
from oracle_sim import oracle_simulate

# Mean@20 average coverage per (policy, design) of the shipped-default demo
# at seed 42, as recorded by the acceptance suite's criterion 7.
DEMO_BASELINE_SEED = 42
DEMO_BASELINE_MEAN_AVG = {
    ("vanilla", "toy1"): 0.0,
    ("vanilla", "mux2"): 0.05416666666666666,
    ("vanilla", "chain2"): 0.0,
    ("vanilla", "adder2"): 0.8416666666666668,
    ("vanilla", "deadend"): 0.0,
    ("sft", "toy1"): 0.5555555555555555,
    ("sft", "mux2"): 0.5569444444444444,
    ("sft", "chain2"): 0.75,
    ("sft", "adder2"): 0.9333333333333333,
    ("sft", "deadend"): 0.0,
    ("dpo", "toy1"): 0.30555555555555547,
    ("dpo", "mux2"): 0.18333333333333335,
    ("dpo", "chain2"): 0.5625,
    ("dpo", "adder2"): 0.9166666666666666,
    ("dpo", "deadend"): 0.0,
    ("cddpo", "toy1"): 0.27777777777777773,
    ("cddpo", "mux2"): 0.1652777777777778,
    ("cddpo", "chain2"): 0.4875,
    ("cddpo", "adder2"): 0.95,
    ("cddpo", "deadend"): 0.0,
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quantile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Workload:
    """One operation type run in a closed loop.

    ``op(i)`` is the timed call; everything else runs outside the timed
    section.  ``key(i)`` names the input of operation ``i``: operations with
    the same key must produce byte-identical output, within a run and
    across runs with the same seed.
    """

    name = ""
    min_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._paths = 0
        # Set-up operations that raised or failed a check, one entry each.
        self.setup_failures: list[str] = []

    def fresh_path(self, stem: str) -> Path:
        """A path under the work directory that no earlier operation used."""
        self._paths += 1
        return self.workdir / f"{stem}{self._paths}"

    def setup(self) -> None:
        pass

    def setup_ops(self) -> int:
        """Operations attempted in one set-up, counted like timed ones."""
        return 0

    def op(self, i: int):
        raise NotImplementedError

    def key(self, i: int) -> str:
        return "0"

    def digest(self, i: int, output) -> str:
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        """Problems with one operation's output; empty when correct."""
        return []

    def trace_ops(self) -> int:
        """Operations in one pass of the traced and untraced comparison."""
        return 1

    def work(self, output) -> float:
        """Units of work one operation did; ``work_per_s`` is their rate."""
        raise NotImplementedError

    def metrics(self, walls: list[float], outputs: list) -> dict:
        """Workload-named metrics from wall times, each name -> (value, unit)."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {}


class Demo(Workload):
    """``covstim demo`` at the shipped defaults, seeded through the config."""

    name = "demo"
    EPOCHS = 120
    MODES = 3

    def config(self, report_dir: Path) -> dict:
        s = self.seed
        return {
            "report_dir": str(report_dir),
            "curation": {"tau1": 0.7, "tau2": 1.2, "pairs_per_dut": 400,
                         "teacher": "novelty", "seed": s},
            "train": {"mode": "CDDPO", "beta": 0.2, "f_variant": "identity_clamp",
                      "learning_rate": 4.0, "epochs": self.EPOCHS, "batch_size": 16,
                      "seed": s},
            "eval": {"n": 20, "tau": 1.0, "seed": s},
        }

    def op(self, i: int):
        run_dir = self.fresh_path("demo")
        run_dir.mkdir()
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(self.config(run_dir / "report")), encoding="utf-8")
        with redirect_stdout(io.StringIO()):
            code = cli.main(["demo", "--config", str(config_path)])
        return code, run_dir / "report"

    def digest(self, i, output) -> str:
        _, report = output
        files = sorted(p for p in report.iterdir() if p.is_file())
        return json.dumps({p.name: sha256_file(p) for p in files}, sort_keys=True)

    def check(self, i, output) -> list[str]:
        code, report = output
        if code != 0:
            return [f"covstim demo exited with {code}"]
        problems = []
        stats = json.loads((report / "curation_stats.json").read_text(encoding="utf-8"))
        if stats["kept"] + stats["dropped_both_invalid"] + stats["dropped_tie"] != stats["attempted"]:
            problems.append(f"curation counts do not add up: {stats}")
        if self.seed == DEMO_BASELINE_SEED:
            table = self._mean_avg(report)
            for key, expected in DEMO_BASELINE_MEAN_AVG.items():
                got = table.get(key)
                if got is None or abs(got - expected) > 1e-9:
                    problems.append(f"mean@20 {key} = {got}, baseline {expected}")
        return problems

    @staticmethod
    def _mean_avg(report: Path) -> dict:
        doc = json.loads((report / "ablation.json").read_text(encoding="utf-8"))
        return {(r["policy"], r["dut"]): r["mean"] for r in doc["rows"]
                if r["metric"] == "average"}

    @staticmethod
    def _kept(report: Path) -> int:
        return sum(1 for line in (report / "pairs.jsonl").read_text(encoding="utf-8").splitlines()
                   if line.strip())

    def work(self, output) -> float:
        """Training pair-steps: every mode trains on every kept pair each epoch."""
        return self.MODES * self.EPOCHS * self._kept(output[1])

    def metrics(self, walls, outputs):
        _, report = outputs[0]
        cddpo = [v for (policy, _), v in self._mean_avg(report).items() if policy == "cddpo"]
        coverage = sum(cddpo) / len(cddpo)
        demo_s = statistics.median(walls)
        return {"demo_s": (demo_s, "s"), "coverage_mean20_cddpo": (coverage, "ratio"),
                "train_pair_steps_per_s": (self.work(outputs[0]) / demo_s, "1/s"),
                "kept_pairs": (self._kept(report), "count")}


class Curate(Workload):
    """``curation.curate`` on the bundled corpus with the novelty teacher."""

    name = "curate"
    PAIRS_PER_DUT = 1200
    CHECKED_PAIRS = 40

    def setup(self) -> None:
        self.corpus = corpus.load_bundled_corpus()
        self.config = curation.CurationConfig(tau1=0.7, tau2=1.2,
                                              pairs_per_dut=self.PAIRS_PER_DUT,
                                              teacher="novelty", seed=self.seed)

    def op(self, i: int):
        path = self.fresh_path("pairs")
        return curation.curate(self.corpus, self.config, path), path

    def digest(self, i, output) -> str:
        return sha256_file(output[1])

    def check(self, i, output) -> list[str]:
        stats, path = output
        problems = []
        if stats.kept + stats.dropped_both_invalid + stats.dropped_tie != stats.attempted:
            problems.append(f"curation counts do not add up: {stats.to_dict()}")
        if stats.attempted != self.PAIRS_PER_DUT * len(self.corpus):
            problems.append(f"attempted {stats.attempted} pairs")
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        if len(records) != stats.kept:
            problems.append(f"{len(records)} lines for {stats.kept} kept pairs")
        duts = {d.name: d for d in self.corpus}
        vocab = codec.Vocab(self.config.wmax)
        rng = random.Random(self.seed)
        for rec in rng.sample(records, min(self.CHECKED_PAIRS, len(records))):
            stim = codec.validate_and_decode(duts[rec["dut"]], rec["chosen"], vocab,
                                             self.config.t_max)
            score = sim.average_score(sim.simulate(duts[rec["dut"]], stim))
            if score != rec["chosen_score"]:
                problems.append(f"{rec['id']}: chosen re-simulates to {score}, "
                                f"recorded {rec['chosen_score']}")
        return problems

    def work(self, output) -> float:
        return output[0].attempted

    def metrics(self, walls, outputs):
        pairs_per_s = statistics.median(
            stats.attempted / wall for wall, (stats, _) in zip(walls, outputs))
        scores = [json.loads(line)["chosen_score"]
                  for line in outputs[0][1].read_text(encoding="utf-8").splitlines()]
        coverage = sum(scores) / len(scores)
        return {"pairs_per_s": (pairs_per_s, "1/s"), "chosen_score_mean": (coverage, "ratio"),
                "curate_p50_s": (statistics.median(walls), "s"),
                "curate_calls": (len(walls), "count")}

    def describe(self) -> dict:
        return {"designs": len(self.corpus), "pairs_per_dut": self.PAIRS_PER_DUT,
                "teacher": "novelty"}


class SimulateLarge(Workload):
    """Back-to-back ``sim.simulate`` calls on generated ~100-line designs."""

    name = "simulate_large"
    # A p99 needs ten samples beyond it.
    min_ops = 1000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.designs, self.stimuli = designgen.generate(
            seed, designgen.DESIGNS, designgen.STIMULI_PER_DESIGN)

    def setup_ops(self) -> int:
        return len(self.designs)

    def setup(self) -> None:
        self.pool = []
        self.setup_failures = []
        for design, per in zip(self.designs, self.stimuli):
            try:
                dut = hdl.parse(design.text)
                issues = hdl.lint(dut)
            except Exception as err:  # counted as a failed operation
                self.setup_failures.append(f"{design.name}: {err!r}")
                continue
            if issues:
                self.setup_failures.append(f"{design.name}: lint {[str(x) for x in issues]}")
                continue
            self.pool.extend((dut, sim.Stimulus(tuple(cycles)), cycles) for cycles in per)
        if not self.pool:
            raise RuntimeError("no generated design parsed and linted clean")

    def op(self, i: int):
        dut, stim, _ = self.pool[i % len(self.pool)]
        return sim.simulate(dut, stim)

    def key(self, i: int) -> str:
        return str(i % len(self.pool))

    def digest(self, i, report) -> str:
        return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()

    def check(self, i, report) -> list[str]:
        if i >= len(self.pool):
            return []  # a repeat: the digest comparison covers it
        dut, _, cycles = self.pool[i]
        got = ((report.statement.covered, report.statement.total),
               (report.branch.covered, report.branch.total),
               (report.functional.covered, report.functional.total))
        expected = oracle_simulate(dut, cycles)
        if got != expected or report.cycles_run != len(cycles):
            return [f"{dut.name} stimulus {i}: simulate {got}, oracle {expected}"]
        return []

    def trace_ops(self) -> int:
        return sum(len(per) for per in self.stimuli)

    def work(self, report) -> float:
        return report.cycles_run

    def metrics(self, walls, outputs):
        cycles_per_s = statistics.median(
            report.cycles_run / wall for wall, report in zip(walls, outputs))
        first = outputs[:len(self.pool)]
        coverage = sum(r.average for r in first) / len(first)
        return {"cycles_per_s": (cycles_per_s, "1/s"), "coverage_mean": (coverage, "ratio"),
                "simulate_p50_ms": (1e3 * statistics.median(walls), "ms"),
                "simulate_p99_ms": (1e3 * _quantile(walls, 99), "ms"),
                "simulate_calls": (len(walls), "count")}

    def describe(self) -> dict:
        return designgen.describe(self.designs, self.stimuli)


WORKLOADS = {w.name: w for w in (Demo, Curate, SimulateLarge)}
