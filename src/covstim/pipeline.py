"""The experiment pipeline as a library: the run configuration, its corpus loader and its stages.

Each ``run_*`` stage writes its artifacts under ``report_dir`` and returns its result.
``train_modes`` is the one reader of ``TrainConfig.ref_source``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .checks import check_str, parse_json, shown
from .corpus import load_bundled_corpus
from .curation import CurationConfig, curate, load_dataset
from .evaluation import ABLATION_POLICIES, METRICS, AblationTable, EvalConfig, eval_policy
from .hdl import DutModel, ParseError, parse
from .policy import TabularPolicy
from .sim import compiled
from .training import MODES, TrainConfig, train


def load_corpus_dir(path) -> list[DutModel]:
    """Parse every *.hdl file in a directory, sorted by filename, and pass each design
    through ``sim.compiled``, the one design gate; each error names its file.

    Module names must be unique: policy rows and pair ids are keyed by them.
    """
    files = sorted(Path(path).glob("*.hdl"))
    if not files:
        raise ValueError(f"no *.hdl files in {path}")
    corpus = []
    seen: dict[str, Path] = {}
    for f in files:
        try:
            dut = parse(f.read_text(encoding="utf-8"))
            compiled(dut)
        except ParseError as err:
            err.args = (f"{f}: {err}",)  # still a ParseError, with its line and column
            raise
        except ValueError as err:  # not UTF-8 text, or not lint clean
            raise ValueError(f"{f}: {err}") from None
        if dut.name in seen:
            raise ValueError(f"{seen[dut.name]} and {f} both declare module {shown(dut.name)}")
        seen[dut.name] = f
        corpus.append(dut)
    return corpus


def _check_keys(prefix: str, doc, keys) -> None:
    """Reject a config level that is not a JSON object or that sets a key not in keys."""
    where = prefix.rstrip(".") or "config top level"
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"config key must be a field name, got {shown(prefix + unknown[0])}")


# Set at a config file's top level, held by CurationConfig.
_TOP_LEVEL_CURATION = ("wmax", "t_max", "k")
_SECTIONS = {"curation": CurationConfig, "train": TrainConfig, "eval": EvalConfig}


@dataclass(frozen=True)
class ExperimentConfig:
    """The run configuration: paths, then one section per stage with its defaults and checks."""

    corpus_dir: str | None = None  # None -> bundled corpus
    report_dir: str = "report"
    dataset_file: str = "pairs.jsonl"
    curation: CurationConfig = field(default_factory=CurationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.corpus_dir is not None:
            check_str("corpus_dir", self.corpus_dir)
        check_str("report_dir", self.report_dir)
        check_str("dataset_file", self.dataset_file)
        for name, section in _SECTIONS.items():
            value = getattr(self, name)
            if not isinstance(value, section):
                raise ValueError(f"{name} must be of type {section.__name__}, "
                                 f"got {type(value).__name__}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Build a config from a JSON file; the top-level wmax, t_max and k go into ``curation``."""
        with open(path, encoding="utf-8") as fh:
            doc = parse_json(fh.read(), path)
        _check_keys("", doc, [f.name for f in fields(cls)] + list(_TOP_LEVEL_CURATION))
        for name, section in _SECTIONS.items():
            _check_keys(f"{name}.", doc.get(name, {}),
                        [f.name for f in fields(section) if f.name not in _TOP_LEVEL_CURATION])
        curation = {key: doc.pop(key) for key in _TOP_LEVEL_CURATION if key in doc}
        doc["curation"] = {**curation, **doc.get("curation", {})}
        sections = {name: section(**doc.pop(name, {})) for name, section in _SECTIONS.items()}
        return cls(**doc, **sections)

    def load_corpus(self):
        if self.corpus_dir is None:
            return load_bundled_corpus()
        return load_corpus_dir(self.corpus_dir)

    def dataset_path(self) -> Path:
        return Path(self.report_dir) / self.dataset_file

    def report_path(self, name: str) -> Path:
        """report_dir / name, creating report_dir first: every stage writes through this."""
        Path(self.report_dir).mkdir(parents=True, exist_ok=True)
        return Path(self.report_dir) / name


def write_artifact(path, doc) -> None:
    """Write a str doc (a CSV table) as it is, and any other doc as indented JSON and a newline."""
    Path(path).write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")


def train_modes(dataset, config: TrainConfig, init: TabularPolicy, modes) -> dict:
    """Each mode's ``TrainResult``, keyed by mode.  Under ``post_sft_policy`` DPO and CDDPO
    start from SFT's policy, trained once (and returned), and otherwise every mode from init."""
    post_sft = config.ref_source == "post_sft_policy"
    results = {}
    for mode in modes:
        if post_sft and mode != "SFT" and "SFT" not in results:
            results["SFT"] = train(dataset, replace(config, mode="SFT"), init)
        start = results["SFT"].policy if post_sft and mode != "SFT" else init
        results[mode] = train(dataset, replace(config, mode=mode), start)
    return results


def ablate(corpus, dataset, train_config: TrainConfig, eval_config: EvalConfig,
           init: TabularPolicy) -> tuple[AblationTable, dict]:
    """Train SFT / DPO / CD-DPO with ``train_modes`` and evaluate them and init, the vanilla
    row; return the table and the policies keyed by row name."""
    results = train_modes(dataset, train_config, init, MODES)
    policies = {"vanilla": init, **{mode.lower(): r.policy for mode, r in results.items()}}
    table = AblationTable(n=eval_config.n, tau=eval_config.tau, seed=eval_config.seed,
                          histories={mode.lower(): r.history for mode, r in results.items()})
    for name in ABLATION_POLICIES:
        for dut in corpus:
            report = eval_policy(policies[name], dut, eval_config)
            for m in METRICS:
                table.rows.append({"policy": name, "dut": dut.name, "metric": m,
                                   "mean": report.mean[m], "best": report.best[m]})
    return table, policies


def run_curate(config: ExperimentConfig, corpus=None):
    """Curate the corpus (the config's if None) into the dataset file; write its stats."""
    corpus = config.load_corpus() if corpus is None else corpus
    stats = curate(corpus, config.curation, config.report_path(config.dataset_file))
    write_artifact(config.report_path("curation_stats.json"), stats.to_dict())
    return stats


def run_train(config: ExperimentConfig):
    """Train ``config.train.mode`` on the dataset, checked against the corpus; write its
    checkpoint and history."""
    dataset = load_dataset(config.dataset_path(), config.curation, config.load_corpus())
    mode = config.train.mode
    result = train_modes(dataset, config.train, config.curation.uniform_policy(), (mode,))[mode]
    result.policy.save(config.report_path(f"{mode.lower()}.ckpt.json"))
    write_artifact(config.report_path(f"{mode.lower()}.history.json"), result.history.to_dict())
    return result


def run_eval(config: ExperimentConfig, checkpoint) -> list:
    """Evaluate a checkpoint saved under the run's settings on the corpus; write eval.json."""
    corpus = config.load_corpus()
    policy = TabularPolicy.load(checkpoint, config.curation)
    reports = [eval_policy(policy, dut, config.eval) for dut in corpus]
    write_artifact(config.report_path("eval.json"), [r.to_dict() for r in reports])
    return reports


def run_ablate(config: ExperimentConfig, corpus=None) -> tuple[AblationTable, dict]:
    """``ablate`` on the corpus (the config's if None) and the dataset, checked against it;
    write its artifacts."""
    corpus = config.load_corpus() if corpus is None else corpus
    dataset = load_dataset(config.dataset_path(), config.curation, corpus)
    table, policies = ablate(corpus, dataset, config.train, config.eval,
                             config.curation.uniform_policy())
    write_artifact(config.report_path("ablation.csv"), table.to_csv())
    write_artifact(config.report_path("ablation.json"),
                   {"n": table.n, "tau": table.tau, "seed": table.seed, "rows": table.rows})
    for name, history in table.histories.items():
        policies[name].save(config.report_path(f"{name}.ckpt.json"))
        write_artifact(config.report_path(f"{name}.history.json"), history.to_dict())
    return table, policies
