"""The library pipeline: which policy each mode starts from, and the package's import graph."""

import ast
from pathlib import Path

import pytest

from covstim import pipeline
from covstim.codec import Vocab
from covstim.evaluation import EvalConfig
from covstim.policy import TabularPolicy
from covstim.training import PreferencePair, TrainConfig, train

SRC = Path(__file__).resolve().parents[1] / "src" / "covstim"
VOCAB = Vocab(4)
BOS, EOS = VOCAB.bos, VOCAB.eos
MODES = ("SFT", "DPO", "CDDPO")


def toy1_pairs():
    """Pairs on the bundled toy1 design (one 1-bit input), with distinct gaps."""
    seqs = [(BOS, 1, 0, EOS), (BOS, 0, EOS), (BOS, 1, EOS), (BOS, 0, 0, 1, EOS), (BOS, 1, 1, EOS)]
    return [PreferencePair("toy1", "", seqs[i], seqs[(i + 1) % 5], 0.9 - 0.1 * i, 0.1)
            for i in range(5)]


def table(policy: TabularPolicy) -> dict:
    return {key: vec.tolist() for key, vec in policy.table.items()}


class TestTrainModes:
    def test_post_sft_reference(self):
        pairs = toy1_pairs()
        config = TrainConfig(mode="CDDPO", epochs=5, batch_size=1, seed=2,
                             ref_source="post_sft_policy")
        init = TabularPolicy(VOCAB)
        results = pipeline.train_modes(pairs, config, init, ("CDDPO",))
        assert list(results) == ["SFT", "CDDPO"]
        assert len(results["CDDPO"].history.epoch_loss) == 5
        sft = train(pairs, TrainConfig(mode="SFT", epochs=5, batch_size=1, seed=2), init)
        assert table(results["SFT"].policy) == table(sft.policy)
        assert table(results["CDDPO"].policy) == table(train(pairs, config, sft.policy).policy)

    def test_initial_policy_starts_every_mode_from_init(self):
        pairs = toy1_pairs()
        config = TrainConfig(mode="DPO", epochs=3, batch_size=2)
        init = TabularPolicy(VOCAB)
        results = pipeline.train_modes(pairs, config, init, ("DPO",))
        assert list(results) == ["DPO"]
        assert table(results["DPO"].policy) == table(train(pairs, config, init).policy)

    @pytest.mark.parametrize("ref_source", ["initial_policy", "post_sft_policy"])
    def test_ablate_trains_each_mode_once(self, monkeypatch, toy1, ref_source):
        calls = []

        def counting_train(dataset, config, init):
            calls.append(config.mode)
            return train(dataset, config, init)

        monkeypatch.setattr(pipeline, "train", counting_train)
        config = TrainConfig(epochs=3, batch_size=2, ref_source=ref_source)
        init = TabularPolicy(VOCAB)
        _, policies = pipeline.ablate([toy1], toy1_pairs(), config, EvalConfig(n=2), init)
        assert calls == list(MODES)
        start = policies["sft"] if ref_source == "post_sft_policy" else init
        for mode in ("DPO", "CDDPO"):
            alone = train(toy1_pairs(), TrainConfig(mode=mode, epochs=3, batch_size=2), start)
            assert table(policies[mode.lower()]) == table(alone.policy), mode


def _imports_covstim(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "covstim"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "covstim"
                                                for a in node.names)


def test_import_graph():
    """checks imports nothing from covstim; no function imports a covstim module; no module
    imports another's private name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert [ast.unparse(n) for n in ast.walk(trees["checks"]) if _imports_covstim(n)] == []
    in_functions = [f"{name}.{fn.name}" for name, tree in trees.items() for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(_imports_covstim, ast.walk(fn)))]
    assert in_functions == []
    private = [f"{name}: {alias.name}" for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and _imports_covstim(node)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
