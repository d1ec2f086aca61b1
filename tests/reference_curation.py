"""The per-pair curation loop that lockstep sampling replaced, kept as a reference.

Each pair draws its two sequences from its own generator, one sequence at a
time and one ``rng.choice`` per drawn token, and each kept record is
serialised by ``json.dumps`` of ``record_dict``.  Tests require
``curation.curate`` and the batched samplers to give the same sequences,
the same generator states and the same bytes.
"""

import json

import numpy as np

from covstim import curation
from covstim.codec import Vocab
from covstim.hdl import pretty_print
from covstim.policy import masked_softmax

from policy_helpers import context, logits
from reference_codec import simulate_tokens


def reference_sample_tokens(vocab, t_max, tau, rng, next_logits) -> list[int]:
    """One sequence: from BOS, one ``rng.choice`` per token until EOS or t_max values."""
    if not tau > 0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    tokens = [vocab.bos]
    while len(tokens) <= t_max:
        probs = masked_softmax(next_logits(tokens) / tau, vocab.bos)
        token = int(rng.choice(vocab.size, p=probs))
        tokens.append(token)
        if token == vocab.eos:
            return tokens
    tokens.append(vocab.eos)
    return tokens


def reference_novelty_sample(teacher, tau, rng):
    """NoveltyTeacher's own sampling loop, before it became a bias on sample_tokens."""
    vocab = teacher.vocab
    tokens = [vocab.bos]
    emitted: set[int] = set()
    position = 0
    while True:
        if position >= teacher.t_max:
            tokens.append(vocab.eos)
            return tokens
        z = np.zeros(vocab.size)
        for t in emitted:
            z[t] = teacher.REPEAT_PENALTY
        if len(emitted) < teacher.MIN_VALUES:
            z[vocab.eos] = teacher.EOS_PENALTY
        probs = masked_softmax(z / tau, vocab.bos)
        token = int(rng.choice(vocab.size, p=probs))
        tokens.append(token)
        if token == vocab.eos:
            return tokens
        emitted.add(token)
        position += 1


def reference_penalties(teacher, prefixes: np.ndarray) -> np.ndarray:
    """NoveltyTeacher's logits after each row's BOS-started prefix, rebuilt from the
    whole prefix: the penalties it has earned.  The teacher computed them so at
    every step before it kept them from step to step."""
    n = len(prefixes)
    emitted = np.zeros((n, teacher.vocab.size), dtype=bool)
    emitted[np.arange(n)[:, None], prefixes[:, 1:]] = True
    z = np.where(emitted, teacher.REPEAT_PENALTY, 0.0)
    z[np.count_nonzero(emitted, axis=1) < teacher.MIN_VALUES, teacher.vocab.eos] = (
        teacher.EOS_PENALTY)
    return z


def reference_sample(teacher, dut_id, tau, rng) -> list[int]:
    """One sequence from a NoveltyTeacher or TabularPolicy, drawn from rng alone."""
    if isinstance(teacher, curation.NoveltyTeacher):
        return reference_novelty_sample(teacher, tau, rng)
    return reference_sample_tokens(teacher.vocab, teacher.t_max, tau, rng,
                                   lambda tokens: logits(teacher, dut_id, context(teacher, tokens)))


def record_dict(record) -> dict:
    """A kept pair's dataset record: version, then the ``PairRecord`` fields in order,
    with rejected_cov left out when None."""
    doc = {"version": curation.DATASET_VERSION, **record._asdict()}
    if record.rejected_cov is None:
        del doc["rejected_cov"]
    return doc


def make_pair(dut, teacher, config, rng, pair_id):
    """One attempted pair: both sequences from rng, the tau1 one first, each scored
    on its own by ``simulate_tokens``."""
    vocab = Vocab(config.wmax)
    a, b = ((seq, simulate_tokens(dut, seq, vocab, config.t_max)) for seq in
            [reference_sample(teacher, dut.name, tau, rng) for tau in (config.tau1, config.tau2)])
    return curation.make_pair(dut, a, b, config, pair_id, pretty_print(dut))


def curate(corpus, config, out_path) -> dict:
    """Write the kept pairs one by one; return the count of each outcome."""
    teacher = curation.make_teacher(config)
    counts = {"kept": 0, "both_invalid": 0, "tie": 0}
    with open(out_path, "w", encoding="utf-8") as fh:
        for dut_i, dut in enumerate(corpus):
            for pair_i in range(config.pairs_per_dut):
                rng = np.random.default_rng([config.seed, dut_i, pair_i])
                result = make_pair(dut, teacher, config, rng, f"{dut.name}:{pair_i}")
                if isinstance(result, curation.DropReason):
                    counts[result.kind] += 1
                    continue
                counts["kept"] += 1
                fh.write(json.dumps(record_dict(result)) + "\n")
    return counts
