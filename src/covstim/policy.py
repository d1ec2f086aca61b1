"""Tabular autoregressive softmax policy over the stimulus vocabulary.

Parameters live in one dense array of logits, a row per (dut_id, k-token
context) the policy has been given; a context without a row has zero
logits, i.e. a uniform distribution over the emittable tokens.  BOS is
never emitted, and EOS follows the ``t_max``-th value token without a draw,
so every sampled sequence terminates and that forced step scores 0.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codec import Vocab, check_well_formed


def _masked_exp(z: np.ndarray, bos: int):
    """exp(z - m) of each row of logits z (overwritten), with BOS masked out.

    BOS is set to -inf and m is max(0, the row's finite max), so the exp
    of each finite logit is at most 1.  Returns m, the exp-logits and their row sums, each keeping
    the reduced last axis; z may be one row (1-D) or a stack of rows.
    """
    z[..., bos] = -np.inf
    m = z.max(axis=-1, keepdims=True, initial=0.0, where=np.isfinite(z))
    e = np.exp(z - m)
    return m, e, e.sum(axis=-1, keepdims=True)


def masked_softmax(z: np.ndarray, bos: int) -> np.ndarray:
    """Softmax of each row of logits z (overwritten) over every token but BOS."""
    _, e, sums = _masked_exp(z, bos)
    return e / sums


def draw_tokens(probs: np.ndarray, rngs) -> np.ndarray:
    """One token per row of probs, row i drawn with one ``rngs[i].random()``.

    This is numpy's own algorithm in ``Generator.choice(V, p=p)``: the
    cumulative sum of p divided by its last entry, and the token is the
    count of its entries <= the uniform draw.  So each token, and each
    generator's state afterwards, is what ``rngs[i].choice(V, p=probs[i])``
    gives.  A row holding NaN raises ValueError before any draw, as
    ``choice`` does.
    """
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    if np.isnan(cdf[:, -1]).any():
        raise ValueError("probabilities contain NaN")
    uniforms = np.array([rng.random() for rng in rngs])
    return np.count_nonzero(cdf <= uniforms[:, None], axis=1)


def sample_tokens(vocab: Vocab, t_max: int, tau: float, rngs,
                  next_logits) -> list[list[int]]:
    """Draw one well-formed token sequence per generator, all in lockstep.

    Sequence i draws only from ``rngs[i]`` and is deterministic given its
    state; a generator listed twice serves its rows in row order at each
    step.  From BOS on, each step takes ``next_logits(prefixes)``, the
    logits of every running sequence as one (rows x V) array from their
    token prefixes (rows x steps so far), and draws each row's next token
    with ``draw_tokens`` from the softmax of its logits / tau over every
    token but BOS.  A sequence ends at a drawn EOS, or after the
    ``t_max``-th value token, where EOS is appended without a draw.
    A row whose softmax is NaN because a logit / tau overflowed raises one
    ValueError naming tau.
    """
    if not tau > 0:  # also refuses NaN
        raise ValueError(f"temperature must be > 0, got {tau}")
    tokens = np.full((len(rngs), t_max + 2), vocab.eos, dtype=np.intp)
    tokens[:, 0] = vocab.bos
    lengths = np.full(len(rngs), t_max + 2)
    running = np.arange(len(rngs))
    for j in range(1, t_max + 1):
        if not len(running):
            break
        # An overflowed row turns to NaN here, which draw_tokens refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            probs = masked_softmax(next_logits(tokens[running, :j]) / tau, vocab.bos)
        try:
            drawn = draw_tokens(probs, [rngs[i] for i in running.tolist()])
        except ValueError as err:
            raise ValueError(f"{err} at temperature {tau}: a logit divided by it "
                             f"is not a finite number") from None
        tokens[running, j] = drawn
        ended = drawn == vocab.eos
        lengths[running[ended]] = j + 1
        running = running[~ended]
    return [row[:n] for row, n in zip(tokens.tolist(), lengths.tolist())]


@lru_cache(maxsize=1 << 13)
def _step_plan(seq: tuple, vocab: Vocab, k: int, t_max: int):
    """Check seq; return its scored steps: (contexts, targets).

    Step j emits seq[j] from the k tokens before it, left-BOS-padded.  The
    forced-EOS step at interior position t_max is left out.  Holds no
    logits, so it is valid for every policy with these settings.  A
    malformed seq raises CodecError on every call, since lru_cache keeps no
    raised exception.
    """
    check_well_formed(seq, vocab, t_max)
    hist = (vocab.bos,) * (k - 1) + seq
    n = min(len(seq) - 1, t_max)
    contexts = tuple(hist[j - 1:j - 1 + k] for j in range(1, n + 1))
    targets = np.array(seq[1:n + 1], dtype=np.intp)
    targets.flags.writeable = False
    return contexts, targets


@dataclass(frozen=True)
class Steps:
    """The scored steps of ``n`` token sequences, as index arrays.

    Step i emits ``targets[i]`` from the context in row ``rows[i]`` of the
    policy that compiled it (-1: the context has no row, so zero logits),
    and belongs to sequence ``owner[i]``.  Each sequence's steps are
    contiguous and in order; forced-EOS steps are left out.
    """

    rows: np.ndarray
    targets: np.ndarray
    owner: np.ndarray
    n: int


class TabularPolicy:
    """Autoregressive policy pi(token | dut_id, previous k tokens)."""

    def __init__(self, vocab: Vocab, k: int = 2, t_max: int = 8):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
        self.vocab = vocab
        self.k = k
        self.t_max = t_max
        self.rows: dict = {}  # (dut_id, ctx tuple) -> row of theta, numbered in insertion order
        # One row of logits per context, then an all-zero last row that index
        # -1 reads for every context without a row.
        self.theta = np.zeros((1, vocab.size))

    @property
    def table(self) -> dict:
        """A copy of every row, as {(dut_id, ctx tuple): logits}."""
        return {key: self.theta[i].copy() for key, i in self.rows.items()}

    def copy(self) -> "TabularPolicy":
        other = TabularPolicy(self.vocab, self.k, self.t_max)
        other.rows = dict(self.rows)
        other.theta = self.theta.copy()
        return other

    def add_rows(self, items) -> None:
        """Give each context the (dut_id, seq) items score a row; new rows are zero."""
        before = len(self.rows)
        for dut_id, seq in items:
            for ctx in _step_plan(tuple(seq), self.vocab, self.k, self.t_max)[0]:
                self.rows.setdefault((dut_id, ctx), len(self.rows))
        if len(self.rows) > before:
            self.theta = np.vstack([self.theta[:-1],
                                    np.zeros((len(self.rows) - before + 1, self.vocab.size))])

    def apply_update(self, rows: np.ndarray, vecs: np.ndarray, factor: float) -> None:
        """Add factor * vecs[i] to row rows[i] for every i (descent uses factor = -lr).

        The vectors of a repeated row are summed first, in order, and each
        touched row is then updated once.  A step without a row (-1) updates
        nothing.
        """
        keep = rows >= 0
        # touched is sorted; slot is each step's place in it.
        touched, slot = np.unique(rows[keep], return_inverse=True)
        vecs = vecs[keep]
        size = self.vocab.size
        total = np.bincount((slot[:, None] * size + np.arange(size)).ravel(),
                            weights=vecs.ravel(), minlength=len(touched) * size)
        self.theta[touched] += factor * total.reshape(len(touched), size)

    # -- distributions ----------------------------------------------------

    def _contexts(self, tokens: list[int]):
        """Sliding k-contexts over a BOS-started prefix, left-BOS-padded."""
        hist = [self.vocab.bos] * (self.k - 1) + list(tokens)
        return tuple(hist[-self.k:])

    def sample(self, dut_id, tau: float, rngs) -> list[list[int]]:
        """Draw one sequence per generator with ``sample_tokens`` from this policy's rows."""
        get = self.rows.get

        def next_logits(prefixes: np.ndarray) -> np.ndarray:
            return self.theta[[get((dut_id, self._contexts(p)), -1) for p in prefixes.tolist()]]

        return sample_tokens(self.vocab, self.t_max, tau, rngs, next_logits)

    def steps(self, items) -> Steps:
        """Compile (dut_id, seq) items to their scored steps; each seq is checked."""
        get = self.rows.get
        rows, targets = [], []
        for dut_id, seq in items:
            contexts, tgt = _step_plan(tuple(seq), self.vocab, self.k, self.t_max)
            rows.extend(get((dut_id, ctx), -1) for ctx in contexts)
            targets.append(tgt)
        lens = [len(t) for t in targets]
        return Steps(np.array(rows, dtype=np.intp),
                     np.concatenate(targets) if targets else np.zeros(0, dtype=np.intp),
                     np.repeat(np.arange(len(lens)), lens), len(lens))

    def _score(self, rows: np.ndarray, targets: np.ndarray):
        """Per-step log-probs of targets, with each step's exp-logits and their sums.

        Row i of ``e`` is exp(z - m) for step i's logits z, from the
        ``masked_softmax`` float operations, one row per step.
        """
        z = self.theta[rows]
        m, e, sums = _masked_exp(z, self.vocab.bos)
        m, sums = m[:, 0], sums[:, 0]
        # math.log as the step-by-step form used: np.log differs from it in the
        # last bit on a few arguments in 10^4, which would change artifacts.
        lse = m + np.fromiter(map(math.log, sums.tolist()), float, len(sums))
        return z[np.arange(len(targets)), targets] - lse, e, sums

    def log_prob(self, dut_id, seq) -> tuple[float, list[float]]:
        """Total and per-step log-probability at temperature 1.

        The forced-EOS step at interior position t_max contributes exactly 0.
        """
        steps = self.steps([(dut_id, seq)])
        per_step = self._score(steps.rows, steps.targets)[0].tolist()
        per_step += [0.0] * (len(seq) - 1 - len(per_step))
        return sum(per_step), per_step

    def grad_log_prob(self, steps: Steps) -> tuple[np.ndarray, np.ndarray]:
        """Each sequence's log-probability, and d log pi / d logits of each step.

        One softmax over all steps.  Row i of the gradient belongs to the
        context of step i; a sequence's total sums its steps in order, as
        ``log_prob`` does, and forced steps contribute nothing.
        """
        per_step, e, sums = self._score(steps.rows, steps.targets)
        grads = -(e / sums[:, None])
        grads[np.arange(len(steps.targets)), steps.targets] += 1.0
        grads[:, self.vocab.bos] = 0.0
        return np.bincount(steps.owner, weights=per_step, minlength=steps.n), grads

    # -- persistence ------------------------------------------------------

    def check_settings(self, run) -> None:
        """Raise ValueError naming each setting that differs from the run's.

        run is the run's ``CurationConfig``, which holds ``wmax``, ``k`` and
        ``t_max``.  A policy under another ``wmax`` has other BOS/EOS ids, so
        its samples would all fail decoding instead of failing loudly here.
        """
        mine = {"wmax": self.vocab.wmax, "k": self.k, "t_max": self.t_max}
        wrong = [f"{name} {value} (run config {getattr(run, name)})"
                 for name, value in mine.items() if value != getattr(run, name)]
        if wrong:
            raise ValueError(f"checkpoint policy has {', '.join(wrong)}")

    def save(self, path) -> None:
        entries = sorted(
            ([dut_id, list(ctx), self.theta[i].tolist()] for (dut_id, ctx), i in self.rows.items()),
            key=lambda e: (e[0], e[1]),
        )
        doc = {
            "version": "tabular_policy/1",
            "wmax": self.vocab.wmax,
            "k": self.k,
            "t_max": self.t_max,
            "table": entries,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TabularPolicy":
        """Read a checkpoint; raise ValueError naming the first malformed field."""
        with open(path, encoding="utf-8") as fh:
            doc = parse_json(fh.read(), path)
        if not isinstance(doc, dict):
            raise ValueError("checkpoint top level must be a JSON object")
        if doc.get("version") != "tabular_policy/1":
            raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
        for name in ("wmax", "k", "t_max"):
            value = doc.get(name)
            if not _is_int(value):
                raise ValueError(f"checkpoint field {name} must be an integer, got {value!r}")
        try:
            policy = cls(Vocab(doc["wmax"]), doc["k"], doc["t_max"])
        except ValueError as err:
            raise ValueError(f"checkpoint {err}") from None
        table = doc.get("table")
        if not isinstance(table, list):
            raise ValueError("checkpoint field table must be a list")
        size = policy.vocab.size
        vecs = []
        for i, entry in enumerate(table):
            where = f"checkpoint table[{i}]"
            if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                    and isinstance(entry[1], list) and isinstance(entry[2], list)):
                raise ValueError(f"{where} must be [dut_id, context list, logits list]")
            dut_id, ctx, vec = entry
            if len(ctx) != policy.k or not all(_is_int(t) and 0 <= t < size for t in ctx):
                raise ValueError(f"{where} context {ctx} must be k={policy.k} tokens "
                                 f"in 0..{size - 1}")
            if len(vec) != size:
                raise ValueError(f"{where} row has {len(vec)} logits, expected {size}")
            if not all(map(_is_finite_number, vec)):
                raise ValueError(f"{where} row holds a logit that is not a finite number")
            key = (dut_id, tuple(ctx))
            if key in policy.rows:
                raise ValueError(f"{where} repeats context {ctx} of {dut_id!r}")
            policy.rows[key] = len(vecs)
            vecs.append(vec)
        policy.theta = np.array(vecs + [[0.0] * size], dtype=float)
        return policy


def parse_json(text: str, source) -> object:
    """``json.loads`` of text read from source; every malformed text raises ValueError.

    The decoder raises RecursionError on deep nesting; that becomes a
    ValueError naming source.
    """
    try:
        return json.loads(text)
    except RecursionError as err:
        raise ValueError(f"{err} in {source}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value) and abs(value) <= sys.float_info.max


def check_positive(name: str, value) -> None:
    """Raise ValueError naming the setting unless value is a finite number > 0."""
    if not (_is_finite_number(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


class ReferencePolicy:
    """Frozen copy of a policy; read-only scoring interface."""

    def __init__(self, policy: TabularPolicy):
        self._policy = policy.copy()

    def log_prob(self, dut_id, seq) -> tuple[float, list[float]]:
        return self._policy.log_prob(dut_id, seq)
