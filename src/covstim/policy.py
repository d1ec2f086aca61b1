"""Tabular autoregressive softmax policy over the stimulus vocabulary.

Parameters live in a sparse table keyed by (dut_id, k-token context); an
absent context means zero logits, i.e. a uniform distribution over the
emittable tokens.  BOS is never emitted, and EOS follows the ``t_max``-th
value token without a draw, so every sampled sequence terminates and that
forced step scores 0.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache

import numpy as np

from .codec import Vocab, check_well_formed


def masked_softmax(z: np.ndarray, bos: int) -> np.ndarray:
    """Softmax of logits z (overwritten) over every token but BOS."""
    z[bos] = -np.inf
    e = np.exp(z - z[np.isfinite(z)].max(initial=0.0))
    return e / e.sum()


def sample_tokens(vocab: Vocab, t_max: int, tau: float, rng: np.random.Generator,
                  next_logits) -> list[int]:
    """Draw one well-formed token sequence; deterministic given rng state.

    From BOS on, each token is one ``rng.choice`` from the softmax of
    ``next_logits(tokens) / tau`` over every token but BOS.  The sequence
    ends at a drawn EOS, or after the ``t_max``-th value token, where EOS
    is appended without a draw.
    """
    if not tau > 0:  # also refuses NaN
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


@lru_cache(maxsize=1 << 13)
def _step_plan(seq: tuple, vocab: Vocab, k: int, t_max: int):
    """Check seq; return its scored steps: (contexts, targets, forced).

    Step j emits seq[j] from the k tokens before it, left-BOS-padded.  The
    forced-EOS step at interior position t_max is left out; ``forced``
    counts it (0 or 1).  Holds no logits, so it is valid for every policy
    with these settings.  A malformed seq raises CodecError on every call,
    since lru_cache keeps no raised exception.
    """
    check_well_formed(seq, vocab, t_max)
    hist = (vocab.bos,) * (k - 1) + seq
    n = min(len(seq) - 1, t_max)
    contexts = tuple(hist[j - 1:j - 1 + k] for j in range(1, n + 1))
    targets = np.array(seq[1:n + 1], dtype=np.intp)
    targets.flags.writeable = False
    return contexts, targets, len(seq) - 1 - n


class SparseGrad:
    """Sparse gradient over policy logits, keyed by (dut_id, context)."""

    def __init__(self):
        self.data: dict = {}  # (dut_id, ctx) -> np.ndarray of length V

    def add_scaled(self, other: "SparseGrad", factor: float) -> None:
        for key, vec in other.data.items():
            mine = self.data.get(key)
            if mine is None:
                self.data[key] = factor * vec
            else:
                mine += factor * vec

    def entry(self, dut_id, ctx, token: int) -> float:
        vec = self.data.get((dut_id, tuple(ctx)))
        return 0.0 if vec is None else float(vec[token])

    def norm(self) -> float:
        return math.sqrt(sum(float(np.dot(v, v)) for v in self.data.values()))


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
        self.table: dict = {}  # (dut_id, ctx tuple) -> np.ndarray of logits, length V

    def copy(self) -> "TabularPolicy":
        other = TabularPolicy(self.vocab, self.k, self.t_max)
        other.table = {key: vec.copy() for key, vec in self.table.items()}
        return other

    def logits(self, dut_id, ctx) -> np.ndarray:
        vec = self.table.get((dut_id, tuple(ctx)))
        return np.zeros(self.vocab.size) if vec is None else vec

    def set_logits(self, dut_id, ctx, vec) -> None:
        self.table[(dut_id, tuple(ctx))] = np.asarray(vec, dtype=float).copy()

    def adjust(self, dut_id, ctx, token: int, delta: float) -> None:
        key = (dut_id, tuple(ctx))
        if key not in self.table:
            self.table[key] = np.zeros(self.vocab.size)
        self.table[key][token] += delta

    def apply_update(self, grad: SparseGrad, factor: float) -> None:
        """Add factor * grad to the logits (descent uses factor = -lr)."""
        for (dut_id, ctx), vec in grad.data.items():
            key = (dut_id, ctx)
            if key not in self.table:
                self.table[key] = np.zeros(self.vocab.size)
            self.table[key] += factor * vec

    # -- distributions ----------------------------------------------------

    def _contexts(self, tokens: list[int]):
        """Sliding k-contexts over a BOS-started prefix, left-BOS-padded."""
        hist = [self.vocab.bos] * (self.k - 1) + list(tokens)
        return tuple(hist[-self.k:])

    def sample(self, dut_id, tau: float, rng: np.random.Generator) -> list[int]:
        """Draw one sequence with ``sample_tokens`` from this policy's table rows."""
        return sample_tokens(self.vocab, self.t_max, tau, rng,
                             lambda tokens: self.logits(dut_id, self._contexts(tokens)))

    def _step_logits(self, dut_id, seq):
        """Return seq's checked step plan and the plan's masked, exponentiated logits.

        Row i of ``z`` holds step i's logits with BOS set to -inf, ``m`` the
        row's shift max(0, finite max) and ``e`` = exp(z - m): the float
        operations of ``masked_softmax``, one row per scored step.
        """
        contexts, targets, forced = _step_plan(tuple(seq), self.vocab, self.k, self.t_max)
        get = self.table.get
        z = np.zeros((len(contexts), self.vocab.size))
        for i, ctx in enumerate(contexts):
            row = get((dut_id, ctx))
            if row is not None:
                z[i] = row
        z[:, self.vocab.bos] = -np.inf
        m = z.max(axis=1, initial=0.0, where=np.isfinite(z))
        e = np.exp(z - m[:, None])
        return contexts, targets, forced, z, m, e

    def log_prob(self, dut_id, seq) -> tuple[float, list[float]]:
        """Total and per-step log-probability at temperature 1.

        The forced-EOS step at interior position t_max contributes exactly 0.
        """
        _, targets, forced, z, m, e = self._step_logits(dut_id, seq)
        # math.log as the step-by-step form used: np.log differs from it in the
        # last bit on a few arguments in 10^4, which would change artifacts.
        lse = m + np.array([math.log(s) for s in e.sum(axis=1).tolist()])
        per_step = (z[np.arange(len(targets)), targets] - lse).tolist() + [0.0] * forced
        return sum(per_step), per_step

    def grad_log_prob(self, dut_id, seq) -> SparseGrad:
        """d log pi(seq) / d logits; forced positions contribute nothing."""
        contexts, targets, _, _, _, e = self._step_logits(dut_id, seq)
        vecs = -(e / e.sum(axis=1, keepdims=True))
        vecs[np.arange(len(targets)), targets] += 1.0
        vecs[:, self.vocab.bos] = 0.0
        grad = SparseGrad()  # its vectors are rows of vecs, which nothing else holds
        for ctx, vec in zip(contexts, vecs):
            key = (dut_id, ctx)
            mine = grad.data.get(key)
            if mine is None:
                grad.data[key] = vec
            else:
                mine += vec
        return grad

    # -- persistence ------------------------------------------------------

    def check_settings(self, wmax: int, k: int, t_max: int) -> None:
        """Raise ValueError naming each setting that differs from the run's.

        A policy under another ``wmax`` has other BOS/EOS ids, so its samples
        would all fail decoding instead of failing loudly here.
        """
        wrong = [f"{name} {mine} (run config {theirs})"
                 for name, mine, theirs in (("wmax", self.vocab.wmax, wmax),
                                            ("k", self.k, k), ("t_max", self.t_max, t_max))
                 if mine != theirs]
        if wrong:
            raise ValueError(f"checkpoint policy has {', '.join(wrong)}")

    def save(self, path) -> None:
        entries = sorted(
            ([dut_id, list(ctx), [float(v) for v in vec]]
             for (dut_id, ctx), vec in self.table.items()),
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
            doc = json.load(fh)
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
            if key in policy.table:
                raise ValueError(f"{where} repeats context {ctx} of {dut_id!r}")
            policy.table[key] = np.asarray(vec, dtype=float)
        return policy


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
    """Frozen copy of a policy; read-only scoring interface.

    The snapshot never changes, so each sequence is scored once and the
    result memoised.  The memo holds only sequences the snapshot's scorer
    has checked, so a malformed one still raises on every call.
    """

    def __init__(self, policy: TabularPolicy):
        self._policy = policy.copy()
        self._scores: dict = {}  # (dut_id, seq tuple) -> (total, per_step tuple)

    def log_prob(self, dut_id, seq) -> tuple[float, list[float]]:
        key = (dut_id, tuple(seq))
        score = self._scores.get(key)
        if score is None:
            total, per_step = self._policy.log_prob(dut_id, seq)
            score = self._scores[key] = (total, tuple(per_step))
        return score[0], list(score[1])
