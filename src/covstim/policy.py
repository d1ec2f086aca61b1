"""Tabular autoregressive softmax policy over the stimulus vocabulary.

Parameters live in a sparse table keyed by (dut_id, k-token context); an
absent context means zero logits, i.e. a uniform distribution over the
emittable tokens.  BOS is never emitted, and the conditional at interior
position ``t_max`` is a point mass on EOS so every sampled sequence
terminates and scores consistently.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .codec import Vocab, check_well_formed


def _mask_and_shift(z: np.ndarray, bos: int):
    """Mask BOS out of logits z (in place); return (z - m, m) for the shift m."""
    z[bos] = -np.inf
    m = z[np.isfinite(z)].max(initial=0.0)
    return z - m, m


def masked_softmax(z: np.ndarray, bos: int) -> np.ndarray:
    """Softmax of logits z (overwritten) over every token but BOS."""
    e = np.exp(_mask_and_shift(z, bos)[0])
    return e / e.sum()


class SparseGrad:
    """Sparse gradient over policy logits, keyed by (dut_id, context)."""

    def __init__(self):
        self.data: dict = {}  # (dut_id, ctx) -> np.ndarray of length V

    def accumulate(self, dut_id, ctx, vec: np.ndarray) -> None:
        key = (dut_id, tuple(ctx))
        if key in self.data:
            self.data[key] = self.data[key] + vec
        else:
            self.data[key] = vec.copy()

    def add_scaled(self, other: "SparseGrad", factor: float) -> None:
        for key, vec in other.data.items():
            if key in self.data:
                self.data[key] = self.data[key] + factor * vec
            else:
                self.data[key] = factor * vec

    def scaled(self, factor: float) -> "SparseGrad":
        out = SparseGrad()
        for key, vec in self.data.items():
            out.data[key] = factor * vec
        return out

    def entry(self, dut_id, ctx, token: int) -> float:
        vec = self.data.get((dut_id, tuple(ctx)))
        return 0.0 if vec is None else float(vec[token])

    def norm(self) -> float:
        return math.sqrt(sum(float(np.dot(v, v)) for v in self.data.values()))


class TabularPolicy:
    """Autoregressive policy pi(token | dut_id, previous k tokens)."""

    def __init__(self, vocab: Vocab, k: int = 2, t_max: int = 8):
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

    def step_distribution(self, dut_id, ctx, tau: float = 1.0, position: int = 0) -> np.ndarray:
        """Softmax over emittable tokens; EOS point mass at position t_max."""
        if tau <= 0:
            raise ValueError("temperature must be > 0")
        probs = np.zeros(self.vocab.size)
        if position >= self.t_max:
            probs[self.vocab.eos] = 1.0
            return probs
        return masked_softmax(self.logits(dut_id, ctx) / tau, self.vocab.bos)

    def _contexts(self, tokens: list[int]):
        """Sliding k-contexts over a BOS-started prefix, left-BOS-padded."""
        hist = [self.vocab.bos] * (self.k - 1) + list(tokens)
        return tuple(hist[-self.k:])

    def sample(self, dut_id, tau: float, rng: np.random.Generator) -> list[int]:
        """Draw one well-formed token sequence; deterministic given rng state."""
        tokens = [self.vocab.bos]
        position = 0
        while True:
            ctx = self._contexts(tokens)
            probs = self.step_distribution(dut_id, ctx, tau, position)
            token = int(rng.choice(self.vocab.size, p=probs))
            tokens.append(token)
            if token == self.vocab.eos:
                return tokens
            position += 1

    def log_prob(self, dut_id, seq) -> tuple[float, list[float]]:
        """Total and per-step log-probability at temperature 1.

        The forced-EOS step at interior position t_max contributes exactly 0.
        """
        check_well_formed(seq, self.vocab, self.t_max)
        per_step = []
        for j in range(1, len(seq)):
            position = j - 1
            if position >= self.t_max:
                per_step.append(0.0)
                continue
            ctx = self._contexts(seq[:j])
            z = self.logits(dut_id, ctx)
            shifted, m = _mask_and_shift(z.copy(), self.vocab.bos)
            lse = m + math.log(np.exp(shifted).sum())
            per_step.append(float(z[seq[j]] - lse))
        return sum(per_step), per_step

    def grad_log_prob(self, dut_id, seq) -> SparseGrad:
        """d log pi(seq) / d logits; forced positions contribute nothing."""
        check_well_formed(seq, self.vocab, self.t_max)
        grad = SparseGrad()
        for j in range(1, len(seq)):
            position = j - 1
            if position >= self.t_max:
                continue
            ctx = self._contexts(seq[:j])
            probs = self.step_distribution(dut_id, ctx, 1.0, position)
            vec = -probs
            vec[seq[j]] += 1.0
            vec[self.vocab.bos] = 0.0
            grad.accumulate(dut_id, ctx, vec)
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("version") != "tabular_policy/1":
            raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
        policy = cls(Vocab(doc["wmax"]), doc["k"], doc["t_max"])
        for dut_id, ctx, vec in doc["table"]:
            policy.table[(dut_id, tuple(ctx))] = np.asarray(vec, dtype=float)
        return policy


class ReferencePolicy:
    """Frozen copy of a policy; read-only scoring interface."""

    def __init__(self, policy: TabularPolicy):
        self._policy = policy.copy()

    def log_prob(self, dut_id, seq):
        return self._policy.log_prob(dut_id, seq)
