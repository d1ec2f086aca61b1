"""Tabular autoregressive softmax policy over the stimulus vocabulary.

Parameters live in one dense array of logits, a row per (dut_id, k-token
context) the policy has been given; a context without a row has zero
logits, i.e. a uniform distribution over the emittable tokens.  BOS is
never emitted, and EOS follows the ``t_max``-th value token without a draw,
so every sampled sequence terminates and that forced step scores 0.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .checks import JSON_SCALARS, check_int, is_finite_number, is_int, parse_json, shown
from .codec import Vocab, check_well_formed


def _masked_exp(z: np.ndarray, bos: int):
    """exp(z - m) of each row of logits z (overwritten), with BOS masked out.

    BOS is set to -inf and m is max(0, the row's max), so each exp is at
    most 1: a -inf logit never wins the max, and a row holding +inf or NaN
    turns all-NaN.  Returns m, the exp-logits and their row sums, each
    keeping the reduced last axis; z may be one row (1-D) or a stack of rows.

    The max runs down the columns of a transposed copy, one elementwise
    max of n entries per token, since a reduction along a row of only V
    entries is slow and a max is exact in any order.  The sums stay along
    the contiguous rows: numpy adds each row pairwise, and every sampled
    token and log-probability depends on the bits of that order.
    """
    z[..., bos] = -np.inf
    # The ufunc reductions that ``max`` and ``sum`` wrap, without their Python layer.
    m = np.maximum.reduce(z.T.copy(), axis=0, keepdims=True, initial=0.0).T
    e = np.exp(z - m)
    return m, e, np.add.reduce(e, axis=-1, keepdims=True)


def masked_softmax(z: np.ndarray, bos: int) -> np.ndarray:
    """Softmax of each row of logits z (overwritten) over every token but BOS."""
    _, e, sums = _masked_exp(z, bos)
    return e / sums


def draw_tokens(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One token per row of probs, row i drawn with the uniform ``uniforms[i]``.

    This is numpy's own algorithm in ``Generator.choice(V, p=p)``: the
    cumulative sum of p divided by its last entry, and the token is the
    count of its entries <= the uniform.  So each token is what
    ``rng.choice(V, p=probs[i])`` gives from a generator whose next
    ``random()`` is ``uniforms[i]``.  probs must hold no NaN, which
    ``choice`` refuses; ``sample_tokens`` checks that before it draws.

    The cumulative sum is a running sum along each row, as ``choice``
    takes it.  The division writes the cdf transposed, a row per token,
    and the count runs down its columns, since a count along a row of only
    V entries is slow; both are exact in any order, so the tokens are
    those of the row-wise form.
    """
    cum = probs.cumsum(axis=1)
    cdf = np.divide(cum.T, cum[:, -1], out=np.empty(cum.shape[::-1]))
    return np.add.reduce(cdf <= uniforms, axis=0)


_MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence's hash constants (pool of 4 uint32 words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """value's 32-bit words, least significant first, as SeedSequence splits an int."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy[:, i]).generate_state(4, np.uint64)`` as row i, for each column i.

    entropy holds uint32 words, a row per word.  This is SeedSequence's
    pool mixing and state generation, each uint32 step applied to a whole
    row of seeds at once; the hash constants do not depend on the words.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = _INIT_B
    state = np.empty((entropy.shape[1], 8), dtype="<u4")
    for j in range(8):
        value = pool[j % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, j] = value ^ value >> 16
    return state.view("<u8").astype(np.uint64)


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier M
# Indices ``sample_indexed`` samples in lockstep from one ``Streams`` and
# yields as one block: the pairs of one design in curation, its generations
# in evaluation, each block scored by one ``codec.simulate_block`` call per
# tau.  No output depends on it; it bounds the sequences held at once.
STREAM_BLOCK = 512
# Draws a ``Streams`` row makes at a time.  No output depends on it; it
# bounds the uniforms held at once to rows x STREAM_WINDOW.
STREAM_WINDOW = 16


@lru_cache(maxsize=None)
def _steps(n: int) -> np.ndarray:
    """Rows a high, a low, c high, c low of uint64, for a_j = M**(j+1) and c_j = M**j + ...
    + M + 1 mod 2**128, j < n: j + 1 PCG64 steps, each s * M + inc, take s to a_j s + c_j inc."""
    a, c = [_PCG_MULT], [1]
    for _ in range(n - 1):
        a, c = a + [a[-1] * _PCG_MULT % 2**128], c + [(c[-1] * _PCG_MULT + 1) % 2**128]
    return np.array([[v >> w & 2**64 - 1 for v in vs] for vs in (a, c) for w in (64, 0)],
                    dtype=np.uint64)


def _mulhi(x, y):
    """The high 64 bits of each 128-bit product x * y of uint64 arrays, from 32-bit limbs."""
    x0, x1, y0, y1 = x & _MASK32, x >> 32, y & _MASK32, y >> 32
    mid = x1 * y0 + (x0 * y0 >> 32)
    return x1 * y1 + (mid >> 32) + (x0 * y1 + (mid & _MASK32) >> 32)


class Streams:
    """Row i's k-th ``next`` draw is the k-th ``default_rng([*prefix, indices[i]]).random()``.

    Bit for bit, for k < draws.  Construction runs the SeedSequence hash
    and PCG64's seeding for the whole block.  A row draws STREAM_WINDOW at a
    time, in one pass of uint64 array operations over the rows that need
    them: a jump of each row's PCG64 state to each output by precomputed
    powers of the multiplier, then the XSL-RR output.  Prefix entries may
    be any non-negative int, and an index must be in [0, 2**32); a negative
    entry raises ValueError, as SeedSequence does.
    """

    def __init__(self, prefix, indices, draws: int):
        words = [w for entry in prefix for w in _uint32_words(entry)]
        index = list(indices)
        if min(index, default=0) < 0 or max(index, default=0) > _MASK32:
            raise ValueError(f"stream indices must be in [0, 2**32), got {indices}")
        entropy = np.empty((len(words) + 1, len(index)), dtype=np.uint32)
        entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
        entropy[-1] = index
        seed = _pcg64_seeds(entropy).T  # initstate, then initseq, high word first
        self._inc = np.array([seed[2] << 1 | seed[3] >> 63, seed[3] << 1 | 1])
        # PCG64 seeds its state one step past initstate + inc.
        lo = seed[1] + self._inc[1]
        self._state = np.array([seed[0] + self._inc[0] + (lo < seed[1]), lo])
        self._draws, width = draws, max(1, min(draws, STREAM_WINDOW))
        self._uniforms = np.empty((len(index), width))
        self._cursor = np.zeros(len(index), dtype=np.intp)
        self._refill(slice(None), _steps(width + 1)[:, 1:])

    def __len__(self) -> int:
        return len(self._cursor)

    def _refill(self, rows, steps: np.ndarray) -> None:
        """Draw the listed rows' next window, steps[:, j] ahead of their states for
        column j, and step their states to the last."""
        (s_hi, s_lo), (i_hi, i_lo) = self._state[:, rows, None], self._inc[:, rows, None]
        a_hi, a_lo, c_hi, c_lo = steps
        lo, step = a_lo * s_lo, c_lo * i_lo
        lo += step  # wraps past 2**64 exactly when lo < step: a carry into hi
        hi = (_mulhi(a_lo, s_lo) + _mulhi(c_lo, i_lo) + a_hi * s_lo + a_lo * s_hi
              + c_hi * i_lo + c_lo * i_hi + (lo < step))
        self._state[:, rows] = hi[:, -1], lo[:, -1]
        rot, out = hi >> 58, hi ^ lo
        out = out >> rot | out << (64 - rot & 63)
        self._uniforms[rows] = (out >> 11) * (1.0 / 9007199254740992.0)

    def next(self, rows) -> np.ndarray:
        """The next uniform of each listed row, rows distinct; a row out of draws raises
        ValueError, and then no row advances."""
        rows = np.asarray(rows, dtype=np.intp)
        at = self._cursor[rows]
        if (at >= self._draws).any():
            raise ValueError(f"a stream has made all its {self._draws} draws")
        col = at % self._uniforms.shape[1]
        if (due := rows[(col == 0) & (at > 0)]).size:
            self._refill(due, _steps(self._uniforms.shape[1]))
        self._cursor[rows] = at + 1
        return self._uniforms[rows, col]


class TokenBlock:
    """Sampled token sequences kept as one array: sequence i is ``tokens[i, :lengths[i]]``.

    ``sample_tokens`` returns one, so curation scores a block without a
    Python list per row; every position past a sequence's end holds EOS.
    Iterating it, or ``tolist()``, gives each sequence as a list of ints.
    """

    __slots__ = ("tokens", "lengths")

    def __init__(self, tokens: np.ndarray, lengths: np.ndarray):
        self.tokens = tokens
        self.lengths = lengths

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        return iter(self.tolist())

    def tolist(self, where=None) -> list:
        """Each row as a list of ints; given curation's mask, None for each row it leaves out."""
        if where is None:
            return [row[:n] for row, n in zip(self.tokens.tolist(), self.lengths.tolist())]
        out = [None] * len(self)
        rows = np.flatnonzero(where)
        for i, row, n in zip(rows.tolist(), self.tokens[rows].tolist(),
                             self.lengths[rows].tolist()):
            out[i] = row[:n]
        return out

    def decodable(self, limit: int) -> np.ndarray:
        """Whether each sequence holds a value and every value is below limit: curation's mask.

        For a block that ``sample_tokens`` drew and a limit of at most its
        vocabulary's ``n_values`` (``codec.value_limit``), these are exactly
        the sequences that can decode: each is BOS, at most t_max values,
        EOS, and each position past its values holds EOS, which is >= limit.
        """
        values = self.tokens[:, 1:-1]
        return (self.lengths > 2) & (np.count_nonzero(values < limit, axis=1) == self.lengths - 2)


def sample_indexed(sampler, dut_id, prefix, n: int, taus):
    """Yield indices 0..n-1 a block at a time: per tau in taus, its block's sequences.

    A block is the next STREAM_BLOCK indices (fewer in the last one), and
    its yield is a list with one ``TokenBlock`` per tau, in index order.
    Index i's sequences are ``sampler.sample(dut_id, tau, streams)`` drawn
    in taus order from one stream, the ``random()`` draws of
    ``default_rng([*prefix, i])``: each starts where the one before stopped.
    Each block's indices share one ``Streams`` with a budget of
    ``sampler.t_max`` draws per tau, so no sequence depends on the block size.
    """
    for start in range(0, n, STREAM_BLOCK):
        streams = Streams(prefix, range(start, min(start + STREAM_BLOCK, n)),
                          sampler.t_max * len(taus))
        yield [sampler.sample(dut_id, tau, streams) for tau in taus]


def sample_tokens(vocab: Vocab, t_max: int, tau: float, streams, next_logits) -> TokenBlock:
    """Draw one well-formed token sequence per row of streams, all in lockstep.

    Sequence i draws one uniform per drawn token from row i of streams, a
    ``Streams`` (see ``sample_indexed``): at most ``t_max`` per call.  From
    BOS on, step j takes ``next_logits(tokens, running, j)``: the logits of
    the running rows, as one (len(running) x V) array.  tokens is the
    shared (rows x t_max + 2) token array, not a copy, whose columns before
    j hold each running row's prefix; running holds the indices of the rows
    still running, in increasing order.  A row keeps its index from step
    to step, so a sampler may keep per-row state; it must not write to
    tokens.  Each running row's next token is drawn with ``draw_tokens``
    from ``masked_softmax`` of its logits / tau: the row max runs down the
    columns, the row sums along the rows (see ``_masked_exp``).  A
    sequence ends at a drawn EOS, or after the ``t_max``-th value token,
    where EOS is appended without a draw.  A row whose softmax is NaN
    because a logit / tau overflowed raises one ValueError naming tau,
    before that step draws from any row.  Returns that token array, every
    column past a row's end EOS, as a ``TokenBlock``.
    """
    if not tau > 0:  # also refuses NaN
        raise ValueError(f"temperature must be > 0, got {tau}")
    tokens = np.full((len(streams), t_max + 2), vocab.eos, dtype=np.intp)
    tokens[:, 0] = vocab.bos
    lengths = np.full(len(streams), t_max + 2)
    running = np.arange(len(streams))
    for j in range(1, t_max + 1):
        if not len(running):
            break
        # An overflowed row turns to NaN here; it is refused before any row draws.
        with np.errstate(over="ignore", invalid="ignore"):
            probs = masked_softmax(next_logits(tokens, running, j) / tau, vocab.bos)
        if np.isnan(probs).any():
            raise ValueError(f"probabilities contain NaN at temperature {tau}: a logit "
                             f"divided by it is not a finite number")
        drawn = draw_tokens(probs, streams.next(running))
        tokens[running, j] = drawn
        ended = drawn == vocab.eos
        lengths[running[ended]] = j + 1
        running = running[~ended]
    return TokenBlock(tokens, lengths)


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


class Steps(NamedTuple):
    """The scored steps of ``n`` token sequences, as index arrays.

    Step i emits a target token from the context in row
    ``touched[slot[i]]`` of the policy that compiled it (-1: the context has
    no row, so zero logits), and belongs to sequence ``owner[i]``.  Each
    sequence's steps are contiguous and in order; forced-EOS steps are left
    out.  ``touched`` holds the distinct rows of the steps, sorted, so -1
    comes first when a step has no row.  ``cell[i]`` is ``slot[i] * V +
    target``: the flat index of step i's (row, target) entry in a
    (len(touched) x V) block of the touched rows, and the one place the
    target is kept.  ``TabularPolicy.steps`` and ``batches`` build it, and
    ``grad_log_prob`` and ``apply_update`` take it.
    """

    owner: np.ndarray
    n: int
    touched: np.ndarray
    slot: np.ndarray
    cell: np.ndarray


def _shown_context(ctx: list) -> str:
    """A checkpoint context for a message: as written if that is at most 40 characters
    (a list of more entries is not written out to find that), else by its length."""
    return str(ctx) if len(ctx) <= 40 and len(str(ctx)) <= 40 else f"of length {len(ctx)}"


class TabularPolicy:
    """Autoregressive policy pi(token | dut_id, previous k tokens)."""

    def __init__(self, vocab: Vocab, k: int = 2, t_max: int = 8):
        check_int("k", k, 1)
        check_int("t_max", t_max, 1)
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

    def apply_update(self, steps: Steps, probs: np.ndarray, step_weights: np.ndarray,
                     factor: float) -> None:
        """Add factor * sum_i step_weights[i] * d log pi(step i) / d logits to the rows.

        Descent uses factor = -lr.  probs is ``grad_log_prob``'s softmax of
        each row of ``steps.touched``.  Step i's gradient is onehot(target)
        - probs of its row, so each touched row gets H - W * probs, where H
        sums the weights at each (row, target) and W the weights of the
        row's steps: no per-step vector is built.  The update is scaled and
        added to the touched rows in place.  The BOS column stays
        unchanged, as probs is 0 there and no step emits BOS.  A step
        without a row (-1) updates nothing.
        """
        touched = steps.touched
        weights = np.bincount(steps.slot, weights=step_weights, minlength=len(touched))
        hits = np.bincount(steps.cell, weights=step_weights, minlength=probs.size)
        update = weights[:, None] * probs
        np.subtract(hits.reshape(probs.shape), update, out=update)
        update *= factor
        if len(touched) and touched[0] < 0:
            touched, update = touched[1:], update[1:]
        update += self.theta.take(touched, axis=0)
        self.theta[touched] = update

    # -- distributions ----------------------------------------------------

    def sample(self, dut_id, tau: float, streams) -> TokenBlock:
        """Draw one sequence per row of streams with ``sample_tokens`` from this policy's rows."""
        get, k = self.rows.get, self.k

        def next_logits(tokens: np.ndarray, running: np.ndarray, j: int) -> np.ndarray:
            # Each running row's k columns before j; a column before the first reads
            # column 0, BOS, so a prefix shorter than k is left-padded with BOS.
            contexts = tokens[running[:, None], np.arange(j - k, j).clip(0)].tolist()
            return self.theta[[get((dut_id, tuple(ctx)), -1) for ctx in contexts]]

        return sample_tokens(self.vocab, self.t_max, tau, streams, next_logits)

    def plan(self, items):
        """Check (dut_id, seq) items; return their steps' flat rows and targets, and step counts."""
        get = self.rows.get
        rows, targets = [], []
        for dut_id, seq in items:
            contexts, tgt = _step_plan(tuple(seq), self.vocab, self.k, self.t_max)
            rows.extend(get((dut_id, ctx), -1) for ctx in contexts)
            targets.append(tgt)
        return (np.array(rows, dtype=np.intp),
                np.concatenate(targets) if targets else np.zeros(0, dtype=np.intp),
                np.array([len(t) for t in targets], dtype=np.intp))

    def batches(self, rows, targets, lens, counts) -> list[Steps]:
        """The ``Steps`` of each run of ``counts[b]`` sequences, in order.

        rows, targets and lens are ``plan``'s arrays for all the sequences.
        Each step's row + 1 is marked in its batch's row of one boolean
        (batches x len(theta)) array, and the running count of the marks
        along each batch's row gives, with no sort, what ``np.unique`` of the
        (batch, row) keys would: the touched rows in order, -1 first, and
        each step's slot, its mark's count less one.  So a call holds
        len(counts) x len(theta) marks and counts.
        """
        width = len(self.theta)  # rows + 1: row + 1 of a step is in [0, width)
        counts = np.asarray(counts)
        seq_batch = np.repeat(np.arange(len(counts)), counts)
        batch = np.repeat(seq_batch, lens)
        first = np.cumsum(counts) - counts  # each batch's first sequence
        owner = np.repeat(np.arange(len(lens)) - first[seq_batch], lens)
        keys = batch * width + rows + 1
        mark = np.zeros(len(counts) * width, dtype=bool)
        mark[keys] = True
        running = mark.reshape(-1, width).cumsum(axis=1)
        slot = running.ravel()[keys] - 1
        cell = slot * self.vocab.size + targets
        touched = np.flatnonzero(mark) % width - 1
        key_at = [0, *running[:, -1].cumsum().tolist()]
        step_at = np.searchsorted(batch, np.arange(len(counts) + 1)).tolist()
        counts = counts.tolist()
        return [Steps(owner[s:e], counts[b],
                      touched[key_at[b]:key_at[b + 1]], slot[s:e], cell[s:e])
                for b, (s, e) in enumerate(zip(step_at, step_at[1:]))]

    def steps(self, items) -> Steps:
        """Compile (dut_id, seq) items to their scored steps, as one batch; each seq is checked."""
        rows, targets, lens = self.plan(items)
        return self.batches(rows, targets, lens, [len(lens)])[0]

    def _score(self, rows, slot, cell):
        """Per-step log-probs, and each given row's exp-logits and their sums.

        Row j of ``e`` is exp(z - m) for the logits z of ``rows[j]``, from
        the ``masked_softmax`` float operations, and step i reads entry
        ``cell[i]`` of the flat (len(rows) x V) block z, in row ``slot[i]``:
        each row is exponentiated and logged once, however many steps read it.
        """
        z = self.theta.take(rows, axis=0)
        m, e, sums = _masked_exp(z, self.vocab.bos)
        lse = m[:, 0] + np.log(sums[:, 0])
        return z.ravel()[cell] - lse[slot], e, sums

    def log_prob(self, dut_id, seq) -> tuple[float, list[float]]:
        """Total and per-step log-probability at temperature 1.

        The steps come straight from ``_step_plan`` and this policy's rows,
        each its own slot, so no ``plan`` arrays are built for one sequence.
        The forced-EOS step at interior position t_max contributes exactly 0.
        """
        contexts, targets = _step_plan(tuple(seq), self.vocab, self.k, self.t_max)
        get = self.rows.get
        slot = np.arange(len(targets))
        per_step = self._score([get((dut_id, ctx), -1) for ctx in contexts], slot,
                               slot * self.vocab.size + targets)[0].tolist()
        per_step += [0.0] * (len(seq) - 1 - len(per_step))
        return sum(per_step), per_step

    def grad_log_prob(self, steps: Steps) -> tuple[np.ndarray, np.ndarray]:
        """Each sequence's log-probability, and the softmax of each touched row.

        One softmax over the distinct rows of the steps: row j of probs is
        pi(. | context of ``steps.touched[j]``), 0 at BOS.  The gradient of
        step i's log-prob is onehot(target) - that row, which
        ``apply_update`` builds per row, not per step.  A sequence's total
        sums its steps in order, as ``log_prob`` does, and forced steps
        contribute nothing.
        """
        per_step, e, sums = self._score(steps.touched, steps.slot, steps.cell)
        e /= sums
        return np.bincount(steps.owner, weights=per_step, minlength=steps.n), e

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Write ``json.dump`` of the checkpoint document and a newline, byte for byte.

        The table holds a [dut_id, context, logits] entry per row, sorted by
        (dut_id, context).  Each entry is written by its own ``json.dumps``,
        which runs the C encoder where ``json.dump`` runs the pure-Python
        one, so only one entry's text is held at a time.
        """
        header = json.dumps({"version": "tabular_policy/1", "wmax": self.vocab.wmax,
                             "k": self.k, "t_max": self.t_max})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header[:-1] + ', "table": [')
            sep = ""
            for (dut_id, ctx), i in sorted(self.rows.items()):
                fh.write(sep + json.dumps([dut_id, list(ctx), self.theta[i].tolist()]))
                sep = ", "
            fh.write("]}\n")

    @classmethod
    def load(cls, path, run) -> "TabularPolicy":
        """Read a checkpoint; raise ValueError naming the first malformed field, then each of
        wmax, k and t_max that differs from run (a ``CurationConfig``): under another wmax,
        BOS and EOS take other ids, so every sample would fail."""
        with open(path, encoding="utf-8") as fh:
            doc = parse_json(fh.read(), path)
        if not isinstance(doc, dict):
            raise ValueError("checkpoint top level must be a JSON object")
        if doc.get("version") != "tabular_policy/1":
            raise ValueError(f"unsupported checkpoint version "
                             f"{shown(doc.get('version'), JSON_SCALARS)}")
        for name in ("wmax", "k", "t_max"):
            value = doc.get(name)
            if not is_int(value):
                raise ValueError(f"checkpoint field {name} must be an integer, "
                                 f"got {shown(value, int)}")
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
            if len(ctx) != policy.k or not all(is_int(t) and 0 <= t < size for t in ctx):
                raise ValueError(f"{where} context {_shown_context(ctx)} must be k={policy.k} "
                                 f"tokens in 0..{size - 1}")
            if len(vec) != size:
                raise ValueError(f"{where} row has {len(vec)} logits, expected {size}")
            if not all(map(is_finite_number, vec)):
                raise ValueError(f"{where} row holds a logit that is not a finite number")
            key = (dut_id, tuple(ctx))
            if key in policy.rows:
                raise ValueError(f"{where} repeats context {_shown_context(ctx)} of "
                                 f"{shown(dut_id)}")
            policy.rows[key] = len(vecs)
            vecs.append(vec)
        policy.theta = np.array(vecs + [[0.0] * size], dtype=float)
        wrong = [f"{name} {doc[name]} (run config {getattr(run, name)})"
                 for name in ("wmax", "k", "t_max") if doc[name] != getattr(run, name)]
        if wrong:
            raise ValueError(f"checkpoint policy has {', '.join(wrong)}")
        return policy


class ReferencePolicy:
    """Frozen copy of a policy; read-only scoring interface."""

    def __init__(self, policy: TabularPolicy):
        self._policy = policy.copy()

    def log_prob(self, dut_id, seq) -> tuple[float, list[float]]:
        return self._policy.log_prob(dut_id, seq)
