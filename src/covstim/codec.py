"""Token vocabulary and conversion between token sequences and stimuli.

A value token packs one cycle's input assignments into a single integer:
the bits are sliced across input ports in declaration order, first-declared
port taking the least-significant bits.  The vocabulary is global (sized by
``wmax``), so a policy can emit values too wide for a given DUT; that
rejection path is the artifact's stand-in for a compile failure.

Each function here that reads a design's widths first passes the design
through ``sim.compiled``, the one design gate, which refuses a design that
does not lint clean.

:func:`simulate_block` is the one scoring rule of curation and evaluation,
applied to a block of sampled sequences: a sequence that does not decode
gets None and scores 0, and any other gets the coverage its stimulus
reaches in simulation.  It rejects the sequences that do not decode
without decoding them and simulates each distinct one once.  Only curation
first rejects rows on their token array (``policy.TokenBlock.decodable``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import JSON_SCALARS, check_int, shown
from .hdl import MAX_WIDTH, DutModel
from .sim import CoverageReport, Stimulus, compiled, input_rows, simulate


@dataclass(frozen=True)
class Vocab:
    """Global token ids: values 0..2^wmax-1, then BOS, then EOS."""

    wmax: int = 4

    def __post_init__(self):
        check_int("wmax", self.wmax, 1, MAX_WIDTH)

    @property
    def n_values(self) -> int:
        return 1 << self.wmax

    @property
    def bos(self) -> int:
        return self.n_values

    @property
    def eos(self) -> int:
        return self.n_values + 1

    @property
    def size(self) -> int:
        return self.n_values + 2


class CodecError(ValueError):
    """First rule violated by a token sequence, with its position."""

    def __init__(self, kind: str, position: int, message: str):
        self.kind = kind  # not_well_formed | value_exceeds_input_width | empty_stimulus | too_long
        self.position = position
        super().__init__(f"{kind} at position {position}: {message}")


def total_input_width(dut: DutModel) -> int:
    return sum(p.width for p in dut.input_ports)


def check_well_formed(tokens, vocab: Vocab, t_max: int) -> None:
    """Raise CodecError unless tokens are BOS, at most t_max value tokens, EOS."""
    if len(tokens) < 2 or tokens[0] != vocab.bos:
        raise CodecError("not_well_formed", 0, "sequence must start with BOS")
    if tokens[-1] != vocab.eos:
        raise CodecError("not_well_formed", len(tokens) - 1, "sequence must end with EOS")
    n_values = vocab.n_values
    for i in range(1, len(tokens) - 1):
        if not 0 <= tokens[i] < n_values:
            token = shown(tokens[i], JSON_SCALARS)
            raise CodecError("not_well_formed", i, f"interior token {token} is not a value token")
    if len(tokens) - 2 > t_max:
        raise CodecError("too_long", t_max + 1, f"{len(tokens) - 2} cycles exceed limit {t_max}")


def validate_and_decode(dut: DutModel, tokens, vocab: Vocab, t_max: int) -> Stimulus:
    """Decode a token sequence into a Stimulus or raise CodecError."""
    compiled(dut)
    check_well_formed(tokens, vocab, t_max)
    interior = tokens[1:-1]
    if not interior:
        raise CodecError("empty_stimulus", 1, "at least one cycle is required")

    width = total_input_width(dut)
    limit = 1 << width
    cycles = []
    for i, t in enumerate(interior):
        if t >= limit:
            raise CodecError("value_exceeds_input_width", i + 1,
                             f"value {t} needs more than {width} input bits")
        cycle = {}
        v = t
        for port in dut.input_ports:
            cycle[port.name] = v & ((1 << port.width) - 1)
            v >>= port.width
        cycles.append(cycle)
    return Stimulus(tuple(cycles))


def value_limit(dut: DutModel, vocab: Vocab) -> int:
    """The bound every value of a sequence that decodes on dut stays below: the smaller
    of ``1 << total_input_width(dut)`` and ``vocab.n_values``."""
    compiled(dut)
    return min(1 << total_input_width(dut), vocab.n_values)


def simulate_block(dut: DutModel, seqs, vocab: Vocab, t_max: int) -> list[CoverageReport | None]:
    """Each sequence's coverage report, or None if it does not decode; each distinct one run once.

    The report is ``simulate`` of the stimulus that ``validate_and_decode``
    gives the sequence.  A sequence decodes exactly when it is BOS, 1..t_max
    values each below ``value_limit(dut, vocab)``, then EOS; any other gets
    None without being decoded.  A sequence that decodes goes through a
    table of each value's cycle, which decoding does one value at a time:
    only a sequence holding a value the table lacks goes through
    ``validate_and_decode``, which fills the table in.  Tokens are ints, as
    sampling and ``load_dataset`` give them.  A None entry gets None
    unchecked: curation finds the sampled rows that cannot decode on their
    token array (``policy.TokenBlock.decodable``) and passes None for each
    (``TokenBlock.tolist(mask)``); evaluation passes each row as a list.
    """
    bos, eos = vocab.bos, vocab.eos
    fits = value_limit(dut, vocab)
    table: dict[int, dict] = {}  # value token -> its cycle
    reports: dict[tuple, CoverageReport | None] = {}
    out = []
    for seq in seqs:
        if (seq is None or not 2 < len(seq) <= t_max + 2 or seq[0] != bos or seq[-1] != eos
                or max(values := seq[1:-1]) >= fits or min(values) < 0):
            out.append(None)
            continue
        key = tuple(seq)
        if key not in reports:
            interior = key[1:-1]
            if set(interior) <= table.keys():
                stim = Stimulus(tuple(table[t] for t in interior))
            else:
                stim = validate_and_decode(dut, key, vocab, t_max)
                table.update(zip(interior, stim.cycles))
            reports[key] = simulate(dut, stim)
        out.append(reports[key])
    return out


def encode(dut: DutModel, stim: Stimulus, vocab: Vocab, t_max: int) -> list[int]:
    """Exact inverse of validate_and_decode; refuses a stimulus as ``simulate`` does."""
    compiled(dut)
    if not 1 <= len(stim.cycles) <= t_max:
        raise ValueError(f"stimulus length {len(stim.cycles)} outside 1..{t_max}")
    tokens = [vocab.bos]
    for i, row in enumerate(input_rows(dut, stim)):
        value = 0
        for port in reversed(dut.input_ports):
            value = value << port.width | row[port.name]
        if value >= vocab.n_values:
            raise ValueError(f"cycle {i}: packed value {shown(value, int)} exceeds vocabulary")
        tokens.append(value)
    tokens.append(vocab.eos)
    return tokens
