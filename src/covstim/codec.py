"""Token vocabulary and conversion between token sequences and stimuli.

A value token packs one cycle's input assignments into a single integer:
the bits are sliced across input ports in declaration order, first-declared
port taking the least-significant bits.  The vocabulary is global (sized by
``wmax``), so a policy can emit values too wide for a given DUT; that
rejection path is the artifact's stand-in for a compile failure.

:func:`simulate_tokens` is the one scoring rule of curation and evaluation:
a sequence that does not decode scores 0, and any other scores the
coverage its stimulus reaches in simulation.  :func:`simulate_block` is its
block form, the one both stages call on a block of sampled sequences: it
gives the same report per sequence, rejects the hopeless ones without
decoding them and simulates each distinct one once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import JSON_SCALARS, check_int, shown
from .hdl import MAX_WIDTH, DutModel
from .sim import CoverageReport, Stimulus, simulate


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


def simulate_tokens(dut: DutModel, tokens, vocab: Vocab, t_max: int) -> CoverageReport | None:
    """The coverage of the stimulus the tokens decode to; None (score 0) if they do not."""
    try:
        stim = validate_and_decode(dut, tokens, vocab, t_max)
    except CodecError:
        return None
    return simulate(dut, stim)


def simulate_block(dut: DutModel, seqs, vocab: Vocab, t_max: int) -> list[CoverageReport | None]:
    """``[simulate_tokens(dut, s, vocab, t_max) for s in seqs]``, each distinct sequence run once.

    A sequence of at most 2 tokens, or with an interior token at or above
    ``1 << total_input_width(dut)``, fails ``validate_and_decode`` whatever
    else it holds, so it gets None without being decoded.  A sequence of
    BOS, at most t_max values the design's inputs hold, and EOS decodes
    through a table of each value's cycle, which decoding does one value at
    a time: only a sequence holding a value the table lacks goes through
    ``validate_and_decode``, which fills the table in.  Any other sequence
    goes through ``simulate_tokens``.  Tokens are ints, as sampling and
    ``load_dataset`` give them.
    """
    limit = 1 << total_input_width(dut)
    bos, eos, fits = vocab.bos, vocab.eos, min(limit, vocab.n_values)
    table: dict[int, dict] = {}  # value token -> its cycle
    reports: dict[tuple, CoverageReport | None] = {}
    out = []
    for seq in seqs:
        if len(seq) <= 2 or max(seq[1:-1]) >= limit:
            out.append(None)
            continue
        key = tuple(seq)
        if key not in reports:
            interior = key[1:-1]
            if (key[0] == bos and key[-1] == eos and len(interior) <= t_max
                    and all(0 <= t < fits for t in interior)):
                if set(interior) <= table.keys():
                    stim = Stimulus(tuple(table[t] for t in interior))
                else:
                    stim = validate_and_decode(dut, key, vocab, t_max)
                    table.update(zip(interior, stim.cycles))
                reports[key] = simulate(dut, stim)
            else:
                reports[key] = simulate_tokens(dut, seq, vocab, t_max)
        out.append(reports[key])
    return out


def encode(dut: DutModel, stim: Stimulus, vocab: Vocab, t_max: int) -> list[int]:
    """Exact inverse of validate_and_decode on valid inputs."""
    if not 1 <= len(stim.cycles) <= t_max:
        raise ValueError(f"stimulus length {len(stim.cycles)} outside 1..{t_max}")
    tokens = [vocab.bos]
    for i, cycle in enumerate(stim.cycles):
        value = 0
        shift = 0
        for port in dut.input_ports:
            v = cycle[port.name]
            if not 0 <= v < (1 << port.width):
                raise ValueError(f"cycle {i}: value {shown(v, JSON_SCALARS)} out of range "
                                 f"for port {shown(port.name)}")
            value |= v << shift
            shift += port.width
        if value >= vocab.n_values:
            raise ValueError(f"cycle {i}: packed value {shown(value, int)} exceeds vocabulary")
        tokens.append(value)
    tokens.append(vocab.eos)
    return tokens
