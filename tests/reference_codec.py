"""The one-sequence scoring rule that ``codec.simulate_block`` replaced, kept as a reference.

A sequence that does not decode scores None; any other scores the coverage
its stimulus reaches in simulation.  Tests require ``simulate_block`` to give
each row of a block what :func:`simulate_tokens` gives it on its own.
"""

from covstim.codec import CodecError, validate_and_decode
from covstim.sim import simulate


def simulate_tokens(dut, tokens, vocab, t_max):
    """The coverage of the stimulus the tokens decode to; None (score 0) if they do not."""
    try:
        stim = validate_and_decode(dut, tokens, vocab, t_max)
    except CodecError:
        return None
    return simulate(dut, stim)
