"""Goertzel tone-power estimation.

The paper's receiver is a non-coherent FSK detector: it compares received
power at candidate tone frequencies and picks the strongest (section 3.4).
The Goertzel algorithm computes power at a single frequency in O(N) without
an FFT, matching the paper's emphasis on computational simplicity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import ensure_positive, ensure_real, ensure_real_signal


def goertzel_power(signal: np.ndarray, freq_hz: float, sample_rate: float) -> float:
    """Power of ``signal`` at a single frequency via the Goertzel recursion.

    Args:
        signal: real 1-D block (one symbol's worth of samples).
        freq_hz: analysis frequency; need not be an exact DFT bin.
        sample_rate: sample rate of ``signal``.

    Returns:
        Squared magnitude of the DTFT of the block at ``freq_hz``,
        normalized by block length so different block sizes are comparable.
    """
    signal = ensure_real(signal, "signal")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    if not 0 <= freq_hz <= sample_rate / 2:
        raise ConfigurationError(
            f"freq_hz must be within [0, Nyquist={sample_rate / 2}], got {freq_hz}"
        )
    n = signal.size
    omega = 2.0 * np.pi * freq_hz / sample_rate
    # Vectorized equivalent of the Goertzel recursion: project onto the
    # complex exponential. Numerically identical for our block sizes and
    # much faster in numpy than a per-sample Python loop.
    phase = np.exp(-1j * omega * np.arange(n))
    dft = np.dot(signal, phase)
    return float(np.abs(dft) ** 2) / n


def goertzel_power_many(
    signal: np.ndarray, freqs_hz: Sequence[float], sample_rate: float
) -> np.ndarray:
    """Power at several frequencies at once, for one block or a stack.

    Equivalent to calling :func:`goertzel_power` per frequency but computes
    the projection matrix in one shot. A 2-D ``(blocks, n)`` stack — e.g.
    a symbol-aligned waveform reshaped to ``(symbols, samples)`` — shares
    that one matrix across every block; each row's powers are
    bit-identical to a 1-D call on that row, because ``phases @
    blocks[..., None]`` runs the same per-block matrix-vector product
    (same BLAS kernel, same summation order) as ``phases @ block``.

    Args:
        signal: real 1-D block, or a real 2-D stack of equal-length
            blocks along the last axis.
        freqs_hz: iterable of analysis frequencies.
        sample_rate: sample rate of ``signal``.

    Returns:
        Powers in the order given: shape ``(len(freqs_hz),)`` for a 1-D
        block, ``(blocks, len(freqs_hz))`` for a stack.
    """
    signal = ensure_real_signal(signal, "signal")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    freqs = np.asarray(list(freqs_hz), dtype=float)
    if freqs.size == 0:
        raise ConfigurationError("freqs_hz must contain at least one frequency")
    if np.any(freqs < 0) or np.any(freqs > sample_rate / 2):
        raise ConfigurationError("all frequencies must lie within [0, Nyquist]")
    n = signal.shape[-1]
    omegas = 2.0 * np.pi * freqs / sample_rate
    phases = np.exp(-1j * np.outer(omegas, np.arange(n)))
    # Keep the matrix-vector form per block: a single (blocks, n) @ (n, k)
    # product would run a different BLAS kernel and reorder the sums.
    dfts = (phases @ signal[..., None])[..., 0]
    return np.abs(dfts) ** 2 / n
