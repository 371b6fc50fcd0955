"""Binary FSK: the paper's 100 bps low-rate mode.

Zero and one map to 8 and 12 kHz tones — chosen above most human speech
so news/talk programs interfere little (section 3.4) — at 100 symbols per
second. The receiver is non-coherent: it compares Goertzel powers at the
two frequencies and picks the larger, eliminating phase/amplitude
estimation and making the design resilient to channel changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import (
    AUDIO_RATE_HZ,
    FSK_LOW_RATE_FREQS_HZ,
    FSK_LOW_RATE_SYMBOL_RATE,
)
from repro.dsp.goertzel import goertzel_power_many
from repro.dsp.windows import raised_cosine_edges
from repro.errors import ConfigurationError, DemodulationError
from repro.utils.validation import ensure_real


@dataclass
class BinaryFskModem:
    """2-FSK modulator/demodulator.

    Args:
        freq_zero_hz: tone for a 0 bit (8 kHz default).
        freq_one_hz: tone for a 1 bit (12 kHz default).
        symbol_rate: symbols (== bits) per second.
        sample_rate: audio sample rate.
        amplitude: tone amplitude in the device baseband.
        edge_fraction: fraction of the symbol ramped with raised-cosine
            shaping to limit keying splatter.
    """

    freq_zero_hz: float = FSK_LOW_RATE_FREQS_HZ[0]
    freq_one_hz: float = FSK_LOW_RATE_FREQS_HZ[1]
    symbol_rate: int = FSK_LOW_RATE_SYMBOL_RATE
    sample_rate: float = AUDIO_RATE_HZ
    amplitude: float = 1.0
    edge_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.freq_zero_hz == self.freq_one_hz:
            raise ConfigurationError("FSK tones must differ")
        for f in (self.freq_zero_hz, self.freq_one_hz):
            if not 0 < f < self.sample_rate / 2:
                raise ConfigurationError(f"tone {f} Hz outside (0, Nyquist)")
        if self.symbol_rate < 1:
            raise ConfigurationError("symbol_rate must be >= 1")
        if not 0.0 <= self.edge_fraction < 0.5:
            raise ConfigurationError("edge_fraction must be in [0, 0.5)")

    @property
    def samples_per_symbol(self) -> int:
        """Samples in one symbol period."""
        sps = self.sample_rate / self.symbol_rate
        if abs(sps - round(sps)) > 1e-9:
            raise ConfigurationError(
                f"sample_rate {self.sample_rate} must be an integer multiple "
                f"of symbol_rate {self.symbol_rate}"
            )
        return int(round(sps))

    @property
    def bit_rate(self) -> float:
        """Bits per second (equals the symbol rate for binary FSK)."""
        return float(self.symbol_rate)

    def modulate(self, bits: Sequence[int]) -> np.ndarray:
        """Render a bit sequence as an FSK audio waveform.

        Phase is continuous across symbol boundaries (CPFSK) — the
        hardware generates the drive by retuning one oscillator, so no
        phase jumps occur.
        """
        bits = np.asarray(list(bits), dtype=int)
        if bits.size == 0:
            raise ConfigurationError("bits must be non-empty")
        if np.any((bits != 0) & (bits != 1)):
            raise ConfigurationError("bits must be 0/1")
        sps = self.samples_per_symbol
        freqs = np.where(bits == 1, self.freq_one_hz, self.freq_zero_hz)
        inst_freq = np.repeat(freqs, sps)
        phase = 2.0 * np.pi * np.cumsum(inst_freq) / self.sample_rate
        waveform = self.amplitude * np.cos(phase)
        ramp = int(self.edge_fraction * sps)
        if ramp > 0:
            shaped = waveform.reshape(bits.size, sps) * raised_cosine_edges(sps, ramp)
            waveform = shaped.reshape(-1)
        return waveform

    def demodulate(self, audio: np.ndarray, n_bits: int) -> np.ndarray:
        """Non-coherent detection: larger Goertzel power wins.

        The ``argmax`` of :meth:`soft_powers` per symbol, so the decisions
        are bit-identical to detecting symbol by symbol.

        Args:
            audio: received audio, symbol-aligned at sample 0.
            n_bits: number of bits to detect; 0 gives an empty array.

        Raises:
            ConfigurationError: if ``n_bits`` is negative.
            DemodulationError: if the audio is shorter than ``n_bits``
                symbols.
        """
        return np.argmax(self.soft_powers(audio, n_bits), axis=1)

    def soft_powers(self, audio: np.ndarray, n_bits: int) -> np.ndarray:
        """Per-symbol (P_zero, P_one) tone powers, for MRC-style combining.

        The audio is reshaped once into a ``(symbols, samples)`` stack and
        projected with one stacked Goertzel call; each row is
        bit-identical to a per-symbol call on that block. Samples past
        ``n_bits`` symbols are ignored.

        Returns:
            Array of shape ``(n_bits, 2)``.
        """
        audio = ensure_real(audio, "audio")
        if n_bits < 0:
            raise ConfigurationError(f"n_bits must be >= 0, got {n_bits}")
        sps = self.samples_per_symbol
        if audio.size < n_bits * sps:
            raise DemodulationError(
                f"audio has {audio.size} samples, need {n_bits * sps}"
            )
        if n_bits == 0:
            return np.empty((0, 2))
        blocks = audio[: n_bits * sps].reshape(n_bits, sps)
        freqs = (self.freq_zero_hz, self.freq_one_hz)
        return goertzel_power_many(blocks, freqs, self.sample_rate)
