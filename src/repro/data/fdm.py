"""FDM-4FSK: the paper's 1.6 and 3.2 kbps high-rate modes.

Sixteen tones between 800 Hz and 12.8 kHz are split into four consecutive
groups of four; each group signals 2 bits via 4-FSK, so a symbol carries
8 bits while only four tones are active at once (section 3.4 — keeping
transmitter complexity low). Symbol rates of 200 and 400 Hz give 1.6 and
3.2 kbps; the paper found BER degrades sharply above 400 symbols/s, making
3.2 kbps the maximum rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import (
    AUDIO_RATE_HZ,
    FDM_NUM_GROUPS,
    FDM_NUM_TONES,
    FDM_TONE_LOW_HZ,
)
from repro.data.bits import bits_to_symbols, symbols_to_bits
from repro.dsp.goertzel import goertzel_power_many
from repro.dsp.windows import raised_cosine_edges
from repro.errors import ConfigurationError, DemodulationError
from repro.utils.validation import ensure_real

BITS_PER_GROUP = 2
BITS_PER_SYMBOL = FDM_NUM_GROUPS * BITS_PER_GROUP


@dataclass
class FdmFskModem:
    """Frequency-division-multiplexed 4-FSK modem.

    Args:
        symbol_rate: 200 (1.6 kbps) or 400 (3.2 kbps); other rates are
            allowed for ablation studies.
        sample_rate: audio sample rate.
        amplitude: peak amplitude of the four-tone sum.
        tone_spacing_hz: spacing between adjacent tones (800 Hz default,
            so the tones land on 800, 1600, ..., 12800 Hz).
        edge_fraction: raised-cosine symbol edge fraction.
    """

    symbol_rate: int = 200
    sample_rate: float = AUDIO_RATE_HZ
    amplitude: float = 1.0
    tone_spacing_hz: float = FDM_TONE_LOW_HZ
    edge_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.symbol_rate < 1:
            raise ConfigurationError("symbol_rate must be >= 1")
        top = self.tone_spacing_hz * FDM_NUM_TONES
        if top >= self.sample_rate / 2:
            raise ConfigurationError(
                f"highest tone {top} Hz must be below Nyquist"
            )
        if not 0.0 <= self.edge_fraction < 0.5:
            raise ConfigurationError("edge_fraction must be in [0, 0.5)")

    @property
    def tones_hz(self) -> np.ndarray:
        """All sixteen tone frequencies."""
        return self.tone_spacing_hz * np.arange(1, FDM_NUM_TONES + 1)

    def group_tones_hz(self, group: int) -> np.ndarray:
        """The four candidate frequencies of one group (0-3)."""
        if not 0 <= group < FDM_NUM_GROUPS:
            raise ConfigurationError(f"group must be 0-3, got {group}")
        return self.tones_hz[4 * group : 4 * group + 4]

    @property
    def samples_per_symbol(self) -> int:
        """Samples in one symbol period."""
        sps = self.sample_rate / self.symbol_rate
        if abs(sps - round(sps)) > 1e-9:
            raise ConfigurationError(
                "sample_rate must be an integer multiple of symbol_rate"
            )
        return int(round(sps))

    @property
    def bit_rate(self) -> float:
        """Bits per second: 8 bits per symbol."""
        return float(self.symbol_rate * BITS_PER_SYMBOL)

    def modulate(self, bits: Sequence[int]) -> np.ndarray:
        """Render bits as the four-tone-per-symbol FDM waveform."""
        bits = np.asarray(list(bits), dtype=int)
        if bits.size == 0:
            raise ConfigurationError("bits must be non-empty")
        if np.any((bits != 0) & (bits != 1)):
            raise ConfigurationError("bits must be 0/1")
        symbols = bits_to_symbols(bits, BITS_PER_SYMBOL)
        sps = self.samples_per_symbol
        t = np.arange(sps) / self.sample_rate
        envelope = raised_cosine_edges(sps, int(self.edge_fraction * sps))
        waveform = np.empty(symbols.size * sps)
        for i, symbol in enumerate(symbols):
            chunk = np.zeros(sps)
            for group in range(FDM_NUM_GROUPS):
                # MSB-first: group 0 carries the two most significant bits.
                shift = BITS_PER_GROUP * (FDM_NUM_GROUPS - 1 - group)
                idx = (int(symbol) >> shift) & 0x3
                freq = self.group_tones_hz(group)[idx]
                chunk += np.cos(2.0 * np.pi * freq * t)
            waveform[i * sps : (i + 1) * sps] = envelope * chunk
        peak = float(np.max(np.abs(waveform)))
        if peak > 0:
            waveform *= self.amplitude / peak
        return waveform

    def demodulate(self, audio: np.ndarray, n_bits: int) -> np.ndarray:
        """Per-group non-coherent 4-FSK detection.

        The audio is reshaped once into a ``(symbols, samples)`` stack and
        each tone group is detected with one stacked Goertzel call, the
        strongest of its four tones winning per symbol. The decisions are
        bit-identical to detecting symbol by symbol, since every row's
        powers are. Samples past ``n_bits / 8`` symbols are ignored.

        Args:
            audio: received audio, symbol-aligned at sample 0.
            n_bits: number of bits to detect, a positive multiple of 8.

        Raises:
            ConfigurationError: if ``n_bits`` is not a positive multiple of 8.
            DemodulationError: if the audio is shorter than the symbols.
        """
        audio = ensure_real(audio, "audio")
        if n_bits <= 0 or n_bits % BITS_PER_SYMBOL != 0:
            raise ConfigurationError(
                f"n_bits must be a positive multiple of {BITS_PER_SYMBOL}"
            )
        n_symbols = n_bits // BITS_PER_SYMBOL
        sps = self.samples_per_symbol
        if audio.size < n_symbols * sps:
            raise DemodulationError(
                f"audio has {audio.size} samples, need {n_symbols * sps}"
            )
        blocks = audio[: n_symbols * sps].reshape(n_symbols, sps)
        symbols = np.zeros(n_symbols, dtype=int)
        for group in range(FDM_NUM_GROUPS):
            powers = goertzel_power_many(
                blocks, self.group_tones_hz(group), self.sample_rate
            )
            shift = BITS_PER_GROUP * (FDM_NUM_GROUPS - 1 - group)
            symbols |= np.argmax(powers, axis=1) << shift
        return symbols_to_bits(symbols, BITS_PER_SYMBOL)
