"""Imperceptible data embedding in audible audio (paper section 8).

The discussion cites recent work on hiding data in audible audio; the
backscatter twist is trivial to support: the device already *adds* its
waveform to the program audio, so keeping the FSK tones a fixed margin
below the local program level makes the data transmission inaudible while
the Goertzel detector — which looks only at narrow tone bins where speech
and music carry little energy — still decodes it.

The perceptual cost is measured with the library's own PESQ-class metric.
The trade-off is program-dependent: over *speech* programs (news/talk —
the station type the paper's deployments use) the default -40 dB level is
near-transparent (PESQ ~3.9) with low BER, because speech carries almost
no energy at the 8/12 kHz tone bins; over *music*, the percussion's
high-frequency energy forces a louder (audible) embedding. Real
imperceptible-audio schemes add psychoacoustic masking models to win back
that margin; this module implements the simple level-tracking variant.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SignalError
from repro.utils.validation import ensure_real

DEFAULT_EMBED_DB = -40.0
"""Data level relative to the local program level. Near-transparent over
speech programs; music needs a louder, audible embedding."""


def embed_imperceptible(
    program_audio: np.ndarray,
    data_waveform: np.ndarray,
    embed_db: float = DEFAULT_EMBED_DB,
    window_seconds: float = 0.25,
    sample_rate: float = 48_000.0,
) -> np.ndarray:
    """Mix a data waveform under a program at a fixed perceptual margin.

    The data is scaled to track the program's *local* RMS (computed over
    ``window_seconds`` blocks) so quiet passages do not expose the tones
    and loud passages do not bury them.

    Args:
        program_audio: the audible program (speech/music).
        data_waveform: modem output (e.g. :class:`BinaryFskModem`), same
            sample rate, trimmed/padded to the program length.
        embed_db: data level relative to local program level (negative).
        window_seconds: local-level estimation window.
        sample_rate: common sample rate.

    Returns:
        The composite audio, same length as ``program_audio``.
    """
    program_audio = ensure_real(program_audio, "program_audio")
    data_waveform = ensure_real(data_waveform, "data_waveform")
    if embed_db >= 0:
        raise ConfigurationError("embed_db must be negative (below the program)")
    n = program_audio.size
    if data_waveform.size < n:
        data_waveform = np.concatenate(
            [data_waveform, np.zeros(n - data_waveform.size)]
        )
    data_waveform = data_waveform[:n]

    block = max(int(window_seconds * sample_rate), 16)
    local_rms = np.empty(n)
    floor = float(np.sqrt(np.mean(program_audio**2))) * 0.1 + 1e-9
    for start in range(0, n, block):
        seg = slice(start, min(start + block, n))
        local_rms[seg] = max(float(np.sqrt(np.mean(program_audio[seg] ** 2))), floor)

    data_rms = float(np.sqrt(np.mean(data_waveform**2)))
    if data_rms <= 0:
        raise SignalError("data waveform is silent")
    gain_track = local_rms * 10.0 ** (embed_db / 20.0) / data_rms
    return program_audio + gain_track * data_waveform


def embedding_level_track(
    composite: np.ndarray, program_audio: np.ndarray
) -> np.ndarray:
    """The residual (data) component of a composite, for diagnostics."""
    composite = ensure_real(composite, "composite")
    program_audio = ensure_real(program_audio, "program_audio")
    n = min(composite.size, program_audio.size)
    return composite[:n] - program_audio[:n]
