"""A complete simulated FM broadcast station.

Wraps program-material generation, MPX composition, RDS and FM modulation
into one object, standing in for the paper's USRP that replays recorded
station audio (section 5.2) and for the real Seattle stations of
section 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.audio.music import PROGRAM_TYPES, program_material
from repro.constants import (
    AUDIO_RATE_HZ,
    FM_MAX_DEVIATION_HZ,
    MPX_RATE_HZ,
)
from repro.errors import ConfigurationError
from repro.fm.modulator import fm_modulate
from repro.fm.mpx import MpxComponents, compose_mpx
from repro.fm.rds.encoder import RdsEncoder
from repro.utils.rand import RngLike, as_generator, child_generator


@dataclass
class StationConfig:
    """Configuration of a simulated FM station.

    Attributes:
        program: one of ``news``, ``mixed``, ``pop``, ``rock`` — selects
            the synthetic program material; or ``silence`` for the
            unmodulated-carrier station used in the Fig. 6 micro-bench.
        stereo: broadcast in stereo (pilot + L-R) or mono.
        carrier_freq_hz: nominal channel center (bookkeeping only; the
            waveform is complex baseband).
        deviation_hz: peak FM deviation.
        audio_rate: program audio sample rate.
        mpx_rate: composite / IQ sample rate.
        rds: optional RDS encoder to include the 57 kHz subcarrier.
    """

    program: str = "news"
    stereo: bool = True
    carrier_freq_hz: float = 91.5e6
    deviation_hz: float = FM_MAX_DEVIATION_HZ
    audio_rate: float = AUDIO_RATE_HZ
    mpx_rate: float = MPX_RATE_HZ
    rds: Optional[RdsEncoder] = None

    def __post_init__(self) -> None:
        if self.program not in PROGRAM_TYPES + ("silence",):
            raise ConfigurationError(
                f"program must be one of {PROGRAM_TYPES + ('silence',)}, got {self.program!r}"
            )


class FMStation:
    """Generates the complex-baseband waveform of a broadcast FM station.

    Args:
        config: station parameters.
        rng: seed or Generator for the program-material synthesis.
    """

    def __init__(self, config: StationConfig = StationConfig(), rng: RngLike = None) -> None:
        self.config = config
        self._rng = as_generator(rng)

    def program_audio(self, duration_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Synthesize ``(left, right)`` program audio for one transmission."""
        if self.config.program == "silence":
            n = int(round(duration_s * self.config.audio_rate))
            zeros = np.zeros(n)
            return zeros, zeros.copy()
        return program_material(
            self.config.program,
            duration_s,
            self.config.audio_rate,
            child_generator(self._rng, "program", self.config.program),
        )

    def mpx(self, duration_s: float) -> np.ndarray:
        """Composite baseband for ``duration_s`` seconds of program."""
        left, right = self.program_audio(duration_s)
        if self.config.program == "silence":
            # The Fig. 6/7 micro-benchmark station: FMaudio = 0, a truly
            # unmodulated carrier — no program, no pilot.
            n = int(round(duration_s * self.config.mpx_rate))
            return np.zeros(n)
        rds_wave = None
        if self.config.rds is not None:
            rds_wave = self.config.rds.baseband(duration_s, self.config.mpx_rate)
        components = MpxComponents(
            left=left,
            right=right if self.config.stereo else None,
            rds_bipolar=rds_wave,
            audio_rate=self.config.audio_rate,
            mpx_rate=self.config.mpx_rate,
            stereo=self.config.stereo,
        )
        return compose_mpx(components)

    def transmit(self, duration_s: float) -> np.ndarray:
        """Complex envelope of the station's RF output (unit amplitude)."""
        return fm_modulate(
            self.mpx(duration_s),
            sample_rate=self.config.mpx_rate,
            deviation_hz=self.config.deviation_hz,
        )

    def transmit_mpx_pair(self, duration_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(iq, mpx)`` so callers can reuse the composite."""
        mpx = self.mpx(duration_s)
        iq = fm_modulate(
            mpx, sample_rate=self.config.mpx_rate, deviation_hz=self.config.deviation_hz
        )
        return iq, mpx
