"""RDS encoder: program metadata -> 57 kHz-ready baseband waveform."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.constants import MPX_RATE_HZ, RDS_BITRATE_BPS
from repro.errors import ConfigurationError
from repro.fm.rds.bitstream import biphase_waveform, differential_encode
from repro.fm.rds.groups import Group, groups_for_program


class RdsEncoder:
    """Encode station metadata into the RDS baseband bitstream.

    Args:
        pi_code: 16-bit program identification code.
        ps_name: up-to-8-character station name shown on receivers.
        radiotext: optional up-to-64-character message (group 2A).
        program_type: 5-bit PTY code.
    """

    def __init__(
        self,
        pi_code: int,
        ps_name: str,
        radiotext: str = "",
        program_type: int = 0,
    ) -> None:
        if not 0 <= pi_code < (1 << 16):
            raise ConfigurationError("pi_code must be a 16-bit integer")
        self.pi_code = pi_code
        self.ps_name = ps_name
        self.radiotext = radiotext
        self.program_type = program_type

    def groups(self) -> List[Group]:
        """The repeating group schedule for this program."""
        return groups_for_program(
            self.pi_code, self.ps_name, self.radiotext, self.program_type
        )

    def bits(self, repetitions: int = 1) -> np.ndarray:
        """Raw (pre-differential) bitstream for ``repetitions`` schedules."""
        if repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        bits: List[int] = []
        for _ in range(repetitions):
            for group in self.groups():
                for block in group.to_blocks():
                    bits.extend((block >> (25 - k)) & 1 for k in range(26))
        return np.asarray(bits, dtype=int)

    def baseband(
        self,
        duration_s: float,
        sample_rate: float = MPX_RATE_HZ,
    ) -> np.ndarray:
        """Biphase baseband waveform spanning at least ``duration_s``.

        The group schedule repeats until the duration is covered, then the
        waveform is truncated to the exact sample count, mirroring a
        continuously-running broadcast encoder.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        n_samples = int(round(duration_s * sample_rate))
        schedule_bits = self.bits(repetitions=1).size
        bits_needed = int(np.ceil(duration_s * RDS_BITRATE_BPS)) + 1
        repetitions = int(np.ceil(bits_needed / schedule_bits))
        raw = self.bits(repetitions=repetitions)
        encoded = differential_encode(raw)
        waveform = biphase_waveform(encoded, sample_rate)
        if waveform.size < n_samples:
            # Loop the waveform; the schedule already repeats so the seam
            # only costs a couple of corrupted groups, like a real retune.
            reps = int(np.ceil(n_samples / waveform.size))
            waveform = np.tile(waveform, reps)
        return waveform[:n_samples]
