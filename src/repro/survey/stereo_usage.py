"""Stereo-stream utilization by program format (Fig. 5).

The paper records four stations for 24 hours and compares the power in the
stereo (L-R) band against the power in the empty 16-18 kHz guard band.
News/talk stations barely use the stereo stream (speech is identical in L
and R); music stations fill it. We regenerate the statistic by composing
MPX signals from the synthetic program materials and measuring the same
band-power ratio over many snapshots.
"""

from __future__ import annotations

import numpy as np

from repro.audio.music import PROGRAM_TYPES, program_material
from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.dsp.spectrum import band_powers
from repro.errors import ConfigurationError
from repro.fm.mpx import MpxComponents, compose_mpx
from repro.utils.rand import RngLike, as_generator, child_generator


def stereo_to_noise_ratio_db(mpx: np.ndarray, mpx_rate: float = MPX_RATE_HZ) -> float:
    """P(23-53 kHz stereo band) over P(16-18 kHz guard band), in dB."""
    stereo, guard = band_powers(mpx, mpx_rate, [(23e3, 53e3), (16e3, 18e3)])
    return float(10.0 * np.log10(max(stereo, 1e-30) / max(guard, 1e-30)))


def stereo_to_noise_ratios_db(
    program: str,
    n_snapshots: int = 20,
    snapshot_seconds: float = 2.0,
    rng: RngLike = None,
) -> np.ndarray:
    """Distribution of the Fig. 5 ratio for one program format.

    Args:
        program: ``news`` / ``mixed`` / ``pop`` / ``rock``.
        n_snapshots: independent program snapshots (stand-ins for the
            paper's 24 hours of samples).
        snapshot_seconds: duration of each snapshot.
        rng: seed or Generator.

    Returns:
        Array of ratios in dB, one per snapshot.
    """
    if program not in PROGRAM_TYPES:
        raise ConfigurationError(f"program must be one of {PROGRAM_TYPES}")
    if n_snapshots < 1:
        raise ConfigurationError("n_snapshots must be >= 1")
    gen = as_generator(rng)
    ratios = []
    for i in range(n_snapshots):
        left, right = program_material(
            program, snapshot_seconds, AUDIO_RATE_HZ, child_generator(gen, program, i)
        )
        mpx = compose_mpx(MpxComponents(left=left, right=right))
        ratios.append(stereo_to_noise_ratio_db(mpx))
    return np.asarray(ratios)
