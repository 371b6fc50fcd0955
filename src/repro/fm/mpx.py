"""Composite (MPX) baseband construction and ideal decomposition.

The FM baseband of a stereo broadcast (paper Fig. 3) is

    mpx(t) = a_mono * (L+R)(t)
           + a_pilot * cos(2 pi 19k t)
           + a_stereo * (L-R)(t) * cos(2 pi 38k t)
           + a_rds * rds(t) * cos(2 pi 57k t)

with the 38 kHz and 57 kHz carriers phase-locked to the pilot. The MPX is
normalized to [-1, 1] before FM modulation so the deviation budget is
respected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.constants import (
    AUDIO_RATE_HZ,
    MONO_AUDIO_HIGH_HZ,
    MPX_RATE_HZ,
    PILOT_FREQ_HZ,
    RDS_SUBCARRIER_HZ,
    STEREO_SUBCARRIER_HZ,
)
from repro.dsp.filters import bandpass_fir, design_lowpass_fir, filter_signal
from repro.dsp.resample import resample_by_ratio
from repro.errors import ConfigurationError
from repro.utils.validation import ensure_equal_length, ensure_real


@dataclass
class MpxComponents:
    """Inputs to the MPX composer.

    Attributes:
        left: left audio channel at ``audio_rate``.
        right: right audio channel; ``None`` broadcasts mono (and, unless
            ``force_pilot`` is set, omits the pilot).
        rds_bipolar: optional RDS baseband (biphase symbols, +/-1-ish) at
            ``mpx_rate``; ``None`` omits the RDS subcarrier.
        audio_rate: sample rate of the audio channels.
        mpx_rate: output composite sample rate.
        stereo: if True and ``right`` is provided, emit pilot + L-R.
        force_pilot: emit the 19 kHz pilot even for mono content — the
            paper's mono-to-stereo backscatter trick (section 3.3.1).
    """

    left: np.ndarray
    right: Optional[np.ndarray] = None
    rds_bipolar: Optional[np.ndarray] = None
    audio_rate: float = AUDIO_RATE_HZ
    mpx_rate: float = MPX_RATE_HZ
    stereo: bool = True
    force_pilot: bool = False


# Deviation budget fractions (typical US broadcast practice): 90% program,
# 9% pilot, ~4.5% RDS (RDS rides on top; total stays within deviation after
# normalization).
MONO_FRACTION = 0.90
PILOT_FRACTION_MPX = 0.09
RDS_FRACTION = 0.045


def compose_mpx(components: MpxComponents) -> np.ndarray:
    """Build the composite MPX baseband signal, normalized to [-1, 1].

    Returns:
        Real array at ``components.mpx_rate``.

    Raises:
        SignalError: on mismatched channel lengths.
        ConfigurationError: if the MPX rate cannot carry the 57 kHz RDS
            subcarrier.
    """
    left = ensure_real(components.left, "left")
    if components.mpx_rate < 2 * (RDS_SUBCARRIER_HZ + 3e3):
        raise ConfigurationError(
            f"mpx_rate {components.mpx_rate} too low for the 57 kHz subcarrier"
        )

    audio_lp = design_lowpass_fir(MONO_AUDIO_HIGH_HZ, components.audio_rate, 257)
    left = filter_signal(audio_lp, left)

    if components.right is not None:
        right = ensure_real(components.right, "right")
        ensure_equal_length(left, right, "left/right")
        right = filter_signal(audio_lp, right)
    else:
        right = None

    if right is not None and components.stereo:
        mono_audio = 0.5 * (left + right)
        diff_audio = 0.5 * (left - right)
        want_pilot = True
    else:
        mono_audio = left if right is None else 0.5 * (left + right)
        diff_audio = None
        want_pilot = components.force_pilot

    mono_mpx = resample_by_ratio(mono_audio, components.audio_rate, components.mpx_rate)
    n = mono_mpx.size
    t = np.arange(n) / components.mpx_rate

    mpx = MONO_FRACTION * mono_mpx
    if want_pilot:
        mpx = mpx + PILOT_FRACTION_MPX * np.cos(2.0 * np.pi * PILOT_FREQ_HZ * t)
    if diff_audio is not None:
        diff_mpx = resample_by_ratio(diff_audio, components.audio_rate, components.mpx_rate)
        diff_mpx = diff_mpx[:n]
        # 38 kHz carrier phase-locked to the pilot (2x frequency, 0 phase).
        carrier = np.cos(2.0 * np.pi * STEREO_SUBCARRIER_HZ * t)
        mpx = mpx + MONO_FRACTION * diff_mpx * carrier
    if components.rds_bipolar is not None:
        rds = ensure_real(components.rds_bipolar, "rds_bipolar")
        if rds.size < n:
            rds = np.concatenate([rds, np.zeros(n - rds.size)])
        carrier57 = np.cos(2.0 * np.pi * RDS_SUBCARRIER_HZ * t)
        mpx = mpx + RDS_FRACTION * rds[:n] * carrier57

    peak = float(np.max(np.abs(mpx)))
    if peak > 1.0:
        mpx = mpx / peak
    return mpx


def decompose_mpx(mpx: np.ndarray, mpx_rate: float = MPX_RATE_HZ) -> dict:
    """Ideal (filter-bank) decomposition of an MPX signal for analysis.

    Not a receiver — receivers live in :mod:`repro.fm.stereo` and use pilot
    recovery. This helper splits an MPX into its spectral constituents for
    tests and the Fig. 5 stereo-utilization survey.

    Returns:
        dict with keys ``mono`` (0-15 kHz), ``pilot`` (19 kHz band),
        ``stereo_rf`` (23-53 kHz band, still on its carrier) and ``rds_rf``
        (55-59 kHz band), all at ``mpx_rate``.
    """
    mpx = ensure_real(mpx, "mpx")
    # The four filters share the forward transform of the MPX (one per
    # FFT length their tap counts need).
    spectra: Dict[int, np.ndarray] = {}
    bands = {
        "mono": design_lowpass_fir(15e3, mpx_rate, 513),
        "pilot": bandpass_fir(18.5e3, 19.5e3, mpx_rate, 1025),
        "stereo_rf": bandpass_fir(23e3, 53e3, mpx_rate, 513),
        "rds_rf": bandpass_fir(55e3, 59e3, mpx_rate, 1025),
    }
    return {name: filter_signal(taps, mpx, spectra=spectra) for name, taps in bands.items()}
