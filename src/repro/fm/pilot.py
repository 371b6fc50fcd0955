"""19 kHz stereo-pilot detection.

A stereo receiver enables its stereo decoder only when it detects the
19 kHz pilot with sufficient power (paper sections 3.2 and 5.3: at low FM
power "receivers cannot decode the pilot signal and default back to mono
mode"). Detection compares pilot-band power against the neighboring empty
16-18 kHz guard band.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MPX_RATE_HZ, PILOT_FREQ_HZ
from repro.dsp.spectrum import band_powers
from repro.utils.validation import ensure_positive, ensure_real_signal

PILOT_DETECT_THRESHOLD_DB = 6.0
"""Pilot-to-guard-band power ratio above which the pilot is declared."""


def pilot_power_ratio_db(mpx: np.ndarray, mpx_rate: float = MPX_RATE_HZ):
    """Ratio (dB) of 19 kHz pilot-band power to 16-18 kHz guard power.

    Accepts a 1-D MPX (returns a float) or a 2-D ``(batch, samples)``
    stack (returns a ``(batch,)`` array, each element bit-identical to
    the scalar computation on that row) — the batched sweep backend
    gates every grid point's stereo decoder in one pass.
    """
    mpx = ensure_real_signal(mpx, "mpx")
    mpx_rate = ensure_positive(mpx_rate, "mpx_rate")
    pilot, guard = band_powers(
        mpx, mpx_rate, [(PILOT_FREQ_HZ - 250.0, PILOT_FREQ_HZ + 250.0), (16e3, 18e3)]
    )
    if mpx.ndim == 1:
        return float(10.0 * np.log10(max(pilot, 1e-30) / max(guard, 1e-30)))
    return 10.0 * np.log10(np.maximum(pilot, 1e-30) / np.maximum(guard, 1e-30))


def detect_pilot(
    mpx: np.ndarray,
    mpx_rate: float = MPX_RATE_HZ,
    threshold_db: float = PILOT_DETECT_THRESHOLD_DB,
):
    """True when the 19 kHz pilot is detectably present in the MPX.

    A bool for 1-D input; a ``(batch,)`` bool array for a 2-D stack.
    """
    return pilot_power_ratio_db(mpx, mpx_rate) > threshold_db
