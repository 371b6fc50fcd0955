"""Analytic-signal helpers for single-sideband processing.

The paper's footnote 2 points to single-sideband backscatter (as in
Interscatter) to remove the mirror ``cos(A - B)`` mixing product. SSB
synthesis needs the Hilbert transform of the subcarrier waveform, wrapped
here with validation.

``scipy.signal`` is imported inside the functions that call it: it costs
about a second per process, which figures that never call them skip.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ensure_real


def analytic_signal(signal: np.ndarray) -> np.ndarray:
    """Complex analytic signal (signal + j * Hilbert(signal))."""
    from scipy.signal import hilbert

    signal = ensure_real(signal, "signal")
    return hilbert(signal)


def hilbert_transform(signal: np.ndarray) -> np.ndarray:
    """Hilbert transform (the imaginary part of the analytic signal)."""
    return np.imag(analytic_signal(signal))


def envelope(signal: np.ndarray) -> np.ndarray:
    """Instantaneous amplitude envelope via the analytic signal."""
    return np.abs(analytic_signal(signal))
