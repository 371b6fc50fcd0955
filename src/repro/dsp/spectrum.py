"""Spectral estimation helpers: Welch PSD, band power, and tone SNR.

Figure 6 of the paper computes SNR as the power at the transmitted tone
frequency divided by the summed power at all other audio frequencies;
:func:`tone_snr_db` reproduces exactly that estimator.

``scipy.signal`` is imported inside the functions that call it: it costs
about a second per process, which figures that never call them skip.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.dsp.plan_cache import cached_plan
from repro.errors import ConfigurationError, SignalError
from repro.utils.validation import ensure_positive, ensure_real_signal


def _welch_window(nperseg: int) -> np.ndarray:
    """The Hann segment window Welch would build internally, cached.

    ``scipy.signal.welch`` resolves a window *name* to an array on every
    call; passing the pre-built array through the DSP plan cache skips
    that per-call synthesis while producing bit-identical spectra (the
    array is exactly ``get_window("hann", nperseg)``).
    """
    from scipy.signal import get_window

    return cached_plan(
        ("welch_window", "hann", int(nperseg)),
        lambda: get_window("hann", int(nperseg)),
    )


def power_spectrum(
    signal: np.ndarray, sample_rate: float, nperseg: int = 4096
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch power spectral density of a real signal.

    Args:
        signal: real input; 1-D, or 2-D ``(batch, samples)`` to estimate a
            stack of waveforms along the last axis in one pass (each row
            bit-identical to estimating it alone — the batched sweep
            backend's pilot detection relies on this).
        sample_rate: sample rate in Hz.
        nperseg: Welch segment length (clipped to the signal length).

    Returns:
        ``(freqs_hz, psd)`` arrays; ``psd`` carries the batch axis when
        the input does.
    """
    from scipy.signal import welch

    signal = ensure_real_signal(signal, "signal")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    nperseg = int(min(nperseg, signal.shape[-1]))
    freqs, psd = welch(
        signal,
        fs=sample_rate,
        window=_welch_window(nperseg),
        nperseg=nperseg,
        axis=-1,
    )
    return freqs, psd


def band_powers(
    signal: np.ndarray,
    sample_rate: float,
    bands: Sequence[Tuple[float, float]],
    nperseg: int = 4096,
) -> List:
    """Total power of ``signal`` within each ``(low_hz, high_hz)`` band.

    Every band is integrated over one Welch PSD, so a caller comparing
    several bands of one signal (a pilot against its guard band, a tone
    against the audio band) estimates the spectrum once. Integrating the
    PSD makes the powers robust to spectral leakage from strong
    out-of-band components.

    Returns:
        One entry per band, in order: a float for 1-D input, a
        ``(batch,)`` array of per-row powers for 2-D ``(batch, samples)``
        input.

    Raises:
        ConfigurationError: on an inverted band or one that holds no PSD
            bin.
        SignalError: if ``signal`` is too short to give two PSD bins.
    """
    for low_hz, high_hz in bands:
        if high_hz <= low_hz:
            raise ConfigurationError(f"high_hz ({high_hz}) must exceed low_hz ({low_hz})")
    freqs, psd = power_spectrum(signal, sample_rate, nperseg)
    if freqs.size < 2:
        raise SignalError(
            f"signal must be long enough for two PSD bins, got {freqs.size} "
            f"from {np.shape(signal)[-1]} sample(s)"
        )
    df = freqs[1] - freqs[0]
    powers = []
    for low_hz, high_hz in bands:
        mask = (freqs >= low_hz) & (freqs <= high_hz)
        if not np.any(mask):
            raise ConfigurationError(
                f"band [{low_hz}, {high_hz}] Hz contains no PSD bins at fs={sample_rate}"
            )
        if psd.ndim == 1:
            powers.append(float(np.sum(psd[mask]) * df))
        else:
            # Welch returns a strided view, and its masked columns come
            # out column-major, where a last-axis sum runs sequentially;
            # contiguous rows get the 1-D pairwise sum, so each row's
            # power is bit-identical to the row's own 1-D power.
            rows = np.ascontiguousarray(psd[..., mask])
            powers.append(np.sum(rows, axis=-1) * df)
    return powers


def band_power(
    signal: np.ndarray,
    sample_rate: float,
    low_hz: float,
    high_hz: float,
    nperseg: int = 4096,
):
    """Total power of ``signal`` within ``[low_hz, high_hz]``.

    The one-band case of :func:`band_powers`.

    Returns:
        A float for 1-D input; a ``(batch,)`` array of per-row band
        powers for 2-D ``(batch, samples)`` input.
    """
    return band_powers(signal, sample_rate, [(low_hz, high_hz)], nperseg)[0]


def tone_snr_db(
    signal: np.ndarray,
    sample_rate: float,
    tone_hz: float,
    tone_halfwidth_hz: float = 100.0,
    band_low_hz: float = 100.0,
    band_high_hz: float = 15_000.0,
) -> float:
    """SNR of a tone against all other in-band audio power, in dB.

    This is the Fig. 6 estimator: ``P_tone / (sum_f P_f - P_tone)`` where
    the sum runs over the audio band.

    Args:
        signal: received real audio.
        sample_rate: audio sample rate.
        tone_hz: frequency of the transmitted tone.
        tone_halfwidth_hz: half-width of the window counted as "the tone".
        band_low_hz: lower edge of the audio band for the noise sum.
        band_high_hz: upper edge of the audio band for the noise sum.

    Returns:
        SNR in dB; large and positive when the tone dominates.
    """
    tone_power, total = band_powers(
        signal,
        sample_rate,
        [
            (tone_hz - tone_halfwidth_hz, tone_hz + tone_halfwidth_hz),
            (band_low_hz, band_high_hz),
        ],
    )
    noise = max(total - tone_power, 1e-30)
    return float(10.0 * np.log10(max(tone_power, 1e-30) / noise))
