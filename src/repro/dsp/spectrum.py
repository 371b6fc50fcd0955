"""Spectral estimation helpers: Welch PSD, band power, and tone SNR.

Figure 6 of the paper computes SNR as the power at the transmitted tone
frequency divided by the summed power at all other audio frequencies;
:func:`tone_snr_db` reproduces exactly that estimator.

The Welch estimate runs on NumPy and ``scipy.fft`` alone, so no figure
imports ``scipy.signal`` (a second of import) for it; every figure but
Fig. 12, whose cooperative receiver calls ``fftconvolve``, starts
without it. Each PSD is bit-identical to ``scipy.signal.welch(x, fs,
nperseg=n)`` with its default Hann window and constant detrend, because
every step repeats scipy 1.17's operation order:

- the window is scipy's periodic Hann
  (:func:`~repro.dsp.windows.periodic_hann_window`), scaled by
  ``1 / sqrt(sum(w**2) / (1 / fs))`` with Python's sequential ``sum``;
- segments of ``n`` samples start every ``n - n // 2`` samples of the
  input zero-padded on the right, each has its mean subtracted, is
  multiplied by the window and transformed by one real FFT;
- a bin's power is ``re**2 + im**2``, doubled except at DC and an
  even-length Nyquist, then averaged over segments laid out
  contiguously, as scipy's ``(frequency, segment)`` array is.

Each bin's average is independent of every other bin's, so
:func:`band_powers` squares and averages only the bins its bands cover;
the stereo pilot gate reads about 20 of 2,049.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft

from repro.dsp.plan_cache import cached_plan
from repro.dsp.windows import periodic_hann_window
from repro.errors import ConfigurationError, SignalError
from repro.utils.validation import ensure_positive, ensure_real_signal

SEGMENT_BLOCK = 32
"""Welch segments detrended, windowed and transformed together, in one
reused buffer. Any block gives the same bits (each segment's arithmetic
is its own); a block keeps the working set near 1 MB at 4,096-sample
segments, where a copy of every overlapping segment of a 480,000-sample
row is 7.6 MB and its spectra 7.6 MB more."""


def _welch_window(nperseg: int, sample_rate: float) -> np.ndarray:
    """The PSD-scaled Hann segment window, cached per segment length and rate."""

    def build() -> np.ndarray:
        window = periodic_hann_window(nperseg)
        return window * (1 / np.sqrt(sum(window**2) / (1 / sample_rate)))

    return cached_plan(("welch_window", nperseg, sample_rate), build)


def _welch_bins(
    signal: np.ndarray, sample_rate: float, nperseg: int, bins: np.ndarray
) -> np.ndarray:
    """Welch PSD of a validated ``signal`` at the sorted rFFT ``bins`` only.

    Returns:
        A ``(..., len(bins))`` array, each value bit-identical to that
        bin of ``scipy.signal.welch``.
    """
    n = signal.shape[-1]
    hop = nperseg - nperseg // 2
    n_segments = (n - nperseg // 2) // hop
    # The last segment always runs past the input, so scipy zero-pads
    # the right end and never truncates.
    padded = np.zeros(n_segments * hop + nperseg)
    segments = sliding_window_view(padded, nperseg)[: n_segments * hop : hop]
    window = _welch_window(nperseg, sample_rate)

    power = np.empty(signal.shape[:-1] + (bins.size, n_segments))
    buffer = np.empty((min(SEGMENT_BLOCK, n_segments), nperseg))
    for row in np.ndindex(signal.shape[:-1]):
        padded[:n] = signal[row]
        for start in range(0, n_segments, SEGMENT_BLOCK):
            block = segments[start : start + SEGMENT_BLOCK]
            windowed = buffer[: len(block)]
            np.subtract(block, np.mean(block, axis=-1, keepdims=True), out=windowed)
            np.multiply(windowed, window, out=windowed)
            spectrum = sp_fft.rfft(windowed, n=nperseg, axis=-1)[:, bins]
            power[row][:, start : start + SEGMENT_BLOCK] = (
                spectrum.real**2 + spectrum.imag**2
            ).T
    # One-sided doubling skips DC and, for an even length, Nyquist.
    power[..., (bins > 0) & (bins < (nperseg + 1) // 2), :] *= 2
    return power.mean(axis=-1)


def _prepare(
    signal: np.ndarray, sample_rate: float, nperseg: int
) -> Tuple[np.ndarray, float, int, np.ndarray]:
    """Validated ``(signal, sample_rate, clipped nperseg, freqs_hz)``."""
    signal = ensure_real_signal(signal, "signal")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    nperseg = int(min(nperseg, signal.shape[-1]))
    return signal, sample_rate, nperseg, sp_fft.rfftfreq(nperseg, 1 / sample_rate)


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
    signal, sample_rate, nperseg, freqs = _prepare(signal, sample_rate, nperseg)
    return freqs, _welch_bins(signal, sample_rate, nperseg, np.arange(freqs.size))


def band_powers(
    signal: np.ndarray,
    sample_rate: float,
    bands: Sequence[Tuple[float, float]],
    nperseg: int = 4096,
) -> List:
    """Total power of ``signal`` within each ``(low_hz, high_hz)`` band.

    Every band is integrated over one Welch PSD, so a caller comparing
    several bands of one signal (a pilot against its guard band, a tone
    against the audio band) estimates the spectrum once, and only at the
    bins some band covers. Integrating the PSD makes the powers robust to
    spectral leakage from strong out-of-band components.

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
    signal, sample_rate, nperseg, freqs = _prepare(signal, sample_rate, nperseg)
    if freqs.size < 2:
        raise SignalError(
            f"signal must be long enough for two PSD bins, got {freqs.size} "
            f"from {signal.shape[-1]} sample(s)"
        )
    df = freqs[1] - freqs[0]
    masks = []
    for low_hz, high_hz in bands:
        mask = (freqs >= low_hz) & (freqs <= high_hz)
        if not np.any(mask):
            raise ConfigurationError(
                f"band [{low_hz}, {high_hz}] Hz contains no PSD bins at fs={sample_rate}"
            )
        masks.append(mask)
    covered = np.logical_or.reduce(masks)
    psd = _welch_bins(signal, sample_rate, nperseg, np.flatnonzero(covered))
    powers = []
    for mask in masks:
        # Contiguous rows get the 1-D pairwise sum, so each row's power
        # is bit-identical to the row's own 1-D power.
        rows = np.ascontiguousarray(psd[..., mask[covered]])
        power = np.sum(rows, axis=-1) * df
        powers.append(float(power) if psd.ndim == 1 else power)
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
