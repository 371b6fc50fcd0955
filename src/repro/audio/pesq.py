"""Perceptual speech-quality metric on the PESQ 1-4.5 scale.

The paper scores backscattered audio with ITU-T P.862 PESQ (section 5.3).
Full P.862 conformance is out of scope for this reproduction; this
module implements the pipeline's load-bearing stages — level alignment,
time alignment, Bark-band loudness with an absolute hearing threshold,
masked disturbance aggregation, and a logistic mapping onto [1.0, 4.5] —
so the score is a *monotone* function of perceptual degradation, which
is what the paper's comparisons (overlay ~= 2, cooperative ~= 4) rely on.

Calibration anchors (see tests/audio/test_pesq.py): identical signals
score 4.5; speech over equal-level competing speech (the overlay
situation) scores ~2; speech buried 10 dB under interference approaches
the 1.0 floor; light wideband noise (40 dB SNR) stays near 4.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dsp.windows import hann_window
from repro.errors import SignalError
from repro.utils.validation import ensure_positive, ensure_real

_SCORE_MIN = 1.0
_SCORE_MAX = 4.5

_N_BARK_BANDS = 24
_HEARING_THRESHOLD_FRACTION = 1e-3
"""Per-band hearing threshold as a fraction of the mean band power —
models playback at a comfortable level where -30 dB components are barely
audible."""

_MASK_FRACTION = 0.25
"""Center-clipping deadzone: differences below this fraction of the local
loudness are masked (inaudible)."""

_LOGISTIC_MIDPOINT_DB = 23.0
_LOGISTIC_SLOPE_DB = 9.5
"""Perceptual-SNR -> score mapping, fitted to the calibration anchors."""


def _hz_to_bark(freq_hz: np.ndarray) -> np.ndarray:
    """Traunmuller's Hz -> Bark approximation."""
    return 26.81 * freq_hz / (1960.0 + freq_hz) - 0.53


def _apply_lag(degraded: np.ndarray, lag: int) -> np.ndarray:
    if lag > 0:
        return np.concatenate([degraded[lag:], np.zeros(lag)])
    if lag < 0:
        return np.concatenate([np.zeros(-lag), degraded[:lag]])
    return degraded


def _align(
    reference: np.ndarray, degraded: np.ndarray, max_lag: int
) -> Tuple[np.ndarray, int]:
    """Shift ``degraded`` to best match ``reference``.

    Two stages: a decimated cross-correlation finds the coarse lag, then a
    sample-exact search over the remaining window removes the residual —
    a misalignment of even ten samples reads as high-frequency
    disturbance in the Bark domain and would wrongly depress the score.

    Returns:
        The shifted ``degraded`` and the lag applied; ``(degraded, 0)``
        when ``max_lag <= 0`` disables the search.
    """
    if max_lag <= 0:
        return degraded, 0
    step = max(max_lag // 2048, 1)
    ref_d = reference[::step]
    deg_d = degraded[::step]
    corr = np.correlate(deg_d, ref_d, mode="full")
    lag_d = int(np.argmax(np.abs(corr))) - (len(ref_d) - 1)
    coarse = lag_d * step

    # Fine search: +/- step samples around the coarse estimate using a
    # short representative segment. Each lag scores the slice of
    # ``degraded`` that _apply_lag would move into the segment (its
    # zero padding adds nothing), so no shifted copy is made, and the
    # reduction is einsum's own loop rather than a BLAS dot, which would
    # start BLAS threads under the sweep's own.
    seg_start = len(reference) // 4
    seg_stop = min(seg_start + 16_384, len(reference))
    best_lag, best_score = coarse, -np.inf
    for lag in range(coarse - step, coarse + step + 1):
        lo = max(seg_start, -lag)
        hi = min(seg_stop, len(degraded) - lag)
        score = 0.0
        if lo < hi:
            score = float(
                np.einsum("i,i->", degraded[lo + lag : hi + lag], reference[lo:hi])
            )
        if score > best_score:
            best_score, best_lag = score, lag
    return _apply_lag(degraded, best_lag), best_lag


def _bark_loudness(frames: np.ndarray, sample_rate: float) -> np.ndarray:
    """Per-frame Bark-band loudness with hearing threshold.

    Band power is compressed with Zwicker's 0.23 exponent *relative to a
    hearing threshold*: ``((p + p0)/p0)^0.23 - 1``. The subtraction keeps
    barely-audible components (noise 30+ dB down) from inflating the
    loudness difference the way raw power-law compression would.
    """
    n_fft = frames.shape[1]
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    spectra = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    bark = _hz_to_bark(freqs)
    edges = np.linspace(
        _hz_to_bark(np.array([100.0]))[0],
        _hz_to_bark(np.array([15000.0]))[0],
        _N_BARK_BANDS + 1,
    )
    bands = np.zeros((frames.shape[0], _N_BARK_BANDS))
    for b in range(_N_BARK_BANDS):
        mask = (bark >= edges[b]) & (bark < edges[b + 1])
        if np.any(mask):
            bands[:, b] = np.sum(spectra[:, mask], axis=1)
    nonzero = bands[bands > 0]
    p0 = _HEARING_THRESHOLD_FRACTION * float(np.mean(nonzero)) if nonzero.size else 1e-30
    return np.maximum(((bands + p0) / p0) ** 0.23 - 1.0, 0.0)


def pesq_like(
    reference: np.ndarray,
    degraded: np.ndarray,
    sample_rate: float,
    frame_seconds: float = 0.032,
) -> float:
    """Perceptual quality of ``degraded`` speech against ``reference``.

    Args:
        reference: the clean source audio (what the backscatter device
            intended to send).
        degraded: the audio the listener actually hears.
        sample_rate: sample rate of both signals.
        frame_seconds: analysis frame length (~32 ms like P.862).

    Returns:
        Score in [1.0, 4.5]; identical signals score 4.5 and heavily
        buried speech approaches 1.0.

    Raises:
        SignalError: on silent reference or inputs too short for framing.
    """
    reference = ensure_real(reference, "reference")
    degraded = ensure_real(degraded, "degraded")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    n = min(reference.size, degraded.size)
    if n < int(4 * frame_seconds * sample_rate):
        raise SignalError("signals too short for perceptual scoring")
    reference = reference[:n].copy()
    degraded = degraded[:n].copy()

    ref_rms = float(np.sqrt(np.mean(reference**2)))
    deg_rms = float(np.sqrt(np.mean(degraded**2)))
    if ref_rms <= 0:
        raise SignalError("reference signal is silent")
    if deg_rms <= 0:
        return _SCORE_MIN
    reference /= ref_rms
    degraded /= deg_rms

    degraded, lag = _align(reference, degraded, max_lag=int(0.5 * sample_rate))
    # Shifting invalidated |lag| samples at one end (zero padding); exclude
    # them so the metric scores only genuinely compared audio.
    if lag > 0:
        reference, degraded = reference[: n - lag], degraded[: n - lag]
    elif lag < 0:
        reference, degraded = reference[-lag:], degraded[-lag:]
    n = reference.size

    frame = int(frame_seconds * sample_rate)
    n_frames = n // frame
    window = hann_window(frame)
    ref_frames = reference[: n_frames * frame].reshape(n_frames, frame) * window
    deg_frames = degraded[: n_frames * frame].reshape(n_frames, frame) * window

    ref_loud = _bark_loudness(ref_frames, sample_rate)
    deg_loud = _bark_loudness(deg_frames, sample_rate)

    # Keep only frames where the reference is active (speech frames).
    activity = np.sum(ref_loud, axis=1)
    positive = activity[activity > 0]
    if positive.size == 0:
        raise SignalError("reference contains no active frames")
    active = activity > 0.25 * np.median(positive)
    ref_loud = ref_loud[active]
    deg_loud = deg_loud[active]

    # Masked disturbance: absolute loudness difference with a deadzone of
    # a fraction of the local loudness (P.862's center clipping).
    mask = _MASK_FRACTION * np.minimum(ref_loud, deg_loud)
    disturbance = np.maximum(np.abs(deg_loud - ref_loud) - mask, 0.0)

    ref_level = float(np.mean(np.linalg.norm(ref_loud, axis=1))) + 1e-12
    d_norm = float(np.mean(np.linalg.norm(disturbance, axis=1))) / ref_level
    if d_norm <= 0:
        return _SCORE_MAX

    perceptual_snr_db = -20.0 * np.log10(d_norm)
    raw = _SCORE_MIN + (_SCORE_MAX - _SCORE_MIN) / (
        1.0 + np.exp(-(perceptual_snr_db - _LOGISTIC_MIDPOINT_DB) / _LOGISTIC_SLOPE_DB)
    )
    return float(np.clip(raw, _SCORE_MIN, _SCORE_MAX))
