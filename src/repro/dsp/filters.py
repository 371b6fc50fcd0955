"""FIR filter design (windowed-sinc) and zero-phase filtering helpers.

The FM stack needs sharp audio-band filters: a 15 kHz low-pass before FM
modulation, band-passes to isolate the pilot / stereo / RDS subcarriers,
and narrow filters around FSK tones. Windowed-sinc FIRs with Hann windows
are simple, linear-phase, and entirely adequate at these sample rates.

Designs are memoized through the process-wide DSP plan cache
(:mod:`repro.dsp.plan_cache`): a sweep that runs the same receive chain
at every grid point designs each filter once instead of once per point.
So are the taps' spectra at each FFT length :func:`filter_signal` uses.
Cached taps and spectra are returned non-writable; derive a fresh array
before mutating.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from scipy import fft as sp_fft

from repro.dsp.plan_cache import cached_plan
from repro.dsp.windows import hann_window
from repro.errors import ConfigurationError
from repro.utils.validation import ensure_positive, ensure_signal


def design_lowpass_fir(cutoff_hz: float, sample_rate: float, num_taps: int = 257) -> np.ndarray:
    """Design a linear-phase low-pass FIR via the windowed-sinc method.

    Args:
        cutoff_hz: -6 dB cutoff frequency.
        sample_rate: sample rate of the signal the filter will run at.
        num_taps: filter length; must be odd so group delay is an integer.

    Returns:
        Filter taps normalized to unity DC gain (non-writable; designs
        are shared through the DSP plan cache).
    """
    cutoff_hz = ensure_positive(cutoff_hz, "cutoff_hz")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    if cutoff_hz >= sample_rate / 2:
        raise ConfigurationError(
            f"cutoff {cutoff_hz} Hz must be below Nyquist {sample_rate / 2} Hz"
        )
    if num_taps < 3 or num_taps % 2 == 0:
        raise ConfigurationError(f"num_taps must be odd and >= 3, got {num_taps}")
    return cached_plan(
        ("lowpass_fir", cutoff_hz, sample_rate, num_taps),
        lambda: _design_lowpass(cutoff_hz, sample_rate, num_taps),
    )


def _design_lowpass(cutoff_hz: float, sample_rate: float, num_taps: int) -> np.ndarray:
    """The actual (validated-input) windowed-sinc synthesis."""
    n = np.arange(num_taps) - (num_taps - 1) / 2
    fc = cutoff_hz / sample_rate
    taps = 2.0 * fc * np.sinc(2.0 * fc * n)
    taps *= hann_window(num_taps)
    return taps / np.sum(taps)


def highpass_fir(cutoff_hz: float, sample_rate: float, num_taps: int = 257) -> np.ndarray:
    """Design a linear-phase high-pass FIR by spectral inversion."""
    lowpass = design_lowpass_fir(cutoff_hz, sample_rate, num_taps)
    highpass = -lowpass
    highpass[(num_taps - 1) // 2] += 1.0
    return highpass


def bandpass_fir(
    low_hz: float, high_hz: float, sample_rate: float, num_taps: int = 257
) -> np.ndarray:
    """Design a linear-phase band-pass FIR as the difference of two low-passes.

    Args:
        low_hz: lower band edge.
        high_hz: upper band edge (must exceed ``low_hz``).
        sample_rate: sample rate the filter targets.
        num_taps: odd filter length.
    """
    if high_hz <= low_hz:
        raise ConfigurationError(f"high_hz ({high_hz}) must exceed low_hz ({low_hz})")
    return cached_plan(
        ("bandpass_fir", low_hz, high_hz, sample_rate, num_taps),
        lambda: design_lowpass_fir(high_hz, sample_rate, num_taps)
        - design_lowpass_fir(low_hz, sample_rate, num_taps),
    )


def fft_length(num_taps: int, n_samples: int, complex_input: bool = False) -> int:
    """FFT length :func:`filter_signal` uses for ``num_taps`` over ``n_samples``.

    The rule ``scipy.signal.fftconvolve`` applies to the delay-padded full
    convolution: the next fast length at or above
    ``n_samples + delay + num_taps - 1``. Filters whose lengths agree can
    share one forward transform of the signal.
    """
    delay = (num_taps - 1) // 2
    return sp_fft.next_fast_len(n_samples + delay + num_taps - 1, real=not complex_input)


def _transform(x: np.ndarray, nfft: int, complex_input: bool) -> np.ndarray:
    """Forward transform along the last axis, zero-padded to ``nfft``.

    The transforms ``fftconvolve`` picks: ``rfftn`` when the filtered
    signal is real, ``fftn`` when it is complex (the real taps then go in
    as they are).
    """
    if complex_input:
        return sp_fft.fftn(x, [nfft], axes=[-1])
    return sp_fft.rfftn(x, [nfft], axes=[-1])


def _kernel_spectrum(taps: np.ndarray, nfft: int, complex_input: bool) -> np.ndarray:
    """The taps' transform at ``nfft``, memoized through the plan cache.

    Keyed by the taps themselves, the FFT length, the dtype and the
    transform kind, so two designs never share an entry. At the stereo
    receive chain's length (486,000) one spectrum is about 3.9 MB.
    """
    return cached_plan(
        ("fir_spectrum", taps.dtype.str, nfft, complex_input, taps.tobytes()),
        lambda: _transform(taps, nfft, complex_input),
    )


def filter_signal(
    taps: np.ndarray,
    signal: np.ndarray,
    spectra: Optional[Dict[int, np.ndarray]] = None,
) -> np.ndarray:
    """Apply an FIR filter with group-delay compensation.

    Uses FFT convolution (fast for the long filters used here) and trims
    the (num_taps - 1) / 2 sample group delay so the output is aligned with
    the input, which keeps symbol boundaries where the modulator put them.
    The arithmetic is exactly that of ``scipy.signal.fftconvolve`` on the
    delay-padded signal (same FFT length, same transforms, same product
    order), so the output is bit-identical to it; the taps' spectrum is
    cached (see :func:`_kernel_spectrum`) instead of re-transformed.

    Args:
        taps: FIR taps with odd length.
        signal: real or complex input; 1-D, or 2-D ``(batch, samples)`` to
            filter a stack of waveforms along the last axis in one FFT
            pass. Each row's output is bit-identical to filtering that row
            alone, so the sweep engine's batched backend can share this
            exact code path with the serial one.
        spectra: forward transforms of this same ``signal``, keyed by FFT
            length. A caller that runs several filters over one signal
            passes one dict to every call: a missing length is computed
            and stored, a present one is reused.

    Returns:
        Filtered signal, same shape and alignment as the input.
    """
    signal = ensure_signal(signal, "signal")
    taps = np.asarray(taps, dtype=float)
    if taps.ndim != 1 or taps.size % 2 == 0:
        raise ConfigurationError("taps must be a 1-D odd-length array")
    if signal.dtype in (np.float32, np.complex64):
        # Single-precision signals stay single precision (and the FFT
        # convolution runs the cheaper float32 transforms) instead of
        # being silently promoted through float64 taps. Double-precision
        # inputs — everything the receive chain produces — are untouched.
        taps = taps.astype(np.float32)
    n = signal.shape[-1]
    delay = (taps.size - 1) // 2
    if taps.size == 1:
        # fftconvolve skips the transform for a length-1 kernel axis.
        return signal * taps
    complex_input = np.iscomplexobj(signal)
    nfft = fft_length(taps.size, n, complex_input)
    if spectra is None:
        forward = _transform(signal, nfft, complex_input)
    else:
        forward = spectra.get(nfft)
        if forward is None:
            forward = spectra[nfft] = _transform(signal, nfft, complex_input)
    product = forward * _kernel_spectrum(taps, nfft, complex_input)
    del forward
    if complex_input:
        full = sp_fft.ifftn(product, [nfft], axes=[-1])
    else:
        full = sp_fft.irfftn(product, [nfft], axes=[-1])
    del product
    # Copy out the aligned span so the full-length buffer is freed here.
    return full[..., delay : delay + n].copy()
