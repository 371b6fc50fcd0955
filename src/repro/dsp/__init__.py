"""Digital signal processing substrate.

Everything the FM stack needs, implemented on numpy/scipy: FIR design and
filtering, RBJ biquads, polyphase resampling, Goertzel tone detection,
Welch spectra, a type-2 PLL, AGC, and phase integration for FM synthesis.
"""

from repro.dsp.filters import (
    bandpass_fir,
    design_lowpass_fir,
    filter_signal,
    highpass_fir,
)
from repro.dsp.biquad import Biquad, deemphasis_filter, preemphasis_filter
from repro.dsp.resample import resample_by_ratio, resample_poly_exact
from repro.dsp.goertzel import goertzel_power, goertzel_power_many
from repro.dsp.spectrum import band_power, band_powers, power_spectrum, tone_snr_db
from repro.dsp.phase import frequency_to_phase, phase_to_frequency
from repro.dsp.pll import PhaseLockedLoop, PLLBatchResult, PLLResult
from repro.dsp.agc import AutomaticGainControl
from repro.dsp.windows import hann_window, raised_cosine_edges

__all__ = [
    "AutomaticGainControl",
    "Biquad",
    "PLLBatchResult",
    "PLLResult",
    "PhaseLockedLoop",
    "band_power",
    "band_powers",
    "bandpass_fir",
    "deemphasis_filter",
    "design_lowpass_fir",
    "filter_signal",
    "frequency_to_phase",
    "goertzel_power",
    "goertzel_power_many",
    "hann_window",
    "highpass_fir",
    "phase_to_frequency",
    "power_spectrum",
    "preemphasis_filter",
    "raised_cosine_edges",
    "resample_by_ratio",
    "resample_poly_exact",
    "tone_snr_db",
]
