"""FIR design and filtering tests."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp import plan_cache
from repro.dsp.filters import (
    bandpass_fir,
    design_lowpass_fir,
    fft_length,
    filter_signal,
    highpass_fir,
)
from repro.dsp.plan_cache import clear_plan_cache, plan_cache_stats
from repro.errors import ConfigurationError

FS = 48_000.0


def tone(freq, n=4800, fs=FS):
    return np.cos(2 * np.pi * freq * np.arange(n) / fs)


def gain_at(taps, freq, fs=FS):
    x = tone(freq)
    y = filter_signal(taps, x)
    # Steady-state gain: compare RMS in the middle of the block.
    mid = slice(len(x) // 4, 3 * len(x) // 4)
    return np.sqrt(np.mean(y[mid] ** 2)) / np.sqrt(np.mean(x[mid] ** 2))


class TestLowpassDesign:
    def test_unity_dc_gain(self):
        taps = design_lowpass_fir(5000, FS)
        assert np.sum(taps) == pytest.approx(1.0)

    def test_passband_flat(self):
        taps = design_lowpass_fir(5000, FS, 257)
        assert gain_at(taps, 1000) == pytest.approx(1.0, abs=0.02)

    def test_stopband_attenuates(self):
        taps = design_lowpass_fir(5000, FS, 257)
        assert gain_at(taps, 15000) < 0.01

    def test_rejects_cutoff_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(30_000, FS)

    def test_rejects_even_taps(self):
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(5000, FS, 256)


class TestHighpass:
    def test_blocks_dc(self):
        taps = highpass_fir(5000, FS, 257)
        y = filter_signal(taps, np.ones(4800))
        assert np.max(np.abs(y[1000:3000])) < 0.01

    def test_passes_high(self):
        taps = highpass_fir(5000, FS, 257)
        assert gain_at(taps, 15000) == pytest.approx(1.0, abs=0.05)


class TestBandpass:
    def test_passes_center(self):
        taps = bandpass_fir(8000, 12000, FS, 257)
        assert gain_at(taps, 10000) == pytest.approx(1.0, abs=0.05)

    def test_blocks_outside(self):
        taps = bandpass_fir(8000, 12000, FS, 257)
        assert gain_at(taps, 2000) < 0.02
        assert gain_at(taps, 20000) < 0.02

    def test_rejects_inverted_band(self):
        with pytest.raises(ConfigurationError):
            bandpass_fir(12000, 8000, FS)


class TestFilterSignal:
    def test_group_delay_compensated(self):
        # An impulse should come out centered at its own position.
        taps = design_lowpass_fir(5000, FS, 101)
        x = np.zeros(1000)
        x[500] = 1.0
        y = filter_signal(taps, x)
        assert np.argmax(y) == 500

    def test_output_length_matches(self):
        taps = design_lowpass_fir(5000, FS, 101)
        x = np.random.default_rng(0).standard_normal(777)
        assert filter_signal(taps, x).size == 777

    def test_complex_input_supported(self):
        taps = design_lowpass_fir(5000, FS, 101)
        x = np.exp(1j * 2 * np.pi * 1000 * np.arange(2000) / FS)
        y = filter_signal(taps, x)
        assert np.iscomplexobj(y)
        mid = slice(500, 1500)
        assert np.mean(np.abs(y[mid])) == pytest.approx(1.0, abs=0.05)

    def test_rejects_even_taps(self):
        with pytest.raises(ConfigurationError):
            filter_signal(np.ones(4), np.ones(10))


def fftconvolve_reference(taps, signal):
    """The delay-padded ``fftconvolve`` formula filter_signal must match."""
    signal = np.asarray(signal)
    if not np.iscomplexobj(signal):
        signal = signal.astype(float)
    taps = np.asarray(taps, dtype=float)
    if signal.dtype == np.complex64:
        taps = taps.astype(np.float32)
    delay = (taps.size - 1) // 2
    pad = np.zeros(signal.shape[:-1] + (delay,), dtype=signal.dtype)
    padded = np.concatenate([signal, pad], axis=-1)
    kernel = taps if signal.ndim == 1 else taps[np.newaxis, :]
    full = sp_signal.fftconvolve(padded, kernel, mode="full", axes=-1)
    return full[..., delay : delay + signal.shape[-1]]


def random_signal(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def spectrum_entries():
    return [v for k, v in plan_cache._cache.items() if k[0] == "fir_spectrum"]


class TestFftPath:
    """filter_signal runs its own FFT convolution with cached kernel
    spectra; every output must equal the fftconvolve formula bit for bit."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_plan_cache()
        yield
        clear_plan_cache()

    @pytest.mark.parametrize("num_taps", [3, 129, 513, 1025])
    @pytest.mark.parametrize("shape", [(4801,), (3, 4801)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.complex64])
    def test_bit_identical_to_fftconvolve(self, num_taps, shape, dtype):
        rng = np.random.default_rng(num_taps)
        taps = rng.standard_normal(num_taps)
        x = random_signal(rng, shape, dtype)
        expected = fftconvolve_reference(taps, x)
        for _ in range(2):  # a cache miss, then a hit
            out = filter_signal(taps, x)
            assert out.dtype == expected.dtype and out.shape == expected.shape
            assert np.array_equal(out, expected)

    def test_two_fft_lengths_give_two_shared_transforms(self):
        n = 4801
        assert fft_length(513, n) != fft_length(1025, n)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, n))
        spectra = {}
        for taps in (rng.standard_normal(513), rng.standard_normal(1025),
                     rng.standard_normal(513)):
            out = filter_signal(taps, x, spectra=spectra)
            assert np.array_equal(out, fftconvolve_reference(taps, x))
        assert sorted(spectra) == sorted({fft_length(513, n), fft_length(1025, n)})

    def test_mpx_row_filters_share_one_transform(self):
        # At 480,000 samples the receive chain's 513- and 1025-tap
        # filters land on one FFT length.
        n = 480_000
        assert fft_length(513, n) == fft_length(1025, n) == 486_000
        x = np.random.default_rng(2).standard_normal(n)
        spectra = {}
        for taps in (design_lowpass_fir(15e3, 480e3, 513),
                     bandpass_fir(18.5e3, 19.5e3, 480e3, 1025),
                     bandpass_fir(23e3, 53e3, 480e3, 513)):
            out = filter_signal(taps, x, spectra=spectra)
            assert np.array_equal(out, fftconvolve_reference(taps, x))
        assert list(spectra) == [486_000]

    def test_plan_cache_disabled(self):
        # A cold cache (cleared before the call) gives the cached result.
        rng = np.random.default_rng(3)
        taps, x = rng.standard_normal(129), rng.standard_normal((2, 3000))
        warm = filter_signal(taps, x)
        clear_plan_cache()
        cold = filter_signal(taps, x)
        assert plan_cache_stats()["hits"] == 0
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, fftconvolve_reference(taps, x))

    def test_cached_spectra_are_non_writable_and_reused(self):
        rng = np.random.default_rng(4)
        taps, x = rng.standard_normal(129), rng.standard_normal(3000)
        filter_signal(taps, x)
        (spectrum,) = spectrum_entries()
        assert not spectrum.flags.writeable
        with pytest.raises(ValueError):
            spectrum[0] = 0.0
        hits = plan_cache_stats()["hits"]
        filter_signal(taps, x)
        assert plan_cache_stats()["hits"] == hits + 1
        assert spectrum_entries() == [spectrum]

    def test_spectra_keyed_by_taps_length_and_dtype(self):
        rng = np.random.default_rng(5)
        taps = rng.standard_normal(129)
        filter_signal(taps, rng.standard_normal(3000))
        filter_signal(taps, rng.standard_normal(5000))
        filter_signal(taps, random_signal(rng, 3000, np.complex64))
        filter_signal(taps[::-1].copy(), rng.standard_normal(3000))
        assert len(spectrum_entries()) == 4
