"""Spectral estimation tests."""

import numpy as np
import pytest

from repro.dsp.spectrum import band_power, band_powers, power_spectrum, tone_snr_db
from repro.errors import ConfigurationError, SignalError

FS = 48_000.0


class TestPowerSpectrum:
    def test_peak_at_tone(self):
        x = np.cos(2 * np.pi * 5000 * np.arange(48_000) / FS)
        freqs, psd = power_spectrum(x, FS)
        assert abs(freqs[np.argmax(psd)] - 5000) < 50

    def test_short_signal_clips_nperseg(self):
        freqs, psd = power_spectrum(np.ones(100), FS, nperseg=4096)
        assert freqs.size > 0


class TestBandPower:
    def test_total_power_of_tone(self):
        # A unit cosine carries power 1/2.
        x = np.cos(2 * np.pi * 5000 * np.arange(96_000) / FS)
        assert band_power(x, FS, 4000, 6000) == pytest.approx(0.5, rel=0.05)

    def test_out_of_band_is_small(self):
        x = np.cos(2 * np.pi * 5000 * np.arange(96_000) / FS)
        assert band_power(x, FS, 10_000, 12_000) < 1e-6

    def test_rejects_inverted_band(self):
        with pytest.raises(ConfigurationError):
            band_power(np.ones(100), FS, 6000, 4000)

    def test_rejects_single_sample_signal(self):
        # One sample gives one PSD bin, so there is no bin width.
        with pytest.raises(SignalError, match="signal"):
            band_power(np.array([1.0]), FS, 0.0, 100.0)


class TestBandPowers:
    BANDS = [(4000.0, 6000.0), (100.0, 15_000.0), (16_000.0, 18_000.0)]

    def test_matches_band_power_on_1d(self, rng):
        x = rng.standard_normal(30_000)
        powers = band_powers(x, FS, self.BANDS)
        for (low, high), power in zip(self.BANDS, powers):
            assert isinstance(power, float)
            assert power == band_power(x, FS, low, high)

    def test_matches_band_power_on_2d_stack(self, rng):
        stack = rng.standard_normal((5, 30_000))
        powers = band_powers(stack, FS, self.BANDS)
        for (low, high), power in zip(self.BANDS, powers):
            assert power.shape == (5,)
            assert np.array_equal(power, band_power(stack, FS, low, high))
            for row in range(5):
                assert power[row] == band_power(stack[row], FS, low, high)

    def test_rejects_bad_bands(self):
        with pytest.raises(ConfigurationError):
            band_powers(np.ones(100), FS, [(100.0, 200.0), (6000.0, 4000.0)])
        with pytest.raises(ConfigurationError, match="no PSD bins"):
            band_powers(np.ones(4096), FS, [(100.0, 101.0)])


class TestToneSnr:
    def test_clean_tone_high_snr(self):
        x = np.cos(2 * np.pi * 5000 * np.arange(96_000) / FS)
        assert tone_snr_db(x, FS, 5000) > 30

    def test_snr_decreases_with_noise(self):
        rng = np.random.default_rng(0)
        t = np.arange(96_000) / FS
        x = np.cos(2 * np.pi * 5000 * t)
        clean = tone_snr_db(x, FS, 5000)
        noisy = tone_snr_db(x + 0.5 * rng.standard_normal(x.size), FS, 5000)
        assert noisy < clean - 10

    def test_absent_tone_negative_snr(self):
        rng = np.random.default_rng(1)
        assert tone_snr_db(rng.standard_normal(96_000), FS, 5000) < 3
