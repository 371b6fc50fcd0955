"""Spectral estimation tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _welch_oracle(x, fs, nperseg):
    from scipy.signal import get_window, welch

    n = min(nperseg, x.shape[-1])
    return welch(x, fs, window=get_window("hann", n), nperseg=n)


def _oracle_band_power(freqs, psd, low, high):
    mask = (freqs >= low) & (freqs <= high)
    df = freqs[1] - freqs[0]
    if psd.ndim == 1:
        return float(np.sum(psd[mask]) * df)
    return np.sum(np.ascontiguousarray(psd[..., mask]), axis=-1) * df


_BAND_EDGES = st.floats(min_value=0.0, max_value=30_000.0, allow_nan=False)


class TestWelchOracle:
    """Bit identity with ``scipy.signal.welch``, its default Hann window."""

    @given(
        length=st.integers(min_value=1, max_value=50_000),
        rows=st.sampled_from([None, 1, 3]),
        nperseg=st.integers(min_value=1, max_value=8192),
        fs=st.sampled_from([48_000.0, 480_000.0, 44_100.0]),
        bands=st.lists(
            st.tuples(_BAND_EDGES, _BAND_EDGES).map(sorted).filter(lambda b: b[0] < b[1]),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    def test_matches_scipy_welch(self, length, rows, nperseg, fs, bands, seed):
        shape = (length,) if rows is None else (rows, length)
        x = np.random.default_rng(seed).standard_normal(shape)
        freqs, psd = _welch_oracle(x, fs, nperseg)

        got_freqs, got_psd = power_spectrum(x, fs, nperseg)
        assert np.array_equal(got_freqs, freqs)
        assert got_psd.shape == psd.shape
        assert np.array_equal(got_psd, psd)

        if freqs.size < 2:
            with pytest.raises(SignalError):
                band_powers(x, fs, bands, nperseg)
            return
        empty = [not np.any((freqs >= lo) & (freqs <= hi)) for lo, hi in bands]
        if any(empty):
            with pytest.raises(ConfigurationError, match="no PSD bins"):
                band_powers(x, fs, bands, nperseg)
            return
        for (low, high), power in zip(bands, band_powers(x, fs, bands, nperseg)):
            expected = _oracle_band_power(freqs, psd, low, high)
            if rows is None:
                assert isinstance(power, float)
                assert power == expected
            else:
                assert np.array_equal(power, expected)

    @pytest.mark.parametrize("shape", [(480_000,), (2, 486_000)])
    def test_matches_scipy_welch_on_receiver_lengths(self, shape):
        """The stereo pilot gate's MPX rows, beyond the generated lengths."""
        x = np.random.default_rng(3).standard_normal(shape)
        freqs, psd = _welch_oracle(x, 480_000.0, 4096)
        got_freqs, got_psd = power_spectrum(x, 480_000.0)
        assert np.array_equal(got_freqs, freqs)
        assert np.array_equal(got_psd, psd)
        bands = [(18_750.0, 19_250.0), (16_000.0, 18_000.0)]
        for (low, high), power in zip(bands, band_powers(x, 480_000.0, bands)):
            assert np.array_equal(power, _oracle_band_power(freqs, psd, low, high))


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
