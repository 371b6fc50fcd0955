"""Goertzel tone-power tests, including an FFT cross-check property."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.goertzel import goertzel_power, goertzel_power_many
from repro.errors import ConfigurationError, SignalError

FS = 48_000.0


class TestGoertzelPower:
    def test_detects_tone(self):
        n = 4800
        x = np.cos(2 * np.pi * 1000 * np.arange(n) / FS)
        on = goertzel_power(x, 1000, FS)
        off = goertzel_power(x, 3000, FS)
        assert on > 1000 * max(off, 1e-12)

    def test_amplitude_relation(self):
        # For amplitude A and integer cycles: power = A^2 * n / 4.
        n = 4800
        a = 0.5
        x = a * np.cos(2 * np.pi * 1000 * np.arange(n) / FS)
        assert goertzel_power(x, 1000, FS) == pytest.approx(a**2 * n / 4, rel=1e-6)

    def test_rejects_freq_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            goertzel_power(np.zeros(10), 30_000, FS)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_matches_fft_bin(self, k):
        # On exact DFT bins Goertzel equals the FFT magnitude squared / n.
        n = 480
        rng = np.random.default_rng(k)
        x = rng.standard_normal(n)
        freq = k * FS / n
        expected = np.abs(np.fft.rfft(x)[k]) ** 2 / n
        assert goertzel_power(x, freq, FS) == pytest.approx(expected, rel=1e-9)


class TestGoertzelMany:
    def test_matches_single(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(960)
        freqs = [800.0, 1600.0, 2400.0]
        many = goertzel_power_many(x, freqs, FS)
        singles = [goertzel_power(x, f, FS) for f in freqs]
        assert np.allclose(many, singles)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            goertzel_power_many(np.zeros(10), [], FS)

    def test_fsk_discrimination(self):
        # The paper's 8/12 kHz pair must be clearly separable in a 10 ms
        # symbol (the 100 bps design).
        n = 480
        x = np.cos(2 * np.pi * 8000 * np.arange(n) / FS)
        powers = goertzel_power_many(x, (8000.0, 12000.0), FS)
        assert powers[0] > 100 * powers[1]


class TestGoertzelManyStacked:
    """A ``(blocks, n)`` stack must reproduce the 1-D call row by row, bit
    for bit — the symbol detectors rely on it for identical decisions."""

    @pytest.mark.parametrize("n", [120, 240, 480])
    @pytest.mark.parametrize(
        "freqs",
        [(8000.0, 12000.0), (800.0, 1600.0, 2400.0, 3200.0), (9600.0, 10400.0, 11200.0, 12000.0)],
        ids=["2-tone", "4-tone-low", "4-tone-high"],
    )
    def test_rows_bit_identical_to_1d(self, n, freqs):
        rng = np.random.default_rng(n + len(freqs))
        blocks = rng.standard_normal((37, n))
        stacked = goertzel_power_many(blocks, freqs, FS)
        assert stacked.shape == (37, len(freqs))
        for row, powers in zip(blocks, stacked):
            assert np.array_equal(powers, goertzel_power_many(row, freqs, FS))

    def test_non_contiguous_rows(self):
        # A strided view (every other block) must not change any row.
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((20, 240))[::2]
        stacked = goertzel_power_many(blocks, (8000.0, 12000.0), FS)
        for row, powers in zip(blocks, stacked):
            assert np.array_equal(powers, goertzel_power_many(row, (8000.0, 12000.0), FS))

    def test_single_row_stack(self):
        x = np.random.default_rng(6).standard_normal(120)
        stacked = goertzel_power_many(x[None, :], (800.0, 1600.0), FS)
        assert np.array_equal(stacked[0], goertzel_power_many(x, (800.0, 1600.0), FS))

    @pytest.mark.parametrize("shape", [(240,), (4, 240)])
    def test_rejects_complex_like_1d(self, shape):
        x = np.ones(shape, dtype=complex)
        with pytest.raises(SignalError):
            goertzel_power_many(x, (8000.0,), FS)

    def test_rejects_empty_blocks(self):
        with pytest.raises(SignalError):
            goertzel_power_many(np.zeros((3, 0)), (8000.0,), FS)
