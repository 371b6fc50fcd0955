"""FM modulator/demodulator round-trip tests (paper Eq. 1 and section 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import MPX_RATE_HZ
from repro.errors import ConfigurationError, SignalError
from repro.fm.demodulator import fm_demodulate
from repro.fm.modulator import fm_modulate

FS = MPX_RATE_HZ


class TestModulator:
    def test_constant_envelope(self):
        mpx = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(48_000) / FS)
        iq = fm_modulate(mpx)
        assert np.allclose(np.abs(iq), 1.0)

    def test_dc_input_gives_constant_frequency(self):
        mpx = 0.5 * np.ones(4800)
        iq = fm_modulate(mpx, deviation_hz=75_000)
        phase_steps = np.angle(iq[1:] * np.conj(iq[:-1]))
        freq = phase_steps * FS / (2 * np.pi)
        assert np.allclose(freq, 37_500, atol=1.0)

    def test_carrier_offset(self):
        iq = fm_modulate(np.zeros(4800), carrier_offset_hz=10_000)
        phase_steps = np.angle(iq[1:] * np.conj(iq[:-1]))
        assert np.allclose(phase_steps * FS / (2 * np.pi), 10_000, atol=1.0)

    def test_rejects_excess_deviation(self):
        with pytest.raises(ConfigurationError):
            fm_modulate(np.zeros(100), sample_rate=FS, deviation_hz=FS)


class TestRoundTrip:
    def test_tone_round_trip(self):
        mpx = 0.8 * np.sin(2 * np.pi * 5000 * np.arange(96_000) / FS)
        recovered = fm_demodulate(fm_modulate(mpx))
        assert np.max(np.abs(recovered[10:] - mpx[10:])) < 0.01

    @given(st.integers(min_value=100, max_value=50_000))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_any_tone(self, freq):
        mpx = 0.7 * np.sin(2 * np.pi * freq * np.arange(24_000) / FS)
        recovered = fm_demodulate(fm_modulate(mpx))
        assert np.max(np.abs(recovered[10:] - mpx[10:])) < 0.02

    def test_overdeviation_round_trips(self):
        # Composite backscatter legitimately exceeds [-1, 1].
        mpx = 1.6 * np.sin(2 * np.pi * 1000 * np.arange(48_000) / FS)
        recovered = fm_demodulate(fm_modulate(mpx))
        assert np.max(np.abs(recovered[10:] - mpx[10:])) < 0.02


class TestDemodulator:
    def test_rejects_real_input(self):
        with pytest.raises(SignalError):
            fm_demodulate(np.ones(100))

    def test_rejects_zero_signal(self):
        with pytest.raises(SignalError):
            fm_demodulate(np.zeros(100, dtype=complex))

    def test_amplitude_invariance(self):
        # FM is amplitude-agnostic: a scaled envelope demodulates the same.
        mpx = 0.5 * np.sin(2 * np.pi * 2000 * np.arange(48_000) / FS)
        iq = fm_modulate(mpx)
        a = fm_demodulate(iq)
        b = fm_demodulate(1e-3 * iq)
        assert np.allclose(a, b)


def _reference_demodulate(iq, sample_rate=FS, deviation_hz=75_000.0):
    """The discriminator as one whole-row expression per waveform: the
    exact path's arithmetic before it was blocked and made in place."""
    magnitude = np.abs(iq)
    floor = 1e-12 * np.max(magnitude, axis=-1, keepdims=True)
    safe = np.where(magnitude > floor, iq, floor)
    if safe.ndim == 1:
        increments = np.angle(safe[1:] * np.conj(safe[:-1]))
    else:
        increments = np.empty(safe.shape[:-1] + (safe.shape[-1] - 1,))
        for row in range(safe.shape[0]):
            increments[row] = np.angle(safe[row, 1:] * np.conj(safe[row, :-1]))
    inst_freq = increments * sample_rate / (2.0 * np.pi)
    if inst_freq.shape[-1] == 0:
        return np.zeros(iq.shape[:-1] + (1,))
    inst_freq = np.concatenate([inst_freq[..., :1], inst_freq], axis=-1)
    return inst_freq / deviation_hz


class TestExactDiscriminator:
    """The exact path is bit-identical to the whole-row expression.

    The lengths straddle 16,384 samples, where NumPy starts reusing the
    ``conj`` temporary (and so changes the operand order of the complex
    multiply), and the lag-product block boundaries above it.
    """

    LENGTHS = tuple(range(16_380, 16_392)) + (
        2, 3, 65_536, 65_537, 65_538, 65_540, 70_000, 131_073, 131_080,
    )

    @staticmethod
    def _noise(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_rows_match_reference(self, n):
        rng = np.random.default_rng(n)
        one = self._noise(rng, n)
        assert np.array_equal(fm_demodulate(one, FS, 75_000.0), _reference_demodulate(one))
        stack = self._noise(rng, (3, n))
        assert np.array_equal(
            fm_demodulate(stack, FS, 75_000.0), _reference_demodulate(stack)
        )

    @pytest.mark.parametrize("n", (16_385, 65_538, 131_073))
    def test_under_floor_samples_match_reference(self, n):
        rng = np.random.default_rng(n)
        stack = self._noise(rng, (2, n))
        stack[0, [0, n // 3, n - 1]] = 0.0
        stack[1, n // 2] = 1e-15
        assert np.array_equal(
            fm_demodulate(stack, FS, 75_000.0), _reference_demodulate(stack)
        )
        assert np.array_equal(
            fm_demodulate(stack[0], FS, 75_000.0), _reference_demodulate(stack[0])
        )

    def test_single_sample_rows_are_zero(self):
        out = fm_demodulate(np.ones((2, 1), dtype=complex))
        assert out.shape == (2, 1) and not out.any()
