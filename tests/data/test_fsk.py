"""2-FSK modem tests (the paper's 100 bps mode)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.noise import awgn
from repro.data.bits import random_bits
from repro.data.fsk import BinaryFskModem
from repro.dsp.goertzel import goertzel_power_many
from repro.errors import ConfigurationError, DemodulationError, SignalError


class TestModulate:
    def test_waveform_length(self):
        modem = BinaryFskModem()
        wave = modem.modulate([1, 0, 1])
        assert wave.size == 3 * modem.samples_per_symbol

    def test_continuous_phase(self):
        # CPFSK: no sample-to-sample jumps larger than the max tone step.
        modem = BinaryFskModem(edge_fraction=0.0)
        wave = modem.modulate(random_bits(20, rng=0))
        max_step = 2 * np.pi * modem.freq_one_hz / modem.sample_rate
        assert np.max(np.abs(np.diff(wave))) <= max_step + 1e-6

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            BinaryFskModem().modulate([0, 2])

    def test_rejects_equal_tones(self):
        with pytest.raises(ConfigurationError):
            BinaryFskModem(freq_zero_hz=8000, freq_one_hz=8000)

    def test_bit_rate(self):
        assert BinaryFskModem().bit_rate == 100.0


class TestDemodulate:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_clean_round_trip(self, bits):
        modem = BinaryFskModem()
        recovered = modem.demodulate(modem.modulate(bits), len(bits))
        assert np.array_equal(recovered, bits)

    def test_round_trip_with_noise(self):
        modem = BinaryFskModem()
        bits = random_bits(50, rng=1)
        noisy = awgn(modem.modulate(bits), 10.0, rng=2)
        assert np.array_equal(modem.demodulate(noisy, 50), bits)

    def test_heavy_noise_causes_errors(self):
        modem = BinaryFskModem()
        bits = random_bits(200, rng=3)
        noisy = awgn(modem.modulate(bits), -20.0, rng=4)
        recovered = modem.demodulate(noisy, 200)
        assert np.mean(recovered != bits) > 0.1

    def test_rejects_short_audio(self):
        modem = BinaryFskModem()
        with pytest.raises(DemodulationError):
            modem.demodulate(np.zeros(100), 10)

    def test_soft_powers_shape(self):
        modem = BinaryFskModem()
        wave = modem.modulate([1, 0])
        powers = modem.soft_powers(wave, 2)
        assert powers.shape == (2, 2)
        assert powers[0, 1] > powers[0, 0]  # bit 1 -> power at f_one
        assert powers[1, 0] > powers[1, 1]

    def test_zero_bits_is_empty(self):
        modem = BinaryFskModem()
        wave = modem.modulate([1, 0])
        assert modem.demodulate(wave, 0).shape == (0,)
        assert modem.soft_powers(wave, 0).shape == (0, 2)

    def test_rejects_negative_bits(self):
        with pytest.raises(ConfigurationError):
            BinaryFskModem().demodulate(np.zeros(480), -1)

    def test_rejects_complex_audio(self):
        modem = BinaryFskModem()
        for method in (modem.demodulate, modem.soft_powers):
            with pytest.raises(SignalError):
                method(np.zeros(960, dtype=complex), 2)


def per_symbol_reference(modem: BinaryFskModem, audio: np.ndarray, n_bits: int) -> np.ndarray:
    """Reference (P_zero, P_one) powers: one Goertzel call per symbol."""
    sps = modem.samples_per_symbol
    freqs = (modem.freq_zero_hz, modem.freq_one_hz)
    return np.array(
        [
            goertzel_power_many(audio[i * sps : (i + 1) * sps], freqs, modem.sample_rate)
            for i in range(n_bits)
        ]
    )


class TestStackedMatchesPerSymbol:
    """Stacked detection must reproduce the per-symbol powers and
    decisions bit for bit, down to SNRs where the two tones nearly tie."""

    @pytest.mark.parametrize("snr_db", [10.0, 0.0, -10.0, -20.0])
    def test_noisy_identical(self, snr_db):
        modem = BinaryFskModem()
        bits = random_bits(300, rng=21)
        noisy = awgn(modem.modulate(bits), snr_db, rng=int(30 - snr_db))
        reference = per_symbol_reference(modem, noisy, bits.size)
        assert np.array_equal(modem.soft_powers(noisy, bits.size), reference)
        assert np.array_equal(modem.demodulate(noisy, bits.size), np.argmax(reference, axis=1))

    def test_equal_power_ties_identical(self):
        # Both tones at equal amplitude: the powers differ only by rounding.
        modem = BinaryFskModem()
        t = np.arange(50 * modem.samples_per_symbol) / modem.sample_rate
        audio = np.cos(2 * np.pi * modem.freq_zero_hz * t) + np.cos(2 * np.pi * modem.freq_one_hz * t)
        audio += 1e-13 * np.random.default_rng(3).standard_normal(t.size)
        reference = per_symbol_reference(modem, audio, 50)
        assert np.array_equal(modem.soft_powers(audio, 50), reference)
        assert np.array_equal(modem.demodulate(audio, 50), np.argmax(reference, axis=1))

    def test_tail_past_last_symbol_ignored(self):
        modem = BinaryFskModem()
        bits = random_bits(20, rng=4)
        noisy = awgn(modem.modulate(bits), 0.0, rng=5)
        longer = np.concatenate([noisy, np.ones(modem.samples_per_symbol - 1)])
        assert np.array_equal(modem.soft_powers(longer, 20), modem.soft_powers(noisy, 20))
        assert np.array_equal(modem.demodulate(noisy, 12), modem.demodulate(noisy, 20)[:12])


class TestPaperParameters:
    def test_default_tones_are_8_and_12_khz(self):
        modem = BinaryFskModem()
        assert modem.freq_zero_hz == 8000.0
        assert modem.freq_one_hz == 12_000.0

    def test_tones_above_speech_band(self):
        # Section 3.4: tones sit above most human speech frequencies.
        modem = BinaryFskModem()
        assert min(modem.freq_zero_hz, modem.freq_one_hz) >= 8000.0
