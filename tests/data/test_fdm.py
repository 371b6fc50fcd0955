"""FDM-4FSK modem tests (the paper's 1.6 / 3.2 kbps modes)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.noise import awgn
from repro.data.bits import random_bits
from repro.data.fdm import BITS_PER_SYMBOL, FdmFskModem
from repro.dsp.goertzel import goertzel_power_many
from repro.errors import ConfigurationError, DemodulationError, SignalError


class TestStructure:
    def test_sixteen_tones(self):
        modem = FdmFskModem()
        assert modem.tones_hz.size == 16
        assert modem.tones_hz[0] == 800.0
        assert modem.tones_hz[-1] == 12_800.0

    def test_four_groups_of_four(self):
        modem = FdmFskModem()
        for group in range(4):
            assert modem.group_tones_hz(group).size == 4

    def test_bit_rates_match_paper(self):
        assert FdmFskModem(symbol_rate=200).bit_rate == 1600.0
        assert FdmFskModem(symbol_rate=400).bit_rate == 3200.0

    def test_rejects_bad_group(self):
        with pytest.raises(ConfigurationError):
            FdmFskModem().group_tones_hz(4)


class TestModulate:
    def test_four_active_tones_per_symbol(self):
        # One symbol: exactly one tone per group should carry power.
        modem = FdmFskModem(symbol_rate=200)
        wave = modem.modulate(np.zeros(8, dtype=int))  # symbol 0 everywhere
        from repro.dsp.goertzel import goertzel_power_many

        powers = goertzel_power_many(wave, modem.tones_hz, modem.sample_rate)
        active = powers > 0.25 * np.max(powers)
        assert np.sum(active) == 4

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            FdmFskModem().modulate([])


class TestDemodulate:
    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_clean_round_trip(self, n_symbols):
        modem = FdmFskModem(symbol_rate=200)
        bits = random_bits(n_symbols * BITS_PER_SYMBOL, rng=n_symbols)
        recovered = modem.demodulate(modem.modulate(bits), bits.size)
        assert np.array_equal(recovered, bits)

    def test_round_trip_at_3200bps(self):
        modem = FdmFskModem(symbol_rate=400)
        bits = random_bits(160, rng=7)
        recovered = modem.demodulate(modem.modulate(bits), bits.size)
        assert np.array_equal(recovered, bits)

    def test_noise_tolerance(self):
        modem = FdmFskModem(symbol_rate=200)
        bits = random_bits(160, rng=8)
        noisy = awgn(modem.modulate(bits), 15.0, rng=9)
        assert np.array_equal(modem.demodulate(noisy, bits.size), bits)

    def test_rejects_non_symbol_multiple(self):
        modem = FdmFskModem()
        with pytest.raises(ConfigurationError):
            modem.demodulate(np.zeros(48_000), 7)

    def test_rejects_short_audio(self):
        modem = FdmFskModem()
        with pytest.raises(DemodulationError):
            modem.demodulate(np.zeros(10), 8)

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigurationError):
            FdmFskModem().demodulate(np.zeros(480), 0)

    def test_rejects_complex_audio(self):
        with pytest.raises(SignalError):
            FdmFskModem().demodulate(np.zeros(480, dtype=complex), 8)


def per_symbol_reference(modem: FdmFskModem, audio: np.ndarray, n_bits: int) -> np.ndarray:
    """Reference detector: one Goertzel call per symbol and tone group."""
    sps = modem.samples_per_symbol
    bits = []
    for i in range(n_bits // BITS_PER_SYMBOL):
        block = audio[i * sps : (i + 1) * sps]
        for group in range(4):
            powers = goertzel_power_many(block, modem.group_tones_hz(group), modem.sample_rate)
            idx = int(np.argmax(powers))
            bits += [idx >> 1, idx & 1]
    return np.array(bits)


class TestStackedMatchesPerSymbol:
    """The stacked detector must make exactly the per-symbol decisions,
    including at SNRs where tones nearly tie and a summation-order ULP
    could flip one."""

    @pytest.mark.parametrize("rate", [200, 400])
    @pytest.mark.parametrize("snr_db", [20.0, 0.0, -6.0, -12.0])
    def test_noisy_demod_identical(self, rate, snr_db):
        modem = FdmFskModem(symbol_rate=rate)
        bits = random_bits(400, rng=rate)
        noisy = awgn(modem.modulate(bits), snr_db, rng=int(rate - snr_db))
        stacked = modem.demodulate(noisy, bits.size)
        assert np.array_equal(stacked, per_symbol_reference(modem, noisy, bits.size))

    def test_equal_power_ties_identical(self):
        # Two tones of equal amplitude in every group: their powers differ
        # only by rounding, so the decision rests on the exact bits.
        modem = FdmFskModem(symbol_rate=400)
        sps = modem.samples_per_symbol
        t = np.arange(sps) / modem.sample_rate
        gen = np.random.default_rng(11)
        rows = []
        for _ in range(200):
            row = np.zeros(sps)
            for group in range(4):
                pair = gen.choice(4, size=2, replace=False)
                for f in modem.group_tones_hz(group)[pair]:
                    row += np.cos(2 * np.pi * f * t)
            rows.append(row + 1e-13 * gen.standard_normal(sps))
        audio = np.concatenate(rows)
        n_bits = 200 * BITS_PER_SYMBOL
        assert np.array_equal(modem.demodulate(audio, n_bits), per_symbol_reference(modem, audio, n_bits))

    def test_tail_past_last_symbol_ignored(self):
        modem = FdmFskModem(symbol_rate=400)
        bits = random_bits(80, rng=3)
        noisy = awgn(modem.modulate(bits), 0.0, rng=4)
        tail = np.random.default_rng(5).standard_normal(modem.samples_per_symbol // 2)
        longer = np.concatenate([noisy, tail])
        assert np.array_equal(modem.demodulate(longer, bits.size), modem.demodulate(noisy, bits.size))
        # Asking for fewer symbols than the audio holds ignores the rest.
        assert np.array_equal(modem.demodulate(noisy, 40), modem.demodulate(noisy, 80)[:40])


class TestRateRangeTradeoff:
    def test_higher_rate_more_fragile(self):
        # The paper's observation: 400 sym/s degrades before 200 sym/s.
        bits = random_bits(320, rng=10)
        errors = {}
        for rate in (200, 400):
            modem = FdmFskModem(symbol_rate=rate)
            noisy = awgn(modem.modulate(bits), -2.0, rng=11)
            recovered = modem.demodulate(noisy, bits.size)
            errors[rate] = np.mean(recovered != bits)
        assert errors[400] >= errors[200]
