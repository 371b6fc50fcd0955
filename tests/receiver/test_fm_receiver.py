"""Generic FM receiver chain tests."""

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.constants import AUDIO_RATE_HZ
from repro.dsp.spectrum import tone_snr_db
from repro.errors import ConfigurationError
from repro.fm.mpx import MpxComponents, compose_mpx
from repro.fm.modulator import fm_modulate
from repro.receiver.car import CarReceiver
from repro.receiver.fm_receiver import (
    FMReceiver,
    receive_mono_batch,
    receive_stereo_batch,
)
from repro.receiver.smartphone import SmartphoneReceiver


def broadcast_iq(left_hz=1000, right_hz=None, duration=0.5):
    left = tone(left_hz, duration, AUDIO_RATE_HZ, amplitude=0.8)
    right = tone(right_hz, duration, AUDIO_RATE_HZ, amplitude=0.8) if right_hz else None
    return fm_modulate(compose_mpx(MpxComponents(left=left, right=right)))


class TestReceive:
    def test_mono_reception(self):
        received = FMReceiver().receive(broadcast_iq())
        assert not received.stereo_locked
        assert tone_snr_db(received.mono, AUDIO_RATE_HZ, 1000) > 30

    def test_stereo_reception(self):
        received = FMReceiver().receive(broadcast_iq(1000, 3000))
        assert received.stereo_locked
        assert tone_snr_db(received.left, AUDIO_RATE_HZ, 1000) > 20
        assert tone_snr_db(received.right, AUDIO_RATE_HZ, 3000) > 20

    def test_stereo_incapable_receiver_stays_mono(self):
        receiver = FMReceiver(stereo_capable=False)
        received = receiver.receive(broadcast_iq(1000, 3000))
        assert not received.stereo_locked
        assert np.array_equal(received.left, received.right)

    def test_audio_cutoff_applies(self):
        from repro.dsp.spectrum import band_power

        wide = FMReceiver(audio_cutoff_hz=15_000.0).receive(broadcast_iq(9000))
        narrow = FMReceiver(audio_cutoff_hz=5000.0).receive(broadcast_iq(9000))
        p_wide = band_power(wide.mono, AUDIO_RATE_HZ, 8500, 9500)
        p_narrow = band_power(narrow.mono, AUDIO_RATE_HZ, 8500, 9500)
        assert p_narrow < 1e-4 * p_wide

    def test_mpx_exposed_for_diagnostics(self):
        received = FMReceiver().receive(broadcast_iq())
        assert received.mpx.size > 0

    def test_difference_property(self):
        received = FMReceiver().receive(broadcast_iq(1000, 3000))
        assert np.allclose(
            received.difference, 0.5 * (received.left - received.right)
        )


class TestReceiveStereoBatch:
    def test_rows_bit_identical_to_serial_receive(self):
        # One stereo broadcast, one mono broadcast (pilot absent -> the
        # row falls back to mono inside the batch), decoded together.
        iq_batch = np.stack([broadcast_iq(1000, 3000), broadcast_iq(2000)])
        receivers = [FMReceiver(), FMReceiver()]
        rows = receive_stereo_batch(receivers, iq_batch)
        assert [r.stereo_locked for r in rows] == [True, False]
        for i in range(2):
            serial = FMReceiver().receive(iq_batch[i])
            assert np.array_equal(rows[i].left, serial.left), i
            assert np.array_equal(rows[i].right, serial.right), i
            assert rows[i].stereo_locked == serial.stereo_locked, i
            assert np.array_equal(rows[i].mpx, serial.mpx), i

    def test_stochastic_receivers_draw_per_row(self):
        # Smartphone codec noise and the car cabin path draw from each
        # receiver's own generator, so a batch with per-row seeds must
        # match per-row serial receives exactly.
        iq_batch = np.stack([broadcast_iq(1000, 3000), broadcast_iq(1000, 3000)])
        for build in (
            lambda seed: SmartphoneReceiver(rng=seed),
            lambda seed: CarReceiver(rng=seed),
        ):
            rows = receive_stereo_batch([build(5), build(6)], iq_batch)
            for i, seed in enumerate((5, 6)):
                serial = build(seed).receive(iq_batch[i])
                assert np.array_equal(rows[i].left, serial.left), (build, i)
                assert np.array_equal(rows[i].right, serial.right), (build, i)

    def test_rejects_mixed_receiver_types(self):
        # One batch is one receiver type: its output effects run through
        # that type's apply_output_effects_batch, so a mixed batch would
        # silently apply one type's recording chain to another's rows.
        iq_batch = np.stack([broadcast_iq(1000, 3000)] * 2)
        with pytest.raises(ConfigurationError, match="one type"):
            receive_stereo_batch([CarReceiver(), FMReceiver()], iq_batch)
        with pytest.raises(ConfigurationError, match="one type"):
            receive_stereo_batch(
                [SmartphoneReceiver(rng=1), CarReceiver(rng=2)], iq_batch
            )
        mono_phone = SmartphoneReceiver(rng=1)
        mono_phone.stereo_capable = False
        with pytest.raises(ConfigurationError, match="one type"):
            receive_mono_batch(
                [mono_phone, FMReceiver(stereo_capable=False)], iq_batch
            )

    def test_deemphasis_batch_bit_identical(self):
        iq_batch = np.stack([broadcast_iq(1000, 3000), broadcast_iq(2000)])
        rows = receive_stereo_batch(
            [FMReceiver(apply_deemphasis=True) for _ in range(2)], iq_batch
        )
        for i in range(2):
            serial = FMReceiver(apply_deemphasis=True).receive(iq_batch[i])
            assert np.array_equal(rows[i].left, serial.left), i
            assert np.array_equal(rows[i].right, serial.right), i

    def test_mixed_deemphasis_rejected(self):
        iq_batch = np.stack([broadcast_iq(1000, 3000)] * 2)
        with pytest.raises(ConfigurationError):
            receive_stereo_batch(
                [FMReceiver(), FMReceiver(apply_deemphasis=True)], iq_batch
            )

    def test_rejects_mono_receivers(self):
        iq_batch = np.stack([broadcast_iq(1000)])
        with pytest.raises(ConfigurationError):
            receive_stereo_batch([FMReceiver(stereo_capable=False)], iq_batch)

    def test_rejects_mixed_configuration(self):
        iq_batch = np.stack([broadcast_iq(1000, 3000)] * 2)
        with pytest.raises(ConfigurationError):
            receive_stereo_batch(
                [FMReceiver(), FMReceiver(audio_cutoff_hz=5000.0)], iq_batch
            )

    def test_empty_batch(self):
        assert receive_stereo_batch([], np.empty((0, 1024), dtype=complex)) == []
