"""Pilot detection and stereo decoding tests."""

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.dsp.spectrum import tone_snr_db
from repro.errors import SignalError
from repro.fm.mpx import MpxComponents, compose_mpx
from repro.fm.pilot import detect_pilot, pilot_power_ratio_db
from repro.fm.stereo import decode_stereo, decode_stereo_batch


def stereo_mpx(left_hz=1000, right_hz=3000, duration=0.5):
    left = tone(left_hz, duration, AUDIO_RATE_HZ, amplitude=0.8)
    right = tone(right_hz, duration, AUDIO_RATE_HZ, amplitude=0.8)
    return compose_mpx(MpxComponents(left=left, right=right))


class TestPilotDetection:
    def test_detects_stereo_pilot(self):
        assert detect_pilot(stereo_mpx())

    def test_no_pilot_in_mono(self):
        left = tone(1000, 0.5, AUDIO_RATE_HZ, amplitude=0.8)
        mpx = compose_mpx(MpxComponents(left=left, right=None))
        assert not detect_pilot(mpx)

    def test_ratio_orders_correctly(self):
        mono = compose_mpx(
            MpxComponents(left=tone(1000, 0.5, AUDIO_RATE_HZ), right=None)
        )
        assert pilot_power_ratio_db(stereo_mpx()) > pilot_power_ratio_db(mono) + 10


class TestStereoDecode:
    def test_separates_channels(self):
        audio = decode_stereo(stereo_mpx())
        assert audio.stereo_locked
        # Left channel contains 1 kHz, not 3 kHz; right vice versa.
        assert tone_snr_db(audio.left, AUDIO_RATE_HZ, 1000) > 20
        assert tone_snr_db(audio.right, AUDIO_RATE_HZ, 3000) > 20
        assert tone_snr_db(audio.left, AUDIO_RATE_HZ, 3000) < 10

    def test_mono_fallback_without_pilot(self):
        left = tone(1000, 0.5, AUDIO_RATE_HZ, amplitude=0.8)
        mpx = compose_mpx(MpxComponents(left=left, right=None))
        audio = decode_stereo(mpx)
        assert not audio.stereo_locked
        assert np.array_equal(audio.left, audio.right)

    def test_difference_channel_carries_l_minus_r(self):
        audio = decode_stereo(stereo_mpx())
        # difference = (L-R)/2 -> contains both tones at equal power, so
        # each scores ~0 dB against the other; an absent frequency scores
        # far lower.
        assert tone_snr_db(audio.difference, AUDIO_RATE_HZ, 1000) > -3
        assert tone_snr_db(audio.difference, AUDIO_RATE_HZ, 3000) > -3
        assert tone_snr_db(audio.difference, AUDIO_RATE_HZ, 5000) < -20

    def test_mono_property(self):
        audio = decode_stereo(stereo_mpx())
        assert audio.mono.size == audio.left.size


def mono_mpx(freq_hz=1000, duration=0.5):
    left = tone(freq_hz, duration, AUDIO_RATE_HZ, amplitude=0.8)
    return compose_mpx(MpxComponents(left=left, right=None))


class TestBatchedPilotDetection:
    def test_batch_ratios_match_per_row(self):
        stack = np.stack([stereo_mpx(), mono_mpx()])
        ratios = pilot_power_ratio_db(stack, MPX_RATE_HZ)
        assert ratios.shape == (2,)
        assert ratios[0] == pilot_power_ratio_db(stack[0], MPX_RATE_HZ)
        assert ratios[1] == pilot_power_ratio_db(stack[1], MPX_RATE_HZ)

    def test_noisy_stack_ratios_match_per_row(self, rng):
        # Rows with noise scattered around the detect threshold: each
        # batched ratio must equal the row's own ratio bit for bit, so the
        # batched gate can never decide differently from the serial one.
        base = stereo_mpx(duration=0.2)
        stack = np.stack(
            [
                base + rng.uniform(0.0, 0.6) * rng.standard_normal(base.size)
                for _ in range(5)
            ]
        )
        ratios = pilot_power_ratio_db(stack, MPX_RATE_HZ)
        for row in range(stack.shape[0]):
            assert ratios[row] == pilot_power_ratio_db(stack[row], MPX_RATE_HZ)

    def test_batch_detection_matches_per_row(self):
        stack = np.stack([stereo_mpx(), mono_mpx()])
        detected = detect_pilot(stack, MPX_RATE_HZ)
        assert detected.tolist() == [True, False]


class TestStereoDecodeBatch:
    def test_rows_bit_identical_to_scalar_decode(self):
        # A locked stereo row, a mono-fallback row and a second stereo
        # row with different content — each must decode exactly as alone.
        stack = np.stack([stereo_mpx(), mono_mpx(), stereo_mpx(500, 4000)])
        batch = decode_stereo_batch(stack, MPX_RATE_HZ)
        assert [audio.stereo_locked for audio in batch] == [True, False, True]
        for row, audio in enumerate(batch):
            single = decode_stereo(stack[row], MPX_RATE_HZ)
            assert np.array_equal(audio.left, single.left), row
            assert np.array_equal(audio.right, single.right), row
            assert audio.stereo_locked == single.stereo_locked, row

    def test_force_stereo_applies_to_every_row(self):
        stack = np.stack([stereo_mpx(), mono_mpx()])
        batch = decode_stereo_batch(stack, MPX_RATE_HZ, force_stereo=True)
        assert all(audio.stereo_locked for audio in batch)
        for row, audio in enumerate(batch):
            single = decode_stereo(stack[row], MPX_RATE_HZ, force_stereo=True)
            assert np.array_equal(audio.left, single.left), row

    def test_empty_batch(self):
        assert decode_stereo_batch(np.empty((0, 4096)), MPX_RATE_HZ) == []

    def test_rejects_1d_input(self):
        with pytest.raises(SignalError):
            decode_stereo_batch(stereo_mpx(), MPX_RATE_HZ)
