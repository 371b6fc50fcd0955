"""Receiver output effects against independent per-channel references.

The phone and car recording chains exist only as vectorized
``apply_output_effects_batch`` methods; the per-point call is their
one-row call. The two functions below are the per-channel bodies those
methods replaced (the phone's ``_finalize`` and the car's
``_acoustic_path``), kept verbatim as test-local references so the
batched effects are checked against code that shares nothing with them.
"""

import numpy as np
import pytest

from repro.dsp.filters import bandpass_fir, design_lowpass_fir, filter_signal
from repro.receiver.car import CarReceiver
from repro.receiver.fm_receiver import ReceivedAudio
from repro.receiver.smartphone import SmartphoneReceiver

N_SAMPLES = 4800


def reference_finalize(self, audio: np.ndarray) -> np.ndarray:
    if self.agc_enabled:
        if self.agc_dynamic:
            audio = self._agc.apply(audio)
        else:
            audio = self._agc.static_gain(audio) * audio
    if self.codec_noise_db is not None:
        noise_rms = 10.0 ** (self.codec_noise_db / 20.0)
        audio = audio + noise_rms * self._rng.standard_normal(audio.size)
    return audio


def reference_acoustic_path(self, audio: np.ndarray) -> np.ndarray:
    """Speaker -> cabin -> microphone: band-limit plus engine noise."""
    # Speakers and mic pass ~60 Hz - 12 kHz.
    shaped = filter_signal(
        bandpass_fir(60.0, min(12e3, self.audio_rate / 2 * 0.9), self.audio_rate, 257),
        audio,
    )
    signal_power = float(np.mean(shaped**2))
    if signal_power <= 0:
        return shaped
    # Engine noise is low-frequency dominated: shape white noise down.
    noise = self._rng.standard_normal(shaped.size)
    noise = filter_signal(design_lowpass_fir(400.0, self.audio_rate, 129), noise)
    noise += 0.1 * self._rng.standard_normal(shaped.size)
    noise_power = float(np.mean(noise**2))
    target_noise_power = signal_power / (10.0 ** (self.cabin_noise_snr_db / 10.0))
    noise *= np.sqrt(target_noise_power / max(noise_power, 1e-30))
    return shaped + noise


def _rows(channel_pairs):
    rng = np.random.default_rng(99)
    rows = []
    for k, (left_scale, right_scale) in enumerate(channel_pairs):
        left = left_scale * rng.standard_normal(N_SAMPLES)
        right = right_scale * rng.standard_normal(N_SAMPLES)
        rows.append(
            ReceivedAudio(
                left=left,
                right=right,
                stereo_locked=bool(k % 2),
                mpx=rng.standard_normal(64),
                audio_rate=48_000.0,
            )
        )
    return rows


def _assert_matches_reference(batched, rows, build, reference):
    for i, row in enumerate(rows):
        rx = build(i)  # a fresh receiver on the same seed as row i's
        assert np.array_equal(batched[i].left, reference(rx, row.left)), i
        assert np.array_equal(batched[i].right, reference(rx, row.right)), i
        assert batched[i].stereo_locked == row.stereo_locked
        assert batched[i].mpx is row.mpx


PHONE_CONFIGS = [
    dict(agc_enabled=False, codec_noise_db=-60.0),
    dict(agc_enabled=True, codec_noise_db=-60.0),
    dict(agc_enabled=True, agc_dynamic=True, codec_noise_db=-45.0),
    dict(agc_enabled=True, agc_dynamic=True, codec_noise_db=None),
    dict(agc_enabled=False, codec_noise_db=None),
    dict(agc_enabled=True, codec_noise_db=-30.0),
]


def _phone(i):
    return SmartphoneReceiver(rng=100 + i, **PHONE_CONFIGS[i])


CAR_SNRS = [40.0, 25.0, 10.0, 37.3, 40.0]


def _car(i):
    return CarReceiver(cabin_noise_snr_db=CAR_SNRS[i], rng=200 + i)


class TestSmartphoneEffects:
    def test_mixed_agc_batch_matches_reference(self):
        rows = _rows([(0.3, 0.2), (0.05, 1.5), (0.4, 0.4), (2.0, 0.1), (0.2, 0.0), (1.0, 1.0)])
        receivers = [_phone(i) for i in range(len(rows))]
        batched = SmartphoneReceiver.apply_output_effects_batch(receivers, rows)
        _assert_matches_reference(batched, rows, _phone, reference_finalize)

    @pytest.mark.parametrize("i", range(len(PHONE_CONFIGS)))
    def test_one_row_call_matches_reference(self, i):
        row = _rows([(0.3, 0.7)])[0]
        received = _phone(i).apply_output_effects(row)
        _assert_matches_reference([received], [row], lambda _: _phone(i), reference_finalize)


class TestCarEffects:
    def test_batch_with_silent_channels_matches_reference(self):
        # Silent channels draw nothing, so the rows after them must still
        # line up with their own generators.
        rows = _rows([(0.0, 0.5), (0.8, 0.0), (0.0, 0.0), (0.3, 0.3), (1.2, 0.6)])
        receivers = [_car(i) for i in range(len(rows))]
        batched = CarReceiver.apply_output_effects_batch(receivers, rows)
        assert not np.any(batched[2].left) and not np.any(batched[2].right)
        _assert_matches_reference(batched, rows, _car, reference_acoustic_path)

    @pytest.mark.parametrize("i", range(len(CAR_SNRS)))
    def test_one_row_call_matches_reference(self, i):
        row = _rows([(0.5, 0.0)])[0]
        received = _car(i).apply_output_effects(row)
        _assert_matches_reference([received], [row], lambda _: _car(i), reference_acoustic_path)
