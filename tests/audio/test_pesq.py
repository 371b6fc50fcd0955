"""Perceptual metric calibration tests — the anchors ``repro.audio.pesq`` names."""

import numpy as np
import pytest

from repro.audio.pesq import _align, pesq_like
from repro.audio.speech import speech_like
from repro.errors import SignalError

FS = 48_000.0


@pytest.fixture(scope="module")
def speech():
    return speech_like(2.0, FS, rng=3, amplitude=0.9)


@pytest.fixture(scope="module")
def interferer():
    return speech_like(2.0, FS, rng=11, pitch_hz=95, amplitude=0.9)


def with_sir(speech, interferer, sir_db):
    scale = np.std(speech) / np.std(interferer) * 10 ** (-sir_db / 20)
    return speech + scale * interferer


class TestAnchors:
    def test_identity_scores_max(self, speech):
        assert pesq_like(speech, speech, FS) == pytest.approx(4.5)

    def test_scale_invariance(self, speech):
        assert pesq_like(speech, 0.4 * speech, FS) == pytest.approx(4.5, abs=0.05)

    def test_light_noise_stays_high(self, speech):
        rng = np.random.default_rng(0)
        degraded = speech + np.std(speech) * 10 ** (-40 / 20) * rng.standard_normal(speech.size)
        assert pesq_like(speech, degraded, FS) > 3.5

    def test_equal_level_interference_scores_about_two(self, speech, interferer):
        # The overlay-backscatter situation: payload + ambient program at
        # comparable level. Paper reads ~2.
        score = pesq_like(speech, with_sir(speech, interferer, 0), FS)
        assert 1.6 < score < 2.6

    def test_buried_speech_approaches_floor(self, speech, interferer):
        score = pesq_like(speech, with_sir(speech, interferer, -10), FS)
        assert score < 1.8

    def test_silence_scores_floor(self, speech):
        assert pesq_like(speech, np.zeros_like(speech), FS) == 1.0


class TestMonotonicity:
    def test_score_decreases_with_interference(self, speech, interferer):
        scores = [
            pesq_like(speech, with_sir(speech, interferer, sir), FS)
            for sir in (15, 5, -5, -15)
        ]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_score_decreases_with_noise(self, speech):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal(speech.size)
        scores = [
            pesq_like(speech, speech + np.std(speech) * 10 ** (-snr / 20) * noise, FS)
            for snr in (40, 25, 10)
        ]
        assert scores[0] > scores[1] > scores[2]


class TestAlignment:
    def test_time_shift_absorbed(self, speech):
        shifted = np.concatenate([np.zeros(2400), speech[:-2400]])
        assert pesq_like(speech, shifted, FS) > 4.0

    def test_zero_max_lag_returns_input_and_zero_lag(self, speech):
        # pesq_like unpacks (degraded, lag); the disabled search must
        # keep that shape rather than return the bare array.
        shifted = np.concatenate([np.zeros(2400), speech[:-2400]])
        aligned, lag = _align(speech, shifted, 0)
        assert aligned is shifted
        assert lag == 0

    def test_reports_the_lag_it_applied(self, speech):
        shifted = np.concatenate([np.zeros(2400), speech[:-2400]])
        aligned, lag = _align(speech, shifted, int(0.5 * FS))
        assert lag == 2400
        assert np.array_equal(aligned[:-2400], speech[:-2400])


class TestValidation:
    def test_rejects_short_input(self):
        with pytest.raises(SignalError):
            pesq_like(np.ones(100), np.ones(100), FS)

    def test_rejects_silent_reference(self):
        with pytest.raises(SignalError):
            pesq_like(np.zeros(48_000), np.ones(48_000), FS)
