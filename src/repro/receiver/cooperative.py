"""Cooperative backscatter: two-phone MIMO cancellation (section 3.3).

Phone 1 tunes to the backscattered channel ``fc + fback`` and hears
``FMaudio + FMback``; phone 2 tunes to the original station ``fc`` and
hears ``FMaudio`` alone. Subtracting cancels the ambient program — but the
phones are not time synchronized and phone 1's hardware gain control
rescales ``FMaudio`` once ``FMback`` appears. The paper's fixes, both
implemented here:

1. Resample both streams by 10x in software and cross-correlate to find
   the time offset.
2. The device transmits a low-power 13 kHz pilot as a preamble and keeps
   it running during the payload; the ratio of pilot amplitudes between
   the two segments calibrates the gain change.

``scipy.signal`` is imported inside the functions that call it: it costs
about a second per process, which figures that never call them skip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import AUDIO_RATE_HZ, COOP_PILOT_FREQ_HZ
from repro.dsp.filters import bandpass_fir, filter_signal
from repro.dsp.goertzel import goertzel_power
from repro.dsp.resample import resample_poly_exact
from repro.errors import SynchronizationError
from repro.utils.validation import ensure_positive, ensure_real

RESAMPLE_FACTOR = 10
"""Software resampling factor used before cross-correlation (per paper)."""


@dataclass
class CooperativeResult:
    """Output of the cooperative cancellation.

    Attributes:
        backscatter_audio: the recovered ``FMback`` estimate.
        lag_samples: phone2-relative-to-phone1 offset found by
            cross-correlation, in (original-rate) samples.
        ambient_scale: the least-squares amplitude match applied to
            phone 2's stream before subtraction.
        pilot_gain_ratio: preamble-vs-payload pilot amplitude ratio used
            to undo phone 1's AGC step.
    """

    backscatter_audio: np.ndarray
    lag_samples: int
    ambient_scale: float
    pilot_gain_ratio: float


class CooperativeReceiver:
    """Combines two phones' audio into an interference-free stream.

    Args:
        audio_rate: sample rate of both input streams.
        pilot_freq_hz: the calibration pilot (13 kHz per the paper).
        preamble_seconds: duration of the pilot-only preamble at the start
            of the device's transmission.
        max_lag_seconds: largest time offset searched between phones.
    """

    def __init__(
        self,
        audio_rate: float = AUDIO_RATE_HZ,
        pilot_freq_hz: float = COOP_PILOT_FREQ_HZ,
        preamble_seconds: float = 0.5,
        max_lag_seconds: float = 0.5,
        preamble_pilot_boost: float = 1.0,
    ) -> None:
        self.audio_rate = ensure_positive(audio_rate, "audio_rate")
        self.pilot_freq_hz = ensure_positive(pilot_freq_hz, "pilot_freq_hz")
        self.preamble_seconds = ensure_positive(preamble_seconds, "preamble_seconds")
        self.max_lag_seconds = ensure_positive(max_lag_seconds, "max_lag_seconds")
        self.preamble_pilot_boost = ensure_positive(
            preamble_pilot_boost, "preamble_pilot_boost"
        )

    def _find_lag_upsampled(self, up1: np.ndarray, up2: np.ndarray) -> int:
        """Cross-correlate the 10x-resampled streams; return the lag in
        *upsampled* samples (positive: stream 1's content is delayed
        relative to stream 2's, i.e. ``up1[lag:]`` aligns with
        ``up2[0:]``). Sub-original-sample resolution is the point of the
        paper's 10x resampling: it is what makes the subtraction cancel
        deeply."""
        from scipy.signal import fftconvolve

        max_lag_up = int(self.max_lag_seconds * self.audio_rate) * RESAMPLE_FACTOR
        n = min(up1.size, up2.size)
        a = up1[:n] - np.mean(up1[:n])
        b = up2[:n] - np.mean(up2[:n])
        # FFT-based correlation: corr[k] = sum_n a[n + lag_k] * b[n] with
        # lags from -(n-1) to (n-1). np.correlate's direct algorithm is
        # quadratic and unusable at these lengths.
        corr = fftconvolve(a, b[::-1], mode="full")
        lags = np.arange(-n + 1, n)
        window = np.abs(lags) <= max_lag_up
        if not np.any(window):
            raise SynchronizationError("max_lag window is empty")
        return int(lags[window][int(np.argmax(corr[window]))])

    def _pilot_amplitude(self, audio: np.ndarray, sample_rate: float = None) -> float:
        """Amplitude of the calibration pilot in a block.

        ``goertzel_power`` returns |DFT|^2 / n; for a tone of amplitude A,
        |DFT| = A n / 2, so A = 2 sqrt(power / n). The extra 1/sqrt(n)
        makes the estimate independent of block length — essential here
        because the preamble and payload segments differ in duration.
        """
        rate = self.audio_rate if sample_rate is None else sample_rate
        # Trim to an integer number of pilot cycles: a fractional final
        # cycle scallops the single-bin estimate by up to ~10%, which
        # directly becomes a cancellation error.
        cycles = np.floor(audio.size * self.pilot_freq_hz / rate)
        n = int(cycles * rate / self.pilot_freq_hz)
        if n < 2:
            return 0.0
        block = audio[:n]
        power = goertzel_power(block, self.pilot_freq_hz, rate)
        return float(2.0 * np.sqrt(max(power, 0.0) / block.size))

    def cancel(self, phone1_audio: np.ndarray, phone2_audio: np.ndarray) -> CooperativeResult:
        """Recover ``FMback`` from the two phones' audio.

        Args:
            phone1_audio: audio from the phone tuned to ``fc + fback``
                (ambient + backscatter + pilot preamble).
            phone2_audio: audio from the phone tuned to ``fc`` (ambient
                only).

        Raises:
            SynchronizationError: when the streams cannot be aligned.
        """
        phone1_in = ensure_real(phone1_audio, "phone1_audio")
        phone2_in = ensure_real(phone2_audio, "phone2_audio")

        # All processing happens in the 10x-resampled domain so the
        # alignment (and therefore the subtraction) is good to a tenth of
        # an audio sample.
        up_rate = self.audio_rate * RESAMPLE_FACTOR
        phone1 = resample_poly_exact(phone1_in, RESAMPLE_FACTOR, 1)
        phone2 = resample_poly_exact(phone2_in, RESAMPLE_FACTOR, 1)

        lag_up = self._find_lag_upsampled(phone1, phone2)
        if lag_up > 0:
            phone1 = phone1[lag_up:]
        elif lag_up < 0:
            phone2 = phone2[-lag_up:]
        n = min(phone1.size, phone2.size)
        phone1 = phone1[:n]
        phone2 = phone2[:n]

        # Alignment may have trimmed the start of phone 1's recording,
        # eating into the preamble. The payload begins at the original
        # preamble boundary minus the trim; the calibration fit uses what
        # provably remains of the preamble, with a small guard band.
        payload_start = int(self.preamble_seconds * up_rate) - max(lag_up, 0)
        preamble_n = payload_start - int(0.02 * up_rate)
        if preamble_n < int(0.1 * up_rate):
            raise SynchronizationError(
                "aligned overlap leaves too little preamble for calibration"
            )

        # AGC calibration: pilot amplitude during preamble vs payload on
        # phone 1. If the AGC compressed the payload segment, the pilot
        # there shrinks by the same factor; rescale to undo it.
        pilot_pre = self._pilot_amplitude(phone1[:preamble_n], up_rate)
        pilot_pay = self._pilot_amplitude(phone1[payload_start:], up_rate)
        if pilot_pre <= 0 or pilot_pay <= 0:
            gain_ratio = 1.0
        else:
            # The preamble pilot is transmitted ``preamble_pilot_boost``
            # times louder than the running pilot, so an unchanged receiver
            # gain shows up as exactly that ratio.
            gain_ratio = pilot_pre / (self.preamble_pilot_boost * pilot_pay)
        phone1_cal = np.concatenate(
            [phone1[:payload_start], gain_ratio * phone1[payload_start:]]
        )

        # Ambient amplitude match: least-squares fit of phone2 onto phone1
        # over the preamble, where phone1 contains only ambient + pilot.
        # The pilot band is excluded from the fit. Filtering happens at the
        # *original* audio rate — at the 10x rate a practical FIR cannot
        # realize an 800 Hz-wide notch — so the preamble segments are
        # decimated for the fit (scale is a scalar; resolution is not
        # needed here).
        notch = bandpass_fir(
            self.pilot_freq_hz - 400.0,
            self.pilot_freq_hz + 400.0,
            self.audio_rate,
            513,
        )
        p1_pre = resample_poly_exact(phone1_cal[:preamble_n], 1, RESAMPLE_FACTOR)
        p2_pre = resample_poly_exact(phone2[:preamble_n], 1, RESAMPLE_FACTOR)
        p1_fit = p1_pre - filter_signal(notch, p1_pre)
        p2_fit = p2_pre - filter_signal(notch, p2_pre)
        denom = float(np.dot(p2_fit, p2_fit))
        if denom <= 0:
            raise SynchronizationError("phone 2 preamble is silent")
        scale = float(np.dot(p1_fit, p2_fit)) / denom

        recovered_up = phone1_cal - scale * phone2
        recovered = resample_poly_exact(recovered_up[payload_start:], 1, RESAMPLE_FACTOR)
        # Remove the running calibration pilot: it served its purpose and
        # would otherwise sit in the recovered audio as a steady tone.
        recovered = recovered - filter_signal(notch, recovered)
        return CooperativeResult(
            backscatter_audio=recovered,
            lag_samples=int(np.round(lag_up / RESAMPLE_FACTOR)),
            ambient_scale=scale,
            pilot_gain_ratio=gain_ratio,
        )
