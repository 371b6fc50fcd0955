"""Car FM receiver (2010 Honda CRV-class) with the cabin acoustic path.

Section 5.4: the car radio has a better antenna and front end than a
phone, but is *not programmable*, so the only output is sound from the
speakers — the paper records it with a microphone, engine running and
windows closed. We model the receiver with a lower noise floor plus an
acoustic path: speaker/cabin band-limiting and engine noise.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.dsp.filters import bandpass_fir, design_lowpass_fir, filter_signal
from repro.receiver.fm_receiver import FMReceiver, ReceivedAudio
from repro.utils.rand import RngLike, as_generator

CAR_AUDIO_CUTOFF_HZ = 15_000.0
"""Car stereos pass the full broadcast audio band."""

CABIN_NOISE_SNR_DB = 40.0
"""Engine + cabin noise relative to the program level at the microphone."""


class CarReceiver(FMReceiver):
    """Car radio + speaker + cabin-microphone chain.

    Args:
        mpx_rate: IQ sample rate.
        audio_rate: output audio rate.
        cabin_noise_snr_db: acoustic SNR of the microphone recording.
        rng: seed or Generator for the cabin noise.
    """

    def __init__(
        self,
        mpx_rate: float = MPX_RATE_HZ,
        audio_rate: float = AUDIO_RATE_HZ,
        cabin_noise_snr_db: float = CABIN_NOISE_SNR_DB,
        rng: RngLike = None,
    ) -> None:
        super().__init__(
            mpx_rate=mpx_rate,
            audio_rate=audio_rate,
            audio_cutoff_hz=CAR_AUDIO_CUTOFF_HZ,
        )
        self.cabin_noise_snr_db = cabin_noise_snr_db
        self._rng = as_generator(rng)

    @classmethod
    def apply_output_effects_batch(
        cls, receivers: Sequence["CarReceiver"], received: Sequence[ReceivedAudio]
    ) -> List[ReceivedAudio]:
        """Speaker -> cabin -> microphone: band-limit plus engine noise.

        The speakers and microphone pass ~60 Hz - 12 kHz; the engine
        noise is white noise shaped low-frequency dominated, scaled to
        ``cabin_noise_snr_db`` below the shaped signal. Both filters run
        as 2-D passes over every (row, channel) at once. The noise draws
        stay per row — left's two draws, then right's, from each
        receiver's own generator — and a channel whose shaped signal has
        no power is returned shaped but noiseless, drawing nothing.
        """
        receivers = list(receivers)
        received = list(received)
        if not receivers:
            return []
        ref = receivers[0]
        n_rows = len(receivers)

        # Channel-major stack: rows [0..n) are lefts, [n..2n) are rights.
        audio = np.concatenate(
            [
                np.stack([row.left for row in received]),
                np.stack([row.right for row in received]),
            ]
        )
        shaped = filter_signal(
            bandpass_fir(
                60.0, min(12e3, ref.audio_rate / 2 * 0.9), ref.audio_rate, 257
            ),
            audio,
        )
        signal_power = np.mean(shaped**2, axis=-1)

        # Draws per row: left d1, d2 then right d1, d2 from that row's
        # generator; silent channels draw nothing.
        active: List[Tuple[int, int]] = []  # (row, channel-major index)
        n_samples = shaped.shape[-1]
        draw_list: List[np.ndarray] = []
        for i, rx in enumerate(receivers):
            for stacked in (i, n_rows + i):  # left before right
                if signal_power[stacked] <= 0:
                    continue
                active.append((i, stacked))
                pair = np.empty((2, n_samples))
                rx._rng.standard_normal(out=pair[0])
                rx._rng.standard_normal(out=pair[1])
                draw_list.append(pair)

        if active:
            draws = np.stack(draw_list)
            noise = filter_signal(
                design_lowpass_fir(400.0, ref.audio_rate, 129), draws[:, 0]
            )
            noise += 0.1 * draws[:, 1]
            noise_power = np.mean(noise**2, axis=-1)
            rows_idx = np.array([i for i, _ in active])
            stacked_idx = np.array([s for _, s in active])
            # The scalar pow per row: NumPy's SIMD array power can round
            # an ULP away from it, which would tie a row's noise to its
            # batch.
            snr_linear = np.array(
                [10.0 ** (receivers[i].cabin_noise_snr_db / 10.0) for i in rows_idx]
            )
            target = signal_power[stacked_idx] / snr_linear
            noise *= np.sqrt(target / np.maximum(noise_power, 1e-30))[:, np.newaxis]
            shaped[stacked_idx] += noise

        return [
            ReceivedAudio(
                left=shaped[i],
                right=shaped[n_rows + i],
                stereo_locked=row.stereo_locked,
                mpx=row.mpx,
                audio_rate=row.audio_rate,
            )
            for i, row in enumerate(received)
        ]
