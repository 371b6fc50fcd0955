"""Smartphone FM receiver (Moto G1-class).

The paper decodes on a Moto G1 with headphone-cable antenna through
Motorola's FM app, which stores AAC audio. Fig. 6 shows the resulting
chain is flat to ~13 kHz then falls off a cliff; the app/codec also
applies gain control. Both effects matter: the 13 kHz cutoff bounds the
usable FSK tone range, and the AGC is why cooperative backscatter needs
its amplitude-calibration pilot.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.dsp.agc import AutomaticGainControl
from repro.receiver.fm_receiver import FMReceiver, ReceivedAudio
from repro.utils.rand import RngLike, as_generator

SMARTPHONE_AUDIO_CUTOFF_HZ = 13_000.0
"""The Fig. 6 measured cutoff of the phone + app + codec chain."""


class SmartphoneReceiver(FMReceiver):
    """Moto G1-style receiver: 13 kHz audio cutoff, AGC, codec noise.

    Args:
        mpx_rate: IQ sample rate.
        audio_rate: output audio rate.
        agc_enabled: model the recording chain's gain control.
        agc_dynamic: when True, run the block-adaptive AGC (gain follows
            the program envelope); when False (default), apply a single
            recording-level gain like apps that set input gain once — the
            behaviour the paper's one-shot pilot calibration assumes.
        codec_noise_db: noise floor added by the AAC-class codec, in dB
            below full scale (negative number).
        rng: seed or Generator for the codec noise.
    """

    def __init__(
        self,
        mpx_rate: float = MPX_RATE_HZ,
        audio_rate: float = AUDIO_RATE_HZ,
        agc_enabled: bool = True,
        agc_dynamic: bool = False,
        codec_noise_db: float = -60.0,
        rng: RngLike = None,
    ) -> None:
        super().__init__(
            mpx_rate=mpx_rate,
            audio_rate=audio_rate,
            audio_cutoff_hz=SMARTPHONE_AUDIO_CUTOFF_HZ,
        )
        self.agc_enabled = agc_enabled
        self.agc_dynamic = agc_dynamic
        self.codec_noise_db = codec_noise_db
        self._agc = AutomaticGainControl(sample_rate=audio_rate)
        self._rng = as_generator(rng)

    @classmethod
    def apply_output_effects_batch(
        cls, receivers: Sequence["SmartphoneReceiver"], received: Sequence[ReceivedAudio]
    ) -> List[ReceivedAudio]:
        """The phone's recording-chain effects (AGC, codec noise), vectorized.

        Gains apply per row through the row's own AGC — a single static
        gain, or the block-adaptive AGC when ``agc_dynamic``. The AGC is
        stateless, so applying all gains before any noise leaves the
        draw order alone. The codec-noise draws stay per row — left then
        right from each receiver's own generator — and the noise
        scale-and-add runs as stacked array ops, so the Python cost is
        paid once per batch instead of once per point.
        """
        receivers = list(receivers)
        received = list(received)
        if not receivers:
            return []

        stacks = {
            "left": np.stack([row.left for row in received]),
            "right": np.stack([row.right for row in received]),
        }
        out = {}
        for channel in ("left", "right"):
            audio = stacks[channel]
            gained = np.empty_like(audio)
            for i, rx in enumerate(receivers):
                if not rx.agc_enabled:
                    gained[i] = audio[i]
                elif rx.agc_dynamic:
                    gained[i] = rx._agc.apply(audio[i])
                else:
                    np.multiply(audio[i], rx._agc.static_gain(audio[i]), out=gained[i])
            out[channel] = gained
        # Codec noise: per-row draws (left first, then right — each
        # receiver's own stream), one vectorized scale-and-add.
        n_samples = stacks["left"].shape[-1]
        noisy_rows = [i for i, rx in enumerate(receivers) if rx.codec_noise_db is not None]
        if noisy_rows:
            draws = np.empty((len(noisy_rows), 2, n_samples))
            noise_rms = np.empty((len(noisy_rows), 1))
            for k, i in enumerate(noisy_rows):
                rx = receivers[i]
                rx._rng.standard_normal(out=draws[k, 0])
                rx._rng.standard_normal(out=draws[k, 1])
                noise_rms[k, 0] = 10.0 ** (rx.codec_noise_db / 20.0)
            out["left"][noisy_rows] += noise_rms * draws[:, 0]
            out["right"][noisy_rows] += noise_rms * draws[:, 1]

        return [
            ReceivedAudio(
                left=out["left"][i],
                right=out["right"][i],
                stereo_locked=row.stereo_locked,
                mpx=row.mpx,
                audio_rate=row.audio_rate,
            )
            for i, row in enumerate(received)
        ]
