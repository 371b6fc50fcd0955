"""Talking posters (paper section 6.1).

A poster with a copper-tape antenna backscatters the local news station
(-35..-40 dBm ambient) to phones and cars nearby: an audio snippet (the
band's music) overlaid on the broadcast, plus a 100 bps data notification
(the discount-ticket link of Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.backscatter.device import BackscatterMode
from repro.channel.antenna import Antenna, DIPOLE_POSTER
from repro.data.framing import FrameCodec
from repro.data.fsk import BinaryFskModem
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentChain
from repro.receiver.fm_receiver import ReceivedAudio
from repro.utils.rand import RngLike, as_generator, child_generator


@dataclass
class PosterBroadcast:
    """What a poster reception yielded.

    Attributes:
        notification: decoded notification text (None if undecodable).
        audio: the received composite audio (ambient program + snippet).
        preamble_errors: bit errors in the frame preamble.
    """

    notification: Optional[str]
    audio: np.ndarray
    preamble_errors: int


@dataclass
class TalkingPoster:
    """A backscattering poster at a bus stop.

    Args:
        notification_text: short message broadcast as 100 bps data
            (e.g. "SIMPLY THREE 50% OFF TONIGHT").
        antenna: poster antenna; the 40"x60" dipole or 24"x36" bowtie.
        ambient_power_dbm: FM power at the poster (-35..-40 dBm measured
            at the paper's bus stop).
        program: ambient station format (the paper uses a news station).
    """

    notification_text: str = "SIMPLY THREE 50% OFF"
    antenna: Antenna = field(default_factory=lambda: DIPOLE_POSTER)
    ambient_power_dbm: float = -37.0
    program: str = "news"

    def __post_init__(self) -> None:
        if not self.notification_text:
            raise ConfigurationError("notification_text must be non-empty")
        if not self.notification_text.isascii():
            raise ConfigurationError("notification_text must be ASCII")

    def _chain(self, distance_ft: float, receiver_kind: str) -> ExperimentChain:
        return ExperimentChain(
            program=self.program,
            mode=BackscatterMode.OVERLAY,
            power_dbm=self.ambient_power_dbm,
            distance_ft=distance_ft,
            receiver_kind=receiver_kind,
            stereo_decode=False,
            device_antenna=self.antenna,
        )

    def broadcast_notification(
        self,
        distance_ft: float = 10.0,
        receiver_kind: str = "smartphone",
        rng: RngLike = None,
    ) -> PosterBroadcast:
        """Send the notification as a framed 100 bps transmission.

        The receiver searches for the frame preamble in the decoded audio
        (no sample alignment is assumed) and extracts the text payload.
        """
        gen = as_generator(rng)
        modem = BinaryFskModem()
        codec = FrameCodec(modem)
        waveform = codec.encode(self.notification_text.encode("ascii"))

        chain = self._chain(distance_ft, receiver_kind)
        received = chain.transmit(waveform, child_generator(gen, "frame"))
        audio = chain.payload_channel(received)
        try:
            sync = codec.decode(audio)
            text = sync.payload.decode("ascii", errors="replace")
            return PosterBroadcast(
                notification=text, audio=audio, preamble_errors=sync.preamble_errors
            )
        except Exception:
            return PosterBroadcast(notification=None, audio=audio, preamble_errors=-1)

    def broadcast_audio(
        self,
        snippet: np.ndarray,
        distance_ft: float = 4.0,
        receiver_kind: str = "smartphone",
        rng: RngLike = None,
    ) -> Tuple[np.ndarray, ReceivedAudio]:
        """Overlay an audio snippet (the band's music) on the broadcast.

        Returns:
            ``(payload channel audio, full reception)``.
        """
        chain = self._chain(distance_ft, receiver_kind)
        received = chain.transmit(snippet, rng)
        return chain.payload_channel(received), received
