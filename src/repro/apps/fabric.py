"""Smart fabric (paper section 6.2): a shirt that streams vital signs.

The sewn meander-dipole antenna backscatters sensor readings — heart rate
and breathing rate — to the wearer's phone at 100 bps (robust even while
running) or 1.6 kbps with MRC. Sensor values are packed into a compact
telemetry frame; the phone decodes and unpacks them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.backscatter.device import BackscatterMode
from repro.channel.antenna import MEANDER_SHIRT, Antenna
from repro.channel.fading import BodyMotionFading
from repro.data.framing import FrameCodec
from repro.data.fsk import BinaryFskModem
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentChain
from repro.utils.rand import RngLike, as_generator, child_generator


@dataclass(frozen=True)
class VitalSigns:
    """One telemetry sample.

    Attributes:
        heart_rate_bpm: heart rate, 30-250 bpm.
        breathing_rate_bpm: breaths per minute, 4-60.
        step_count: steps since the session started.
    """

    heart_rate_bpm: int
    breathing_rate_bpm: int
    step_count: int

    def __post_init__(self) -> None:
        if not 30 <= self.heart_rate_bpm <= 250:
            raise ConfigurationError("heart_rate_bpm must be 30-250")
        if not 4 <= self.breathing_rate_bpm <= 60:
            raise ConfigurationError("breathing_rate_bpm must be 4-60")
        if not 0 <= self.step_count < (1 << 32):
            raise ConfigurationError("step_count must fit in 32 bits")

    def pack(self) -> bytes:
        """Serialize into the 6-byte telemetry format."""
        return struct.pack(">BBI", self.heart_rate_bpm, self.breathing_rate_bpm, self.step_count)

    @classmethod
    def unpack(cls, payload: bytes) -> "VitalSigns":
        """Deserialize the 6-byte telemetry format."""
        if len(payload) != 6:
            raise ConfigurationError(f"telemetry payload must be 6 bytes, got {len(payload)}")
        hr, br, steps = struct.unpack(">BBI", payload)
        return cls(heart_rate_bpm=hr, breathing_rate_bpm=br, step_count=steps)


@dataclass
class SmartFabricSensor:
    """The shirt: sensor + sewn antenna + backscatter switch.

    Args:
        antenna: the fabric antenna (sewn meander dipole by default).
        ambient_power_dbm: FM power at the wearer's location.
        motion: mobility state (``standing`` / ``walking`` / ``running``)
            driving the fading model.
    """

    antenna: Antenna = field(default_factory=lambda: MEANDER_SHIRT)
    ambient_power_dbm: float = -37.0
    motion: str = "standing"

    def device_spec(
        self,
        vitals: VitalSigns,
        distance_ft: float = 3.0,
        name: Optional[str] = None,
    ):
        """This shirt as a deployment-layer device.

        The returned :class:`~repro.engine.deployment.DeviceSpec`
        carries the sensor's telemetry frame, its sewn antenna and its
        mobility state, so a fleet of shirts can be swept through
        :class:`~repro.engine.deployment.DeploymentScenario` (device
        count / power / density as axes) instead of hand-rolled loops.
        """
        from repro.engine.deployment import DeviceSpec

        return DeviceSpec(
            name=name or f"shirt-{self.motion}",
            payload=vitals.pack(),
            power_dbm=self.ambient_power_dbm,
            distance_ft=distance_ft,
            motion=self.motion,
            antenna=self.antenna,
        )

    def transmit_vitals(
        self,
        vitals: VitalSigns,
        distance_ft: float = 3.0,
        rng: RngLike = None,
    ) -> Optional[VitalSigns]:
        """Send one telemetry frame to the phone; return the decoded copy.

        Returns ``None`` when the frame could not be recovered (deep fade
        or out of range) — callers retry, like the real system would.
        """
        gen = as_generator(rng)
        modem = BinaryFskModem()
        codec = FrameCodec(modem)
        waveform = codec.encode(vitals.pack())

        fading = BodyMotionFading(self.motion, child_generator(gen, "fade"))
        chain = ExperimentChain(
            program="news",
            mode=BackscatterMode.OVERLAY,
            power_dbm=self.ambient_power_dbm,
            distance_ft=distance_ft,
            stereo_decode=False,
            fading=fading,
            device_antenna=self.antenna,
        )
        received = chain.transmit(waveform, child_generator(gen, "rx"))
        try:
            sync = codec.decode(chain.payload_channel(received))
            return VitalSigns.unpack(sync.payload)
        except Exception:
            return None
