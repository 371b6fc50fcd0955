"""Declarative many-device deployments on the sweep engine.

The paper's headline vision (sections 1 and 8) is city-scale: many
street signs, posters and shirts coexisting on one FM band. Section 8
sketches the coexistence policies — devices in reach of *different*
empty channels use different ``fback`` values; devices forced onto the
*same* channel share it "with MAC protocols similar to the Aloha
protocol". This module makes that story a first-class, sweepable
workload:

- :class:`DeviceSpec` — one backscatter device (payload, power at the
  device, distance to the receiver, optional body-motion fading).
- :class:`ChannelPlan` — the coexistence policy. It routes the existing
  primitives instead of re-implementing them: channel selection through
  :class:`~repro.receiver.scanner.BandScanner` (quietest free channel in
  reach, per section 3.3) and slot contention through
  :class:`~repro.data.mac.SlottedAlohaSimulator` (framed ALOHA).
- :class:`DeploymentScenario` — N devices + a plan + a receiver
  placement, compiled by :meth:`DeploymentScenario.compile` into an
  ordinary picklable :class:`~repro.engine.scenario.Scenario`, so device
  count, per-device power, ALOHA slot count and sign density are sweep
  axes like any other: they run under every ``REPRO_SWEEP_BACKEND``
  setting and on the launcher, their per-point streams are pre-derived
  (bit-identical results everywhere), and the ambient station is synthesized once per
  grid — not once per device — through the runner's
  :class:`~repro.engine.cache.AmbientCache`.

Per-point execution (``frames`` traffic): the plan assigns channels,
each frame round runs the MAC for the sharing group, and every device
that wins a clean slot transmits its frame through the full physical
chain (station + device + link + receiver + frame decode). The value is
a plain dict of per-device outcomes plus deployment-level delivery rate
and aggregate goodput. ``audio`` traffic models listeners instead:
per-device overlay PESQ, plus two-phone cooperative cancellation when
the receiver placement asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.constants import AUDIO_RATE_HZ
from repro.data.mac import SlottedAlohaSimulator
from repro.engine.scenario import AxisRef, Scenario, SweepSpec
from repro.errors import ConfigurationError, DemodulationError
from repro.receiver.scanner import BandScanner, ChannelObservation
from repro.utils.rand import RngLike, child_generator

DEFAULT_BAND_SNAPSHOT: Tuple[Tuple[int, float], ...] = (
    (47, -92.0),
    (48, -45.0),
    (49, -88.0),
    (50, -35.0),  # the strong local station the devices backscatter
    (51, -86.0),
    (52, -44.0),
    (53, -95.0),
)
"""Band activity around the paper's strong local station (channel 50):
two adjacent broadcasters at ±2 channels, quiet channels elsewhere."""

TRAFFIC_KINDS = ("frames", "audio")
"""Deployment traffic models: framed data uplinks, or audio listeners."""

SWEEPABLE_AXES = ("n_devices", "power_dbm", "slots_per_frame", "distance_scale")
"""Axis names a deployment sweep understands.

``n_devices`` activates the first N roster devices; ``power_dbm``
overrides every device's ambient power (the paper's link-budget knob);
``slots_per_frame`` resizes the ALOHA frame; ``distance_scale`` scales
every device-receiver distance — the sign-density knob (doubling density
shrinks distances by ``1/sqrt(2)``)."""


@dataclass(frozen=True)
class DeviceSpec:
    """One deployed backscatter device.

    Attributes:
        name: label carried into per-device results.
        payload: the frame payload the device repeats (``frames``
            traffic; unused for ``audio`` traffic).
        power_dbm: ambient FM power at the device.
        distance_ft: device-to-receiver distance.
        motion: optional body-motion fading state (``standing`` /
            ``walking`` / ``running``) for fabric devices.
        antenna: optional device antenna override (poster dipole when
            unset); fabric devices pass the sewn meander dipole.
        back_amplitude: payload amplitude in the device baseband (0, 1].
    """

    name: str
    payload: bytes = b""
    power_dbm: float = -35.0
    distance_ft: float = 8.0
    motion: Optional[str] = None
    antenna: Optional[object] = None
    back_amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("device name must be non-empty")
        if not np.isfinite(self.power_dbm):
            raise ConfigurationError(f"power_dbm must be finite, got {self.power_dbm!r}")
        if not self.distance_ft > 0:
            raise ConfigurationError(f"distance_ft must be positive, got {self.distance_ft!r}")
        if not 0.0 < self.back_amplitude <= 1.0:
            raise ConfigurationError(
                f"back_amplitude must be in (0, 1], got {self.back_amplitude!r}"
            )


@dataclass(frozen=True)
class ReceiverPlacement:
    """The listening side of a deployment.

    Attributes:
        kind: ``smartphone`` or ``car``.
        agc: enable the smartphone recording-chain AGC.
        cooperative: for ``audio`` traffic, add the second phone tuned to
            the ambient station and cancel the program (section 3.3).
    """

    kind: str = "smartphone"
    agc: bool = False
    cooperative: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("smartphone", "car"):
            raise ConfigurationError("receiver kind must be 'smartphone' or 'car'")


@dataclass(frozen=True)
class ChannelAssignment:
    """Per-device channel decisions made by a :class:`ChannelPlan`.

    Attributes:
        channels: channel index per device; ``-1`` means unserved (the
            ``dedicated`` policy ran out of free channels).
        fbacks_hz: the backscatter shift mapping the source channel onto
            each device's channel (0.0 for unserved devices).
        shared: whether the device contends for its channel via ALOHA.
    """

    channels: Tuple[int, ...]
    fbacks_hz: Tuple[float, ...]
    shared: Tuple[bool, ...]

    @property
    def sharing_indices(self) -> Tuple[int, ...]:
        """Devices contending on a shared channel, in roster order."""
        return tuple(i for i, s in enumerate(self.shared) if s)

    @property
    def n_served(self) -> int:
        return sum(1 for c in self.channels if c >= 0)

    def describe(self) -> List[str]:
        """Human-readable one-liner per device (for example drivers)."""
        lines = []
        for i, (channel, fback, shared) in enumerate(
            zip(self.channels, self.fbacks_hz, self.shared)
        ):
            if channel < 0:
                lines.append(f"device {i}: unserved (no free channel in reach)")
            else:
                mode = "shared, slotted ALOHA" if shared else "dedicated"
                lines.append(
                    f"device {i}: channel {channel} "
                    f"(fback = {fback / 1e3:.0f} kHz, {mode})"
                )
        return lines


@dataclass(frozen=True)
class ChannelPlan:
    """Coexistence policy: who transmits on which channel, and how.

    Policies (section 8):

    - ``dedicated`` — every device gets its own free channel, chosen
      quietest-first by :class:`~repro.receiver.scanner.BandScanner`;
      devices beyond the free-channel supply are unserved.
    - ``aloha`` — all devices share the single best free channel and
      contend with framed slotted ALOHA.
    - ``auto`` (default) — dedicated channels while they last, then the
      overflow shares the last assigned channel (with its owner).

    Args:
        policy: one of ``dedicated`` / ``aloha`` / ``auto``.
        band_snapshot: ``(channel, power_dbm)`` observations of the band.
        source_channel: the strong station the devices backscatter.
        occupancy_threshold_dbm: occupied-channel threshold for the
            scanner.
        max_shift_channels: how far ``fback`` can move energy.
        slots_per_frame: ALOHA frame size (slots per frame round); a
            sweep's ``slots_per_frame`` axis overrides it per point.
    """

    policy: str = "auto"
    band_snapshot: Tuple[Tuple[int, float], ...] = DEFAULT_BAND_SNAPSHOT
    source_channel: int = 50
    occupancy_threshold_dbm: float = -70.0
    max_shift_channels: int = 4
    slots_per_frame: int = 8

    def __post_init__(self) -> None:
        if self.policy not in ("dedicated", "aloha", "auto"):
            raise ConfigurationError(
                f"policy must be 'dedicated', 'aloha' or 'auto', got {self.policy!r}"
            )
        if self.slots_per_frame < 1:
            raise ConfigurationError("slots_per_frame must be >= 1")
        if self.max_shift_channels < 1:
            raise ConfigurationError("max_shift_channels must be >= 1")

    def scanner(self) -> BandScanner:
        """The configured band scanner."""
        return BandScanner(occupancy_threshold_dbm=self.occupancy_threshold_dbm)

    def observations(self) -> List[ChannelObservation]:
        """The snapshot as scanner observations."""
        return [ChannelObservation(channel=c, power_dbm=p) for c, p in self.band_snapshot]

    def occupied_channels(self) -> List[int]:
        """Channels the snapshot shows as occupied by broadcasters."""
        return self.scanner().occupied_channels(self.observations())

    def free_channels(self, limit: Optional[int] = None) -> List[int]:
        """Free channels in reach, quietest first, up to ``limit``."""
        # 2 * max_shift_channels bounds the channels in reach, so it is
        # a safe "all of them" cap when no limit is given.
        return self.scanner().allocate_channels(
            self.observations(),
            self.source_channel,
            limit if limit is not None else 2 * self.max_shift_channels,
            self.max_shift_channels,
        )

    def assign(self, n_devices: int) -> ChannelAssignment:
        """Assign ``n_devices`` roster slots to channels under the policy."""
        if n_devices < 1:
            raise ConfigurationError("n_devices must be >= 1")
        if self.policy == "aloha":
            free = self.free_channels(limit=1)
            if not free:
                raise ConfigurationError(
                    "ALOHA sharing needs at least one free channel in reach"
                )
            channels = [free[0]] * n_devices
            shared = [n_devices > 1] * n_devices
        else:
            free = self.free_channels(limit=n_devices)
            if len(free) >= n_devices:
                channels = free[:n_devices]
                shared = [False] * n_devices
            elif self.policy == "dedicated":
                channels = free + [-1] * (n_devices - len(free))
                shared = [False] * n_devices
            else:  # auto: overflow shares the last free channel with its owner
                if not free:
                    raise ConfigurationError(
                        "deployment has no free channel in reach of the source"
                    )
                channels = free + [free[-1]] * (n_devices - len(free))
                shared = [c == free[-1] for c in channels]
        fbacks = tuple(
            BandScanner.fback_for_channels(self.source_channel, c) if c >= 0 else 0.0
            for c in channels
        )
        return ChannelAssignment(
            channels=tuple(channels), fbacks_hz=fbacks, shared=tuple(shared)
        )

    def mac(self, n_sharing: int) -> SlottedAlohaSimulator:
        """The ALOHA simulator for a sharing group of ``n_sharing``."""
        return SlottedAlohaSimulator(
            n_devices=n_sharing,
            transmit_probability=SlottedAlohaSimulator.optimal_probability(n_sharing),
        )

    def frame_outcome(
        self, n_sharing: int, slots: int, rng: RngLike = None
    ) -> np.ndarray:
        """One framed-ALOHA round for the sharing group.

        Returns a boolean array: per sharing device, whether its frame
        landed in a clean (collision-free) slot.
        """
        return self.mac(n_sharing).frame_outcome(slots, rng=rng)

    def framed_success_probability(self, n_sharing: int, slots: int) -> float:
        """Analytic per-device framed-ALOHA success probability.

        An empty (or singleton) sharing group is uncontended: 1.0.
        """
        if n_sharing < 1:
            return 1.0
        return self.mac(n_sharing).framed_success_probability(slots)


def make_roster(
    n_devices: int,
    payload_format: str = "SIGN-{i:02d}",
    power_dbm: float = -35.0,
    base_distance_ft: float = 6.0,
    spacing_ft: float = 2.0,
    motion: Optional[str] = None,
) -> Tuple[DeviceSpec, ...]:
    """A uniform roster of ``n_devices`` devices with distinct payloads.

    Devices sit at cyclically staggered distances (four rings around the
    receiver) so a roster prefix — the ``n_devices`` sweep axis — keeps a
    realistic spread at every count.
    """
    if n_devices < 1:
        raise ConfigurationError("n_devices must be >= 1")
    return tuple(
        DeviceSpec(
            name=f"dev{i:02d}",
            payload=payload_format.format(i=i).encode("ascii"),
            power_dbm=power_dbm,
            distance_ft=base_distance_ft + spacing_ft * (i % 4),
            motion=motion,
        )
        for i in range(n_devices)
    )


@dataclass
class DeploymentScenario:
    """N devices + a channel plan + a receiver, as a sweepable scenario.

    :meth:`compile` lowers the deployment onto the ordinary
    :class:`~repro.engine.scenario.Scenario` machinery, picklable
    (module-level measure, plain-data ``measure_params``,
    :class:`AxisRef` RNG template), so the compiled sweep runs under
    every runner setting and on the launcher's worker processes, and
    every grid point shares one cached ambient synthesis.

    Args:
        name: scenario label (and RNG key prefix).
        devices: the full roster; an ``n_devices`` axis activates
            prefixes of it.
        plan: channel coexistence policy.
        receiver: the listening side.
        program: ambient station program all devices ride on.
        station_stereo: ambient station broadcasts stereo.
        traffic: ``frames`` (framed data uplinks, the default) or
            ``audio`` (listener PESQ, optionally cooperative).
        rate: modem rate for ``frames`` traffic (one of the paper's
            ``100bps`` / ``1.6kbps`` / ``3.2kbps``).
        frames_per_device: frame rounds each device attempts (retries).
        audio_seconds: reference-speech duration for ``audio`` traffic.
        axes: sweep axes, a subset of :data:`SWEEPABLE_AXES`; empty means
            a single point at the full roster size.
    """

    name: str
    devices: Tuple[DeviceSpec, ...]
    plan: ChannelPlan = field(default_factory=ChannelPlan)
    receiver: ReceiverPlacement = field(default_factory=ReceiverPlacement)
    program: str = "news"
    station_stereo: bool = True
    traffic: str = "frames"
    rate: str = "100bps"
    frames_per_device: int = 1
    audio_seconds: float = 1.5
    axes: Mapping[str, Tuple[object, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.devices = tuple(self.devices)
        if not self.devices:
            raise ConfigurationError("deployment needs at least one device")
        if self.traffic not in TRAFFIC_KINDS:
            raise ConfigurationError(f"traffic must be one of {TRAFFIC_KINDS}")
        if self.frames_per_device < 1:
            raise ConfigurationError("frames_per_device must be >= 1")
        self.axes = {name: tuple(values) for name, values in self.axes.items()}
        unknown = set(self.axes) - set(SWEEPABLE_AXES)
        if unknown:
            raise ConfigurationError(
                f"unknown deployment axes {sorted(unknown)}; "
                f"supported: {SWEEPABLE_AXES}"
            )
        if self.traffic == "audio" and "slots_per_frame" in self.axes:
            raise ConfigurationError(
                "audio traffic has no MAC contention; a slots_per_frame "
                "axis would sweep identical points"
            )
        for count in self.axes.get("n_devices", ()):
            if not 1 <= int(count) <= len(self.devices):
                raise ConfigurationError(
                    f"n_devices axis value {count} outside the roster "
                    f"size {len(self.devices)}"
                )
        if self.traffic == "frames":
            for device in self.devices:
                if not device.payload:
                    raise ConfigurationError(
                        f"device {device.name!r} has an empty payload "
                        "(frames traffic transmits device payloads)"
                    )

    def sweep_spec(self) -> SweepSpec:
        """The deployment's grid (a single full-roster point if no axes)."""
        return SweepSpec.grid(**(dict(self.axes) or {"n_devices": (len(self.devices),)}))

    def _modem(self):
        from repro.experiments.fig08_ber_overlay import make_modem

        return make_modem(self.rate)

    def _prepare(self, gen: np.random.Generator) -> Dict[str, object]:
        """Shared per-sweep data: encoded frame waveforms or the speech.

        Frame waveforms are zero-padded to one common length so every
        device's transmission has the same duration — which is what lets
        the whole grid share a single ambient-program synthesis.
        """
        if self.traffic == "audio":
            from repro.audio.speech import speech_like

            return {
                "message": speech_like(
                    self.audio_seconds,
                    AUDIO_RATE_HZ,
                    child_generator(gen, "speech"),
                    amplitude=0.9,
                )
            }
        from repro.data.framing import FrameCodec

        codec = FrameCodec(self._modem())
        waveforms = [codec.encode(device.payload) for device in self.devices]
        n_samples = max(w.size for w in waveforms)
        waveforms = [
            np.pad(w, (0, n_samples - w.size)) if w.size < n_samples else w
            for w in waveforms
        ]
        return {"waveforms": waveforms}

    def compile(self) -> Scenario:
        """Lower onto the engine: a picklable, backend-agnostic Scenario.

        The deployment itself travels as a ``measure_params`` entry —
        every field is plain data, so the compiled scenario pickles into
        the launcher's worker processes unchanged.
        """
        sweep = self.sweep_spec()
        return Scenario(
            name=self.name,
            sweep=sweep,
            prepare=self._prepare,
            rng_keys=(self.name,) + tuple(AxisRef(name) for name in sweep.names),
            measure=measure_deployment,
            measure_params={"deployment": self},
        )

    def run(self, rng: RngLike = None, **runner_kwargs):
        """Compile and execute through the sweep engine."""
        from repro.engine.runner import run_scenario

        return run_scenario(self.compile(), rng=rng, **runner_kwargs)


def measure_deployment(run, deployment: DeploymentScenario) -> Dict[str, object]:
    """Per-point deployment measure (module-level: ships to any backend)."""
    if deployment.traffic == "audio":
        return _measure_audio(run, deployment)
    return _measure_frames(run, deployment)


def _point_overrides(run, deployment: DeploymentScenario):
    """Resolve the point's axis values against the deployment defaults."""
    point = run.point
    n = int(point.get("n_devices", len(deployment.devices)))
    power = point.get("power_dbm")
    slots = int(point.get("slots_per_frame", deployment.plan.slots_per_frame))
    scale = float(point.get("distance_scale", 1.0))
    return n, (None if power is None else float(power)), slots, scale


def _device_chain(
    deployment: DeploymentScenario,
    device: DeviceSpec,
    power_dbm: Optional[float],
    distance_scale: float,
    fade_rng: Optional[np.random.Generator],
):
    """Build one device's end-to-end chain (imports deferred: the engine
    package is otherwise upstream of the experiments layer)."""
    from repro.experiments.common import ExperimentChain

    fading = None
    if device.motion is not None:
        from repro.channel.fading import BodyMotionFading

        fading = BodyMotionFading(device.motion, fade_rng)
    kwargs = dict(
        program=deployment.program,
        station_stereo=deployment.station_stereo,
        power_dbm=device.power_dbm if power_dbm is None else power_dbm,
        distance_ft=device.distance_ft * distance_scale,
        receiver_kind=deployment.receiver.kind,
        back_amplitude=device.back_amplitude,
        stereo_decode=False,
        agc=deployment.receiver.agc,
        fading=fading,
    )
    if device.antenna is not None:
        kwargs["device_antenna"] = device.antenna
    return ExperimentChain(**kwargs)


def _measure_frames(run, deployment: DeploymentScenario) -> Dict[str, object]:
    """Frame-delivery outcome of one grid point.

    MAC first, PHY second: every frame round draws the sharing group's
    framed-ALOHA slots, then only collision-free winners (and dedicated
    devices) pay for a physical transmission. All generators are derived
    from the point's pre-derived stream in a fixed order, so outcomes are
    bit-identical across backends.
    """
    from repro.data.framing import FrameCodec

    n, power_dbm, slots, scale = _point_overrides(run, deployment)
    devices = deployment.devices[:n]
    n_frames = deployment.frames_per_device
    assignment = deployment.plan.assign(n)
    sharing = assignment.sharing_indices

    mac_rng = child_generator(run.rng, "mac")
    frame_rngs = [
        [child_generator(run.rng, "dev", i, f) for f in range(n_frames)]
        for i in range(n)
    ]

    codec = FrameCodec(deployment._modem())
    waveforms = run.data["waveforms"]
    frame_airtime_s = waveforms[0].size / AUDIO_RATE_HZ

    mac_lost = [0] * n
    delivered = [0] * n
    for f in range(n_frames):
        clean: Dict[int, bool] = {}
        if sharing:
            flags = deployment.plan.frame_outcome(len(sharing), slots, mac_rng)
            clean = {i: bool(flags[pos]) for pos, i in enumerate(sharing)}
        for i, device in enumerate(devices):
            if assignment.channels[i] < 0:
                continue  # unserved: every frame is lost before the MAC
            if assignment.shared[i] and not clean[i]:
                mac_lost[i] += 1
                continue
            rng_f = frame_rngs[i][f]
            fade_rng = child_generator(rng_f, "fade") if device.motion else None
            chain = _device_chain(deployment, device, power_dbm, scale, fade_rng)
            chain.ambient_source = run.ambient
            received = chain.transmit(waveforms[i], rng_f)
            try:
                sync = codec.decode(chain.payload_channel(received))
                delivered[i] += int(sync.payload == device.payload)
            except DemodulationError:
                pass

    # Airtime: channels run concurrently, so aggregate goodput is the
    # sum of per-device rates — each over its *own* channel's window: a
    # dedicated device occupies one frame airtime per round, a sharing
    # device's round spans the whole ALOHA frame of `slots`.
    per_device = []
    for i, device in enumerate(devices):
        device_window_s = (
            n_frames * frame_airtime_s * (slots if assignment.shared[i] else 1)
        )
        per_device.append(
            {
                "name": device.name,
                "channel": int(assignment.channels[i]),
                "fback_khz": assignment.fbacks_hz[i] / 1e3,
                "shared": bool(assignment.shared[i]),
                "frames": n_frames,
                "mac_lost": mac_lost[i],
                "delivered": delivered[i],
                "delivery_rate": delivered[i] / n_frames,
                "goodput_bps": delivered[i] * 8 * len(device.payload) / device_window_s,
            }
        )
    # The observation window: the slowest (shared) channel's span.
    window_s = n_frames * frame_airtime_s * (slots if sharing else 1)
    return {
        "n_devices": n,
        "slots_per_frame": slots,
        "per_device": per_device,
        "delivery_rate": float(np.mean([d["delivery_rate"] for d in per_device])),
        "aggregate_goodput_bps": float(sum(d["goodput_bps"] for d in per_device)),
        "window_s": window_s,
        "n_shared": len(sharing),
        "expected_mac_success": deployment.plan.framed_success_probability(
            len(sharing), slots
        ),
    }


def _measure_audio(run, deployment: DeploymentScenario) -> Dict[str, object]:
    """Listener-quality outcome of one grid point (``audio`` traffic)."""
    from repro.audio.pesq import pesq_like
    from repro.experiments.fig12_pesq_cooperative import simulate_two_phones

    n, power_dbm, _, scale = _point_overrides(run, deployment)
    devices = deployment.devices[:n]
    message = run.data["message"]

    per_device = []
    for i, device in enumerate(devices):
        rng_d = child_generator(run.rng, "dev", i)
        fade_rng = child_generator(rng_d, "fade") if device.motion else None
        chain = _device_chain(deployment, device, power_dbm, scale, fade_rng)
        chain.ambient_source = run.ambient
        overlay_audio = chain.payload_channel(
            chain.transmit(message, child_generator(rng_d, "overlay"))
        )
        m = min(message.size, overlay_audio.size)
        entry: Dict[str, object] = {
            "name": device.name,
            "overlay_pesq": float(pesq_like(message[:m], overlay_audio[:m], AUDIO_RATE_HZ)),
        }
        if deployment.receiver.cooperative:
            # The chain holds the resolved power/distance, so the
            # two-phone path cannot diverge from the overlay link.
            recovered, _ = simulate_two_phones(
                message,
                chain.power_dbm,
                chain.distance_ft,
                program=deployment.program,
                rng=child_generator(rng_d, "coop"),
                ambient=run.ambient,
            )
            m = min(message.size, recovered.size)
            entry["cooperative_pesq"] = float(
                pesq_like(message[:m], recovered[:m], AUDIO_RATE_HZ)
            )
        per_device.append(entry)
    return {"n_devices": n, "per_device": per_device}
