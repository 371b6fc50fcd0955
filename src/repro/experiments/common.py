"""Shared end-to-end simulation chain for the experiment modules.

The chain mirrors the paper's testbed:

    FM station (USRP stand-in)  ->  backscatter device  ->  link budget
    ->  FM receiver (phone / car)  ->  audio  ->  metric (SNR/BER/PESQ)

The multiplication-to-addition identity (validated against true square-
wave mixing in the test suite) lets the chain build the composite MPX
directly: the receiver tuned to ``fc + fback`` demodulates
``FMaudio + FMback`` plus RF noise set by the link budget.

The front end (:class:`FrontEndStage`: station MPX + device baseband +
FM composite) is a picklable value object, shared by every grid point
whose power, distance, fading or receiver differ. Every transmission
runs through :func:`transmit_stack`, whose one-row call is
:meth:`ExperimentChain.transmit` and which the sweep engine calls with
one row per grid point of a stack.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.backscatter.dco import CapacitorBankDco
from repro.backscatter.device import BackscatterDevice, BackscatterMode
from repro.backscatter.modulator import composite_mpx
from repro.channel.antenna import Antenna, CAR_WHIP, DIPOLE_POSTER, HEADPHONE_WIRE
from repro.channel.fading import stack_envelopes
from repro.channel.link import LinkBudget, resolve_fading, transmit_batch
from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.data.ber import bit_error_rate
from repro.errors import ConfigurationError
from repro.fm.demodulator import fm_demodulate
from repro.fm.modulator import fm_modulate
from repro.fm.station import FMStation, StationConfig
from repro.receiver.car import CarReceiver
from repro.receiver.fm_receiver import FMReceiver, ReceivedAudio, decode_rows
from repro.receiver.smartphone import SmartphoneReceiver
from repro.utils.rand import RngLike, as_generator, child_generator


class AmbientSource(Protocol):
    """Provider of pre-synthesized ambient-station material.

    Implemented by :class:`repro.engine.cache.CachedAmbient`; the front
    end hands it itself.
    """

    def modulated_composite(
        self, front_end: "FrontEndStage", payload_audio: np.ndarray
    ) -> np.ndarray:
        """FM-modulated composite carrier for (front end, payload)."""
        ...


@dataclass(frozen=True)
class FrontEndStage:
    """Station program + device baseband + composite FM modulation.

    A picklable value object: everything the transmit front end depends
    on — and nothing downstream (power, distance, fading, receiver), so
    a whole link-budget grid shares one front-end synthesis keyed by
    :meth:`front_end_key`.
    """

    program: str = "news"
    station_stereo: bool = True
    mode: BackscatterMode = BackscatterMode.OVERLAY
    back_amplitude: float = 1.0
    dco_bits: Optional[int] = None

    def front_end_key(self) -> Tuple[object, ...]:
        """Cache key of everything this front end's output depends on."""
        return (
            self.program,
            bool(self.station_stereo),
            self.mode.value,
            float(self.back_amplitude),
            self.dco_bits,
        )

    def device_baseband(self, payload_audio: np.ndarray) -> np.ndarray:
        """Render the device-side baseband ``FMback`` for one payload."""
        device = BackscatterDevice(mode=self.mode)
        back_mpx = self.back_amplitude * device.baseband(payload_audio)
        if self.dco_bits is not None:
            back_mpx = CapacitorBankDco(n_bits=self.dco_bits).quantize_baseband(back_mpx)
        return back_mpx

    def modulate_with_ambient(
        self, ambient_mpx: np.ndarray, payload_audio: np.ndarray
    ) -> np.ndarray:
        """FM-modulated composite of an ambient MPX plus the payload."""
        comp = composite_mpx(ambient_mpx, self.device_baseband(payload_audio))
        return fm_modulate(comp, MPX_RATE_HZ)

    def apply(
        self,
        payload_audio: np.ndarray,
        rng: RngLike = None,
        ambient: Optional[AmbientSource] = None,
    ) -> np.ndarray:
        """The composite envelope for ``payload_audio``, synthesized or fetched.

        Args:
            payload_audio: the device payload at the audio rate.
            rng: the station child generator (used only when synthesizing;
                a cached ambient source replaces the synthesis entirely,
                and the caller derives the child either way so downstream
                draws stay aligned).
            ambient: optional :class:`AmbientSource`; when set, the
                composite comes from its cache — synthesized once per
                sweep — instead of being rebuilt per call.
        """
        if ambient is not None:
            return ambient.modulated_composite(self, payload_audio)
        duration_s = payload_audio.size / AUDIO_RATE_HZ
        station = FMStation(
            StationConfig(program=self.program, stereo=self.station_stereo),
            rng=rng,
        )
        return self.modulate_with_ambient(station.mpx(duration_s), payload_audio)


@dataclass
class ExperimentChain:
    """One configured station + device + link + receiver pipeline.

    Args:
        program: ambient station program (``silence`` for the Fig. 6/7
            unmodulated-carrier micro-benchmarks).
        station_stereo: station broadcasts stereo (pilot present).
        mode: backscatter payload placement.
        power_dbm: ambient FM power at the backscatter device.
        distance_ft: device-to-receiver distance.
        receiver_kind: ``smartphone`` or ``car``.
        back_amplitude: payload amplitude in the device baseband [0, 1];
            scales the backscattered audio's share of the deviation.
        fading: optional fading for the link — a live
            :class:`~repro.channel.link.FadingModel` (stateful RNG) or a
            declarative :class:`~repro.channel.fading.MotionFadingSpec`,
            which the link resolves per transmission from its own
            generator. A sweep scenario's chain takes only the spec
            (:meth:`~repro.engine.scenario.Scenario.chain_kwargs`): each
            point resolves it from its own stream, so fading grids batch
            and stay bit-identical on every setting.
        stereo_decode: receiver attempts stereo decoding (needed for
            stereo-backscatter modes; skipping it avoids the pilot PLL on
            mono-band experiments).
        agc: enable the smartphone recording-chain AGC.
        dco_bits: when set, quantize the device baseband like the IC's
            binary-weighted capacitor-bank oscillator (section 4; None
            models an ideal continuous oscillator).
        ambient_source: optional provider of pre-synthesized ambient
            material (the sweep engine's
            :class:`~repro.engine.cache.CachedAmbient`). When set,
            :meth:`transmit` takes its FM-modulated composite from the
            source — synthesized once per sweep — instead of rebuilding
            the whole front end per call. The link and the receiver
            still draw from the per-call ``rng`` exactly as before.
    """

    program: str = "news"
    station_stereo: bool = True
    mode: BackscatterMode = BackscatterMode.OVERLAY
    power_dbm: float = -30.0
    distance_ft: float = 4.0
    receiver_kind: str = "smartphone"
    back_amplitude: float = 1.0
    fading: Optional[object] = None
    stereo_decode: bool = True
    agc: bool = False
    device_antenna: Antenna = field(default_factory=lambda: DIPOLE_POSTER)
    dco_bits: Optional[int] = None
    ambient_source: Optional[AmbientSource] = None

    def __post_init__(self) -> None:
        if self.receiver_kind not in ("smartphone", "car"):
            raise ConfigurationError("receiver_kind must be 'smartphone' or 'car'")
        if not 0.0 < self.back_amplitude <= 1.0:
            raise ConfigurationError("back_amplitude must be in (0, 1]")
        if not isinstance(self.power_dbm, numbers.Real) or not np.isfinite(self.power_dbm):
            raise ConfigurationError(
                f"power_dbm must be a finite number, got {self.power_dbm!r}"
            )
        if (
            not isinstance(self.distance_ft, numbers.Real)
            or not np.isfinite(self.distance_ft)
            or self.distance_ft <= 0
        ):
            raise ConfigurationError(
                f"distance_ft must be positive, got {self.distance_ft!r}"
            )

    # -- configuration -----------------------------------------------------

    def front_end(self) -> FrontEndStage:
        """The picklable front end this chain configures."""
        return FrontEndStage(
            program=self.program,
            station_stereo=self.station_stereo,
            mode=self.mode,
            back_amplitude=self.back_amplitude,
            dco_bits=self.dco_bits,
        )

    def link_budget(self) -> LinkBudget:
        """The link budget for this chain's power/distance/receiver."""
        if self.receiver_kind == "car":
            # Car front ends are better on every axis (section 5.4):
            # matched whip antenna, lower noise floor, sharper IF filters.
            return LinkBudget(
                ambient_power_at_device_dbm=self.power_dbm,
                distance_ft=self.distance_ft,
                device_antenna=self.device_antenna,
                receiver_antenna=CAR_WHIP,
                receiver_noise_floor_dbm=-100.0,
                adjacent_suppression_db=85.0,
            )
        return LinkBudget(
            ambient_power_at_device_dbm=self.power_dbm,
            distance_ft=self.distance_ft,
            device_antenna=self.device_antenna,
            receiver_antenna=HEADPHONE_WIRE,
        )

    def build_receiver(self, rng: RngLike = None) -> FMReceiver:
        """Construct the configured receiver with its child generator.

        Consumes one draw from ``rng`` (the chain generator) to derive
        the receiver's noise stream.
        """
        if self.receiver_kind == "car":
            return CarReceiver(rng=child_generator(rng, "car"))
        rx = SmartphoneReceiver(agc_enabled=self.agc, rng=child_generator(rng, "phone"))
        rx.stereo_capable = self.stereo_decode
        return rx

    def rf_snr_db(self) -> float:
        """RF SNR of the backscattered channel (link-budget output)."""
        return self.link_budget().rf_snr_db()

    # -- end-to-end execution ----------------------------------------------

    def transmit(
        self, payload_audio: np.ndarray, rng: RngLike = None
    ) -> ReceivedAudio:
        """Run one end-to-end transmission and return the received audio.

        The one-row call of :func:`transmit_stack`, so results are
        invariant to whether an ambient source served the front end.

        Args:
            payload_audio: the device payload (audio or data waveform) at
                the audio rate; its duration sets the simulation length.
            rng: seed or Generator for the stochastic stages.
        """
        return transmit_stack([self], payload_audio, [rng])[0]

    def payload_channel(self, received: ReceivedAudio) -> np.ndarray:
        """The audio stream carrying the payload for this chain's mode.

        Overlay payloads live in the mono mix; stereo payloads are
        recovered by differencing the receiver's L and R outputs (the
        paper's trick, section 3.3.1).
        """
        if self.mode is BackscatterMode.OVERLAY:
            return received.mono
        return received.difference


def transmit_stack(
    chains: Sequence[ExperimentChain],
    payload_audio: np.ndarray,
    rngs: Sequence[RngLike],
    chunk_rows: Optional[int] = None,
) -> List[ReceivedAudio]:
    """Transmit one payload through a stack of chains sharing a front end.

    The one transmit path: :meth:`ExperimentChain.transmit` is its
    one-row call, and the sweep engine runs every grid point through it
    (:func:`repro.engine.execution.run_stack`). The chains share one
    front end, receiver type and DSP configuration, so the composite
    envelope comes once from ``chains[0]``: its ``ambient_source`` when
    set, else a synthesis on the first row's station stream (so a stack
    without an ambient source is one row). Row ``i`` then passes that
    envelope through ``chains[i]``'s link budget and fading, and
    ``chains[i]``'s receiver decodes it.

    Each row's generator ``rngs[i]`` is drawn in one order, here alone:
    the station child, the link child, the receiver's own child (inside
    :meth:`ExperimentChain.build_receiver`), then the link child's
    ``"fade"`` child when the chain declares a fading spec. The station
    child is derived even when an ambient source serves the front end,
    which keeps the later draws identical with and without one, and
    every row draws exactly what its own one-row call would.

    The link and the discriminator run ``chunk_rows`` rows at a time (all
    rows when ``None``), and each chunk's complex stack is freed once it
    is demodulated: only the real MPX rows reach the decode, which caps
    its FFT passes at the same row count. Results are bit-identical at
    any ``chunk_rows`` and any stack height.
    """
    station_rngs, link_rngs, receivers, fadings = [], [], [], []
    for chain, rng in zip(chains, rngs):
        gen = as_generator(rng)
        station_rngs.append(child_generator(gen, "station"))
        link_rngs.append(child_generator(gen, "link"))
        receivers.append(chain.build_receiver(gen))
        fadings.append(resolve_fading(chain.fading, link_rngs[-1]))
    first = chains[0]
    iq = first.front_end().apply(payload_audio, station_rngs[0], first.ambient_source)
    envelopes: List[Optional[np.ndarray]] = [None] * len(chains)
    faded = [k for k, fading in enumerate(fadings) if fading is not None]
    if faded:
        stack = stack_envelopes([fadings[k] for k in faded], iq.size, MPX_RATE_HZ)
        for k, envelope in zip(faded, stack):
            envelopes[k] = envelope

    budgets = [chain.link_budget() for chain in chains]
    n_rows = len(chains)
    limit = n_rows if chunk_rows is None else chunk_rows
    ref = receivers[0]
    mpx = None
    for start in range(0, n_rows, limit):
        rows = slice(start, start + limit)
        demodulated = fm_demodulate(
            transmit_batch(
                iq, budgets[rows], link_rngs[rows], envelopes=envelopes[rows]
            ),
            ref.mpx_rate,
            ref.deviation_hz,
        )
        if len(demodulated) == n_rows:
            mpx = demodulated
        else:
            if mpx is None:
                mpx = np.empty((n_rows, iq.size), dtype=demodulated.dtype)
            mpx[rows] = demodulated
    return decode_rows(receivers, mpx, max_fft_rows=chunk_rows)


def simulate_overlay_audio(
    payload_audio: np.ndarray,
    power_dbm: float,
    distance_ft: float,
    program: str = "news",
    receiver_kind: str = "smartphone",
    rng: RngLike = None,
) -> Tuple[np.ndarray, ReceivedAudio]:
    """Convenience wrapper: overlay one audio payload, return (payload
    channel, full reception)."""
    chain = ExperimentChain(
        program=program,
        power_dbm=power_dbm,
        distance_ft=distance_ft,
        receiver_kind=receiver_kind,
        stereo_decode=False,
    )
    received = chain.transmit(payload_audio, rng)
    return chain.payload_channel(received), received


def measure_data_ber(
    chain: ExperimentChain,
    modem,
    bits: np.ndarray,
    rng: RngLike = None,
) -> float:
    """Transmit ``bits`` through ``chain`` with ``modem`` and return BER."""
    waveform = modem.modulate(bits)
    received = chain.transmit(waveform, rng)
    audio = chain.payload_channel(received)
    detected = modem.demodulate(audio, bits.size)
    return bit_error_rate(bits, detected)
