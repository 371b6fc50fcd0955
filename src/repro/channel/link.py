"""Backscatter link budget: the two-hop radar-equation model.

The paper's evaluation sweeps two knobs: the ambient FM power arriving at
the backscatter device (-20 to -60 dBm, set by the tower-to-device hop)
and the device-to-receiver distance in feet. This module turns those knobs
into an RF SNR at the receiver:

    P_rx = P_device + G_device - L_conv + G_receiver - FSPL(d)
    N    = max(noise floor, ambient leakage through the 600 kHz offset)
    SNR  = P_rx - N

``L_conv`` is the backscatter conversion loss: the square-wave switch puts
(2/pi)^2 of the incident power into each first-order sideband (-3.9 dB),
and scattering/mismatch losses make up the rest.

The FM *threshold effect* — the cliff in Figs. 7/8 below about 10 dB of
RF SNR — is not modelled analytically: experiments add complex AWGN at
this SNR and run the real discriminator, which produces click noise and
collapse exactly like hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.channel.antenna import Antenna, DIPOLE_POSTER, HEADPHONE_WIRE
from repro.channel.fading import checked_envelope
from repro.channel.pathloss import free_space_path_loss_db
from repro.errors import LinkBudgetError
from repro.utils.rand import RngLike, as_generator, child_generator
from repro.utils.units import feet_to_meters
from repro.utils.validation import ensure_1d


class FadingModel(Protocol):
    """Anything that can produce a channel amplitude envelope.

    Implemented by :class:`repro.channel.fading.BodyMotionFading`; the
    link multiplies the envelope onto the complex baseband sample-wise.
    The envelope must have shape ``(n_samples,)``: anything else raises
    :class:`~repro.errors.LinkBudgetError` rather than broadcasting.
    """

    def envelope(self, n_samples: int, sample_rate: float) -> np.ndarray:
        """Amplitude envelope of ``n_samples`` at ``sample_rate``."""
        ...


class FadingSpec(Protocol):
    """A declarative (picklable, RNG-free) description of a fading model.

    Implemented by :class:`repro.channel.fading.MotionFadingSpec`. Specs
    are resolved per transmission via :func:`resolve_fading`, so sweep
    grid points carrying a spec have order-independent fading streams.
    """

    def build(self, rng: RngLike = None) -> FadingModel:
        """Instantiate the live fading model on a resolved generator."""
        ...


def resolve_fading(
    fading: Optional[object], rng: np.random.Generator
) -> Optional[FadingModel]:
    """Turn a fading declaration into a live model for one transmission.

    A live :class:`FadingModel` (anything with ``envelope``) passes
    through untouched. A :class:`FadingSpec` is built on the dedicated
    ``"fade"`` child of ``rng`` — consuming one draw from ``rng``, which
    every caller (:meth:`BackscatterLink.transmit` and the sweep's
    ``transmit_stack`` alike) must mirror so the subsequent noise draws
    stay aligned.
    """
    if fading is None or hasattr(fading, "envelope"):
        return fading
    if hasattr(fading, "build"):
        return fading.build(child_generator(rng, "fade"))
    raise LinkBudgetError(
        f"fading must provide envelope() or build(), got {type(fading)!r}"
    )


def fading_envelope(
    fading: Optional[object],
    rng: np.random.Generator,
    n_samples: int,
    sample_rate: float,
) -> Optional[np.ndarray]:
    """One transmission's fading envelope (``None`` without fading).

    Resolves ``fading`` on the link generator (:func:`resolve_fading`)
    and draws its envelope, both before any noise draw, which is the
    stream order every one-row transmission shares.
    """
    model = resolve_fading(fading, rng)
    return None if model is None else model.envelope(n_samples, sample_rate)

SQUARE_WAVE_SIDEBAND_LOSS_DB = 3.92
"""Power loss of one first-order square-wave sideband: (2/pi)^2."""

DEFAULT_SCATTERING_LOSS_DB = 14.0
"""Antenna mode / mismatch / polarization loss of the reflect-absorb
switch. Calibrated (together with the -95 dBm effective noise floor)
against the paper's anchor points: 100 bps dies beyond ~6-8 ft at
-60 dBm (Fig. 8a), 1.6 kbps holds to ~6 ft at -50 dBm (Fig. 8b), and the
car receiver still works at 60 ft at -30 dBm (Fig. 14)."""

FM_THRESHOLD_SNR_DB = 10.0
"""Approximate discriminator threshold; informational (the simulation
produces the threshold behaviour physically)."""


@dataclass
class LinkBudget:
    """Static link-budget calculator for one backscatter configuration.

    Attributes:
        ambient_power_at_device_dbm: FM power arriving at the tag — the
            paper's -20..-60 dBm experimental knob.
        distance_ft: device-to-receiver distance in feet.
        frequency_hz: FM carrier frequency.
        device_antenna: antenna on the backscattering object.
        receiver_antenna: antenna on the phone or car.
        scattering_loss_db: mismatch/mode loss on top of the square-wave
            sideband loss.
        receiver_noise_floor_dbm: effective in-channel noise floor; -95 dBm
            default for the phone chain (a few dB above the -100 dBm
            sensitivity class the paper cites, covering headphone-cable
            antenna losses and urban noise).
        adjacent_suppression_db: how much of the ambient station (600 kHz
            away) the receiver rejects — IF selectivity at an alternate-
            alternate channel offset plus FM capture of the stronger
            in-channel signal. Its leakage can dominate the noise floor at
            high ambient power, as section 3.3 notes.
    """

    ambient_power_at_device_dbm: float
    distance_ft: float
    frequency_hz: float = 91.5e6
    device_antenna: Antenna = field(default_factory=lambda: DIPOLE_POSTER)
    receiver_antenna: Antenna = field(default_factory=lambda: HEADPHONE_WIRE)
    scattering_loss_db: float = DEFAULT_SCATTERING_LOSS_DB
    receiver_noise_floor_dbm: float = -95.0
    adjacent_suppression_db: float = 75.0

    def __post_init__(self) -> None:
        if self.distance_ft <= 0:
            raise LinkBudgetError("distance must be positive")
        if self.frequency_hz <= 0:
            raise LinkBudgetError("frequency must be positive")

    @property
    def conversion_loss_db(self) -> float:
        """Total backscatter conversion loss into one sideband."""
        return SQUARE_WAVE_SIDEBAND_LOSS_DB + self.scattering_loss_db

    def path_loss_db(self) -> float:
        """Free-space loss of the device-to-receiver hop."""
        d_m = float(feet_to_meters(self.distance_ft))
        return float(free_space_path_loss_db(d_m, self.frequency_hz))

    def backscatter_rx_power_dbm(self) -> float:
        """Backscattered signal power arriving at the receiver."""
        return (
            self.ambient_power_at_device_dbm
            + self.device_antenna.effective_gain_db
            - self.conversion_loss_db
            + self.receiver_antenna.effective_gain_db
            - self.path_loss_db()
        )

    def ambient_leakage_dbm(self) -> float:
        """Ambient-station power leaking past the receiver's selectivity.

        The receiver and the device are roughly equidistant from the tower
        in the paper's setup, so the ambient power at the receiver is
        approximated by the ambient power at the device.
        """
        return self.ambient_power_at_device_dbm - self.adjacent_suppression_db

    def noise_floor_dbm(self) -> float:
        """Effective noise floor: thermal-class floor or adjacent leakage."""
        return max(self.receiver_noise_floor_dbm, self.ambient_leakage_dbm())

    def rf_snr_db(self) -> float:
        """RF-domain SNR of the backscattered FM signal at the receiver."""
        return self.backscatter_rx_power_dbm() - self.noise_floor_dbm()


def batched_rf_snr_db(budgets: Sequence[LinkBudget]) -> np.ndarray:
    """RF SNR of many link budgets as one vectorized computation.

    The budget formula is elementwise (Friis loss, antenna gains, a
    noise-floor max), so a whole sweep grid's SNRs reduce to a handful of
    array ops. Every operation mirrors :meth:`LinkBudget.rf_snr_db`
    term for term, in the same association order, so each element is
    bit-identical to the scalar computation — the invariant the batched
    sweep backend's bit-identity contract rests on.
    """
    if not budgets:
        return np.empty(0)
    power = np.array([b.ambient_power_at_device_dbm for b in budgets], dtype=float)
    distance_m = feet_to_meters(np.array([b.distance_ft for b in budgets], dtype=float))
    frequency = np.array([b.frequency_hz for b in budgets], dtype=float)
    device_gain = np.array([b.device_antenna.effective_gain_db for b in budgets])
    receiver_gain = np.array([b.receiver_antenna.effective_gain_db for b in budgets])
    conversion = np.array([b.conversion_loss_db for b in budgets])
    floor = np.array([b.receiver_noise_floor_dbm for b in budgets])
    suppression = np.array([b.adjacent_suppression_db for b in budgets])

    path_loss = free_space_path_loss_db(distance_m, frequency)
    rx_power = power + device_gain - conversion + receiver_gain - path_loss
    noise = np.maximum(floor, power - suppression)
    return rx_power - noise


def transmit_batch(
    iq: np.ndarray,
    budgets: Sequence[LinkBudget],
    rngs: Sequence[RngLike],
    envelopes: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Pass one shared envelope through many link budgets at once.

    The one link model: :meth:`BackscatterLink.transmit` is its one-row
    call. Every grid point of a sweep reuses the same cached front-end
    envelope, so only the per-point fading and noise differ. SNRs,
    fading multiplication, per-row signal powers and the noise
    scale-and-add all run as single array ops over the
    ``(rows, samples)`` stack. The Gaussian draws come from each point's
    own generator — two ``standard_normal`` fills per row, real part
    then imaginary part — into one row-length scratch, so a row depends
    only on its own budget, envelope and generator.

    Args:
        iq: shared unit-amplitude complex envelope, 1-D.
        budgets: one link budget per output row.
        rngs: one seed/Generator per output row.
        envelopes: optional per-row fading envelopes (``None`` entries —
            or ``None`` for the whole argument — mean an unfaded row).
            Build these with
            :func:`repro.channel.fading.stack_envelopes`.

    Returns:
        Faded, noise-corrupted envelopes, shape ``(len(budgets), iq.size)``.
    """
    iq = ensure_1d(iq, "iq")
    if not np.iscomplexobj(iq):
        raise LinkBudgetError("iq must be a complex envelope")
    n_rows = len(budgets)
    if n_rows != len(rngs):
        raise LinkBudgetError(f"got {n_rows} budgets but {len(rngs)} generators")
    if envelopes is not None and len(envelopes) != n_rows:
        raise LinkBudgetError(
            f"got {n_rows} budgets but {len(envelopes)} fading envelopes"
        )
    snr_db = batched_rf_snr_db(budgets)
    out = np.empty((n_rows, iq.size), dtype=complex)
    if envelopes is None or all(env is None for env in envelopes):
        # One shared clean row: the power term is one scalar, reused
        # for every row.
        out[:] = iq
        power: np.ndarray = np.float64(np.mean(np.abs(iq) ** 2))
    else:
        for row, env in enumerate(envelopes):
            if env is None:
                out[row] = iq
            else:
                env = checked_envelope(env, iq.size, f"fading envelope for row {row}")
                np.multiply(iq, env, out=out[row], dtype=out.dtype)
        power = np.mean(np.abs(out) ** 2, axis=-1)

    # 10^(SNR/10) through the scalar pow, one row at a time: NumPy's
    # SIMD array power can round an ULP away from it on some hosts, and
    # then a row's noise would depend on how many rows share its call.
    snr_linear = np.array([10.0 ** x for x in (snr_db / 10.0).tolist()])
    scales = np.sqrt(power / snr_linear / 2.0)

    # Per-row draws into one row-length scratch, real part then
    # imaginary part, each scaled in place and added straight onto its
    # part of the row: no complex noise temporary, and the scratch is one
    # row however many rows the stack has.
    draws = np.empty(iq.size)
    for row, rng in enumerate(rngs):
        gen = as_generator(rng)
        for part in (out[row].real, out[row].imag):
            gen.standard_normal(out=draws)
            draws *= scales[row]
            part += draws
    return out


class BackscatterLink:
    """Applies a link budget to a complex envelope.

    Args:
        budget: the static link budget.
        fading: optional amplitude envelope source — a live
            :class:`FadingModel` (e.g.
            :class:`repro.channel.fading.BodyMotionFading`) or a
            declarative :class:`FadingSpec` resolved per transmission
            from the link generator. When present the instantaneous SNR
            varies accordingly.
    """

    def __init__(self, budget: LinkBudget, fading: Optional[object] = None) -> None:
        self.budget = budget
        self.fading = fading

    def transmit(
        self, iq: np.ndarray, sample_rate: float, rng: RngLike = None
    ) -> np.ndarray:
        """Pass a unit-amplitude complex envelope through the link.

        The one-row call of :func:`transmit_batch`. Returns the faded,
        noise-corrupted envelope whose average SNR is the budget's
        :meth:`LinkBudget.rf_snr_db`.
        """
        iq = ensure_1d(iq, "iq")
        gen = as_generator(rng)
        envelope = fading_envelope(self.fading, gen, iq.size, sample_rate)
        return transmit_batch(iq, [self.budget], [gen], envelopes=[envelope])[0]
