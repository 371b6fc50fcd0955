"""Body-motion fading for the smart-fabric application.

Section 6.2 evaluates the sewn-antenna shirt while the wearer stands,
walks (1 m/s), or runs (2.2 m/s). Motion changes the antenna's detuning,
its distance to the phone, and body shadowing, producing a slowly varying
amplitude on the backscatter link. We model this as Rician fading whose
Doppler bandwidth scales with gait cadence and whose K-factor (line-of-
sight dominance) drops with speed.

Two usage shapes:

- :class:`BodyMotionFading` — a stateful generator holding its own RNG;
  successive :meth:`~BodyMotionFading.envelope` calls advance that
  stream.
- :class:`MotionFadingSpec` — a frozen, picklable *declaration* of the
  same fading, resolved per transmission from the link's own generator
  (``build``). A sweep scenario's chain kwargs take only a spec (a live
  model there raises): resolved per point, it stays order-independent
  across sweep backends, which is what lets the batched backend
  vectorize fading grids with zero per-point fallbacks.

:func:`stack_envelopes` is the one envelope synthesis: it draws every
model's Gaussian innovations in caller order (preserving each model's
stream exactly) and then runs the Doppler shaping, Rician combination
and normalization for all rows as stacked array ops.
:meth:`BodyMotionFading.envelope` is its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.dsp.filters import design_lowpass_fir, filter_signal
from repro.errors import ConfigurationError, LinkBudgetError
from repro.utils.rand import RngLike, as_generator
from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class MotionProfile:
    """Fading parameters for one mobility state.

    Attributes:
        speed_m_s: wearer speed.
        doppler_hz: fading (envelope) bandwidth; set by gait cadence and
            limb motion, not the RF Doppler formula — at 91.5 MHz even
            running gives sub-Hz classical Doppler, but antenna flexing
            modulates the load at the step rate (~2-3 Hz).
        k_factor_db: Rician K (higher = steadier line-of-sight path).
    """

    speed_m_s: float
    doppler_hz: float
    k_factor_db: float


MOTION_PROFILES: Dict[str, MotionProfile] = {
    "standing": MotionProfile(speed_m_s=0.0, doppler_hz=0.3, k_factor_db=18.0),
    "walking": MotionProfile(speed_m_s=1.0, doppler_hz=2.0, k_factor_db=9.0),
    "running": MotionProfile(speed_m_s=2.2, doppler_hz=3.5, k_factor_db=5.0),
}
"""The three mobility states of paper Fig. 17b."""


def _resolve_profile(profile: Union[str, MotionProfile]) -> MotionProfile:
    """Normalize a profile name / instance, with the standard errors."""
    if isinstance(profile, str):
        if profile not in MOTION_PROFILES:
            raise ConfigurationError(
                f"unknown motion profile {profile!r}; choose from {sorted(MOTION_PROFILES)}"
            )
        return MOTION_PROFILES[profile]
    if not isinstance(profile, MotionProfile):
        raise ConfigurationError("profile must be a name or MotionProfile")
    return profile


def _internal_grid(profile: MotionProfile, n_samples: int, sample_rate: float) -> Tuple[float, int]:
    """The low internal rate and length the scattered process is built at."""
    internal_rate = max(20.0 * profile.doppler_hz, 50.0)
    n_internal = max(int(np.ceil(n_samples * internal_rate / sample_rate)) + 8, 64)
    return internal_rate, n_internal


def _shape_envelopes(
    profile: MotionProfile,
    raws: np.ndarray,
    internal_rate: float,
    n_samples: int,
) -> np.ndarray:
    """Doppler-shape raw innovations into normalized Rician envelopes.

    Args:
        profile: the mobility state shared by every row.
        raws: complex innovations, shape ``(rows, n_internal)`` — each
            row one model's two ``standard_normal`` draws
            (:meth:`BodyMotionFading._draw_raw`).
        internal_rate: the rows' internal sample rate.
        n_samples: output envelope length per row.

    Returns:
        Envelopes of shape ``(rows, n_samples)``. Every operation is
        row-wise (reductions along the last axis), so a row depends only
        on its own draws, not on how many rows share the stack.
    """
    k_linear = 10.0 ** (profile.k_factor_db / 10.0)
    specular = np.sqrt(k_linear / (k_linear + 1.0))
    scattered_power = 1.0 / (k_linear + 1.0)

    cutoff = min(profile.doppler_hz, internal_rate / 2 * 0.8)
    taps = design_lowpass_fir(cutoff, internal_rate, 65)
    scattered = filter_signal(taps, raws.real) + 1j * filter_signal(taps, raws.imag)
    rms = np.sqrt(np.mean(np.abs(scattered) ** 2, axis=-1, keepdims=True)) + 1e-12
    scattered = scattered / rms * np.sqrt(scattered_power)

    fading = np.abs(specular + scattered)
    n_internal = raws.shape[-1]
    x_internal = np.linspace(0.0, 1.0, n_internal)
    x_out = np.linspace(0.0, 1.0, n_samples)
    env = np.empty((raws.shape[0], n_samples))
    for row in range(raws.shape[0]):
        # np.interp is 1-D only; the per-row loop keeps every row on its
        # exact C routine, so a row matches its one-row envelope bit for
        # bit.
        env[row] = np.interp(x_out, x_internal, fading[row])
    return env / np.sqrt(np.mean(env**2, axis=-1, keepdims=True) + 1e-12)


class BodyMotionFading:
    """Generate a Rician fading envelope for a mobility state.

    Args:
        profile: one of the :data:`MOTION_PROFILES` keys or a
            :class:`MotionProfile`.
        rng: seed or Generator.
    """

    def __init__(self, profile, rng: RngLike = None) -> None:
        self.profile = _resolve_profile(profile)
        self._rng = as_generator(rng)

    def _draw_raw(self, n_internal: int) -> np.ndarray:
        """One envelope's Gaussian innovations: real draws, then imaginary."""
        return self._rng.standard_normal(n_internal) + 1j * self._rng.standard_normal(
            n_internal
        )

    def envelope(self, n_samples: int, sample_rate: float) -> np.ndarray:
        """Amplitude envelope (mean-square normalized to 1).

        The scattered component is complex Gaussian noise low-passed to the
        profile's Doppler bandwidth; the specular component is a constant
        set by the K-factor. The one-row call of :func:`stack_envelopes`.
        """
        return stack_envelopes([self], n_samples, sample_rate)[0]


@dataclass(frozen=True)
class MotionFadingSpec:
    """Declarative, picklable body-motion fading for sweep scenarios.

    Where :class:`BodyMotionFading` carries a live RNG (so sharing one
    instance across grid points makes results depend on execution
    order), a spec is pure data: the link resolves it *per transmission*
    with a child of its own generator
    (:func:`repro.channel.link.resolve_fading`), so every grid point's
    fading stream is pre-determined and identical on all sweep backends.

    Attributes:
        profile: a :data:`MOTION_PROFILES` key or a
            :class:`MotionProfile`.
    """

    profile: Union[str, MotionProfile] = "walking"

    def __post_init__(self) -> None:
        _resolve_profile(self.profile)

    def build(self, rng: RngLike = None) -> BodyMotionFading:
        """Instantiate the live fading model on a resolved generator."""
        return BodyMotionFading(self.profile, rng)


def checked_envelope(envelope, n_samples: int, what: str) -> np.ndarray:
    """``envelope`` as an array, if its shape is ``(n_samples,)``.

    A fading envelope of any other shape would broadcast against the
    link's rows instead of failing — a length-1 envelope silently scales
    a whole row — so every envelope a link applies passes through here.

    Raises:
        LinkBudgetError: naming ``what``, the shape and the expected one.
    """
    envelope = np.asarray(envelope)
    if envelope.shape != (n_samples,):
        raise LinkBudgetError(
            f"{what} has shape {envelope.shape}, expected ({n_samples},)"
        )
    return envelope


def stack_envelopes(
    models: Sequence[object], n_samples: int, sample_rate: float
) -> np.ndarray:
    """Envelopes for many fading models as one ``(rows, n_samples)`` stack.

    The models' random draws happen strictly in list order — so a model
    appearing at several positions (one shared stateful instance across
    grid points) consumes its stream exactly as a serial loop over the
    list would — and the deterministic shaping then runs vectorized per
    parameter group. Models that are not :class:`BodyMotionFading`
    (custom :class:`~repro.channel.link.FadingModel` implementations)
    are evaluated through their own ``envelope`` at their list position,
    preserving the same draw order.

    Args:
        models: one fading model per output row.
        n_samples: envelope length, shared by every row.
        sample_rate: sample rate, shared by every row.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    rows = len(models)
    out = np.empty((rows, n_samples))
    # Pass 1, strictly in list order: every model's stochastic draws.
    # groups: profile -> (internal_rate, raw rows, positions); MotionProfile
    # is a frozen dataclass, so equal parameter sets share one stack.
    groups: Dict[MotionProfile, Tuple[float, List[np.ndarray], List[int]]] = {}
    for pos, model in enumerate(models):
        if isinstance(model, BodyMotionFading):
            internal_rate, n_internal = _internal_grid(
                model.profile, n_samples, sample_rate
            )
            entry = groups.setdefault(model.profile, (internal_rate, [], []))
            entry[1].append(model._draw_raw(n_internal))
            entry[2].append(pos)
        else:
            out[pos] = checked_envelope(
                model.envelope(n_samples, sample_rate),
                n_samples,
                f"fading envelope of {type(model).__name__}",
            )
    # Pass 2: deterministic shaping, stacked per shared profile.
    for profile, (internal_rate, raws, positions) in groups.items():
        shaped = _shape_envelopes(profile, np.stack(raws), internal_rate, n_samples)
        for k, pos in enumerate(positions):
            out[pos] = shaped[k]
    return out
