"""The generic FM receiver chain: IQ -> MPX -> mono/stereo audio."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.constants import AUDIO_RATE_HZ, FM_MAX_DEVIATION_HZ, MPX_RATE_HZ
from repro.dsp.biquad import deemphasis_filter
from repro.dsp.filters import design_lowpass_fir, filter_signal
from repro.errors import ConfigurationError
from repro.fm.demodulator import fm_demodulate
from repro.fm.stereo import (
    StereoAudio,
    decode_mono,
    decode_stereo,
    decode_stereo_batch,
    row_chunks,
)
from repro.utils.validation import ensure_positive


@dataclass
class ReceivedAudio:
    """Output of a receiver.

    Attributes:
        left: left channel audio.
        right: right channel audio (== left when mono).
        stereo_locked: whether the stereo decoder engaged.
        mpx: the demodulated composite baseband (for RDS or diagnostics).
        audio_rate: sample rate of the audio channels.
    """

    left: np.ndarray
    right: np.ndarray
    stereo_locked: bool
    mpx: np.ndarray
    audio_rate: float

    @property
    def mono(self) -> np.ndarray:
        """(L+R)/2 mix — what a mono radio outputs."""
        return 0.5 * (self.left + self.right)

    @property
    def difference(self) -> np.ndarray:
        """(L-R)/2 — the paper's stereo-backscatter recovery output."""
        return 0.5 * (self.left - self.right)


class FMReceiver:
    """Discriminator-based FM broadcast receiver.

    Args:
        mpx_rate: IQ / MPX sample rate.
        audio_rate: output audio rate.
        deviation_hz: deviation assumed for MPX scaling.
        audio_cutoff_hz: end-to-end audio low-pass; Fig. 6 measures the
            smartphone chain rolling off sharply above ~13 kHz.
        apply_deemphasis: enable the 75 us de-emphasis network (pair with
            a pre-emphasizing transmitter; the library's default chain is
            flat, matching the paper's tone measurements).
        stereo_capable: stereo decoding gated on the 19 kHz pilot.
    """

    def __init__(
        self,
        mpx_rate: float = MPX_RATE_HZ,
        audio_rate: float = AUDIO_RATE_HZ,
        deviation_hz: float = FM_MAX_DEVIATION_HZ,
        audio_cutoff_hz: float = 15_000.0,
        apply_deemphasis: bool = False,
        stereo_capable: bool = True,
    ) -> None:
        self.mpx_rate = ensure_positive(mpx_rate, "mpx_rate")
        self.audio_rate = ensure_positive(audio_rate, "audio_rate")
        self.deviation_hz = ensure_positive(deviation_hz, "deviation_hz")
        self.audio_cutoff_hz = ensure_positive(audio_cutoff_hz, "audio_cutoff_hz")
        self.apply_deemphasis = apply_deemphasis
        self.stereo_capable = stereo_capable

    def _post_process(self, audio: np.ndarray) -> np.ndarray:
        # The chain cutoff (Fig. 6) is a cliff, not a gentle roll-off:
        # 1025 taps at 48 kHz give a ~150 Hz transition band.
        cutoff = min(self.audio_cutoff_hz, self.audio_rate / 2 * 0.98)
        audio = filter_signal(design_lowpass_fir(cutoff, self.audio_rate, 1025), audio)
        if self.apply_deemphasis:
            audio = deemphasis_filter(self.audio_rate).apply(audio)
        return audio

    def apply_output_effects(self, received: ReceivedAudio) -> ReceivedAudio:
        """Receiver-specific effects on the decoded audio.

        Subclasses model their recording chain here (smartphone AGC and
        codec noise, car cabin acoustics). The hook runs after the shared
        demodulate/decode/post-process DSP, on both the serial path
        (:meth:`receive`) and the batched one
        (:func:`receive_mono_batch`), so a receiver's stochastic effects
        are applied per point with that point's own generator either way.
        """
        return received

    @classmethod
    def apply_output_effects_batch(
        cls, receivers: Sequence["FMReceiver"], received: Sequence[ReceivedAudio]
    ) -> List[ReceivedAudio]:
        """Receiver-specific effects over a whole decoded batch at once.

        The batch counterpart of :meth:`apply_output_effects`: row ``i``
        of the result must be bit-identical to
        ``receivers[i].apply_output_effects(received[i])``. This default
        simply loops — correct for any receiver subclass, which is what
        lets the batched sweep backend keep *every* receiver on the
        vectorized path. Subclasses with per-row stochastic effects
        (smartphone codec noise, the car cabin) override it to keep the
        random draws per row (each receiver's own generator, left before
        right) while running the deterministic shaping as stacked array
        ops over the batch. Under ``REPRO_NUMERICS=fast`` those
        overrides collapse the per-row draws into one batched
        ``standard_normal`` per partition — statistically identical, not
        bit-identical, and gated by the tolerance-tier goldens.
        """
        return [rx.apply_output_effects(row) for rx, row in zip(receivers, received)]

    def receive_mpx(self, iq: np.ndarray) -> np.ndarray:
        """Demodulate the complex envelope into the MPX baseband."""
        return fm_demodulate(iq, self.mpx_rate, self.deviation_hz)

    def receive(self, iq: np.ndarray) -> ReceivedAudio:
        """Full receive chain: demodulate, stereo-decode, post-process."""
        mpx = self.receive_mpx(iq)
        if self.stereo_capable:
            decoded: StereoAudio = decode_stereo(mpx, self.mpx_rate, self.audio_rate)
            left = self._post_process(decoded.left)
            right = self._post_process(decoded.right)
            stereo_locked = decoded.stereo_locked
        else:
            # Mono fast path: pilot recovery and the stereo matrix are
            # pure, deterministic DSP whose output a mono receiver
            # discards, so skipping them changes nothing downstream —
            # L and R are the identically post-processed mono mix.
            left = self._post_process(decode_mono(mpx, self.mpx_rate, self.audio_rate))
            right = left.copy()
            stereo_locked = False
        return self.apply_output_effects(
            ReceivedAudio(
                left=left,
                right=right,
                stereo_locked=stereo_locked,
                mpx=mpx,
                audio_rate=self.audio_rate,
            )
        )


def supports_mono_batch(receiver: FMReceiver) -> bool:
    """Whether :func:`receive_mono_batch` can stand in for ``receive``.

    Every mono receiver qualifies — de-emphasis runs as a 2-D IIR pass
    and receiver-specific output effects batch through
    :meth:`FMReceiver.apply_output_effects_batch` — so the batched sweep
    backend never falls back on a receiver's account.
    """
    return not receiver.stereo_capable


def supports_stereo_batch(receiver: FMReceiver) -> bool:
    """Whether :func:`receive_stereo_batch` can stand in for ``receive``."""
    return receiver.stereo_capable


def _require_uniform_batch(
    receivers: Sequence[FMReceiver],
    batch: np.ndarray,
    supports,
    requirement: str,
    batch_name: str = "iq_batch",
) -> None:
    """Shared shape / configuration validation for the batch receive paths."""
    if batch.ndim != 2 or batch.shape[0] != len(receivers):
        raise ConfigurationError(
            f"{batch_name} must have shape (n_receivers, samples); got "
            f"{batch.shape} for {len(receivers)} receivers"
        )
    if not receivers:
        return
    ref = receivers[0]
    for rx in receivers:
        if not supports(rx):
            raise ConfigurationError(requirement)
        if (
            rx.mpx_rate != ref.mpx_rate
            or rx.audio_rate != ref.audio_rate
            or rx.deviation_hz != ref.deviation_hz
            or rx.audio_cutoff_hz != ref.audio_cutoff_hz
            or rx.apply_deemphasis != ref.apply_deemphasis
        ):
            raise ConfigurationError(
                "all receivers in one batch must share mpx/audio rates, "
                "deviation, audio cutoff and de-emphasis"
            )


def decode_mono_rows(
    receivers: Sequence[FMReceiver],
    mpx_batch: np.ndarray,
    max_fft_rows: Optional[int] = None,
) -> List[ReceivedAudio]:
    """Shared mono decode of a demodulated MPX stack, *without* output effects.

    The mono decoder and audio low-pass (and, when configured, the
    de-emphasis IIR) are deterministic and sample-wise independent
    across waveforms, so they run as NumPy ops over the stack —
    bit-identical per row to the serial decode because the 2-D code path
    in the DSP layer is the same code path the 1-D calls take.
    Receiver-specific (stochastic) output effects are *not* applied;
    callers batch them separately through
    :meth:`FMReceiver.apply_output_effects_batch`, which lets the sweep
    backend decode in memory-capped chunks and still vectorize the
    effects across the whole partition.

    Args:
        receivers: one configured mono receiver per row; all must share
            the DSP-relevant configuration.
        mpx_batch: demodulated MPX rows, ``(len(receivers), samples)``.
        max_fft_rows: cap on how many rows each FFT-heavy filtering pass
            spans (``None`` = all rows at once). Purely a working-set
            knob — results are bit-identical at any value.
    """
    receivers = list(receivers)
    mpx_batch = np.asarray(mpx_batch)
    _require_uniform_batch(
        receivers,
        mpx_batch,
        supports_mono_batch,
        "decode_mono_rows needs mono receivers "
        "(stereo-capable receivers batch through the stereo decode)",
        batch_name="mpx_batch",
    )
    if not receivers:
        return []
    ref = receivers[0]

    results: List[ReceivedAudio] = []
    for rows in row_chunks(len(receivers), max_fft_rows):
        audio_batch = decode_mono(mpx_batch[rows], ref.mpx_rate, ref.audio_rate)
        audio_batch = ref._post_process(audio_batch)
        for rx, audio_row, mpx_row in zip(
            receivers[rows], audio_batch, mpx_batch[rows]
        ):
            left = np.ascontiguousarray(audio_row)
            results.append(
                ReceivedAudio(
                    left=left,
                    right=left.copy(),
                    stereo_locked=False,
                    mpx=np.ascontiguousarray(mpx_row),
                    audio_rate=rx.audio_rate,
                )
            )
    return results


def decode_stereo_rows(
    receivers: Sequence[FMReceiver],
    mpx_batch: np.ndarray,
    max_fft_rows: Optional[int] = None,
) -> List[ReceivedAudio]:
    """Shared stereo decode of a demodulated MPX stack, *without* output effects.

    The stereo counterpart of :func:`decode_mono_rows`: the pilot-gated
    stereo decode (:func:`~repro.fm.stereo.decode_stereo_batch`) and the
    audio post-filter run over the stack, with per-row pilot detection
    and lock decisions preserved — a row whose pilot is missing falls
    back to mono *inside* the batch, exactly as the serial receive
    would. ``max_fft_rows`` caps only the FFT-heavy filtering passes;
    the pilot PLL always tracks the *full* stack of pilot-bearing rows
    in one call, independent of the memory-capped chunking (see
    :meth:`repro.dsp.pll.PhaseLockedLoop.track_batch`).
    """
    receivers = list(receivers)
    mpx_batch = np.asarray(mpx_batch)
    _require_uniform_batch(
        receivers,
        mpx_batch,
        supports_stereo_batch,
        "decode_stereo_rows needs stereo-capable receivers "
        "(mono receivers batch through the mono decode)",
        batch_name="mpx_batch",
    )
    if not receivers:
        return []
    ref = receivers[0]

    decoded = decode_stereo_batch(
        mpx_batch, ref.mpx_rate, ref.audio_rate, max_fft_rows=max_fft_rows
    )
    # All rows share one MPX length, so the decoder's outputs stack; the
    # serial receive post-processes left then right, and both are
    # deterministic filters, so batching each channel separately keeps
    # every row bit-identical. These run at the audio rate (a tenth of
    # the MPX working set), so they span the full stack.
    left_batch = ref._post_process(np.stack([audio.left for audio in decoded]))
    right_batch = ref._post_process(np.stack([audio.right for audio in decoded]))

    results: List[ReceivedAudio] = []
    for rx, audio, left_row, right_row, mpx_row in zip(
        receivers, decoded, left_batch, right_batch, mpx_batch
    ):
        results.append(
            ReceivedAudio(
                left=np.ascontiguousarray(left_row),
                right=np.ascontiguousarray(right_row),
                stereo_locked=audio.stereo_locked,
                mpx=np.ascontiguousarray(mpx_row),
                audio_rate=rx.audio_rate,
            )
        )
    return results


def receive_mono_batch(
    receivers: Sequence[FMReceiver],
    iq_batch: np.ndarray,
    max_fft_rows: Optional[int] = None,
) -> List[ReceivedAudio]:
    """Receive many envelopes through the shared mono DSP in one pass.

    Demodulation and the mono decode run as stacked NumPy ops
    (:func:`decode_mono_rows`), then receiver-specific stochastic
    effects (codec noise, cabin noise) batch through
    :meth:`FMReceiver.apply_output_effects_batch` — random draws per row
    with each receiver's own generator, deterministic shaping
    vectorized. Every row is bit-identical to
    ``receivers[i].receive(iq_batch[i])``.

    Args:
        receivers: one configured mono receiver per row; all must share
            the DSP-relevant configuration (rates, cutoff, deviation,
            de-emphasis).
        iq_batch: complex envelopes, shape ``(len(receivers), samples)``.
        max_fft_rows: optional cap on the rows per FFT filtering pass.

    Returns:
        One :class:`ReceivedAudio` per row, in order.
    """
    receivers = list(receivers)
    iq_batch = np.asarray(iq_batch)
    _require_uniform_batch(
        receivers,
        iq_batch,
        supports_mono_batch,
        "receive_mono_batch needs mono receivers "
        "(stereo-capable receivers batch through receive_stereo_batch)",
    )
    if not receivers:
        return []
    ref = receivers[0]
    mpx_batch = fm_demodulate(iq_batch, ref.mpx_rate, ref.deviation_hz)
    rows = decode_mono_rows(receivers, mpx_batch, max_fft_rows)
    return type(ref).apply_output_effects_batch(receivers, rows)


def receive_stereo_batch(
    receivers: Sequence[FMReceiver],
    iq_batch: np.ndarray,
    max_fft_rows: Optional[int] = None,
) -> List[ReceivedAudio]:
    """Receive many envelopes through the shared stereo DSP in one pass.

    The stereo counterpart of :func:`receive_mono_batch`: demodulation,
    the pilot-gated stereo decode (whose pilot PLL tracks every
    pilot-bearing waveform in one call) and the audio post-filter run
    over the full ``(points, samples)`` stack
    (:func:`decode_stereo_rows`), then receiver-specific stochastic
    effects batch through
    :meth:`FMReceiver.apply_output_effects_batch` — left before right,
    each receiver's own generator — so every row is bit-identical to the
    serial receive.

    Args:
        receivers: one configured stereo-capable receiver per row; all
            must share the DSP-relevant configuration (rates, cutoff,
            deviation, de-emphasis).
        iq_batch: complex envelopes, shape ``(len(receivers), samples)``.
        max_fft_rows: optional cap on the rows per FFT filtering pass
            (the pilot PLL always spans the full stack).

    Returns:
        One :class:`ReceivedAudio` per row, in order.
    """
    receivers = list(receivers)
    iq_batch = np.asarray(iq_batch)
    _require_uniform_batch(
        receivers,
        iq_batch,
        supports_stereo_batch,
        "receive_stereo_batch needs stereo-capable receivers "
        "(mono receivers batch through receive_mono_batch)",
    )
    if not receivers:
        return []
    ref = receivers[0]
    mpx_batch = fm_demodulate(iq_batch, ref.mpx_rate, ref.deviation_hz)
    rows = decode_stereo_rows(receivers, mpx_batch, max_fft_rows)
    return type(ref).apply_output_effects_batch(receivers, rows)
