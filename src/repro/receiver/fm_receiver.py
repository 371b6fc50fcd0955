"""The generic FM receiver chain: IQ -> MPX -> mono/stereo audio.

There is one chain, and it is batched: :func:`receive_mono_batch` and
:func:`receive_stereo_batch` demodulate, decode and post-process a
``(receivers, samples)`` stack, then apply the receiver type's
:meth:`FMReceiver.apply_output_effects_batch`. :meth:`FMReceiver.receive`
and :meth:`FMReceiver.apply_output_effects` are their one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.constants import AUDIO_RATE_HZ, FM_MAX_DEVIATION_HZ, MPX_RATE_HZ
from repro.dsp.biquad import deemphasis_filter
from repro.dsp.filters import design_lowpass_fir, filter_signal
from repro.errors import ConfigurationError
from repro.fm.demodulator import fm_demodulate
from repro.fm.stereo import decode_mono, decode_stereo_batch, row_chunks
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
        """Receiver-specific effects on one decoded reception.

        The one-row call of :meth:`apply_output_effects_batch`, which is
        where subclasses model their recording chain.
        """
        return type(self).apply_output_effects_batch([self], [received])[0]

    @classmethod
    def apply_output_effects_batch(
        cls, receivers: Sequence["FMReceiver"], received: Sequence[ReceivedAudio]
    ) -> List[ReceivedAudio]:
        """Receiver-specific effects over a whole decoded batch at once.

        Runs after the shared demodulate/decode/post-process DSP, for a
        batch of one receiver type (the base receiver has no effects).
        Subclasses model their recording chain here (smartphone AGC and
        codec noise, car cabin acoustics) by overriding this method
        alone: row ``i`` must equal the one-row call on
        ``(receivers[i], received[i])``, so stochastic effects draw per
        row from each receiver's own generator (left before right) while
        the deterministic shaping runs as stacked array ops.
        """
        return list(received)

    def receive(self, iq: np.ndarray) -> ReceivedAudio:
        """Full receive chain: demodulate, decode, post-process, effects.

        The one-row call of :func:`receive_stereo_batch` for a
        stereo-capable receiver, of :func:`receive_mono_batch` otherwise.
        """
        batch = receive_stereo_batch if self.stereo_capable else receive_mono_batch
        return batch([self], np.asarray(iq)[np.newaxis])[0]


def _require_uniform_batch(
    receivers: Sequence[FMReceiver],
    batch: np.ndarray,
    stereo: bool,
    requirement: str,
    batch_name: str = "iq_batch",
) -> None:
    """Shared shape / configuration validation for the batch receive paths.

    A batch is one receiver type, all stereo-capable (``stereo``) or all
    mono, sharing every DSP setting.
    """
    if batch.ndim != 2 or batch.shape[0] != len(receivers):
        raise ConfigurationError(
            f"{batch_name} must have shape (n_receivers, samples); got "
            f"{batch.shape} for {len(receivers)} receivers"
        )
    if not receivers:
        return
    ref = receivers[0]
    for rx in receivers:
        if rx.stereo_capable != stereo:
            raise ConfigurationError(requirement)
        if type(rx) is not type(ref):
            raise ConfigurationError(
                "all receivers in one batch must be one type; got "
                f"{type(ref).__name__} and {type(rx).__name__}"
            )
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
    across waveforms, so they run as NumPy ops over the stack; every DSP
    pass is row-wise, so a row's output does not depend on the rows
    beside it.
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
        False,
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
    back to mono *inside* the batch, exactly as it would alone.
    ``max_fft_rows`` caps only the FFT-heavy filtering passes; the pilot
    PLL always tracks the *full* stack of pilot-bearing rows in one
    call, independent of the memory-capped chunking (see
    :meth:`repro.dsp.pll.PhaseLockedLoop.track_batch`).
    """
    receivers = list(receivers)
    mpx_batch = np.asarray(mpx_batch)
    _require_uniform_batch(
        receivers,
        mpx_batch,
        True,
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
    # All rows share one MPX length, so the decoder's outputs stack, and
    # the post-filters are row-wise, so each channel filters as one
    # stack. These run at the audio rate (a tenth of the MPX working
    # set), so they span the full stack.
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
    vectorized. A mono receiver skips pilot recovery and the stereo
    matrix, whose output it would discard: left and right are the same
    post-processed mono mix. :meth:`FMReceiver.receive` is the one-row
    call, and every row equals it.

    Args:
        receivers: one configured mono receiver per row, all of one
            type and sharing the DSP-relevant configuration (rates,
            cutoff, deviation, de-emphasis).
        iq_batch: complex envelopes, shape ``(len(receivers), samples)``.
        max_fft_rows: optional cap on the rows per FFT filtering pass.

    Returns:
        One :class:`ReceivedAudio` per row, in order.
    """
    return _receive_batch(receivers, iq_batch, max_fft_rows, stereo=False)


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
    each receiver's own generator — so every row equals the one-row
    :meth:`FMReceiver.receive`.

    Args:
        receivers: one configured stereo-capable receiver per row, all
            of one type and sharing the DSP-relevant configuration
            (rates, cutoff, deviation, de-emphasis).
        iq_batch: complex envelopes, shape ``(len(receivers), samples)``.
        max_fft_rows: optional cap on the rows per FFT filtering pass
            (the pilot PLL always spans the full stack).

    Returns:
        One :class:`ReceivedAudio` per row, in order.
    """
    return _receive_batch(receivers, iq_batch, max_fft_rows, stereo=True)


def _receive_batch(
    receivers: Sequence[FMReceiver],
    iq_batch: np.ndarray,
    max_fft_rows: Optional[int],
    stereo: bool,
) -> List[ReceivedAudio]:
    """Demodulate, decode and apply output effects to a uniform batch."""
    receivers = list(receivers)
    iq_batch = np.asarray(iq_batch)
    kind, other = ("stereo", "mono") if stereo else ("mono", "stereo")
    _require_uniform_batch(
        receivers,
        iq_batch,
        stereo,
        f"receive_{kind}_batch needs {kind} receivers "
        f"({other} receivers batch through receive_{other}_batch)",
    )
    if not receivers:
        return []
    ref = receivers[0]
    mpx_batch = fm_demodulate(iq_batch, ref.mpx_rate, ref.deviation_hz)
    return decode_rows(receivers, mpx_batch, max_fft_rows)


def decode_rows(
    receivers: Sequence[FMReceiver],
    mpx_batch: np.ndarray,
    max_fft_rows: Optional[int] = None,
) -> List[ReceivedAudio]:
    """Decode a demodulated MPX stack, then apply the output effects.

    The tail every receive path shares after the discriminator:
    stereo-capable receivers decode through :func:`decode_stereo_rows`,
    mono ones through :func:`decode_mono_rows`, and the receiver type's
    :meth:`FMReceiver.apply_output_effects_batch` runs over the decoded
    rows. ``max_fft_rows`` caps the rows per FFT filtering pass.
    """
    receivers = list(receivers)
    if not receivers:
        return []
    ref = receivers[0]
    decode = decode_stereo_rows if ref.stereo_capable else decode_mono_rows
    rows = decode(receivers, mpx_batch, max_fft_rows)
    return type(ref).apply_output_effects_batch(receivers, rows)
