"""Stereo MPX decoding: pilot-locked L/R separation.

Receivers do not expose the L-R stream directly (paper section 3.3.1);
they output left and right channels. This module reproduces that: it
recovers the pilot with a PLL, regenerates the 38 kHz subcarrier,
synchronously demodulates L-R, and matrixes L = (L+R) + (L-R),
R = (L+R) - (L-R). When no pilot is detected the receiver stays in mono
mode and L == R, exactly the fallback behaviour the paper leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ, PILOT_FREQ_HZ
from repro.dsp.filters import bandpass_fir, design_lowpass_fir, fft_length, filter_signal
from repro.dsp.pll import PhaseLockedLoop
from repro.dsp.resample import resample_by_ratio
from repro.errors import SignalError
from repro.fm.pilot import PILOT_DETECT_THRESHOLD_DB, pilot_power_ratio_db
from repro.utils.validation import ensure_positive, ensure_real, ensure_real_signal


@dataclass
class StereoAudio:
    """Result of stereo decoding.

    Attributes:
        left: left channel at ``audio_rate``.
        right: right channel at ``audio_rate``.
        stereo_locked: True when the pilot was detected and the stereo
            matrix was applied; False means mono fallback (left == right).
        audio_rate: sample rate of the channels.
    """

    left: np.ndarray
    right: np.ndarray
    stereo_locked: bool
    audio_rate: float

    @property
    def mono(self) -> np.ndarray:
        """The (L+R)/2 mono mix."""
        return 0.5 * (self.left + self.right)

    @property
    def difference(self) -> np.ndarray:
        """The (L-R)/2 stereo difference — the paper's stereo-backscatter
        recovery step (subtract the receiver's L and R outputs)."""
        return 0.5 * (self.left - self.right)


def decode_mono(
    mpx: np.ndarray,
    mpx_rate: float = MPX_RATE_HZ,
    audio_rate: float = AUDIO_RATE_HZ,
    spectra: Optional[Dict[int, np.ndarray]] = None,
) -> np.ndarray:
    """Extract only the mono (L+R) audio from an MPX baseband.

    This is the 0-15 kHz slice every receiver produces before any stereo
    processing; mono-only receive paths (``stereo_capable=False``) use it
    directly and skip pilot recovery entirely.

    Accepts a 1-D MPX or a 2-D ``(batch, samples)`` stack — the batched
    sweep backend decodes every grid point's MPX in one filtering +
    resampling pass, each row bit-identical to decoding it alone.
    ``spectra`` is passed to :func:`~repro.dsp.filters.filter_signal`, so
    the stereo decoder's other filters reuse the low-pass's forward
    transform of ``mpx``.
    """
    mpx = ensure_real_signal(mpx, "mpx")
    mpx_rate = ensure_positive(mpx_rate, "mpx_rate")
    audio_rate = ensure_positive(audio_rate, "audio_rate")
    mono_mpx = filter_signal(design_lowpass_fir(15e3, mpx_rate, 513), mpx, spectra=spectra)
    return resample_by_ratio(mono_mpx, mpx_rate, audio_rate)


def decode_stereo(
    mpx: np.ndarray,
    mpx_rate: float = MPX_RATE_HZ,
    audio_rate: float = AUDIO_RATE_HZ,
    force_stereo: bool = False,
) -> StereoAudio:
    """Decode an MPX baseband into left/right audio.

    The one-row case of :func:`decode_stereo_batch`.

    Args:
        mpx: demodulated composite baseband.
        mpx_rate: sample rate of ``mpx``.
        audio_rate: desired output audio rate.
        force_stereo: decode the stereo matrix even without a confident
            pilot detection (used by tests; real receivers gate on the
            pilot, which is the default).

    Returns:
        :class:`StereoAudio` with mono fallback when no pilot is present.
    """
    mpx = ensure_real(mpx, "mpx")
    return decode_stereo_batch(mpx[np.newaxis, :], mpx_rate, audio_rate, force_stereo)[0]


def row_chunks(n_rows: int, max_rows: Optional[int]) -> List[slice]:
    """Contiguous row slices of at most ``max_rows`` (one slice if None).

    The shared chunking helper for every ``max_fft_rows``-capped batch
    decode stage (here and in :mod:`repro.receiver.fm_receiver`).
    """
    if max_rows is None or max_rows >= n_rows:
        return [slice(0, n_rows)]
    step = max(int(max_rows), 1)
    return [
        slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)
    ]


def decode_stereo_batch(
    mpx: np.ndarray,
    mpx_rate: float = MPX_RATE_HZ,
    audio_rate: float = AUDIO_RATE_HZ,
    force_stereo: bool = False,
    max_fft_rows: Optional[int] = None,
) -> List[StereoAudio]:
    """Decode a stack of MPX basebands into left/right audio in one pass.

    :func:`decode_stereo` is the one-row case. Pilot detection takes
    both band powers from one Welch PSD per row, the pilot PLL tracks
    all pilot-bearing waveforms in one
    :meth:`~repro.dsp.pll.PhaseLockedLoop.track_batch` call, and the 38 kHz
    regeneration, L-R demodulation and audio filtering are 2-D NumPy ops.
    The mono low-pass, the pilot band-pass and the stereo band-pass all
    filter the MPX, so they share its forward transform (one per FFT
    length; at 480,000 samples all three use 486,000). The candidates'
    transforms are kept from the mono stage until the stereo stage, about
    3.9 MB a row at that length. Every stage is row-independent, so row
    ``i``'s result is bit-identical to ``decode_stereo(mpx[i])`` —
    including per-row mono fallback when a row's pilot is absent or its
    loop fails to lock.

    Args:
        mpx: demodulated composite basebands, shape ``(batch, samples)``.
        mpx_rate: sample rate of each row.
        audio_rate: desired output audio rate.
        force_stereo: decode the stereo matrix on every row regardless of
            pilot detection and lock (same testing knob as the scalar
            decoder).
        max_fft_rows: cap on how many rows each FFT-heavy stage (mono
            low-pass, pilot/stereo band-passes, Welch pilot gate, the
            L-R filtering) spans per pass, keeping its working set
            cache-sized. It does *not* cap what persists across passes:
            the pilot PLL tracks every pilot-bearing row in one call, and
            those rows' forward transforms span the whole partition from
            the mono stage to the stereo band-pass (as many bytes again
            as the candidate MPX rows). Purely a performance knob —
            results are bit-identical at any value (each stage is
            row-independent).

    Returns:
        One :class:`StereoAudio` per row, in order.
    """
    mpx = np.asarray(mpx)
    if mpx.ndim != 2:
        raise SignalError(f"mpx must be 2-D (batch, samples), got shape {mpx.shape}")
    if np.iscomplexobj(mpx):
        raise SignalError("mpx must be real-valued")
    mpx_rate = ensure_positive(mpx_rate, "mpx_rate")
    audio_rate = ensure_positive(audio_rate, "audio_rate")
    n_rows = mpx.shape[0]
    if n_rows == 0:
        return []
    mpx = mpx.astype(float, copy=False)
    n_samples = mpx.shape[-1]

    # Stage 1: the pilot gate (the per-row detect_pilot decision), one
    # Welch PSD per row, working set capped like the filters.
    if force_stereo:
        candidate = np.ones(n_rows, dtype=bool)
    else:
        candidate = np.empty(n_rows, dtype=bool)
        for rows in row_chunks(n_rows, max_fft_rows):
            ratios = pilot_power_ratio_db(mpx[rows], mpx_rate)
            candidate[rows] = ratios > PILOT_DETECT_THRESHOLD_DB
    candidates = np.flatnonzero(candidate)

    # Stage 2, in memory-capped chunks: the mono (L+R) decode of every
    # row and the pilot band-pass of the candidate rows share one forward
    # transform per chunk. The PLL runs on a 5x-decimated pilot band (the
    # 19 kHz tone is still well below the decimated Nyquist) and its
    # unwrapped phase is linearly interpolated back to the MPX rate — the
    # phase of a narrowband tone is nearly linear over 5 samples, and
    # this cuts the loop's iteration count fivefold. Only the decimated
    # pilot band and the candidates' transforms persist, so the PLL
    # advances ALL candidate rows per time step regardless of the chunk
    # size, and the stereo band-pass below reuses the transforms.
    decimation = 5
    pilot_taps = bandpass_fir(18.5e3, 19.5e3, mpx_rate, 1025)
    stereo_taps = bandpass_fir(23e3, 53e3, mpx_rate, 513)
    stereo_nfft = fft_length(stereo_taps.size, n_samples)
    pilot_decimated = np.empty((candidates.size, len(range(0, n_samples, decimation))))
    candidate_spectra: Optional[np.ndarray] = None
    mono: Optional[np.ndarray] = None
    first = 0  # position in `candidates` of this chunk's first candidate
    for rows in row_chunks(n_rows, max_fft_rows):
        spectra: Dict[int, np.ndarray] = {}
        chunk = decode_mono(mpx[rows], mpx_rate, audio_rate, spectra=spectra)
        if mono is None:
            mono = np.empty((n_rows, chunk.shape[-1]))
        mono[rows] = chunk
        local = np.flatnonzero(candidate[rows])
        if local.size:
            if local.size < rows.stop - rows.start:
                spectra = {nfft: spectrum[local] for nfft, spectrum in spectra.items()}
            taken = slice(first, first + local.size)
            pilot_decimated[taken] = filter_signal(
                pilot_taps, mpx[rows.start + local], spectra=spectra
            )[:, ::decimation]
            # The stereo band-pass has the mono low-pass's 513 taps, so
            # it needs the transform decode_mono already stored.
            if candidate_spectra is None:
                candidate_spectra = np.empty(
                    (candidates.size, spectra[stereo_nfft].shape[-1]), complex
                )
            candidate_spectra[taken] = spectra[stereo_nfft]
            first += local.size
        del spectra
    results: List[Optional[StereoAudio]] = [None] * n_rows

    if candidates.size:
        decimated_rate = mpx_rate / decimation
        pll = PhaseLockedLoop(PILOT_FREQ_HZ, decimated_rate, loop_bandwidth_hz=30.0)
        track = pll.track_batch(pilot_decimated)
        # Keep only the phase: the pilot band and the frequency track are
        # not needed past the lock decision.
        phase = track.phase
        engaged = np.flatnonzero(track.locked | force_stereo)
        del track, pilot_decimated
        if engaged.size:
            rows = candidates[engaged]
            # Stage 3: subcarrier regeneration + L-R matrix for the
            # locked rows, stacked and chunked like the other filters.
            # The in-place updates below perform the same operations in
            # the same order as `np.cos(2.0 * phase)` and
            # `2.0 * stereo_band * carrier38`.
            sample_positions = np.arange(n_samples) / decimation
            decimated_index = np.arange(phase.shape[-1])
            diff_taps = design_lowpass_fir(15e3, mpx_rate, 513)
            diff: Optional[np.ndarray] = None
            for chunk in row_chunks(engaged.size, max_fft_rows):
                diff_mpx = filter_signal(
                    stereo_taps,
                    mpx[rows[chunk]],
                    spectra={stereo_nfft: candidate_spectra[engaged[chunk]]},
                )
                carrier38 = np.empty_like(diff_mpx)
                for k, pos in enumerate(engaged[chunk]):
                    carrier38[k] = np.interp(sample_positions, decimated_index, phase[pos])
                carrier38 *= 2.0
                np.cos(carrier38, out=carrier38)
                # Synchronous AM detection; factor 2 undoes the 1/2 from
                # the product.
                diff_mpx *= 2.0
                diff_mpx *= carrier38
                del carrier38
                diff_mpx = filter_signal(diff_taps, diff_mpx)
                diff_chunk = resample_by_ratio(diff_mpx, mpx_rate, audio_rate)
                del diff_mpx
                if diff is None:
                    diff = np.empty((engaged.size, diff_chunk.shape[-1]))
                diff[chunk] = diff_chunk

            n = min(mono.shape[-1], diff.shape[-1])
            for k, row in enumerate(rows):
                results[row] = StereoAudio(
                    left=mono[row, :n] + diff[k, :n],
                    right=mono[row, :n] - diff[k, :n],
                    stereo_locked=True,
                    audio_rate=audio_rate,
                )

    for row in range(n_rows):
        if results[row] is None:
            fallback = np.ascontiguousarray(mono[row])
            results[row] = StereoAudio(
                left=fallback,
                right=fallback.copy(),
                stereo_locked=False,
                audio_rate=audio_rate,
            )
    return results
