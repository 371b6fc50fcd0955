"""FM demodulation: quadrature (polar) discriminator.

Section 3.2 of the paper describes FM decoding as differentiating the
baseband phase; real receivers implement it with PLLs or quadrature
discriminators. We use the discriminator form: the angle of
``x[n] * conj(x[n-1])`` is the per-sample phase increment, i.e. the
instantaneous frequency, which *is* the MPX baseband scaled by the
deviation.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FM_MAX_DEVIATION_HZ, MPX_RATE_HZ
from repro.errors import SignalError
from repro.utils.validation import ensure_positive, ensure_signal

_LAG_BLOCK = 65_536
"""Samples per lag-product block of the exact discriminator (1 MiB of
complex128). It must be at least 16,384 samples, the 256 KiB at which
NumPy elides the ``conj`` temporary (see :func:`_phase_increments`)."""


def fm_demodulate(
    iq: np.ndarray,
    sample_rate: float = MPX_RATE_HZ,
    deviation_hz: float = FM_MAX_DEVIATION_HZ,
) -> np.ndarray:
    """Recover the MPX baseband from a complex FM envelope.

    Args:
        iq: complex envelope samples; 1-D, or 2-D ``(batch, samples)`` to
            demodulate a stack of envelopes along the last axis in one
            vectorized pass. Each row's output is bit-identical to
            demodulating that row alone.
        sample_rate: sample rate of ``iq``.
        deviation_hz: deviation used at the modulator; output is scaled so
            full deviation maps back to +/-1.

    Returns:
        Real MPX estimate, same shape as the input (first sample
        duplicated, matching :func:`repro.dsp.phase.phase_to_frequency`).

    Raises:
        SignalError: if the input is not complex or any waveform is all
            zeros (no carrier to demodulate).
    """
    iq = ensure_signal(iq, "iq")
    if not np.iscomplexobj(iq):
        raise SignalError("iq must be a complex envelope")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    deviation_hz = ensure_positive(deviation_hz, "deviation_hz")
    magnitude = np.abs(iq)
    if not np.all(np.any(magnitude > 0, axis=-1)):
        raise SignalError("iq contains no signal (all zeros)")
    if iq.shape[-1] == 1:
        return np.zeros(iq.shape)
    # Quadrature discriminator. Guard against zero samples from hard
    # channel fades by substituting the previous sample (limiter
    # behavior). The floor is per waveform, so a batch demodulates each
    # row exactly as it would alone. Without a sample below the floor the
    # substitution is the identity, and the input is used as it is.
    floor = 1e-12 * np.max(magnitude, axis=-1, keepdims=True)
    above = magnitude > floor
    del magnitude
    if np.all(above):
        safe = np.ascontiguousarray(iq)
    else:
        safe = np.where(above, iq, floor)
    del above
    out = np.empty(safe.shape, dtype=safe.real.dtype)
    # Per-row evaluation: a single 2-D pass over the lag-product views
    # routes through numpy's buffered iterator, whose chunk boundaries
    # perturb the complex multiply by an ULP for some lengths. Each row
    # is still vectorized C calls; only the cross-row fusion is given up.
    for row, out_row in zip(safe.reshape(-1, safe.shape[-1]), out.reshape(-1, out.shape[-1])):
        _phase_increments(row, out_row[1:])
    # The scalings of inst_freq = angle * rate / (2 pi) / deviation, in
    # place and in that order, then the first sample duplicated.
    increments = out[..., 1:]
    increments *= sample_rate
    increments /= 2.0 * np.pi
    increments /= deviation_hz
    out[..., 0] = out[..., 1]
    return out


def _phase_increments(x: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = np.angle(x[1:] * np.conj(x[:-1]))`` in blocks, bit for bit.

    Each block evaluates that same expression, so the product temporary
    never spans the whole row. Blocks hold at least
    :data:`_LAG_BLOCK` samples (the last one absorbs the remainder), and
    that matters for exactness: at 256 KiB and more NumPy reuses the
    ``conj`` temporary as the output and multiplies as ``(conj, x)``, the
    AVX-512 complex multiply is not bitwise commutative, and so a block
    below the threshold would round differently from the whole row.
    ``np.arctan2(p.imag, p.real)`` is exactly what ``np.angle`` computes.
    """
    m = out.shape[-1]
    n_blocks = max(1, m // _LAG_BLOCK)
    for k in range(n_blocks):
        start = k * _LAG_BLOCK
        stop = m if k == n_blocks - 1 else start + _LAG_BLOCK
        product = x[start + 1 : stop + 1] * np.conj(x[start:stop])
        np.arctan2(product.imag, product.real, out=out[start:stop])
