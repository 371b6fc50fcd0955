"""A type-2 phase-locked loop for pilot-tone recovery.

Stereo FM decoding regenerates the 38 kHz subcarrier by doubling a 19 kHz
pilot recovered with a PLL (section 3.2 notes that real receivers decode
with PLL circuits). The loop here is a standard second-order digital PLL:
a numerically controlled oscillator, a multiplier phase detector, and a
proportional-integral loop filter.

The loop is inherently sequential in *time* (each step's phase feeds the
next), and independent waveforms share no state, so :meth:`track_batch`
runs the time loop once per waveform. Three loops perform the same
operations in the same order, so they give bit-identical tracks; the
first whose precondition holds runs (:func:`active_loop`):

1. ``"compiled"`` — a C copy of the float loop, built, loaded and
   probed by :mod:`repro.dsp.ckernel` (the harness the resampler's
   kernel uses too): ``gcc`` builds it on first use into the per-user
   cache directory, and :mod:`ctypes` releases the GIL for each call, so
   pool threads track their pilots concurrently. It runs only where
   :data:`FLOAT_SIN_IS_NUMPY_SIN` holds and its tracks equal the float
   loop's on a fixed probe; any failure (no compiler, a build error, an
   unwritable or foreign cache directory, a probe mismatch) logs one
   warning under ``repro.dsp.pll`` and falls back.
2. ``"float"`` — the recursion over plain Python floats with
   ``math.sin``; used where no compiled loop is available, and the
   compiled loop's reference.
3. ``"vector"`` — a NumPy loop advancing an ``(n_waveforms,)`` state
   vector per step; used only where ``math.sin`` and ``np.sin``
   disagree, since the two loops above rest on their equality.
"""

from __future__ import annotations

import ctypes
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.dsp.ckernel import CompiledKernel
from repro.errors import ConfigurationError, SignalError
from repro.utils.validation import ensure_positive, ensure_real

logger = logging.getLogger(__name__)


def _float_sin_is_numpy_sin() -> bool:
    """Whether ``math.sin`` equals ``np.sin`` bit for bit on this host.

    The float loop's bit-identity to the vector loop rests on it. Probed
    on phases like the loop's own (small, and unwrapped up to ~1e6 rad)
    through both a long array and one-element arrays, the widths the
    vector loop runs at.
    """
    rng = np.random.default_rng(0)
    probe = np.concatenate(
        [rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 512), rng.uniform(-1e6, 1e6, 512)]
    )
    floats = [math.sin(x) for x in probe.tolist()]
    return np.array_equal(np.sin(probe), floats) and all(
        np.sin(probe[i : i + 1])[0] == floats[i] for i in range(0, probe.size, 7)
    )


FLOAT_SIN_IS_NUMPY_SIN = _float_sin_is_numpy_sin()
"""Whether :meth:`PhaseLockedLoop.track_batch` may run the compiled or
the float loop; if ``math.sin`` and ``np.sin`` ever disagree, every
stack runs the NumPy vector loop instead."""

_C_SOURCE = r"""
#include <math.h>

/* PhaseLockedLoop._float_loop, operation for operation. */
void pll_track(const double *x, long n, double scale, double ki, double kp,
               double omega0, double *phase, double *steps)
{
    double theta = 0.0, integrator = 0.0;
    for (long i = 0; i < n; i++) {
        double sample = x[i] * scale;
        double error = sample * -sin(theta);
        integrator += ki * error;
        double step = omega0 + kp * error + integrator;
        phase[i] = theta;
        steps[i] = step;
        theta += step;
    }
}
"""


def _probe(func: Callable) -> None:
    """Check the loaded ``pll_track`` against the float loop.

    The probe is a noisy 19 kHz pilot at 96 kHz, one second long, so
    the phase unwraps past 1e5 rad; the compiled phase and step arrays
    must equal the float loop's exactly.
    """
    rate = 96_000.0
    t = np.arange(int(rate)) / rate
    probe = 0.1 * np.cos(2.0 * np.pi * 19_000.0 * t + 0.3)
    probe += 0.05 * np.random.default_rng(0).standard_normal(t.size)
    scale = np.array([1.0 / np.sqrt(np.mean(probe**2))])
    pll = PhaseLockedLoop(19_000.0, rate)
    phase, steps = pll._compiled_loop(func, probe[np.newaxis, :], scale)
    float_phase, float_steps = pll._float_loop(probe * scale[0])
    if not (
        np.array_equal(phase[0], float_phase) and np.array_equal(steps[0], float_steps)
    ):
        raise ArithmeticError("its probe track differs from the float loop's")


_KERNEL = CompiledKernel(
    "pll", _C_SOURCE, "pll_track",
    (ctypes.c_void_p, ctypes.c_long) + (ctypes.c_double,) * 4 + (ctypes.c_void_p,) * 2,
    _probe, logger, "the float loop",
)


def active_loop() -> str:
    """The loop :meth:`PhaseLockedLoop.track_batch` runs on this host:
    ``"compiled"``, ``"float"`` or ``"vector"`` (see the module
    docstring). The first call builds and probes the compiled loop."""
    if not FLOAT_SIN_IS_NUMPY_SIN:
        return "vector"
    return "compiled" if _KERNEL.get() is not None else "float"


@dataclass
class PLLResult:
    """Output of :meth:`PhaseLockedLoop.track`.

    Attributes:
        phase: per-sample NCO phase in radians (unwrapped).
        frequency_hz: per-sample NCO frequency estimate.
        locked: True when the tail-end frequency error settled within
            ``lock_tolerance_hz`` of the carrier.
        amplitude: estimated amplitude of the tracked tone.
    """

    phase: np.ndarray
    frequency_hz: np.ndarray
    locked: bool
    amplitude: float

    def reference(self) -> np.ndarray:
        """Unit-amplitude cosine locked to the input tone."""
        return np.cos(self.phase)

    def reference_harmonic(self, multiplier: int) -> np.ndarray:
        """Unit cosine at an integer multiple of the tracked frequency.

        Used to regenerate the 38 kHz stereo subcarrier (``multiplier=2``)
        and the 57 kHz RDS carrier (``multiplier=3``) from the 19 kHz pilot
        with phase coherence.
        """
        if multiplier < 1:
            raise ConfigurationError(f"multiplier must be >= 1, got {multiplier}")
        return np.cos(multiplier * self.phase)


@dataclass
class PLLBatchResult:
    """Output of :meth:`PhaseLockedLoop.track_batch`.

    The batch counterpart of :class:`PLLResult`: per-sample arrays gain a
    leading waveform axis and the scalar summaries become per-waveform
    vectors. Row ``i`` is bit-identical to ``track(signals[i])``.

    Attributes:
        phase: per-sample NCO phase in radians, ``(n_waveforms, n_samples)``.
        frequency_hz: per-sample NCO frequency estimate, same shape.
        locked: per-waveform lock flags, ``(n_waveforms,)`` bool.
        amplitude: per-waveform amplitude estimates, ``(n_waveforms,)``.
    """

    phase: np.ndarray
    frequency_hz: np.ndarray
    locked: np.ndarray
    amplitude: np.ndarray

    def reference(self) -> np.ndarray:
        """Unit-amplitude cosines locked to each input tone."""
        return np.cos(self.phase)

    def reference_harmonic(self, multiplier: int) -> np.ndarray:
        """Unit cosines at an integer multiple of each tracked frequency."""
        if multiplier < 1:
            raise ConfigurationError(f"multiplier must be >= 1, got {multiplier}")
        return np.cos(multiplier * self.phase)

    def row(self, index: int) -> PLLResult:
        """One waveform's track as a scalar :class:`PLLResult`."""
        return PLLResult(
            phase=self.phase[index],
            frequency_hz=self.frequency_hz[index],
            locked=bool(self.locked[index]),
            amplitude=float(self.amplitude[index]),
        )


class PhaseLockedLoop:
    """Second-order PLL tracking a sinusoid near a known center frequency.

    Args:
        center_freq_hz: expected tone frequency (e.g. 19 kHz pilot).
        sample_rate: input sample rate.
        loop_bandwidth_hz: closed-loop bandwidth; small values reject
            neighboring program audio but lock more slowly.
        damping: loop damping factor (0.707 default).
        lock_tolerance_hz: residual frequency error below which the loop
            reports lock.
    """

    def __init__(
        self,
        center_freq_hz: float,
        sample_rate: float,
        loop_bandwidth_hz: float = 50.0,
        damping: float = 0.707,
        lock_tolerance_hz: float = 5.0,
    ) -> None:
        self.center_freq_hz = ensure_positive(center_freq_hz, "center_freq_hz")
        self.sample_rate = ensure_positive(sample_rate, "sample_rate")
        if center_freq_hz >= sample_rate / 2:
            raise ConfigurationError("center frequency must be below Nyquist")
        self.loop_bandwidth_hz = ensure_positive(loop_bandwidth_hz, "loop_bandwidth_hz")
        self.damping = ensure_positive(damping, "damping")
        self.lock_tolerance_hz = ensure_positive(lock_tolerance_hz, "lock_tolerance_hz")
        # Standard loop-gain derivation for a second-order PLL.
        wn = 2.0 * np.pi * loop_bandwidth_hz
        ts = 1.0 / sample_rate
        self._kp = 2.0 * self.damping * wn * ts
        self._ki = (wn * ts) ** 2

    def track(self, signal: np.ndarray) -> PLLResult:
        """Run the loop over a real input block and return the NCO track.

        The phase detector multiplies the input by the NCO quadrature
        output and low-passes implicitly through the loop filter. This is
        the one-row case of :meth:`track_batch`.
        """
        signal = ensure_real(signal, "signal")
        return self.track_batch(signal[np.newaxis, :]).row(0)

    def track_batch(self, signals: np.ndarray) -> PLLBatchResult:
        """Run the loop over a stack of independent waveforms at once.

        The time loop stays sequential — a PLL's phase recursion cannot be
        unrolled — and runs once per row in the first available of the
        three loops (:func:`active_loop`). On a 2-CPU x86-64 host, a
        96,000-sample row (the Fig. 13 decimated pilot length) costs
        about 0.006 s in the compiled loop and 0.037 s in the float
        loop; the NumPy vector loop, which advances an
        ``(n_waveforms,)`` state vector per step, costs about 0.8-0.95 s
        over those 96,000 steps at 18-40 rows. The compiled loop
        releases the GIL, so pool threads tracking different points
        overlap. Waveforms are independent (no state is shared between
        rows) and all three loops perform the same operations in the
        same order, so row ``i`` of the result is bit-identical to
        ``track(signals[i])`` whichever runs.

        Args:
            signals: real waveform stack, shape ``(n_waveforms, n_samples)``.
                An empty *batch* (zero waveforms) is allowed and returns
                empty results; zero-length *waveforms* are rejected
                exactly like :meth:`track`.
        """
        signals = np.asarray(signals)
        if signals.ndim != 2:
            raise SignalError(
                f"signals must be 2-D (waveforms, samples), got shape {signals.shape}"
            )
        if np.iscomplexobj(signals):
            raise SignalError("signals must be real-valued")
        n_waveforms, n = signals.shape
        if n_waveforms and n == 0:
            raise SignalError("signals must be non-empty")
        signals = np.ascontiguousarray(signals, dtype=float)
        if n_waveforms == 0:
            return PLLBatchResult(
                phase=np.empty((0, n)),
                frequency_hz=np.empty((0, n)),
                locked=np.zeros(0, dtype=bool),
                amplitude=np.empty(0),
            )

        # Scale the detector by the input RMS so loop gain is amplitude
        # independent; amplitude is re-estimated at the end.
        rms = np.sqrt(np.mean(signals**2, axis=-1))
        scale = np.ones(n_waveforms)
        nonzero = rms > 0
        scale[nonzero] = 1.0 / rms[nonzero]
        compiled = _KERNEL.get() if FLOAT_SIN_IS_NUMPY_SIN else None
        if compiled is not None:
            phase, freq = self._compiled_loop(compiled, signals, scale)
        elif FLOAT_SIN_IS_NUMPY_SIN:
            phase = np.empty((n_waveforms, n))
            freq = np.empty((n_waveforms, n))
            for row in range(n_waveforms):
                phase[row], freq[row] = self._float_loop(signals[row] * scale[row])
        else:
            phase, freq = self._vector_loop(signals, scale)
        # The loops store raw phase increments; `step * sample_rate /
        # (2 pi)` is applied in place as one 2-D pass.
        freq *= self.sample_rate
        freq /= 2.0 * np.pi

        tail = max(n // 8, 1)
        freq_err = np.abs(np.mean(freq[:, -tail:], axis=-1) - self.center_freq_hz)
        locked = freq_err < self.lock_tolerance_hz
        # Amplitude: correlate the tail of the input with the locked cosine.
        ref_tail = np.cos(phase[:, -tail:])
        amplitude = 2.0 * np.mean(signals[:, -tail:] * ref_tail, axis=-1)
        return PLLBatchResult(
            phase=phase, frequency_hz=freq, locked=locked, amplitude=amplitude
        )

    def _compiled_loop(self, func: Callable, signals: np.ndarray, scale: np.ndarray):
        """Every waveform through the compiled ``pll_track``, one call a row.

        ``signals`` is C-contiguous float64; each call scales its row
        itself and releases the GIL. Returns the phase and raw phase
        increment arrays, ``(n_waveforms, n_samples)`` each.
        """
        n_waveforms, n = signals.shape
        phase = np.empty((n_waveforms, n))
        steps = np.empty((n_waveforms, n))
        omega0 = 2.0 * math.pi * self.center_freq_hz / self.sample_rate
        row_bytes = n * signals.itemsize
        for row in range(n_waveforms):
            offset = row * row_bytes
            func(
                signals.ctypes.data + offset, n, scale[row], self._ki, self._kp,
                omega0, phase.ctypes.data + offset, steps.ctypes.data + offset,
            )
        return phase, steps

    def _float_loop(self, scaled: np.ndarray):
        """One waveform's recursion over plain Python floats.

        ``scaled`` is the input times its detector scale. Returns the
        per-sample NCO phase and raw phase increment lists. ``math.sin``
        on a float skips the NumPy-scalar dispatch that dominates a
        per-sample loop; it is used only where it equals ``np.sin``
        (:data:`FLOAT_SIN_IS_NUMPY_SIN`).
        """
        ki, kp = self._ki, self._kp
        omega0 = 2.0 * math.pi * self.center_freq_hz / self.sample_rate
        sin = math.sin
        phase = []
        steps = []
        theta = 0.0
        integrator = 0.0
        for sample in scaled.tolist():
            error = sample * -sin(theta)
            integrator += ki * error
            step = omega0 + kp * error + integrator
            phase.append(theta)
            steps.append(step)
            theta += step
        return phase, steps

    def _vector_loop(self, signals: np.ndarray, scale: np.ndarray):
        """The recursion widened to an ``(n_waveforms,)`` state vector.

        Each operation keeps the float loop's association order (only
        operands are hoisted or buffers reused), so every element is
        bit-identical to it. Per-step results go to (time, waveform)-major
        buffers so the inner writes are contiguous. Returns the phase and
        raw phase increment arrays, ``(n_waveforms, n_samples)`` each.
        """
        n_waveforms, n = signals.shape
        columns = np.ascontiguousarray((signals * scale[:, np.newaxis]).T)
        phase_t = np.empty((n, n_waveforms))
        steps_t = np.empty((n, n_waveforms))
        theta = np.zeros(n_waveforms)
        integrator = np.zeros(n_waveforms)
        omega0 = 2.0 * np.pi * self.center_freq_hz / self.sample_rate
        neg_sin = np.empty(n_waveforms)
        error = np.empty(n_waveforms)
        scratch = np.empty(n_waveforms)
        for i in range(n):
            np.sin(theta, out=neg_sin)
            np.negative(neg_sin, out=neg_sin)
            np.multiply(columns[i], neg_sin, out=error)
            np.multiply(error, self._ki, out=scratch)
            integrator += scratch
            np.multiply(error, self._kp, out=scratch)
            scratch += omega0
            scratch += integrator
            phase_t[i] = theta
            steps_t[i] = scratch
            theta += scratch
        del columns
        phase = np.ascontiguousarray(phase_t.T)
        del phase_t
        return phase, np.ascontiguousarray(steps_t.T)
