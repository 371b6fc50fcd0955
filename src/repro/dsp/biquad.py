"""Second-order IIR sections and the FM pre/de-emphasis networks.

FM broadcasting boosts treble before modulation (pre-emphasis) and the
receiver undoes it (de-emphasis, 75 us in North America). Both are
first-order shelving networks; they are represented here with the same
:class:`Biquad` machinery used elsewhere so the whole receive chain is a
couple of composable filter objects.

``scipy.signal`` is imported inside the functions that call it: it costs
about a second per process, which figures that never call them skip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import DEEMPHASIS_US_SECONDS
from repro.errors import ConfigurationError
from repro.utils.validation import ensure_positive, ensure_real_signal


@dataclass(frozen=True)
class Biquad:
    """A direct-form II transposed IIR section ``b / a``.

    Attributes:
        b: numerator coefficients (length <= 3).
        a: denominator coefficients (length <= 3, ``a[0]`` normalized to 1).
    """

    b: tuple
    a: tuple

    def __post_init__(self) -> None:
        if len(self.b) > 3 or len(self.a) > 3 or len(self.a) < 1:
            raise ConfigurationError("biquad sections take at most 3 coefficients")
        if abs(self.a[0] - 1.0) > 1e-12:
            raise ConfigurationError("a[0] must be normalized to 1")

    def apply(self, signal: np.ndarray) -> np.ndarray:
        """Filter a real signal through this section.

        Accepts a 1-D waveform or a 2-D ``(batch, samples)`` stack — the
        IIR recursion runs along the last axis independently per row, so
        each row's output is bit-identical to filtering it alone. This is
        what lets the sweep engine's batched backend keep de-emphasizing
        receivers on the vectorized path instead of falling back.
        """
        from scipy.signal import lfilter

        signal = ensure_real_signal(signal, "signal")
        return lfilter(self.b, self.a, signal, axis=-1)

    def frequency_response(self, freqs_hz: np.ndarray, sample_rate: float) -> np.ndarray:
        """Complex response at the given frequencies."""
        from scipy.signal import freqz

        w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float) / sample_rate
        _, h = freqz(self.b, self.a, worN=w)
        return h


def deemphasis_filter(sample_rate: float, tau: float = DEEMPHASIS_US_SECONDS) -> Biquad:
    """First-order de-emphasis network (RC low shelf) as a biquad.

    Bilinear-transform discretization of ``H(s) = 1 / (1 + s * tau)``.

    Args:
        sample_rate: audio sample rate.
        tau: time constant; 75 us (default) for North America, 50 us for
            Europe.
    """
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    tau = ensure_positive(tau, "tau")
    # Bilinear transform with frequency pre-warping at the pole.
    k = 2.0 * sample_rate
    b0 = 1.0 / (1.0 + k * tau)
    b1 = b0
    a1 = (1.0 - k * tau) / (1.0 + k * tau)
    return Biquad(b=(b0, b1), a=(1.0, a1))


def preemphasis_filter(sample_rate: float, tau: float = DEEMPHASIS_US_SECONDS) -> Biquad:
    """First-order pre-emphasis network, the inverse of de-emphasis.

    Discretizes ``H(s) = 1 + s * tau`` via the bilinear transform. Applying
    pre-emphasis then de-emphasis returns the original signal (validated by
    round-trip tests).
    """
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    tau = ensure_positive(tau, "tau")
    k = 2.0 * sample_rate
    # Exact inverse of deemphasis_filter: swap numerator and denominator,
    # then normalize so a[0] == 1. The resulting pole sits at z = -1
    # (Nyquist); that is fine for broadcast audio, which is band-limited to
    # 15 kHz, far below Nyquist at the rates used here.
    return Biquad(b=(1.0 + k * tau, 1.0 - k * tau), a=(1.0, 1.0))
