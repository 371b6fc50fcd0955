"""Window functions and smooth symbol shaping.

Only the windows the rest of the library actually uses are implemented:
the symmetric Hann (for FIR design and PESQ frames), the periodic Hann
(for Welch spectral estimation) and raised-cosine edge shaping (to
band-limit FSK symbol transitions so keying clicks do not splatter
across the audio band).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def hann_window(length: int) -> np.ndarray:
    """Periodic-symmetric Hann window of ``length`` samples.

    Matches ``numpy.hanning`` for length >= 1 but rejects nonsense input
    with a library error instead of returning an empty array.
    """
    if length < 1:
        raise ConfigurationError(f"window length must be >= 1, got {length}")
    if length == 1:
        return np.ones(1)
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (length - 1))


def periodic_hann_window(length: int) -> np.ndarray:
    """Periodic Hann window of ``length`` samples, as Welch uses it.

    Bit-identical to ``scipy.signal.get_window("hann", length)``: it is
    scipy's ``general_cosine`` with coefficients ``(0.5, 0.5)`` over
    ``length + 1`` points with the last one dropped, summed term by term
    in scipy's order. The textbook ``0.5 - 0.5 * cos(2 pi n / length)``
    rounds differently.
    """
    if length < 1:
        raise ConfigurationError(f"window length must be >= 1, got {length}")
    if length == 1:
        return np.ones(1)
    fac = np.linspace(-np.pi, np.pi, length + 1)
    window = np.zeros(length + 1)
    for k, coefficient in enumerate((0.5, 0.5)):
        window += coefficient * np.cos(k * fac)
    return window[:-1]


def raised_cosine_edges(length: int, ramp: int) -> np.ndarray:
    """Unit-amplitude envelope with raised-cosine ramps at both ends.

    Args:
        length: total envelope length in samples.
        ramp: samples in each ramp; ``0`` returns a rectangular envelope.

    Returns:
        Array of ``length`` samples rising smoothly from 0 to 1 and back.

    Raises:
        ConfigurationError: if ``2 * ramp > length`` or arguments are
            negative.
    """
    if length < 1:
        raise ConfigurationError(f"envelope length must be >= 1, got {length}")
    if ramp < 0:
        raise ConfigurationError(f"ramp must be >= 0, got {ramp}")
    if 2 * ramp > length:
        raise ConfigurationError(
            f"ramps ({ramp} samples each) do not fit in envelope of {length}"
        )
    envelope = np.ones(length)
    if ramp == 0:
        return envelope
    ramp_shape = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    envelope[:ramp] = ramp_shape
    envelope[length - ramp :] = ramp_shape[::-1]
    return envelope
