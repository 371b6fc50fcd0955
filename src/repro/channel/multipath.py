"""Multipath: tapped-delay-line channels and the two-ray ground model.

Urban FM reception is dominated by multipath from buildings (paper
section 3.1 mentions "complex multipath from structures and terrains").
For the narrowband FM channel the delay spread is far below a symbol, so
multipath mostly manifests as flat fading; the tapped-delay line is still
implemented for wideband validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rand import RngLike, as_generator
from repro.utils.validation import ensure_1d


def two_ray_gain_db(
    distance_m: float,
    frequency_hz: float,
    h_tx_m: float = 30.0,
    h_rx_m: float = 1.5,
) -> float:
    """Extra gain/loss (dB, relative to free space) of the two-ray model.

    Captures the ground-bounce interference pattern that makes received
    power oscillate with distance before settling into the d^-4 regime.
    """
    if distance_m <= 0:
        raise ConfigurationError("distance must be positive")
    lam = 299_792_458.0 / frequency_hz
    direct = np.sqrt(distance_m**2 + (h_tx_m - h_rx_m) ** 2)
    bounced = np.sqrt(distance_m**2 + (h_tx_m + h_rx_m) ** 2)
    phase = 2.0 * np.pi * (bounced - direct) / lam
    # Ground reflection coefficient approximated as -1 (grazing).
    combined = np.abs(1.0 - np.exp(1j * phase) * direct / bounced)
    return float(20.0 * np.log10(max(combined, 1e-6)))


@dataclass
class MultipathChannel:
    """Static tapped-delay-line channel.

    Attributes:
        delays_samples: integer tap delays.
        gains: complex tap gains (first tap is the direct path).
    """

    delays_samples: Tuple[int, ...]
    gains: Tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.delays_samples) != len(self.gains):
            raise ConfigurationError("delays and gains must have equal length")
        if len(self.delays_samples) == 0:
            raise ConfigurationError("channel needs at least one tap")
        if any(d < 0 for d in self.delays_samples):
            raise ConfigurationError("tap delays must be non-negative")

    @classmethod
    def random_urban(
        cls,
        sample_rate: float,
        n_taps: int = 4,
        max_delay_us: float = 5.0,
        rng: RngLike = None,
    ) -> "MultipathChannel":
        """Draw a random urban profile: exponentially decaying Rayleigh taps."""
        gen = as_generator(rng)
        max_delay = max(int(max_delay_us * 1e-6 * sample_rate), 1)
        delays = [0] + sorted(
            int(d) for d in gen.integers(1, max_delay + 1, size=max(n_taps - 1, 0))
        )
        gains = []
        for i, delay in enumerate(delays):
            power = np.exp(-3.0 * delay / max(max_delay, 1))
            mag = np.sqrt(power / 2.0)
            gains.append(complex(mag * gen.standard_normal(), mag * gen.standard_normal()) if i else 1.0 + 0.0j)
        return cls(tuple(delays), tuple(gains))

    def apply(self, iq: np.ndarray) -> np.ndarray:
        """Convolve a complex envelope with the tap profile."""
        iq = ensure_1d(iq, "iq")
        out = np.zeros(iq.size, dtype=complex)
        for delay, gain in zip(self.delays_samples, self.gains):
            if delay >= iq.size:
                continue
            out[delay:] += gain * iq[: iq.size - delay]
        return out

    def flat_gain(self) -> complex:
        """Narrowband (flat-fading) equivalent gain: the tap-sum."""
        return complex(sum(self.gains))
