"""Channel-occupancy statistics: unused channels and minimum shifts.

For every occupied channel, the paper computes the frequency separation to
the nearest *unoccupied* channel (Fig. 4b): this is the smallest usable
``fback``. The median across five cities is 200 kHz (one channel) and the
worst case stays under 800 kHz.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.constants import FM_CHANNEL_SPACING_HZ, FM_NUM_CHANNELS
from repro.errors import ConfigurationError


def unoccupied_channels(occupied: np.ndarray) -> np.ndarray:
    """Channel indices (0-99) with no station."""
    occupied = np.asarray(occupied, dtype=int)
    mask = np.ones(FM_NUM_CHANNELS, dtype=bool)
    if occupied.size:
        if np.any(occupied < 0) or np.any(occupied >= FM_NUM_CHANNELS):
            raise ConfigurationError("occupied channel index out of range")
        mask[occupied] = False
    return np.flatnonzero(mask)


def min_shift_frequencies_hz(occupied: np.ndarray) -> np.ndarray:
    """Per-station distance to the nearest free channel, in Hz.

    Args:
        occupied: channel indices with licensed stations.

    Returns:
        One value per occupied channel: ``|channel - nearest free| *
        200 kHz`` — the minimum ``fback`` a backscatter device next to
        that station needs.

    Raises:
        ConfigurationError: when every channel is occupied.
    """
    occupied = np.asarray(occupied, dtype=int)
    if occupied.size == 0:
        raise ConfigurationError("occupied must be non-empty")
    free = unoccupied_channels(occupied)
    if free.size == 0:
        raise ConfigurationError("no free channels: backscatter has nowhere to go")
    shifts = []
    for channel in occupied:
        distance = int(np.min(np.abs(free - channel)))
        shifts.append(distance * FM_CHANNEL_SPACING_HZ)
    return np.asarray(shifts)


def occupancy_summary(occupied: np.ndarray) -> Dict[str, float]:
    """Headline statistics of a band plan.

    Returns:
        dict with ``n_occupied``, ``n_free``, ``median_min_shift_hz`` and
        ``max_min_shift_hz``.
    """
    shifts = min_shift_frequencies_hz(occupied)
    return {
        "n_occupied": int(np.asarray(occupied).size),
        "n_free": int(unoccupied_channels(occupied).size),
        "median_min_shift_hz": float(np.median(shifts)),
        "max_min_shift_hz": float(np.max(shifts)),
    }
