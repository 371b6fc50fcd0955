"""Band scanning: find occupied channels and the backscatter channel.

Section 3.3 notes the optimal ``fback`` should target the unoccupied
channel with the lowest ambient power. A receiver-side analogue is
needed too: a phone app that doesn't know ``fback`` a priori can scan the
unoccupied channels near the strong station and lock onto the one
carrying FM energy. This module provides both primitives on simulated
band activity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.constants import FM_CHANNEL_SPACING_HZ, FM_NUM_CHANNELS
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChannelObservation:
    """Power measured in one FM channel.

    Attributes:
        channel: channel index (0-99).
        power_dbm: measured in-channel power.
    """

    channel: int
    power_dbm: float


class BandScanner:
    """Chooses backscatter channels from per-channel power measurements.

    Args:
        occupancy_threshold_dbm: channels above this are considered
            occupied by a broadcast station.
    """

    def __init__(self, occupancy_threshold_dbm: float = -70.0) -> None:
        self.occupancy_threshold_dbm = float(occupancy_threshold_dbm)

    @staticmethod
    def _validate(observations: Sequence[ChannelObservation]) -> List[ChannelObservation]:
        obs = list(observations)
        if not obs:
            raise ConfigurationError("observations must be non-empty")
        seen = set()
        for o in obs:
            if not 0 <= o.channel < FM_NUM_CHANNELS:
                raise ConfigurationError(f"channel {o.channel} out of range")
            if o.channel in seen:
                raise ConfigurationError(f"duplicate channel {o.channel}")
            seen.add(o.channel)
        return obs

    def occupied_channels(
        self, observations: Sequence[ChannelObservation]
    ) -> List[int]:
        """Channels whose power exceeds the occupancy threshold."""
        obs = self._validate(observations)
        return sorted(
            o.channel for o in obs if o.power_dbm > self.occupancy_threshold_dbm
        )

    def best_backscatter_channel(
        self,
        observations: Sequence[ChannelObservation],
        source_channel: int,
        max_shift_channels: int = 4,
    ) -> Optional[int]:
        """Pick the quietest free channel within reach of the source.

        Implements the section 3.3 guidance: among unoccupied channels
        within ``max_shift_channels`` of the ambient station, choose the
        one with the *lowest* ambient power (the noise floor may be set by
        adjacent-channel leakage, so quieter is strictly better).

        Returns:
            The chosen channel index, or ``None`` when every channel in
            reach is occupied.
        """
        obs = self._validate(observations)
        if not 0 <= source_channel < FM_NUM_CHANNELS:
            raise ConfigurationError("source_channel out of range")
        if max_shift_channels < 1:
            raise ConfigurationError("max_shift_channels must be >= 1")
        by_channel = {o.channel: o.power_dbm for o in obs}
        candidates: List[Tuple[float, int]] = []
        for delta in range(1, max_shift_channels + 1):
            for channel in (source_channel - delta, source_channel + delta):
                if 0 <= channel < FM_NUM_CHANNELS and channel in by_channel:
                    power = by_channel[channel]
                    if power <= self.occupancy_threshold_dbm:
                        candidates.append((power, channel))
        if not candidates:
            return None
        return min(candidates)[1]

    def allocate_channels(
        self,
        observations: Sequence[ChannelObservation],
        source_channel: int,
        n_channels: int,
        max_shift_channels: int = 4,
    ) -> List[int]:
        """Allocate up to ``n_channels`` distinct free channels, quietest
        first.

        The multi-device generalization of
        :meth:`best_backscatter_channel`: each pick removes its channel
        from the pool, so a deployment's channel plan can hand every
        device its own ``fback`` until the free channels in reach run
        out. Returns fewer than ``n_channels`` entries when they do.
        """
        if n_channels < 1:
            raise ConfigurationError("n_channels must be >= 1")
        remaining = list(observations)
        allocated: List[int] = []
        while len(allocated) < n_channels and remaining:
            channel = self.best_backscatter_channel(
                remaining, source_channel, max_shift_channels
            )
            if channel is None:
                break
            allocated.append(channel)
            remaining = [o for o in remaining if o.channel != channel]
        return allocated

    @staticmethod
    def fback_for_channels(source_channel: int, target_channel: int) -> float:
        """The subcarrier frequency that maps source -> target channel."""
        if source_channel == target_channel:
            raise ConfigurationError("target must differ from source")
        return abs(target_channel - source_channel) * FM_CHANNEL_SPACING_HZ
