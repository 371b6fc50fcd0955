"""Wideband multi-station FM band simulation.

The per-channel complex-baseband model (one station's channel at
``MPX_RATE_HZ``) is the efficient path; this module is the
physically-faithful one: a slice of the FM band with several stations at
their channel offsets, synthesized at a wideband rate. It backs three
things the narrowband path cannot:

* scanner integration — measure per-channel powers from actual IQ and
  let :class:`repro.receiver.scanner.BandScanner` choose ``fback``;
* adjacent-channel leakage — demonstrate that a strong neighbor raises
  the floor in the backscatter channel, the effect the link budget's
  ``adjacent_suppression_db`` models;
* mixing-product placement — confirm the backscatter sidebands land
  ``fback`` away from the source station.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.constants import FM_CHANNEL_SPACING_HZ
from repro.errors import ConfigurationError
from repro.fm.modulator import fm_modulate
from repro.fm.station import FMStation, StationConfig
from repro.utils.rand import RngLike, as_generator, child_generator
from repro.utils.units import dbm_to_watts


@dataclass(frozen=True)
class BandStation:
    """One station in the simulated band slice.

    Attributes:
        channel_offset: channel index relative to the slice center
            (0 = center; each step is 200 kHz).
        power_dbm: received power of this station at the observation
            point.
        program: program material name (``silence`` for a bare carrier).
        stereo: broadcast stereo (pilot + L-R) or mono.
    """

    channel_offset: int
    power_dbm: float
    program: str = "news"
    stereo: bool = True


class FMBandSimulator:
    """Synthesizes a wideband IQ slice containing several stations.

    Args:
        sample_rate: wideband rate; must cover every requested channel
            offset (e.g. 2.4 MHz covers offsets -5..+5).
        rng: seed or Generator for program material.
    """

    def __init__(self, sample_rate: float = 2_400_000.0, rng: RngLike = None) -> None:
        if sample_rate <= 0:
            raise ConfigurationError("sample_rate must be positive")
        self.sample_rate = float(sample_rate)
        self._rng = as_generator(rng)

    def _check_offset(self, offset: int) -> None:
        edge = abs(offset) * FM_CHANNEL_SPACING_HZ + 150e3
        if edge > self.sample_rate / 2:
            raise ConfigurationError(
                f"channel offset {offset} does not fit at fs={self.sample_rate}"
            )

    def synthesize(
        self, stations: Sequence[BandStation], duration_s: float
    ) -> np.ndarray:
        """Build the band slice: sum of offset, power-scaled FM signals."""
        stations = list(stations)
        if not stations:
            raise ConfigurationError("stations must be non-empty")
        offsets = [s.channel_offset for s in stations]
        if len(set(offsets)) != len(offsets):
            raise ConfigurationError("two stations share a channel offset")
        n = int(round(duration_s * self.sample_rate))
        band = np.zeros(n, dtype=complex)
        t = np.arange(n) / self.sample_rate
        for station in stations:
            self._check_offset(station.channel_offset)
            source = FMStation(
                StationConfig(
                    program=station.program,
                    stereo=station.stereo,
                    mpx_rate=self.sample_rate,
                ),
                rng=child_generator(self._rng, "station", station.channel_offset),
            )
            mpx = source.mpx(duration_s)[:n]
            iq = fm_modulate(mpx, self.sample_rate)
            offset_hz = station.channel_offset * FM_CHANNEL_SPACING_HZ
            amplitude = np.sqrt(dbm_to_watts(station.power_dbm))
            band += amplitude * iq * np.exp(2j * np.pi * offset_hz * t)
        return band

    def channel_powers_dbm(
        self, band_iq: np.ndarray, channel_offsets: Sequence[int]
    ) -> Dict[int, float]:
        """Measure in-channel power (dBm) at each offset via the FFT.

        This is what a scanning receiver computes while deciding where a
        backscatter device should place its signal.
        """
        band_iq = np.asarray(band_iq)
        if band_iq.ndim != 1 or band_iq.size == 0:
            raise ConfigurationError("band_iq must be a non-empty 1-D array")
        n = band_iq.size
        spectrum = np.fft.fftshift(np.fft.fft(band_iq))
        freqs = np.fft.fftshift(np.fft.fftfreq(n, 1.0 / self.sample_rate))
        # Parseval: |X[k]|^2 / n^2 sums to mean power.
        psd = np.abs(spectrum) ** 2 / n**2
        powers: Dict[int, float] = {}
        half = FM_CHANNEL_SPACING_HZ / 2
        for offset in channel_offsets:
            self._check_offset(offset)
            center = offset * FM_CHANNEL_SPACING_HZ
            mask = (freqs >= center - half) & (freqs < center + half)
            in_channel = float(np.sum(psd[mask]))
            powers[offset] = 10.0 * np.log10(max(in_channel, 1e-30) / 1e-3)
        return powers
