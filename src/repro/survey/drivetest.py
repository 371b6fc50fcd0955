"""Drive-test simulation of FM signal strength across a city (Fig. 2).

The paper drives an SDR through Seattle, grids the city into 0.8 x 0.8 mi
squares (69 measurements) and records the strongest station's median power
per square: -10 to -55 dBm with a median of -35.15 dBm. We reproduce the
*distribution* with a synthetic city: FM towers placed around the area,
log-distance propagation with urban shadowing, strongest-station selection
per grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.channel.pathloss import log_distance_path_loss_db
from repro.errors import ConfigurationError
from repro.utils.rand import RngLike, as_generator, child_generator


@dataclass
class SurveyResult:
    """Outcome of a simulated drive test.

    Attributes:
        powers_dbm: strongest-station power per grid cell.
        grid_shape: (rows, cols) of the survey grid.
    """

    powers_dbm: np.ndarray
    grid_shape: Tuple[int, int]

    def cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """Empirical CDF ``(power_dbm_sorted, probability)`` — Fig. 2a."""
        x = np.sort(self.powers_dbm)
        p = np.arange(1, x.size + 1) / x.size
        return x, p

    @property
    def median_dbm(self) -> float:
        """Median strongest-station power across the city."""
        return float(np.median(self.powers_dbm))


@dataclass
class CitySurvey:
    """Synthetic city for FM power surveys.

    Defaults are calibrated so the resulting CDF spans the paper's
    -10..-55 dBm with a median near -35 dBm.

    Attributes:
        area_mi: survey square edge length in miles.
        grid_cells: cells per edge (the paper's 69 measurements come from
            roughly an 8x9 grid).
        n_towers: FM towers serving the area; most sit on a common antenna
            farm outside the grid, some in-town.
        tower_erp_dbm: effective radiated power per tower (80 dBm =
            100 kW).
        path_loss_exponent: urban propagation exponent.
        shadowing_sigma_db: log-normal shadowing from buildings/terrain.
    """

    area_mi: float = 6.4
    grid_cells: int = 8
    n_towers: int = 12
    tower_erp_dbm: float = 80.0
    path_loss_exponent: float = 3.2
    shadowing_sigma_db: float = 9.0
    frequency_hz: float = 98e6

    def __post_init__(self) -> None:
        if self.grid_cells < 2:
            raise ConfigurationError("grid_cells must be >= 2")
        if self.n_towers < 1:
            raise ConfigurationError("n_towers must be >= 1")

    translator_erp_dbm: float = 50.0
    """ERP of the low-power in-town translators/boosters (50 dBm = 100 W);
    full-power stations broadcast from an antenna farm outside town."""

    def _towers_m(self, gen: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Tower coordinates and per-tower ERP: a high-power cluster on an
        antenna farm outside the grid plus low-power in-town translators."""
        area_m = self.area_mi * 1609.34
        n_farm = max(self.n_towers * 2 // 3, 1)
        farm_center = np.array([1.8 * area_m, 1.3 * area_m])
        farm = farm_center + 400.0 * gen.standard_normal((n_farm, 2))
        n_town = self.n_towers - n_farm
        if n_town > 0:
            town = gen.uniform(-0.5 * area_m, 1.5 * area_m, size=(n_town, 2))
            positions = np.vstack([farm, town])
        else:
            positions = farm
        erps = np.concatenate(
            [
                np.full(n_farm, self.tower_erp_dbm),
                np.full(max(n_town, 0), self.translator_erp_dbm),
            ]
        )
        return positions, erps

    def run(self, rng: RngLike = None) -> SurveyResult:
        """Simulate the drive test: strongest station per grid cell."""
        gen = as_generator(rng)
        area_m = self.area_mi * 1609.34
        towers, erps = self._towers_m(gen)
        axis = (np.arange(self.grid_cells) + 0.5) * (area_m / self.grid_cells)
        powers = np.empty(self.grid_cells * self.grid_cells)
        idx = 0
        for y in axis:
            for x in axis:
                cell = np.array([x, y])
                distances = np.linalg.norm(towers - cell, axis=1)
                cell_gen = child_generator(gen, "cell", idx)
                losses = log_distance_path_loss_db(
                    distances,
                    self.frequency_hz,
                    exponent=self.path_loss_exponent,
                    shadowing_sigma_db=self.shadowing_sigma_db,
                    rng=cell_gen,
                )
                received = erps - np.asarray(losses)
                powers[idx] = float(np.max(received))
                idx += 1
        return SurveyResult(powers_dbm=powers, grid_shape=(self.grid_cells, self.grid_cells))


def diurnal_power_series(
    n_minutes: int = 1440,
    mean_dbm: float = -33.0,
    sigma_db: float = 0.7,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-minute received power at a fixed location over a day (Fig. 2b).

    The paper measures a 0.7 dB standard deviation over 24 hours —
    broadcast ERP is regulated and constant, so only slow environmental
    variation remains. Modelled as an AR(1) process around the mean.
    """
    if n_minutes < 2:
        raise ConfigurationError("n_minutes must be >= 2")
    gen = as_generator(rng)
    rho = 0.95  # slow environmental drift
    innovations = gen.standard_normal(n_minutes) * sigma_db * np.sqrt(1 - rho**2)
    series = np.empty(n_minutes)
    series[0] = gen.standard_normal() * sigma_db
    for i in range(1, n_minutes):
        series[i] = rho * series[i - 1] + innovations[i]
    return mean_dbm + series
