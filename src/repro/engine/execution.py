"""Single-point execution shared by every sweep setting.

:func:`execute_point` is the one place that turns (scenario, grid point,
pre-derived seed) into a measured value, and
:func:`~repro.engine.runner.run_units` is its one caller: every serial
unit of every plan, in-process or in a launcher worker, runs through it.
Keeping the RNG discipline here — build the point generator from the
pre-derived seed, attach the cached ambient, let the chain consume its
station/link/receiver children in order — is what makes every setting
and the launcher bit-identical.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.cache import AmbientCache, CachedAmbient
from repro.engine.scenario import GridPoint, PointRun, Scenario
from repro.errors import ConfigurationError


def make_ambient(
    scenario: Scenario,
    point: GridPoint,
    cache: Optional[AmbientCache],
    ambient_master: int,
) -> Optional[CachedAmbient]:
    """The point's cache-backed ambient source (``None`` when caching is off)."""
    if cache is None or not scenario.cache_ambient:
        return None
    ambient = CachedAmbient(cache, ambient_master)
    if scenario.ambient_variant is not None:
        ambient = ambient.with_variant(scenario.variant_for(point))
    return ambient


def execute_point(
    scenario: Scenario,
    point: GridPoint,
    seed: int,
    data: Dict[str, object],
    cache: Optional[AmbientCache],
    ambient_master: int,
) -> object:
    """Run one grid point to its measured value.

    Args:
        scenario: the sweep being executed.
        point: the grid cell.
        seed: the point's pre-derived stream seed (already mixed from the
            sweep master and the scenario's per-point keys).
        data: the shared dict from ``scenario.prepare``.
        cache: ambient cache for this process (``None`` disables caching).
        ambient_master: sweep-level ambient seed.
    """
    point_rng = np.random.default_rng(seed)
    ambient = make_ambient(scenario, point, cache, ambient_master)
    chain = None
    received = None
    if scenario.uses_chain:
        # Imported here: repro.experiments.common is a consumer of the
        # engine package in every other respect.
        from repro.experiments.common import ExperimentChain

        chain = ExperimentChain(**scenario.chain_kwargs(point))
        chain.ambient_source = ambient
    payload = scenario.payload_for(point, data)
    if payload is not None:
        if chain is None:
            raise ConfigurationError(
                f"scenario {scenario.name!r} declares a payload but no chain "
                "(set base_chain / chain_axes / chain_value_params)"
            )
        received = chain.transmit(payload, point_rng)
    run = PointRun(
        point=point,
        rng=point_rng,
        data=data,
        ambient=ambient,
        chain=chain,
        received=received,
    )
    return scenario.measure(run, **scenario.measure_params)
