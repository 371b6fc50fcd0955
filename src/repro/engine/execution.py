"""Stack execution shared by every sweep setting.

:func:`run_stack` is the one place that turns (scenario, grid points,
pre-derived seeds) into measured values, and
:func:`~repro.engine.runner.run_units` is its one caller: every stack of
every plan, in-process or in a launcher worker, runs through it. A
batched decision is one stack of its members at its chunk rows; a serial
point is a stack of one. Keeping the RNG discipline here — build each
point's generator from its pre-derived seed, attach the cached ambient,
and transmit through :func:`~repro.experiments.common.transmit_stack`,
which draws each row's station/link/receiver children in one order — is
what makes every setting and the launcher bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.cache import AmbientCache, CachedAmbient
from repro.engine.scenario import GridPoint, PointRun, Scenario


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


def run_stack(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    seeds: Sequence[int],
    cache: Optional[AmbientCache],
    ambient_master: int,
    positions: Sequence[int],
    chunk_rows: int,
    values: List[object],
) -> None:
    """Run the points at ``positions`` as one stack, measuring each.

    The stack shares the first member's ambient source and payload: the
    plan only stacks points whose front end, ambient variant and payload
    agree (:func:`~repro.engine.planner.partition_points`), and every
    other stack is one row. A measure-driven scenario declares no payload,
    so only its measure runs; an uncached point has no ambient source, so
    its one-row stack synthesizes the composite from its own station
    stream.

    Args:
        scenario: the sweep being executed.
        data: the shared dict from ``scenario.prepare``.
        points: the run's grid points.
        seeds: each point's pre-derived stream seed (already mixed from
            the sweep master and the scenario's per-point keys).
        cache: ambient cache for this process (``None`` disables caching).
        ambient_master: sweep-level ambient seed.
        positions: the stack's members, as positions into ``points``.
        chunk_rows: rows per vectorized link + discriminator pass.
        values: the run's values, written at each member's position.
    """
    first = points[positions[0]]
    ambient = make_ambient(scenario, first, cache, ambient_master)
    gens = [np.random.default_rng(seeds[pos]) for pos in positions]
    chains: List[Optional[object]] = [None] * len(positions)
    received: List[Optional[object]] = [None] * len(positions)
    if scenario.uses_chain:
        # Imported here: repro.experiments.common is a consumer of the
        # engine package in every other respect.
        from repro.experiments.common import ExperimentChain, transmit_stack

        chains = [ExperimentChain(**scenario.chain_kwargs(points[pos])) for pos in positions]
        for chain in chains:
            chain.ambient_source = ambient
        if not scenario.measure_driven:
            payload = scenario.payload_for(first, data)
            received = transmit_stack(chains, payload, gens, chunk_rows)
    for pos, gen, chain, row in zip(positions, gens, chains, received):
        run = PointRun(
            point=points[pos],
            rng=gen,
            data=data,
            ambient=ambient,
            chain=chain,
            received=row,
        )
        values[pos] = scenario.measure(run, **scenario.measure_params)
