"""Store warm-up for the distributed launcher.

Each front-end composite a launch needs is synthesized once, by one
worker, into the shared :class:`~repro.engine.store.CacheStore` every
process loads it from: the launcher's parent deals the missing
composites into one share per initial worker (:func:`composite_shares`),
and each worker synthesizes its share before its first shard
(:func:`warm_store`). The benchmark's tracer (``perfbench/spans.py``)
patches :func:`warm_store` at this import path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.engine.cache import AmbientCache
from repro.engine.execution import make_ambient
from repro.engine.scenario import GridPoint, Scenario
from repro.engine.store import CacheStore


def _composites(scenario, data, points, cache, ambient_master):
    """Each point with its (ambient source, front end, payload)."""
    from repro.experiments.common import ExperimentChain

    for point in points:
        front_end = ExperimentChain(**scenario.chain_kwargs(point)).front_end()
        ambient = make_ambient(scenario, point, cache, ambient_master)
        yield point, ambient, front_end, scenario.payload_for(point, data)


def composite_shares(
    cache: Optional[AmbientCache], scenario: Scenario, data: Dict[str, object],
    points: Sequence[GridPoint], ambient_master: int, n_shares: int,
) -> List[List[int]]:
    """Deal the composites ``points`` need and ``cache``'s store lacks
    round-robin into ``n_shares`` shares, each named by the index of the
    first point needing it.

    Only scenarios that declare their payload can be warmed; measures
    that transmit internally fill the store lazily from whichever worker
    synthesizes first, so their shares are empty (as without a cache).
    """
    first: Dict[tuple, Optional[int]] = {}
    if cache is not None and not scenario.measure_driven:
        composites = _composites(scenario, data, points, cache, ambient_master)
        for point, ambient, front_end, payload in composites:
            key = ambient.composite_key(front_end, payload)
            if key not in first:
                # Presence by path, not load: a corrupt file self-heals
                # in the workers (their load-miss falls back to synthesis).
                present = cache.store.path_for(key).exists()
                first[key] = None if present else point.index
    missing = [index for index in first.values() if index is not None]
    return [missing[k::n_shares] for k in range(n_shares)]


def warm_store(
    store: CacheStore, scenario: Scenario, data: Dict[str, object],
    points: Sequence[GridPoint], ambient_master: int,
) -> int:
    """Synthesize ``points``' composites into ``store``; returns how many
    syntheses that took (each composite and its MPX ingredient).

    Through a cache of its own, dropped after, so the caller's cache
    holds only what its shards load. A synthesis that raises is skipped:
    the shard needing that composite raises it again, as its error.
    """
    cache = AmbientCache(store=store)
    composites = _composites(scenario, data, points, cache, ambient_master)
    for _, ambient, front_end, payload in composites:
        try:
            ambient.modulated_composite(front_end, payload)
        except Exception:
            continue  # resurfaces, with its traceback, from the shard
    return cache.syntheses
