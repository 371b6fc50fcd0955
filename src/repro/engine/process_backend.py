"""Store warm-up for the distributed launcher's worker processes.

:func:`warm_store` is the parent-side half of the launcher's shared
spill directory (:func:`~repro.engine.launcher.launch_sweep`): before
any worker forks, the parent fills a disk
:class:`~repro.engine.store.CacheStore` with every front-end composite
the grid will need (one synthesis per distinct front end, the same as an
in-process run), and each worker's cache attaches to that store, so
workers load ``.npz`` bytes instead of resynthesizing per worker.

The module's name predates the launcher: the benchmark's tracer
(``perfbench/spans.py``) patches :func:`warm_store` at this import path,
and the launcher looks it up here at call time.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.engine.cache import AmbientCache
from repro.engine.execution import make_ambient
from repro.engine.scenario import GridPoint, Scenario
from repro.engine.store import CacheStore


def warm_store(
    store: CacheStore,
    cache: AmbientCache,
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    ambient_master: int,
) -> int:
    """Pre-fill ``store`` with every composite the grid will request.

    Only scenarios that declare their payload can be warmed (the runner
    then knows each point's front end + waveform up front); measures that
    transmit internally warm the store lazily from whichever worker
    synthesizes first. Returns the number of entries ensured.
    """
    from repro.experiments.common import ExperimentChain

    ensured = 0
    seen = set()
    if not scenario.cache_ambient or scenario.measure_driven:
        return ensured

    for point in points:
        payload = scenario.payload_for(point, data)
        front_end = ExperimentChain(**scenario.chain_kwargs(point)).front_end()
        ambient = make_ambient(scenario, point, cache, ambient_master)
        key = ambient.composite_key(front_end, payload)
        if key in seen:
            continue
        seen.add(key)
        ensured += 1
        # Presence check by path, not load: deserializing a multi-MB
        # composite just to discard it would dominate warm starts. A
        # corrupt file self-heals in the workers (their load-miss falls
        # back to synthesis).
        if store.path_for(key).exists():
            continue
        value = ambient.modulated_composite(front_end, payload)
        # A synthesis through a store-attached cache persists itself;
        # re-check so a memory-served composite still lands on disk
        # (e.g. the spill directory was cleared mid-session) without
        # writing the archive twice on the common cold path.
        if not store.path_for(key).exists():
            store.save(key, value)
    return ensured

