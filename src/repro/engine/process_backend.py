"""Process-pool sweep execution for GIL-bound measures.

The thread backend is ideal when the per-point work is NumPy/SciPy FFTs
that release the GIL; measures dominated by Python bytecode (PLL loops,
Goertzel scans, PESQ alignment) serialize on it. This backend ships each
grid point to a ``ProcessPoolExecutor`` instead.

Bit-identity with the serial backend comes for free from the engine's
seed discipline: every point's stream seed is pre-derived in the parent,
so a worker just rebuilds ``default_rng(seed)`` and runs the exact same
:func:`~repro.engine.execution.execute_point`. What *does* need care is
the ambient cache, which is per-process:

- The scenario must be picklable — the declarative spec form
  (:class:`~repro.engine.scenario.AxisRef` templates, ``chain_axes``,
  module-level measures) exists for exactly this.
- The parent warms a disk :class:`~repro.engine.store.CacheStore` with
  every front-end composite the grid will need (one synthesis per
  distinct front end, same as in-process runs), and each worker's cache
  attaches to that store, so workers load ``.npz`` bytes instead of
  resynthesizing per worker. With ``REPRO_CACHE_DIR`` set the store is
  the user's persistent cache; otherwise a run-scoped temp directory.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import AmbientCache
from repro.engine.execution import composite_entry, execute_point
from repro.engine.scenario import GridPoint, Scenario
from repro.engine.store import CACHE_DIR_ENV_VAR, CacheStore
from repro.errors import ConfigurationError

_WORKER_STATE: Dict[str, object] = {}


def _init_worker(scenario_blob: bytes, data: Dict[str, object], ambient_master: int,
                 store_dir: Optional[str]) -> None:
    """Per-worker setup: unpickle the scenario, attach the shared store."""
    scenario: Scenario = pickle.loads(scenario_blob)
    cache = None
    if scenario.cache_ambient:
        cache = AmbientCache(store=CacheStore(store_dir) if store_dir else None)
    _WORKER_STATE["scenario"] = scenario
    _WORKER_STATE["data"] = data
    _WORKER_STATE["ambient_master"] = ambient_master
    _WORKER_STATE["cache"] = cache


def _run_point_task(task: Tuple[int, GridPoint, int]) -> Tuple[int, object]:
    """Execute one grid point inside a worker."""
    index, point, seed = task
    value = execute_point(
        _WORKER_STATE["scenario"],
        point,
        seed,
        _WORKER_STATE["data"],
        _WORKER_STATE["cache"],
        _WORKER_STATE["ambient_master"],
    )
    return index, value


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
    ensured = 0
    seen = set()
    if not scenario.cache_ambient or scenario.measure_driven:
        return ensured

    for point in points:
        payload = scenario.payload_for(point, data)
        ambient, front_end, key = composite_entry(
            scenario, point, payload, cache, ambient_master
        )
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


def run_process_backend(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    seeds: Sequence[int],
    cache: Optional[AmbientCache],
    ambient_master: int,
    max_workers: int,
) -> List[object]:
    """Execute the grid across a process pool; values in grid order.

    Raises:
        ConfigurationError: if the scenario is not picklable, or a live
            stateful fading model is on any link — each worker would
            unpickle its own copy and draw from it out of grid order.
    """
    from repro.engine.planner import live_fading_model

    model = live_fading_model(scenario, points)
    if model is not None:
        raise ConfigurationError(
            f"backend 'process' cannot reproduce the grid-order draws of the "
            f"live fading model {type(model).__name__} in scenario "
            f"{scenario.name!r}: each worker would draw from its own copy. "
            "Declare the fading as a repro.channel.fading.MotionFadingSpec, "
            "which resolves per point, or use another backend"
        )
    blob = scenario.require_picklable()

    store_dir: Optional[str] = None
    scratch_dir: Optional[str] = None
    if cache is not None and scenario.cache_ambient:
        if cache.store is not None:
            store_dir = str(cache.store.directory)
        else:
            persistent = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
            if persistent:
                store_dir = persistent
            else:
                scratch_dir = tempfile.mkdtemp(prefix="repro-sweep-spill-")
                store_dir = scratch_dir
        warm_store(
            CacheStore(store_dir), cache, scenario, data, points, ambient_master
        )

    tasks = [(i, point, seeds[i]) for i, point in enumerate(points)]
    values: List[object] = [None] * len(points)
    try:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(blob, data, ambient_master, store_dir),
        ) as pool:
            chunksize = max(1, len(tasks) // (4 * max_workers) or 1)
            for index, value in pool.map(_run_point_task, tasks, chunksize=chunksize):
                values[index] = value
    finally:
        if scratch_dir is not None:
            shutil.rmtree(scratch_dir, ignore_errors=True)
    return values
