"""Sweep execution: serial or auto — always seed-stable.

:class:`SweepRunner` turns a declarative
:class:`~repro.engine.scenario.Scenario` into results:

1. ``prepare`` runs once with the sweep generator (drawing payload bits,
   reference speech, ... exactly like the preamble of the legacy loops).
2. One master integer per grid point is drawn from the sweep generator
   *serially in grid order* — the same draws the legacy loops consumed
   via :func:`~repro.utils.rand.child_generator` — and mixed with the
   scenario's per-point keys through the pure
   :func:`~repro.utils.rand.derive_seed`. Every point's stream is
   therefore fixed before execution starts, so both settings are
   bit-identical to the serial loop and to the hand-rolled loops they
   replaced.
3. :func:`~repro.engine.planner.plan_sweep` turns the selected setting
   into a plan — one :class:`~repro.engine.planner.PlanDecision` per
   partition (points sharing a front end and a receive decode), recorded
   on :attr:`~repro.engine.results.SweepResult.plan` — and its units,
   each a tuple of stacks, and :func:`run_units` runs every stack
   through the one executor, :func:`~repro.engine.execution.run_stack`:

   - ``serial`` — one unit of one-row stacks, every point in turn (the
     reference semantics).
   - ``auto`` (the default) — each partition is stacked (``batched``)
     or run per point (``serial``) by a measured row-length rule (one
     crossover for mono rows, one for stereo). A stack's link + receive
     math (fading, mono and stereo decode, de-emphasis and receiver
     output effects) runs vectorized over a ``(points, samples)`` array;
     a measure-driven or uncached grid has nothing to stack. Each serial
     point is then one unit, and all batched partitions together are one
     more.

:func:`run_units` is a thread pool with one thread per available CPU,
capped at the number of units; ``max_workers`` or
``REPRO_SWEEP_WORKERS`` sets the count instead, and a pool of one (as
for the single unit of ``serial``) runs inline. Units
may run concurrently: each point's stream is derived before execution
(a fading spec on the chain resolves from it too), and the ambient
cache and the DSP plan cache lock. Multi-process execution is
the distributed launcher's job (:mod:`repro.engine.launcher`).

Select with the ``backend`` argument or the ``REPRO_SWEEP_BACKEND``
environment variable (strictly parsed — a typo raises
:class:`~repro.errors.ConfigurationError` naming the variable and its
choices); with neither set, the runner uses ``auto``.

Ambient caching: when the scenario opts in (the default), every point
receives a :class:`~repro.engine.cache.CachedAmbient` view keyed by a
run-level master seed, so a whole grid synthesizes each ambient program
(and its FM-modulated composite) exactly once — the paper's own
methodology of replaying one recorded station clip at every grid point.
With ``REPRO_CACHE_DIR`` set, syntheses additionally spill to disk and
survive the process.
"""

from __future__ import annotations

import numbers
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import AmbientCache, default_cache, stats_delta
from repro.engine.execution import run_stack
from repro.engine.planner import Unit, plan_sweep
from repro.engine.results import SweepResult
from repro.engine.scenario import GridPoint, Scenario
from repro.errors import ConfigurationError
from repro.utils.env import env_choice, env_int
from repro.utils.rand import RngLike, as_generator, derive_seed

WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"
"""Environment override for the pool size (1 runs ``auto`` on one thread)."""

BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"
"""Environment override for the execution backend."""

AUTO_BACKEND = "auto"
"""The default: planned per-partition execution (:mod:`repro.engine.planner`)."""

BACKEND_CHOICES = ("serial", AUTO_BACKEND)
"""Everything ``backend=`` / ``REPRO_SWEEP_BACKEND`` accepts."""


def check_count(name: str, value: object, least: int) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is an int (not a
    bool) of at least ``least``, naming the setting."""
    is_int = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not is_int or value < least:
        raise ConfigurationError(f"{name} must be an int >= {least}, got {value!r}")


def default_max_workers() -> int:
    """Worker count used when a runner is built without ``max_workers``.

    Strictly parsed: a malformed or non-positive ``REPRO_SWEEP_WORKERS``
    raises :class:`~repro.errors.ConfigurationError` naming the
    offending string instead of being silently clamped.
    """
    return env_int(WORKERS_ENV_VAR, 1, minimum=1)


def pool_size(n_units: int, max_workers: Optional[int] = None) -> int:
    """Threads for a pool over ``n_units`` units of work.

    One per CPU this process may run on, unless ``max_workers`` names a
    count, and never more than there are units.
    """
    if max_workers is None:
        try:
            max_workers = len(os.sched_getaffinity(0))
        except AttributeError:  # not every platform has affinity masks
            max_workers = os.cpu_count() or 1
    return max(1, min(max_workers, n_units))


def run_units(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    seeds: Sequence[int],
    cache: Optional[AmbientCache],
    ambient_master: int,
    units: Sequence[Unit],
    max_workers: Optional[int] = None,
) -> Tuple[List[object], int]:
    """Execute ``units`` on one thread pool of :func:`pool_size` threads.

    Units run concurrently, the stacks inside one unit in order, each
    through :func:`~repro.engine.execution.run_stack`. Every point's
    stream is pre-derived, so values are bit-identical to a serial run
    whatever the pool size.

    Returns:
        ``(values, n_workers)`` — values in grid order, and the pool size
        (1 when run inline).
    """
    values: List[object] = [None] * len(points)

    def run(unit: Unit) -> None:
        for positions, chunk_rows in unit:
            run_stack(
                scenario, data, points, seeds, cache, ambient_master,
                positions, chunk_rows, values,
            )

    n_workers = pool_size(len(units), max_workers)
    if n_workers == 1:
        for unit in units:
            run(unit)
    else:
        pool = ThreadPoolExecutor(max_workers=n_workers)
        try:
            futures = [pool.submit(run, unit) for unit in units]
            for future in futures:
                future.result()
        finally:
            # On a failure, units not yet started are dropped rather than run.
            pool.shutdown(cancel_futures=True)
    return values, n_workers


def run_points(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    seeds: Sequence[int],
    cache: Optional[AmbientCache],
    ambient_master: int,
    setting: str,
    max_workers: Optional[int] = None,
) -> SweepResult:
    """Plan ``points`` under ``setting``, run the plan, and report it.

    The one path from pre-derived streams to a :class:`SweepResult`:
    :meth:`SweepRunner.run`, the launcher's workers and its in-process
    salvage all call it, so every sweep is planned and runs through
    :func:`run_units`. ``cache`` is ``None`` when ambient caching is off;
    otherwise its counters' change over the run lands on
    ``cache_stats``.
    """
    stats_before = cache.stats if cache is not None else None
    start = time.perf_counter()
    plan = plan_sweep(scenario, data, points, cache, setting)
    values, n_workers = run_units(
        scenario, data, points, seeds, cache, ambient_master, plan.units, max_workers
    )
    elapsed = time.perf_counter() - start
    return SweepResult(
        spec=scenario.sweep,
        points=list(points),
        values=values,
        elapsed_s=elapsed,
        n_workers=n_workers,
        cache_stats=None if cache is None else stats_delta(cache.stats, stats_before),
        data=data,
        backend=plan.label,
        scenario_name=scenario.name,
        plan=plan.decisions,
    )


def default_backend() -> Optional[str]:
    """Backend named by ``REPRO_SWEEP_BACKEND`` (``None`` when unset).

    Strictly parsed through :func:`~repro.utils.env.env_choice`: a typo
    raises :class:`~repro.errors.ConfigurationError` naming the variable
    and the accepted spellings instead of silently running serial.
    """
    return env_choice(BACKEND_ENV_VAR, None, BACKEND_CHOICES)


def derive_streams(scenario: Scenario, gen) -> Tuple[Dict[str, object], List, List[int], int]:
    """Run ``prepare`` and pre-derive every point's stream, in grid order.

    The one place that performs the sweep generator's draws, so every
    consumer agrees on them bit for bit: ``prepare`` consumes first
    (exactly like the preamble of the legacy loops), then one master
    integer per grid point is drawn serially in grid order and mixed with
    the scenario's per-point keys through the pure
    :func:`~repro.utils.rand.derive_seed`, and finally — drawn last, so
    enabling the cache never shifts the per-point streams — the run-level
    ambient master (``0`` when ambient caching is off). Shared by
    :meth:`SweepRunner.run` and the distributed launcher
    (:mod:`repro.engine.launcher`), which is what makes a shard executed
    on any worker, attempt or machine bit-identical to the same points of
    a whole-grid run.

    Returns:
        ``(data, points, seeds, ambient_master)`` for the whole grid.
    """
    data: Dict[str, object] = {}
    if scenario.prepare is not None:
        data = scenario.prepare(gen)
    points = scenario.sweep.points()
    masters = [int(gen.integers(0, 2 ** 31)) for _ in points]
    seeds = [
        derive_seed(masters[i], *scenario.point_rng_keys(point))
        for i, point in enumerate(points)
    ]
    ambient_master = 0
    if scenario.cache_ambient:
        ambient_master = int(gen.integers(0, 2 ** 63))
    return data, points, seeds, ambient_master


class SweepRunner:
    """Executes one :class:`Scenario` over its grid.

    Args:
        scenario: the declarative sweep.
        rng: sweep-level seed or Generator (the ``rng`` argument of the
            figure ``run()`` functions, passed straight through).
        cache: ambient cache to share; defaults to the process-wide one,
            so repeated runs with the same seed hit instead of refill.
        max_workers: size of the thread pool :func:`run_units` runs
            ``auto``'s units on, a positive int and not a bool (anything
            else raises :class:`~repro.errors.ConfigurationError`, see
            :func:`check_count`); ``None`` reads
            ``REPRO_SWEEP_WORKERS``, and when that is unset too, the pool
            sizes itself to the CPUs (see :func:`pool_size`). Results are
            identical at any count.
        backend: one of :data:`BACKEND_CHOICES`; ``None`` reads
            ``REPRO_SWEEP_BACKEND`` and finally falls back to ``auto`` —
            the planner picks per partition, and its decisions land on
            ``result.plan``.
    """

    def __init__(
        self,
        scenario: Scenario,
        rng: RngLike = None,
        cache: Optional[AmbientCache] = None,
        max_workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.scenario = scenario
        self.rng = rng
        self.cache = cache
        if max_workers is None and os.environ.get(WORKERS_ENV_VAR, "").strip():
            max_workers = default_max_workers()
        if max_workers is not None:
            check_count("max_workers", max_workers, 1)
        self.max_workers = max_workers
        if backend is not None and backend not in BACKEND_CHOICES:
            raise ConfigurationError(
                f"backend must be one of {BACKEND_CHOICES}, got {backend!r}"
            )
        if backend is None:
            backend = default_backend() or AUTO_BACKEND
        self.backend = backend

    def run(self, point_slice: Optional[Tuple[int, int]] = None) -> SweepResult:
        """Execute the grid (or one contiguous shard of it).

        Args:
            point_slice: optional ``(start, stop)`` half-open range over
                ``spec.points()`` row-major order. Seeds (and the ambient
                master) are always derived for the *whole* grid first, so
                a shard's per-point streams are bit-identical to the same
                points of a whole-grid run — shards executed anywhere can
                be stitched back with :meth:`SweepResult.merge`, and the
                stitched values are bit-identical to a whole-grid run.
                ``start == stop`` is a valid *empty* shard (the natural
                remainder of the launcher's work re-slicing): it executes
                nothing and merges as a no-op.
        """
        scenario = self.scenario
        gen = as_generator(self.rng)

        # The whole grid's draws happen here, in grid order — the exact
        # sequence the legacy nested loops consumed through
        # child_generator — before any slicing, so a shard's streams are
        # bit-identical to the same points of a whole-grid run.
        data, points, seeds, ambient_master = derive_streams(scenario, gen)
        if point_slice is not None:
            try:
                start, stop = point_slice
                # operator.index, like builtin slicing: numpy integers
                # qualify, floats don't.
                start, stop = operator.index(start), operator.index(stop)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"point_slice must be a (start, stop) pair of ints, "
                    f"got {point_slice!r}"
                ) from None
            if not 0 <= start <= stop <= len(points):
                raise ConfigurationError(
                    f"point_slice {point_slice!r} outside the grid's "
                    f"{len(points)} points (need 0 <= start <= stop <= n)"
                )
            points = points[start:stop]
            seeds = seeds[start:stop]

        cache: Optional[AmbientCache] = None
        if scenario.cache_ambient:
            cache = self.cache if self.cache is not None else default_cache()
        return run_points(
            scenario, data, points, seeds, cache, ambient_master,
            self.backend, self.max_workers,
        )


def run_scenario(
    scenario: Scenario,
    rng: RngLike = None,
    cache: Optional[AmbientCache] = None,
    max_workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(
        scenario, rng=rng, cache=cache, max_workers=max_workers, backend=backend
    ).run()
