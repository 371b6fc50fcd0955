"""Sweep execution: serial, thread, process or batched — always seed-stable.

:class:`SweepRunner` turns a declarative
:class:`~repro.engine.scenario.Scenario` into results:

1. ``prepare`` runs once with the sweep generator (drawing payload bits,
   reference speech, ... exactly like the preamble of the legacy loops).
2. One master integer per grid point is drawn from the sweep generator
   *serially in grid order* — the same draws the legacy loops consumed
   via :func:`~repro.utils.rand.child_generator` — and mixed with the
   scenario's per-point keys through the pure
   :func:`~repro.utils.rand.derive_seed`. Every point's stream is
   therefore fixed before execution starts, so all backends are
   bit-identical to the serial loop and to the hand-rolled loops they
   replaced.
3. The selected backend executes the points:

   - ``serial`` — a plain loop (the reference semantics).
   - ``thread`` — a thread pool; right when the heavy lifting is
     NumPy/SciPy FFT work that releases the GIL.
   - ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`
     over the picklable point specs, for GIL-bound measures; requires
     the scenario's declarative (spec) form. The parent warms a shared
     disk store so workers skip ambient synthesis.
   - ``batched`` — groups points sharing one front end and runs the
     link + receive math (fading, mono and stereo decode alike — via
     per-row envelope stacks and the multi-waveform pilot PLL — plus
     de-emphasis and receiver output effects) vectorized over a
     ``(points, samples)`` stack. Every runner-transmitted point
     batches; ``SweepResult.n_fallbacks`` counts batch-eligible points
     that had to run serially (now structurally zero) while
     measure-driven scenarios execute per point by construction.
   - ``auto`` — the planner (:mod:`repro.engine.planner`) partitions the
     grid exactly as the batched executor would and sends each partition
     to ``batched`` or ``serial`` by a measured row-length rule —
     stereo and short-row partitions ride the vectorized stack while
     long mono rows run serially — recording every decision and its
     reason on :attr:`~repro.engine.results.SweepResult.plan`.

Select with the ``backend`` argument or the ``REPRO_SWEEP_BACKEND``
environment variable (strictly parsed — a typo raises
:class:`~repro.errors.ConfigurationError` naming the variable and its
choices); worker counts come from ``max_workers`` /
``REPRO_SWEEP_WORKERS``. With neither set, single-worker runners default
to ``auto``.

Ambient caching: when the scenario opts in (the default), every point
receives a :class:`~repro.engine.cache.CachedAmbient` view keyed by a
run-level master seed, so a whole grid synthesizes each ambient program
(and its FM-modulated composite) exactly once — the paper's own
methodology of replaying one recorded station clip at every grid point.
With ``REPRO_CACHE_DIR`` set, syntheses additionally spill to disk and
survive the process.
"""

from __future__ import annotations

import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.engine.cache import AmbientCache, default_cache, stats_delta
from repro.engine.execution import execute_point
from repro.engine.results import SweepResult
from repro.engine.scenario import Scenario
from repro.errors import ConfigurationError
from repro.utils.env import env_choice, env_int
from repro.utils.rand import RngLike, as_generator, derive_seed

WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"
"""Environment override for the default worker count (1 == serial)."""

BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"
"""Environment override for the execution backend."""

BACKENDS = ("serial", "thread", "process", "batched")
"""The explicit executors."""

AUTO_BACKEND = "auto"
"""Planned per-partition execution (see :mod:`repro.engine.planner`)."""

BACKEND_CHOICES = BACKENDS + (AUTO_BACKEND,)
"""Everything ``backend=`` / ``REPRO_SWEEP_BACKEND`` accepts."""


def default_max_workers() -> int:
    """Worker count used when a runner is built without ``max_workers``.

    Strictly parsed: a malformed or non-positive ``REPRO_SWEEP_WORKERS``
    raises :class:`~repro.errors.ConfigurationError` naming the
    offending string instead of being silently clamped.
    """
    return env_int(WORKERS_ENV_VAR, 1, minimum=1)


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
        max_workers: grid-point concurrency for the thread/process
            backends; ``None`` reads ``REPRO_SWEEP_WORKERS``, and when
            that is unset too, pool backends size themselves to the
            machine. Results are identical at any worker count.
        backend: one of :data:`BACKEND_CHOICES`; ``None`` reads
            ``REPRO_SWEEP_BACKEND`` and finally falls back to ``thread``
            when ``max_workers > 1`` (honoring an explicit
            ``REPRO_SWEEP_WORKERS``) else ``auto`` — the planner picks
            per partition, and its decisions land on ``result.plan``.
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
        self._explicit_workers = max_workers is not None
        self.max_workers = default_max_workers() if max_workers is None else max(1, int(max_workers))
        if backend is not None and backend not in BACKEND_CHOICES:
            raise ConfigurationError(
                f"backend must be one of {BACKEND_CHOICES}, got {backend!r}"
            )
        if backend is None:
            backend = default_backend()
        if backend is None:
            backend = "thread" if self.max_workers > 1 else AUTO_BACKEND
        self.backend = backend

    def _pool_workers(self) -> int:
        """Worker count for the thread/process pools.

        An explicit ``max_workers`` or ``REPRO_SWEEP_WORKERS`` wins; a
        pool backend chosen without either sizes itself to the machine
        (results never depend on the count).
        """
        if self.max_workers > 1 or self._explicit_workers:
            return self.max_workers
        if os.environ.get(WORKERS_ENV_VAR, "").strip():
            return self.max_workers
        return min(8, os.cpu_count() or 1)

    def run(self, point_slice: Optional[Tuple[int, int]] = None) -> SweepResult:
        """Execute the grid (or one contiguous shard of it).

        Args:
            point_slice: optional ``(start, stop)`` half-open range over
                ``spec.points()`` row-major order. Seeds (and the ambient
                master) are always derived for the *whole* grid first, so
                a shard's per-point streams are bit-identical to the same
                points of a whole-grid run — shards executed anywhere can
                be stitched back with :meth:`SweepResult.merge`.
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
        stats_before = cache.stats if cache is not None else None

        backend_label = self.backend
        n_workers = 1
        n_fallbacks: Optional[int] = None
        plan = None
        start = time.perf_counter()
        if self.backend == "serial" or len(points) <= 1:
            # Pools and stacking buy nothing on a <=1-point grid; the
            # label records what actually executed.
            backend_label = "serial"
            values: List[object] = [
                execute_point(scenario, point, seeds[i], data, cache, ambient_master)
                for i, point in enumerate(points)
            ]
        elif self.backend == "thread":
            n_workers = self._pool_workers()
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                values = list(
                    pool.map(
                        lambda args: execute_point(
                            scenario, args[1], seeds[args[0]], data, cache, ambient_master
                        ),
                        enumerate(points),
                    )
                )
        elif self.backend == "process":
            from repro.engine.process_backend import run_process_backend

            n_workers = self._pool_workers()
            values = run_process_backend(
                scenario, data, points, seeds, cache, ambient_master, n_workers
            )
        elif self.backend == AUTO_BACKEND:
            from repro.engine.planner import plan_and_run

            values, n_fallbacks, plan, backend_label = plan_and_run(
                scenario, data, points, seeds, cache, ambient_master
            )
        else:  # batched
            from repro.engine.batch_backend import run_batched_backend

            values, n_batched, n_fallbacks = run_batched_backend(
                scenario, data, points, seeds, cache, ambient_master
            )
            backend_label = f"batched[{n_batched}/{len(points)}]"
        elapsed = time.perf_counter() - start

        cache_stats = None
        if cache is not None and stats_before is not None:
            cache_stats = stats_delta(cache.stats, stats_before)
        return SweepResult(
            spec=scenario.sweep,
            points=points,
            values=values,
            elapsed_s=elapsed,
            n_workers=n_workers if self.backend != "serial" else 1,
            cache_stats=cache_stats,
            data=data,
            backend=backend_label,
            scenario_name=scenario.name,
            n_fallbacks=n_fallbacks,
            plan=plan,
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
