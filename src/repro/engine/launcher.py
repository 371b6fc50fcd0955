"""Distributed sweep launcher: shard fan-out with retries, stragglers, merge.

The sharded-sweep kernel made a grid slice a first-class unit of work:
seeds are pre-derived for the *whole* grid (:func:`~repro.engine.runner.
derive_streams`), so any contiguous range of points executes
bit-identically anywhere, and :meth:`~repro.engine.results.SweepResult.
merge` stitches ranges back. This module adds the missing fan-out — a
job-queue orchestrator that:

- slices a compiled :class:`~repro.engine.scenario.Scenario` grid into
  shards and dispatches them to a pool of worker processes, one shard
  per worker at a time. A worker runs its shard as one
  :func:`~repro.engine.runner.run_points` call on one thread — planned
  under the setting the parent resolved, like any in-process sweep — so
  every shard's :class:`~repro.engine.planner.PlanDecision` records come
  back with its values;
- detects dead workers (a crash, an OOM kill, an injected fault) and
  stragglers (a shard past its per-shard deadline) and *re-slices* the
  affected range into halves before re-queueing it, so retried work
  spreads across the pool; each re-queue logs a WARNING under
  ``repro.engine.launcher``;
- discards duplicated completions — determinism makes speculative
  retries free of coordination: two copies of a point compute the same
  bytes, so whichever arrives first wins and the loser is dropped
  unread;
- **degrades gracefully** instead of discarding work: when a range
  exhausts its ``max_retries`` budget (or the job blows its
  ``job_deadline_s``), the launcher salvages every
  completed shard and finishes the lost range *in-process*, through the
  same :func:`~repro.engine.runner.run_points` call on one thread — the
  merged grid is still complete and bit-identical, and
  :attr:`LaunchReport.degraded` says the fan-out lost redundancy (and a
  WARNING under ``repro.engine.launcher`` names the salvaged points).
  :class:`~repro.errors.LauncherError` (now carrying shard id, point
  range, attempt count, worker exit codes and the partial merged result)
  is reserved for the case where even the in-process salvage fails —
  a deterministic bug in the measure, not an infrastructure fault;
- reports each dispatch, shard completion (with the fresh points'
  indices and values) and re-queue as one ``progress`` event, which the
  service (:mod:`repro.engine.service`, the journal's one writer) turns
  into journal records, and *resumes* from a journal: ``resume_values``
  pre-covers journaled-complete points so they are reloaded, never
  recomputed — only missing ranges are re-launched;
- merges accepted shard results into one whole-grid
  :class:`~repro.engine.results.SweepResult` (merge-aware cache
  counters; ``elapsed_s`` sums per-shard compute time while
  :attr:`LaunchReport.wall_s` reports wall-clock). Its ``plan`` names
  every computed point exactly once: a partly duplicated shard's
  decisions are trimmed to the points it covered first, and resumed
  points carry none.

Cross-machine runs fall out of the shared on-disk
:class:`~repro.engine.store.CacheStore`: point ``REPRO_CACHE_DIR`` (or
``cache_dir=``) at a shared filesystem. The initial workers warm it
(:mod:`~repro.engine.process_backend`), each synthesizing its share of
the composites the uncovered points need, and no shard is dispatched
until every one has warmed or died; workers anywhere then load bytes,
and a warm re-run performs zero syntheses.

It is the engine's one multi-process fan-out;
:meth:`~repro.engine.scenario.Scenario.require_picklable` refuses an
unpicklable scenario or a live stateful fading model before any fork,
here and at the service's ``submit``.

Chaos: ``REPRO_FAULTS`` (:mod:`repro.engine.faults`) injects worker
kills, forced stragglers, dropped results, torn cache writes and
worker-init failures, each deterministically targeted so a chaos run
reproduces exactly. The CI ``chaos`` leg runs the full fault matrix to
prove no fault class can change a single bit of the merged result.
"""

from __future__ import annotations

import logging
import multiprocessing
import numbers
import os
import pickle
import shutil
import tempfile
import time
import traceback
from collections import deque
from itertools import count, groupby
from multiprocessing import connection as mp_connection
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.cache import AmbientCache
from repro.engine.faults import active_plan
from repro.engine.process_backend import composite_shares, warm_store
from repro.engine.results import SweepResult
from repro.engine.runner import (
    AUTO_BACKEND, check_count, default_backend, derive_streams, run_points,
)
from repro.engine.scenario import Scenario
from repro.engine.store import CacheStore, env_cache_dir
from repro.errors import ConfigurationError, LauncherError
from repro.utils.rand import RngLike, as_generator

logger = logging.getLogger(__name__)

_FAULT_EXIT_CODE = 87
"""Exit code of a chaos-killed worker (distinguishable in reports)."""

_POLL_S = 0.02
"""Parent orchestration tick: result drain timeout per loop iteration."""

_SHUTDOWN_JOIN_S = 5.0
"""Grace period for workers (possibly mid-duplicate-shard) to exit."""


@dataclass(frozen=True)
class Shard:
    """One contiguous half-open range of grid points queued for a worker.

    Attributes:
        shard_id: stable identity for dispatch bookkeeping; initial
            shards number ``0..n-1`` in grid order (what the fault
            registry's shard-targeted directives hit), re-sliced retries
            get fresh ids.
        start: first global point index (inclusive).
        stop: last global point index (exclusive).
        attempt: how many times this range has been (re)queued; retried
            ranges inherit ``attempt + 1``.
    """

    shard_id: int
    start: int
    stop: int
    attempt: int = 0

    @property
    def n_points(self) -> int:
        return self.stop - self.start


@dataclass
class LaunchReport:
    """What :func:`launch_sweep` returns: the merged result plus telemetry.

    Attributes:
        result: the whole-grid merged :class:`SweepResult`, bit-identical
            to a ``backend="serial"`` run at the same seed. Its
            ``elapsed_s`` sums per-shard compute time (including any
            duplicated speculative work); ``wall_s`` here is the
            launcher's actual wall-clock.
        wall_s: wall-clock duration of the whole launch (derive +
            fan-out, the workers' store warm-up included, + merge).
        n_workers: size of the worker pool.
        n_points: grid size.
        n_shards: initial shard count (before any re-slicing).
        retries: total re-queues (worker deaths + measure errors +
            straggler speculation).
        failures: worker deaths observed (while holding a shard or not).
        stragglers: shards that blew their deadline and were speculated.
        duplicates: completed shard copies discarded because every point
            they carried was already covered.
        warm_syntheses: syntheses the initial workers' store warm-up
            performed before their first shard, each composite and its
            MPX ingredient counting one each (the shards' own counters
            live on ``result.cache_stats``). Zero on a warm shared store
            — the whole-run "zero syntheses" claim is
            ``warm_syntheses + result.cache_stats["syntheses"] == 0``.
        store_dir: the shared spill directory workers attached to, or
            ``None`` when it was a run-scoped scratch (already removed)
            or ambient caching was off.
        degraded: whether any range exhausted its retry budget (or the
            job deadline passed) and was salvaged in-process instead of
            fanned out. The grid is still complete and bit-identical —
            degradation trades parallelism, never correctness.
        degraded_points: points the in-process salvage executed.
        resumed_points: points reloaded from ``resume_values`` (a job
            journal) instead of being recomputed.
        exit_codes: exit code of every worker death, in observation
            order — provenance for post-mortems and for the
            :class:`~repro.errors.LauncherError` raised when salvage
            fails too.
    """

    result: SweepResult
    wall_s: float
    n_workers: int
    n_points: int
    n_shards: int
    retries: int = 0
    failures: int = 0
    stragglers: int = 0
    duplicates: int = 0
    warm_syntheses: int = 0
    store_dir: Optional[str] = None
    degraded: bool = False
    degraded_points: int = 0
    resumed_points: int = 0
    exit_codes: Tuple[int, ...] = ()


def default_shard_points(n_points: int, n_workers: int) -> int:
    """Points per shard when the caller expresses no preference.

    Aims for ~4 shards per worker, so stragglers and retries cost a
    fraction of the grid rather than half of it, without drowning small
    grids in per-shard dispatch overhead.
    """
    return max(1, -(-n_points // (4 * n_workers)))


def check_launch_settings(
    n_workers: int,
    shard_points: Optional[int],
    shard_deadline_s: Optional[float],
    max_retries: int,
    job_deadline_s: Optional[float],
) -> None:
    """Reject out-of-range launch settings before anything runs.

    Shared by :func:`launch_sweep` and the service's constructor, so a
    bad setting fails where it was given, not inside a later job.

    Raises:
        ConfigurationError: naming the first setting of the wrong type
            or out of range.
    """
    check_count("n_workers", n_workers, 1)
    if shard_points is not None:
        check_count("shard_points", shard_points, 1)
    check_count("max_retries", max_retries, 0)
    for name, value in (
        ("shard_deadline_s", shard_deadline_s),
        ("job_deadline_s", job_deadline_s),
    ):
        # NaN fails every comparison, so ``> 0`` rejects it too.
        is_real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if value is not None and not (is_real and value > 0):
            raise ConfigurationError(
                f"{name} must be a number > 0 or None, got {value!r}"
            )


def _keep(result: SweepResult, positions: Sequence[int]) -> SweepResult:
    """``result`` cut down to the points at ``positions``, plan included."""
    kept = {result.points[k].index for k in positions}
    plan = []
    for decision in result.plan:
        pairs = zip(decision.point_indices, decision.positions)
        members = [pair for pair in pairs if pair[0] in kept]
        if members:
            indices, where = zip(*members)
            plan.append(replace(decision, point_indices=indices, positions=where))
    return replace(
        result,
        points=[result.points[k] for k in positions],
        values=[result.values[k] for k in positions],
        plan=plan,
    )


def _initial_shards(n_points: int, shard_points: int) -> List[Shard]:
    return [
        Shard(shard_id=i, start=start, stop=min(start + shard_points, n_points))
        for i, start in enumerate(range(0, n_points, shard_points))
    ]


def _worker_main(
    worker_id: int,
    scenario_blob: bytes,
    data: Dict[str, object],
    seeds: Sequence[int],
    ambient_master: int,
    store_dir: Optional[str],
    setting: str,
    share: Sequence[int],
    task_q,
    result_conn,
) -> None:
    """Worker loop: warm a share of the store, then run shards and report.

    ``share`` names the composites (by the first grid point needing each)
    this worker synthesizes into the shared store before its first shard.
    A shard is one :func:`~repro.engine.runner.run_points` call on its
    slice of the pre-derived seeds, planned under ``setting`` and run on
    one thread (the pool is the processes). Each worker owns a private
    :class:`AmbientCache` attached to the shared store directory, so a
    composite the warm-up left out is synthesized and spilled by the
    first worker to need it, and everyone else reads bytes. Messages
    out carry only what the parent lacks, ``("warmed", syntheses)``,
    ``("done", shard, values, elapsed, stats, plan)`` or
    ``("error", shard, traceback_text)``, and go over this worker's
    *private* result pipe — never a shared queue. A shared
    ``multiprocessing.Queue`` serializes writers through one cross-process
    lock held by a background feeder thread, so a worker hard-killed just
    after reporting (exactly what ``kill-shard`` injects, and what a real
    OOM kill does) can die holding it and wedge every surviving worker's
    reports forever. A private pipe has one writer; a kill can only ever
    tear this worker's own channel, which the parent reaps. Sends happen
    synchronously in this thread, so by the time the next task (and any
    injected kill) is picked up, the previous report is already in the
    pipe — the parent can still read it after the kill. The active
    :class:`~repro.engine.faults.FaultPlan` is consulted at every step a
    real fault could strike: init, task pickup (kill), execution start
    (delay) and reporting (drop).
    """
    faults = active_plan()
    if faults.init_fail(worker_id):
        # Chaos injection: die before becoming useful — a worker whose
        # environment (imports, mounts, GPU) was broken at spawn.
        os._exit(_FAULT_EXIT_CODE)
    scenario: Scenario = pickle.loads(scenario_blob)
    cache = None
    if scenario.cache_ambient:
        cache = AmbientCache(store=CacheStore(store_dir) if store_dir else None)
    points = scenario.sweep.points()
    if share:
        warm = [points[i] for i in share]
        syntheses = warm_store(cache.store, scenario, data, warm, ambient_master)
        try:
            result_conn.send(("warmed", syntheses))
        except (BrokenPipeError, OSError):
            return  # parent is gone; nothing left to report to
    while True:
        task = task_q.get()
        if task is None:
            return
        if faults.kill(task):
            # Chaos injection: die the way a crashed/OOM-killed worker
            # does — no goodbye message, no cleanup.
            os._exit(_FAULT_EXIT_CODE)
        delay = faults.delay_s(task)
        if delay > 0:
            time.sleep(delay)  # chaos injection: a forced straggler
        try:
            result = run_points(
                scenario, data, points[task.start:task.stop],
                seeds[task.start:task.stop], cache, ambient_master, setting,
                max_workers=1,
            )
        except Exception:
            try:
                result_conn.send(("error", task, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return  # parent is gone; nothing left to report to
            continue
        if faults.drop_result(task):
            # Chaos injection: the work happened, the report vanished —
            # a lost message. Only deadline speculation (or the job
            # deadline) can recover the range.
            continue
        try:
            result_conn.send((
                "done", task, result.values, result.elapsed_s,
                result.cache_stats, result.plan,
            ))
        except (BrokenPipeError, OSError):
            return  # parent is gone; nothing left to report to


class _Worker:
    """Parent-side handle: process, task queue, result pipe, assignment."""

    def __init__(self, worker_id: int, ctx, init_args: tuple, share) -> None:
        self.worker_id = worker_id
        self.task_q = ctx.Queue()
        # One result pipe per worker (see _worker_main: a shared queue's
        # write lock is a single point of failure under hard kills).
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, *init_args, share, self.task_q, child_conn),
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the child's end lives in the child now
        self.assignment: Optional[Shard] = None
        self.assigned_at = 0.0
        self.speculated = False
        self.warming = bool(share)  # until its ("warmed", n) report

    def assign(self, shard: Shard) -> None:
        self.assignment = shard
        self.assigned_at = time.perf_counter()
        self.speculated = False
        self.task_q.put(shard)


def _mp_context():
    """Fork where available (cheap, inherits loaded modules), spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def launch_sweep(
    scenario: Scenario,
    rng: RngLike = None,
    n_workers: int = 2,
    shard_points: Optional[int] = None,
    shard_deadline_s: Optional[float] = None,
    max_retries: int = 2,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[dict], None]] = None,
    job_deadline_s: Optional[float] = None,
    resume_values: Optional[Dict[int, object]] = None,
) -> LaunchReport:
    """Execute one scenario's grid across worker processes, shard by shard.

    Args:
        scenario: the declarative sweep; must be picklable, with no live
            stateful fading model on any link (validated up front via
            :meth:`~repro.engine.scenario.Scenario.require_picklable`).
        rng: sweep-level seed or Generator — the same argument a
            :class:`~repro.engine.runner.SweepRunner` takes, producing
            the same streams: the merged result is bit-identical to a
            serial whole-grid run at this seed.
        n_workers: worker-process pool size.
        shard_points: points per initial shard; defaults to
            :func:`default_shard_points` (~4 shards per worker).
        shard_deadline_s: per-shard straggler deadline. A shard still
            running past it is *speculated*: its uncovered range is
            re-sliced and re-queued while the original keeps running —
            first completion per point wins, the loser is discarded.
            ``None`` disables speculation.
        max_retries: re-queues a failing range survives (each one
            immediate) before the launcher stops fanning it out and
            salvages it in-process (graceful degradation). ``0``
            degrades on the first failure.
        cache_dir: shared spill directory workers attach to; defaults to
            ``REPRO_CACHE_DIR``, then a run-scoped scratch. Point it (or
            the env var) at a shared filesystem to span machines.
        progress: optional callback receiving event dicts from the
            orchestration thread, each before the launch moves on — so
            a record written from it (the service's journal) is durable
            before the next dispatch. ``kind`` is ``dispatch`` (with
            ``worker``), ``shard-done`` (``fresh``, ``points_done``,
            ``degraded``, and the fresh points' ``indices``, ``values``
            and ``elapsed_s``; a discarded duplicate has ``fresh == 0``),
            ``requeue`` (``reason``), ``worker-died`` or ``degraded``.
            Shard events carry the ``shard`` range and its ``attempt``;
            every event carries ``points_total`` and ``shards_running``
            (shards a live worker holds right now).
        job_deadline_s: wall-clock budget for the whole launch; when
            exceeded, the launcher stops waiting on workers, salvages
            completed shards and finishes every uncovered point
            in-process (``LaunchReport.degraded``). ``None`` disables.
        resume_values: ``{global point index: value}`` already computed
            by a previous (journaled) run of the *same scenario at the
            same seed*. Those points are reloaded, never re-executed —
            only uncovered ranges are dispatched. The caller owns the
            same-seed contract, exactly as for ``SweepResult.merge``.
    """
    check_launch_settings(
        n_workers, shard_points, shard_deadline_s, max_retries, job_deadline_s
    )
    active_plan()  # fail fast on a malformed chaos knob, before any fork
    blob = scenario.require_picklable()
    # Resolved once, here, so a malformed REPRO_SWEEP_BACKEND fails before
    # any fork.
    setting = default_backend() or AUTO_BACKEND

    wall_start = time.perf_counter()
    gen = as_generator(rng)
    data, points, seeds, ambient_master = derive_streams(scenario, gen)
    n_points = len(points)
    resumed = sorted(int(i) for i in resume_values or ())
    bad = [i for i in resumed if not 0 <= i < n_points]
    if bad:
        raise ConfigurationError(
            f"resume_values indices {bad[:8]} outside the grid's {n_points} points"
        )

    if shard_points is None:
        shard_points = default_shard_points(n_points, n_workers)
    shards = _initial_shards(n_points, shard_points)
    # Counters update in place; ``result`` and ``wall_s`` land at the end.
    report = LaunchReport(
        result=None, wall_s=0.0, n_workers=n_workers, n_points=n_points,
        n_shards=len(shards),
    )

    worker_ids = count()
    shard_ids = count(len(shards))
    workers: Dict[int, _Worker] = {}

    def emit(kind: str, task: Optional[Shard] = None, **event) -> None:
        """Report one event to ``progress``, with ``task``'s range and attempt."""
        if progress is not None:
            if task is not None:
                event.update(shard=(task.start, task.stop), attempt=task.attempt)
            running = sum(w.assignment is not None for w in workers.values())
            event.update(kind=kind, points_total=n_points, shards_running=running)
            progress(event)

    taken: Set[int] = set()  # every covered point index
    shard_results: List[SweepResult] = []
    pending: Deque[Shard] = deque(shards)

    def cover(task: Optional[Shard], result: SweepResult, degraded=False) -> int:
        """Record the not-yet-covered points of the slice ``result``.

        Every covered point passes through here: a worker's report, the
        in-process salvage (``degraded``) and, with ``task=None``, the
        points reloaded from ``resume_values``. The slice keeps only its
        fresh points and their plan decisions, so the merged plan names
        each computed point once. A computed slice is reported as a
        ``shard-done`` event carrying its fresh points — a duplicate
        too, with ``fresh == 0``; reloaded points are in the journal
        already. Returns how many points were fresh.
        """
        fresh = [k for k, point in enumerate(result.points) if point.index not in taken]
        result = _keep(result, fresh)
        indices = [point.index for point in result.points]
        taken.update(indices)
        if fresh:
            shard_results.append(result)
        if task is not None:
            emit(
                "shard-done", task,
                fresh=len(fresh), points_done=len(taken), degraded=degraded,
                indices=indices, values=result.values, elapsed_s=result.elapsed_s,
            )
        return len(fresh)

    def slice_result(indices: Sequence[int], values, elapsed=0.0, stats=None, plan=()):
        """The points at ``indices`` as a :class:`SweepResult` slice."""
        return SweepResult(
            spec=scenario.sweep,
            points=[points[i] for i in indices],
            values=list(values),
            elapsed_s=elapsed,
            cache_stats=stats,
            data=data,
            scenario_name=scenario.name,
            plan=list(plan),
        )

    def reslice(task: Shard) -> List[Shard]:
        """The uncovered remainder of ``task``, split for re-queueing.

        Contiguous uncovered runs are found (speculative halves may have
        punched holes in the range) and runs longer than one point split
        in half, so a retried range spreads across the pool instead of
        landing back on a single worker.
        """
        sliced = []
        for covered, run in groupby(range(task.start, task.stop), taken.__contains__):
            if covered:
                continue
            run = list(run)
            start, stop = run[0], run[-1] + 1
            mid = (start + stop) // 2
            halves = [(start, mid), (mid, stop)] if mid > start else [(start, stop)]
            for lo, hi in halves:
                sliced.append(Shard(next(shard_ids), lo, hi, attempt=task.attempt + 1))
        return sliced

    def spawn_worker(share: Sequence[int] = ()) -> None:
        worker = _Worker(next(worker_ids), ctx, init_args, share)
        workers[worker.worker_id] = worker

    def degrade(task: Shard, reason: str) -> None:
        """Last resort: finish ``task``'s uncovered points in-process.

        The fan-out failed this range ``max_retries + 1`` times (or the
        job deadline passed); rather than throwing away every completed
        shard via an exception, the parent — its cache attached to the
        shared store — runs the remaining points as one
        :func:`~repro.engine.runner.run_points` call on one thread. The grid
        stays complete and bit-identical; only parallelism was lost,
        reported on ``LaunchReport.degraded``. A failure *here* is a
        deterministic bug in the measure and raises
        :class:`~repro.errors.LauncherError` with full provenance plus
        the partial merged result for salvage.
        """
        report.degraded = True
        emit("degraded", task, reason=reason)
        indices = [i for i in range(task.start, task.stop) if i not in taken]
        try:
            result = run_points(
                scenario, data, [points[i] for i in indices],
                [seeds[i] for i in indices], parent_cache, ambient_master, setting,
                max_workers=1,
            )
        except Exception as exc:
            partial = (
                SweepResult.merge(*shard_results, partial=True)
                if shard_results
                else None
            )
            raise LauncherError(
                f"shard [{task.start}:{task.stop}) of scenario "
                f"{scenario.name!r} gave up after {task.attempt + 1} "
                f"attempts ({reason}) and the in-process salvage of points "
                f"{indices} failed too; the engine's determinism means "
                "the retried work was bit-identical each time — this is "
                "a reproducible bug, not transient bad luck",
                scenario=scenario.name,
                shard_id=task.shard_id,
                point_range=(task.start, task.stop),
                attempts=task.attempt + 1,
                exit_codes=report.exit_codes,
                partial_result=partial,
            ) from exc
        logger.warning(
            "scenario %r: ran points %s of [%d:%d) in-process after %d attempts (%s)",
            scenario.name, indices, task.start, task.stop, task.attempt + 1, reason,
        )
        report.degraded_points += cover(task, result, degraded=True)

    def requeue(task: Shard, reason: str) -> None:
        if all(i in taken for i in range(task.start, task.stop)):
            return  # a speculative copy already covered the whole range
        if task.attempt >= max_retries:
            degrade(task, f"retry budget exhausted: {reason}")
            return
        report.retries += 1
        logger.warning(
            "scenario %r: re-queueing points [%d:%d), retry %d of %d: %s",
            scenario.name, task.start, task.stop, task.attempt + 1,
            max_retries, reason,
        )
        pending.extend(reslice(task))
        emit("requeue", task, reason=reason)

    def pop_needed() -> Optional[Shard]:
        """Next pending shard with a point still uncovered."""
        while pending:
            candidate = pending.popleft()
            if any(i not in taken for i in range(candidate.start, candidate.stop)):
                return candidate
        return None

    def receive(worker: _Worker) -> bool:
        """Fold one report (warmed/done/error) from ``worker``'s pipe into the
        launch state; ``False`` when a dead worker tore the pipe (the
        reap step handles what it held)."""
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            return False
        kind, task = message[0], message[1]
        if kind == "warmed":
            worker.warming = False
            report.warm_syntheses += message[1]
            return True
        if worker.assignment == task:
            worker.assignment = None
        if kind == "done":
            _, _, values, elapsed, stats, plan = message
            span = range(task.start, task.stop)
            if cover(task, slice_result(span, values, elapsed, stats, plan)) == 0:
                report.duplicates += 1
        else:  # "error": the measure raised inside the worker
            requeue(task, f"measure raised:\n{message[2]}")
        return True

    scratch = store_dir = parent_cache = None
    if scenario.cache_ambient:
        store_dir = report.store_dir = cache_dir or env_cache_dir()
        if store_dir is None:
            store_dir = scratch = tempfile.mkdtemp(prefix="repro-launcher-spill-")
    try:
        if store_dir is not None:
            # Holds nothing unless a range degrades: the in-process
            # salvage is the only reader of its contents.
            parent_cache = AmbientCache(store=CacheStore(store_dir))
        if resumed:
            # The empty cache's zero counters, not none: merge keeps cache
            # stats only when every slice has them.
            stats = None if parent_cache is None else parent_cache.stats
            values = [resume_values[i] for i in resumed]
            report.resumed_points = cover(None, slice_result(resumed, values, stats=stats))
        if len(taken) < n_points:  # a full resume forks no workers at all
            ctx = _mp_context()
            init_args = (blob, data, list(seeds), ambient_master, store_dir, setting)
            uncovered = [p for p in points if p.index not in taken]
            for share in composite_shares(
                parent_cache, scenario, data, uncovered, ambient_master,
                min(n_workers, max(1, len(shards))),
            ):
                spawn_worker(share)

        while len(taken) < n_points:
            # 0) Job deadline: stop waiting on the pool, salvage in-process.
            if (
                job_deadline_s is not None
                and time.perf_counter() - wall_start > job_deadline_s
            ):
                degrade(Shard(-1, 0, n_points, attempt=max_retries), "job deadline exceeded")
                break

            # 1) Drain one result (bounded wait: this is also the tick).
            #    Each worker reports over its own pipe, so the wait spans
            #    all of them; a dead writer can tear only its own channel.
            ready = mp_connection.wait(
                [w.conn for w in workers.values()], timeout=_POLL_S
            )
            for worker in workers.values():
                if worker.conn in ready and receive(worker):
                    break

            # 2) Reap dead workers; their in-flight shard gets re-queued.
            #    A worker may die *after* reporting (the kill-on-pickup
            #    faults do exactly this), so drain its pipe before judging
            #    what was lost — those reports are real completed work.
            for worker in [w for w in workers.values() if not w.process.is_alive()]:
                while worker.conn.poll() and receive(worker):
                    pass
                del workers[worker.worker_id]
                worker.conn.close()
                exit_code = worker.process.exitcode
                report.exit_codes += (exit_code if exit_code is not None else -1,)
                report.failures += 1
                emit("worker-died", worker=worker.worker_id)
                spawn_worker()
                if worker.assignment is not None:
                    requeue(worker.assignment, f"worker died (exit code {exit_code})")

            # 3) Straggler speculation: past-deadline shards are re-queued
            #    while the original keeps running; first finish wins.
            if shard_deadline_s is not None:
                now = time.perf_counter()
                for worker in workers.values():
                    task = worker.assignment
                    if (
                        task is not None
                        and not worker.speculated
                        and now - worker.assigned_at > shard_deadline_s
                        and task.attempt < max_retries
                    ):
                        worker.speculated = True
                        report.stragglers += 1
                        requeue(task, "straggler past deadline")

            # 4) Dispatch pending work to idle workers, skipping shards
            #    whose points were meanwhile covered by another copy. No
            #    shard goes out while an initial worker is still warming
            #    its share, so no two workers synthesize one composite.
            idle = [w for w in workers.values() if w.assignment is None]
            if any(w.warming for w in workers.values()):
                idle = []
            for worker in idle:
                task = pop_needed()
                if task is None:
                    break
                worker.assign(task)
                emit("dispatch", task, worker=worker.worker_id)

            # 5) Self-heal any lost-task race: nothing queued, nothing
            #    in flight, yet points uncovered -> requeue the gaps.
            if (
                len(taken) < n_points
                and not pending
                and all(w.assignment is None for w in workers.values())
            ):
                pending.extend(reslice(Shard(next(shard_ids), 0, n_points)))
    finally:
        _shutdown(workers)
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    report.result = SweepResult.merge(*shard_results)
    report.result.backend = f"launcher[shards={len(shards)},workers={n_workers}]"
    report.result.n_workers = n_workers
    report.wall_s = time.perf_counter() - wall_start
    return report


def _shutdown(workers: Dict[int, _Worker]) -> None:
    """Stop the pool: sentinel, bounded join, then terminate holdouts.

    A worker may still be running a duplicate of an already-covered shard
    (speculation's loser); it gets a grace period to finish, then is
    terminated — safe, because its result would be discarded anyway and a
    mid-write kill at worst leaves a temp file the store janitor reaps.
    Closing the parent's pipe ends unblocks any worker mid-``send`` into
    a full pipe buffer (it dies on BrokenPipeError instead of hanging).
    """
    for worker in workers.values():
        try:
            worker.task_q.put_nowait(None)
        except Exception:
            pass
    for worker in workers.values():
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already torn
            pass
    deadline = time.monotonic() + _SHUTDOWN_JOIN_S
    for worker in workers.values():
        worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
    for worker in workers.values():
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
    for worker in workers.values():
        worker.task_q.close()
        worker.task_q.cancel_join_thread()
