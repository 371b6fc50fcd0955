"""Async sweep service: ``submit`` / ``status`` / ``fetch`` over the launcher.

The thin service layer that turns the distributed launcher into a
multi-user front door: many concurrent submissions — each a compiled
:class:`~repro.engine.scenario.Scenario` — run through
:func:`~repro.engine.launcher.launch_sweep` in background threads while
the caller's event loop stays free. All jobs share one spill directory
(:attr:`SweepService.cache_dir`), so every submission after the first
finds the grid's front-end composites already on disk and performs zero
syntheses; the parent-side warm-up runs in this process, where the LRU
DSP plan cache is shared across jobs too.

Typical use::

    service = SweepService(n_workers=4)
    try:
        job = await service.submit(scenario, rng=2017)
        while service.status(job).state == "running":
            await asyncio.sleep(0.5)
        report = await service.fetch(job)      # the merged LaunchReport
    finally:
        await service.close()

With ``journal_dir`` set, the service is *crash-safe*: every submission
is journaled (scenario + seed pickled in), every completed shard's point
ranges and values land durably before the next dispatch, and terminal
states are recorded. A restarted service calls :meth:`SweepService.
recover` to reload the journal directory and resume every unfinished
job — journaled-complete shards are **not** recomputed (their points
reload bit-identically, and front-end composites come back through the
still-warm :class:`~repro.engine.store.CacheStore`); only missing ranges
re-launch::

    service = SweepService(journal_dir="jobs/", cache_dir="spill/")
    resumed = await service.recover()          # job ids picked back up
    for job_id in resumed:
        report = await service.fetch(job_id)

Jobs are deliberately *not* cancelled mid-flight by ``close()``: a
launch owns worker processes, and the clean place to stop them is the
launcher's own shutdown path, which runs when the launch completes.
``close()`` is idempotent — a second call is a no-op.
"""

from __future__ import annotations

import asyncio
import itertools
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.engine.journal import JobJournal
from repro.errors import ConfigurationError
from repro.engine.launcher import LaunchReport, check_count, check_launch_settings, launch_sweep
from repro.engine.scenario import Scenario
from repro.engine.store import env_cache_dir
from repro.utils.rand import RngLike, as_generator

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
"""Lifecycle of a submitted job, in order (``cancelled`` is terminal too)."""


@dataclass
class JobStatus:
    """Point-in-time snapshot of one submitted job.

    Attributes:
        job_id: the handle ``submit`` returned.
        scenario: name of the submitted scenario.
        state: one of :data:`JOB_STATES`.
        points_total: grid size.
        points_done: grid points covered so far (live while running).
        shards_done: completed shard executions accepted so far.
        shards_running: shards currently dispatched to a worker.
        retries: re-queues so far (failures + errors + stragglers).
        wall_s: seconds since the job started running (final once done).
        error: the failure description when ``state == "failed"``.
        degraded: whether the launch salvaged any range in-process after
            exhausting its retry budget (result still complete).
        resumed_points: points reloaded from the journal instead of
            recomputed (nonzero only for recovered jobs).
    """

    job_id: str
    scenario: str
    state: str
    points_total: int
    points_done: int = 0
    shards_done: int = 0
    shards_running: int = 0
    retries: int = 0
    wall_s: float = 0.0
    error: Optional[str] = None
    degraded: bool = False
    resumed_points: int = 0


class _Job:
    """Mutable job record around one :class:`JobStatus`; its counters are
    fed by the launcher's progress callback from the launch thread
    (single writer, so plain attributes under the GIL are race-free
    enough for a status snapshot).

    ``shards_running`` is the launcher's own count, carried on every
    event: a straggler's speculative ``requeue`` leaves the original
    running, which the events' shard ranges alone cannot tell."""

    def __init__(self, job_id: str, scenario_name: str, points_total: int) -> None:
        self.status = JobStatus(job_id, scenario_name, "queued", points_total)
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.report: Optional[LaunchReport] = None
        self.error: Optional[BaseException] = None
        self.done_event = asyncio.Event()

    def on_progress(self, event: dict) -> None:
        status = self.status
        kind = event.get("kind")
        status.shards_running = event.get("shards_running", status.shards_running)
        if kind == "shard-done":
            status.points_done = event.get("points_done", status.points_done)
            if event.get("fresh"):  # a discarded duplicate is not accepted
                status.shards_done += 1
        elif kind == "requeue":
            status.retries += 1
        elif kind == "degraded":
            status.degraded = True

    def snapshot(self) -> JobStatus:
        wall = 0.0
        if self.started_at is not None:
            wall = (self.finished_at or time.perf_counter()) - self.started_at
        return replace(self.status, wall_s=wall)


class SweepService:
    """Shared-cache, bounded-concurrency job runner for sweep scenarios.

    Args:
        n_workers: worker-process pool size *per job*.
        shard_points, shard_deadline_s, max_retries, job_deadline_s:
            forwarded to every :func:`~repro.engine.launcher.launch_sweep`
            and validated here, so a bad value fails at construction.
        cache_dir: the spill directory every job shares; defaults to
            ``REPRO_CACHE_DIR``, then a service-scoped scratch directory
            removed by :meth:`close`.
        max_parallel_jobs: how many submissions launch concurrently;
            later submissions queue (state ``"queued"``) until a slot
            frees. Bounds the total worker-process count at
            ``max_parallel_jobs * n_workers``.
        journal_dir: directory of per-job crash-safe journals; ``None``
            (the default) keeps the pre-journal in-memory behavior.
            Point it at a *persistent* path — pair it with a persistent
            ``cache_dir`` so recovered jobs also find the store warm.
    """

    def __init__(
        self,
        n_workers: int = 2,
        shard_points: Optional[int] = None,
        shard_deadline_s: Optional[float] = None,
        max_retries: int = 2,
        cache_dir: Optional[str] = None,
        max_parallel_jobs: int = 2,
        job_deadline_s: Optional[float] = None,
        journal_dir: Optional[str] = None,
    ) -> None:
        # Every job's launch settings, forwarded to launch_sweep as given.
        self._launch = dict(
            n_workers=n_workers,
            shard_points=shard_points,
            shard_deadline_s=shard_deadline_s,
            max_retries=max_retries,
            job_deadline_s=job_deadline_s,
        )
        check_launch_settings(**self._launch)
        check_count("max_parallel_jobs", max_parallel_jobs, 1)
        self._scratch: Optional[str] = None
        explicit = cache_dir or env_cache_dir()
        if explicit is None:
            self._scratch = tempfile.mkdtemp(prefix="repro-sweep-service-")
        self.cache_dir = explicit or self._scratch
        self.journal: Optional[JobJournal] = (
            JobJournal(journal_dir) if journal_dir is not None else None
        )
        self._jobs: Dict[str, _Job] = {}
        self._tasks: Dict[str, "asyncio.Task[None]"] = {}
        self._counter = itertools.count(1)
        self._slots = asyncio.Semaphore(max_parallel_jobs)
        self._closed = False

    def _next_job_id(self, scenario_name: str) -> str:
        """A fresh job id — skipping ids already live *or journaled*.

        A restarted service's counter restarts at 1; without the journal
        probe it would mint ids that collide with previous-incarnation
        journal files and interleave two jobs' records in one file.
        """
        while True:
            job_id = f"{scenario_name}-{next(self._counter):04d}"
            if job_id in self._jobs:
                continue
            if self.journal is not None and self.journal.path_for(job_id).exists():
                continue
            return job_id

    async def submit(self, scenario: Scenario, rng: RngLike = None) -> str:
        """Accept a sweep for execution; returns its job id immediately.

        Validates up front what the launcher cannot work without — a
        picklable scenario with no live stateful fading model (see
        :meth:`~repro.engine.scenario.Scenario.require_picklable`) — so such a
        scenario fails at the front door with a migration hint instead
        of inside a worker. With a journal attached, the submission is
        durable before this returns: the scenario and the *pristine* rng
        state are journaled, so a crash one instant later loses nothing.
        """
        scenario.require_picklable()
        job_id = self._next_job_id(scenario.name)
        # Normalize the seed to a Generator *now* and journal that exact
        # state: replaying the journal then reproduces the very streams
        # this launch is about to derive.
        gen = as_generator(rng)
        if self.journal is not None:
            # The journal needs the FULL scenario — prepare included —
            # because recovery re-derives the shared data and per-point
            # seeds from it; the shippable (prepare-stripped) form that
            # satisfies the workers is not enough to resurrect the job.
            try:
                blob = pickle.dumps(scenario)
            except Exception as exc:
                raise ConfigurationError(
                    f"scenario {scenario.name!r} cannot be journaled "
                    f"({exc}): a journaled service must be able to rebuild "
                    "the job from its journal file alone, so prepare= must "
                    "be picklable too — bind it with functools.partial to a "
                    "module-level function instead of a closure"
                ) from None
            self.journal.job_submitted(
                job_id, blob, gen, scenario.name, scenario.sweep.n_points
            )
        job = _Job(job_id, scenario.name, scenario.sweep.n_points)
        self._jobs[job_id] = job
        self._tasks[job_id] = asyncio.create_task(
            self._execute(job, scenario, gen), name=f"sweep-{job_id}"
        )
        return job_id

    async def recover(self) -> List[str]:
        """Reload the journal directory and resume every unfinished job.

        For each journaled job without a terminal record, the scenario
        and rng are rebuilt from the journal and the launch re-enters the
        queue with ``resume_values`` pre-covering every journaled-complete
        point — those are *reloaded, not recomputed*; only missing ranges
        fan back out. Finished jobs and ids already live in this service
        are left alone. Returns the resumed job ids (await them via
        :meth:`fetch`).
        """
        if self.journal is None:
            return []
        resumed: List[str] = []
        for job_id, record in self.journal.replay().items():
            if record.finished or job_id in self._jobs:
                continue
            scenario = record.scenario()
            rng = record.rng()
            job = _Job(job_id, record.scenario_name, record.n_points)
            job.status.points_done = len(record.values)
            job.status.resumed_points = len(record.values)
            job.status.degraded = record.degraded
            self._jobs[job_id] = job
            self._tasks[job_id] = asyncio.create_task(
                self._execute(job, scenario, rng, resume_values=dict(record.values)),
                name=f"sweep-{job_id}",
            )
            resumed.append(job_id)
        return resumed

    async def _execute(
        self,
        job: _Job,
        scenario: Scenario,
        rng: RngLike,
        resume_values: Optional[Dict[int, object]] = None,
    ) -> None:
        status, job_id = job.status, job.status.job_id
        async with self._slots:
            status.state = "running"
            job.started_at = time.perf_counter()
            loop = asyncio.get_running_loop()
            try:
                report = job.report = await loop.run_in_executor(
                    None,
                    lambda: launch_sweep(
                        scenario,
                        rng=rng,
                        cache_dir=self.cache_dir,
                        progress=job.on_progress,
                        resume_values=resume_values,
                        journal=self.journal,
                        job_id=job_id if self.journal is not None else None,
                        **self._launch,
                    ),
                )
                status.state = "done"
                status.points_done = report.n_points
                status.retries = report.retries
                status.degraded = report.degraded
                status.resumed_points = report.resumed_points
                if self.journal is not None:
                    self.journal.job_done(job_id)
            except BaseException as exc:
                job.error = exc
                status.error = str(exc)
                if isinstance(exc, asyncio.CancelledError):
                    status.state = "cancelled"
                    if self.journal is not None:
                        self.journal.job_cancelled(job_id)
                    raise
                status.state = "failed"
                if self.journal is not None:
                    self.journal.job_failed(job_id, str(exc))
            finally:
                job.finished_at = time.perf_counter()
                status.shards_running = 0
                job.done_event.set()

    def _require(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(
                f"unknown job {job_id!r} (have {sorted(self._jobs)})"
            ) from None

    def status(self, job_id: str) -> JobStatus:
        """A snapshot of the job's progress — safe to poll while running."""
        return self._require(job_id).snapshot()

    async def fetch(self, job_id: str) -> LaunchReport:
        """Wait for the job and return its :class:`LaunchReport`.

        Re-raises the launch's exception when the job failed.
        """
        job = self._require(job_id)
        await job.done_event.wait()
        if job.error is not None:
            raise job.error
        assert job.report is not None
        return job.report

    async def close(self) -> None:
        """Drain every job, then remove the service-scoped scratch dir.

        Running launches are allowed to finish (their worker pools shut
        down through the launcher's own path); only then is the shared
        spill directory removed — never out from under a live worker.
        Journal files are *kept*: they are the durable record. Calling
        ``close`` again is a no-op.
        """
        if self._closed:
            return
        self._closed = True
        if self._tasks:
            await asyncio.gather(*self._tasks.values(), return_exceptions=True)
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None
