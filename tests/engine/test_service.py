"""Async sweep service: submit / status / fetch over the launcher.

Plain ``asyncio.run`` drivers (no async test plugin): each test spins an
event loop, runs the coroutine, and asserts on what came back. The
service-level contract under test is sharing — sequential submissions on
one :class:`SweepService` hit the same warm spill directory, so every
job after the first performs zero syntheses.
"""

import asyncio
import os
import time

import numpy as np
import pytest

from repro.channel.fading import BodyMotionFading
from repro.data.fdm import FdmFskModem
from repro.engine import Scenario, SweepRunner, SweepSpec, SweepService, launch_sweep
from repro.engine.service import JOB_STATES, _Job
from repro.errors import ConfigurationError
from repro.experiments import fig09_mrc as fig09

SEED = 2017


def _draw(run):
    return (run.point["a"], run.point["b"], float(run.rng.random()))


def _explode(run):
    raise ValueError("measure always fails")


def _slow_draw(run, slow_a, sleep_s):
    """Like ``_draw`` but one grid row stalls — a synthetic straggler."""
    if run.point["a"] == slow_a:
        time.sleep(sleep_s)
    return _draw(run)


def rng_scenario(measure=_draw) -> Scenario:
    return Scenario(
        name="svc",
        sweep=SweepSpec.grid(a=(1, 2, 3), b=(10.0, 20.0)),
        measure=measure,
        cache_ambient=False,
    )


def fig09_scenario() -> Scenario:
    return fig09.build_scenario(
        FdmFskModem(symbol_rate=200),
        distances_ft=(2, 4),
        max_factor=2,
        n_bits=40,
    )


class TestSubmitStatusFetch:
    def test_round_trip_matches_serial(self):
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()

        async def drive():
            service = SweepService(n_workers=2, shard_points=2)
            try:
                job_id = await service.submit(rng_scenario(), rng=SEED)
                report = await service.fetch(job_id)
                return job_id, service.status(job_id), report
            finally:
                await service.close()

        job_id, status, report = asyncio.run(drive())
        assert job_id.startswith("svc-")
        assert status.state == "done"
        assert status.state in JOB_STATES
        assert status.points_done == status.points_total == 6
        assert status.shards_done >= 1
        assert status.shards_running == 0
        assert status.wall_s > 0
        assert report.result.values == serial.values

    def test_sequential_jobs_share_the_warm_store(self):
        async def drive():
            service = SweepService(n_workers=2, shard_points=1)
            try:
                first = await service.fetch(
                    await service.submit(fig09_scenario(), rng=SEED)
                )
                second = await service.fetch(
                    await service.submit(fig09_scenario(), rng=SEED)
                )
                return first, second
            finally:
                await service.close()

        first, second = asyncio.run(drive())
        assert first.warm_syntheses > 0
        assert second.warm_syntheses == 0
        assert second.result.cache_stats["syntheses"] == 0
        for ours, reference in zip(second.result.values, first.result.values):
            assert np.array_equal(ours, reference)

    def test_concurrent_jobs_both_complete(self):
        async def drive():
            service = SweepService(n_workers=1, shard_points=3, max_parallel_jobs=2)
            try:
                jobs = [
                    await service.submit(rng_scenario(), rng=SEED) for _ in range(2)
                ]
                return [await service.fetch(job) for job in jobs]
            finally:
                await service.close()

        reports = asyncio.run(drive())
        assert reports[0].result.values == reports[1].result.values

    def test_job_ids_are_unique_and_named(self):
        async def drive():
            service = SweepService(n_workers=1)
            try:
                a = await service.submit(rng_scenario(), rng=SEED)
                b = await service.submit(rng_scenario(), rng=SEED)
                await service.fetch(a)
                await service.fetch(b)
                return a, b
            finally:
                await service.close()

        a, b = asyncio.run(drive())
        assert a != b
        assert a.startswith("svc-") and b.startswith("svc-")


class TestClose:
    def test_close_with_job_in_flight_drains_it(self, tmp_path):
        # close() while the launch is still running: the job must be
        # drained through the launcher's own shutdown path (not orphaned,
        # not killed mid-write), the scratch spill dir removed, and the
        # job fetchable afterwards.
        journal_dir = tmp_path / "jobs"

        async def drive():
            service = SweepService(
                n_workers=2, shard_points=2, journal_dir=str(journal_dir)
            )
            scratch = service._scratch
            job_id = await service.submit(rng_scenario(), rng=SEED)
            # No fetch: the launch is (at best) just starting when close
            # runs. close() must wait it out.
            await service.close()
            return service, job_id, scratch

        service, job_id, scratch = asyncio.run(drive())
        status = service.status(job_id)
        assert status.state == "done"
        assert status.points_done == status.points_total == 6
        assert scratch is not None and not os.path.exists(scratch)
        # The journal recorded the drained job's terminal state, so a
        # restart would not resume it.
        from repro.engine.journal import JobJournal

        assert JobJournal(journal_dir).replay_job(job_id).finished

    def test_second_close_is_a_no_op(self):
        async def drive():
            service = SweepService(n_workers=1)
            job_id = await service.submit(rng_scenario(), rng=SEED)
            await service.fetch(job_id)
            await service.close()
            first_scratch_gone = service._scratch is None
            await service.close()  # must not raise, must not re-gather
            return first_scratch_gone

        assert asyncio.run(drive())

    def test_close_before_any_submit(self):
        async def drive():
            service = SweepService(n_workers=1)
            scratch = service._scratch
            await service.close()
            await service.close()
            return scratch

        scratch = asyncio.run(drive())
        assert not os.path.exists(scratch)


class TestFailures:
    def test_unknown_job_raises_key_error(self):
        async def drive():
            service = SweepService(n_workers=1)
            try:
                service.status("nope-0001")
            finally:
                await service.close()

        with pytest.raises(KeyError, match="nope-0001"):
            asyncio.run(drive())

    def test_unpicklable_scenario_rejected_at_the_front_door(self):
        closure = Scenario(
            name="closure",
            sweep=SweepSpec.grid(a=(1, 2)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )

        async def drive():
            service = SweepService(n_workers=1)
            try:
                await service.submit(closure, rng=SEED)
            finally:
                await service.close()

        with pytest.raises(ConfigurationError, match="shipped"):
            asyncio.run(drive())

    def test_live_fading_model_rejected_at_the_front_door(self):
        scenario = fig09_scenario()
        scenario.base_chain = dict(
            scenario.base_chain, fading=BodyMotionFading("running", rng=7)
        )

        async def drive():
            service = SweepService(n_workers=2, shard_points=1)
            try:
                await service.submit(scenario, rng=SEED)
            finally:
                await service.close()

        with pytest.raises(ConfigurationError, match="BodyMotionFading.*MotionFadingSpec"):
            asyncio.run(drive())

    def test_failed_job_reports_and_reraises(self):
        async def drive():
            service = SweepService(n_workers=1, max_retries=0)
            try:
                job_id = await service.submit(rng_scenario(_explode), rng=SEED)
                try:
                    await service.fetch(job_id)
                except Exception as exc:
                    return service.status(job_id), exc
                return service.status(job_id), None
            finally:
                await service.close()

        status, exc = asyncio.run(drive())
        assert status.state == "failed"
        assert "measure always fails" in status.error
        assert exc is not None and "measure always fails" in str(exc)

    def test_bad_launch_settings_rejected_at_construction(self):
        for kwargs in (
            dict(max_retries=-1),
            dict(job_deadline_s=0),
            dict(n_workers=1.5),
            dict(n_workers=True),
            dict(shard_points=2.0),
            dict(max_retries=0.5),
            dict(max_parallel_jobs=0),
            dict(max_parallel_jobs=1.5),
            dict(max_parallel_jobs=True),
            dict(shard_deadline_s=float("nan")),
            dict(job_deadline_s=float("nan")),
            dict(job_deadline_s=True),
            dict(shard_deadline_s="5"),
        ):
            (name,) = kwargs
            with pytest.raises(ConfigurationError, match=name):
                SweepService(**kwargs)


class TestJobStatusCounts:
    def test_speculation_keeps_the_original_running(self):
        # Row a=1 (points 0-1, one shard) stalls past the deadline. Its
        # speculative requeue re-dispatches the halves while the original
        # keeps running, so the requeue must not end the original's
        # count. Without deaths or errors, every dispatch ends in exactly
        # one shard-done, which gives the real in-flight count.
        scenario = Scenario(
            name="svc",
            sweep=SweepSpec.grid(a=(1, 2, 3), b=(10.0, 20.0)),
            measure=_slow_draw,
            measure_params=dict(slow_a=1, sleep_s=0.4),
            cache_ambient=False,
        )
        events = []
        launch_sweep(
            scenario, rng=SEED, n_workers=2, shard_points=2,
            shard_deadline_s=0.05, progress=events.append,
        )
        assert any(event["kind"] == "requeue" for event in events)
        job = _Job("svc-0001", "svc", 6)
        running = 0
        for event in events:
            job.on_progress(event)
            running += {"dispatch": 1, "shard-done": -1}.get(event["kind"], 0)
            assert job.snapshot().shards_running == running, event
        accepted = [e for e in events if e["kind"] == "shard-done" and e["fresh"]]
        assert job.snapshot().shards_done == len(accepted)

    def test_duplicate_completion_is_not_an_accepted_shard(self):
        job = _Job("svc-0001", "svc", 6)
        done = dict(kind="shard-done", attempt=0, points_done=2, points_total=6)
        job.on_progress(dict(done, shard=(0, 2), fresh=2, shards_running=1))
        job.on_progress(dict(done, shard=(0, 1), attempt=1, fresh=0, shards_running=0))
        status = job.snapshot()
        assert status.shards_done == 1
        assert status.points_done == 2
        assert status.shards_running == 0
