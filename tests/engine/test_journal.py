"""Job journal: durable append, torn-line tolerance, replay, recovery.

The acceptance bar is the crash-recovery contract: kill a service
mid-job (simulated at the harness level by truncating its journal to a
prefix — exactly what a crash leaves behind), start a new service over
the same journal directory and cache, and the job completes with **zero
recomputed syntheses** and a bit-identical result — journaled-complete
shards are reloaded, only missing ranges re-launch.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.data.fdm import FdmFskModem
from repro.engine import Scenario, SweepRunner, SweepSpec, SweepService, launch_sweep
from repro.engine.faults import FAULTS_ENV_VAR
from repro.engine.journal import (
    JOURNAL_VERSION,
    JobJournal,
    indices_to_ranges,
    ranges_to_indices,
)
from repro.errors import ConfigurationError, JournalError
from repro.experiments import fig09_mrc as fig09

SEED = 2017


def _draw(run):
    return (run.point["a"], run.point["b"], float(run.rng.random()))


def rng_scenario() -> Scenario:
    return Scenario(
        name="jrnl",
        sweep=SweepSpec.grid(a=(1, 2, 3), b=(10.0, 20.0)),
        measure=_draw,
        cache_ambient=False,
    )


def fig09_scenario() -> Scenario:
    return fig09.build_scenario(
        FdmFskModem(symbol_rate=200),
        distances_ft=(2, 4),
        max_factor=2,
        n_bits=40,
    )


class TestRanges:
    def test_round_trip(self):
        indices = [0, 1, 2, 5, 7, 8]
        ranges = indices_to_ranges(indices)
        assert ranges == [(0, 3), (5, 6), (7, 9)]
        assert ranges_to_indices(ranges) == indices

    def test_empty(self):
        assert indices_to_ranges([]) == []
        assert ranges_to_indices([]) == []


class TestAppendReplay:
    def test_typed_records_fold_back(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-0001", b"blob", 2017, "jrnl", 6)
        journal.shard_dispatched("job-0001", 0, 2, 0, worker=1)
        journal.shard_completed("job-0001", [0, 1], ["a", "b"], 0.5)
        journal.shard_retried("job-0001", 2, 4, 0, "worker died\ntraceback...")
        journal.shard_completed("job-0001", [2, 3, 4, 5], list("cdef"), 0.7)
        journal.job_done("job-0001")

        job = journal.replay_job("job-0001")
        assert job.scenario_name == "jrnl"
        assert job.n_points == 6
        assert job.scenario_blob == b"blob"
        assert job.rng() == 2017
        assert job.values == {0: "a", 1: "b", 2: "c", 3: "d", 4: "e", 5: "f"}
        assert job.retries == 1
        assert job.state == "done"
        assert job.finished

    def test_replay_folds_every_job_in_the_directory(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("a-0001", b"", None, "a", 1)
        journal.job_submitted("b-0001", b"", None, "b", 1)
        journal.job_failed("b-0001", "boom")
        jobs = journal.replay()
        assert sorted(jobs) == ["a-0001", "b-0001"]
        assert not jobs["a-0001"].finished
        assert jobs["b-0001"].state == "failed"
        assert jobs["b-0001"].error == "boom"

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(JournalError, match="ghost"):
            JobJournal(tmp_path).replay_job("ghost")

    def test_job_id_is_sanitized_for_the_filesystem(self, tmp_path):
        journal = JobJournal(tmp_path)
        path = journal.path_for("fig/09:weird id")
        assert path.parent == tmp_path
        assert path.name == "fig_09_weird_id.jsonl"
        with pytest.raises(ConfigurationError):
            journal.path_for("///")

    def test_values_survive_numpy_payloads(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("np-0001", b"", None, "np", 2)
        arrays = [np.arange(4, dtype=complex), np.ones(3)]
        journal.shard_completed("np-0001", [0, 1], arrays, 0.1)
        values = journal.replay_job("np-0001").values
        assert np.array_equal(values[0], arrays[0])
        assert np.array_equal(values[1], arrays[1])


class TestCorruption:
    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("torn-0001", b"", None, "torn", 4)
        journal.shard_completed("torn-0001", [0, 1], ["a", "b"], 0.1)
        with open(journal.path_for("torn-0001"), "ab") as handle:
            handle.write(b'{"kind":"shard-done","ranges":[[2,')  # the crash
        job = journal.replay_job("torn-0001")
        assert job.values == {0: "a", 1: "b"}
        assert not job.finished

    def test_append_after_torn_tail_repairs_it_first(self, tmp_path):
        # A restarted service appends to a journal whose last line was
        # torn by the crash; the fragment must be dropped, not glued to
        # the next record (which would be interior corruption).
        journal = JobJournal(tmp_path)
        journal.job_submitted("heal-0001", b"", None, "heal", 2)
        with open(journal.path_for("heal-0001"), "ab") as handle:
            handle.write(b'{"kind":"shard-d')
        fresh = JobJournal(tmp_path)  # the next incarnation
        fresh.shard_completed("heal-0001", [0], ["a"], 0.1)
        fresh.job_done("heal-0001")
        job = fresh.replay_job("heal-0001")
        assert job.values == {0: "a"}
        assert job.finished

    def test_interior_corruption_raises(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("bad-0001", b"", None, "bad", 4)
        path = journal.path_for("bad-0001")
        with open(path, "ab") as handle:
            handle.write(b"garbage, not json\n")
        journal.job_done("bad-0001")  # a valid line after the damage
        with pytest.raises(JournalError, match="corrupt"):
            journal.replay_job("bad-0001")

    def test_future_version_refused(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append("v-0001", {"kind": "done"})
        record = json.dumps({"kind": "done", "v": JOURNAL_VERSION + 1})
        with open(journal.path_for("v-0001"), "ab") as handle:
            handle.write(record.encode() + b"\n")
        journal.job_done("v-0001")  # keeps the bad line non-final
        with pytest.raises(JournalError, match="version"):
            journal.replay_job("v-0001")

    def test_unknown_kind_refused(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append("k-0001", {"kind": "quantum-leap"})
        journal.job_done("k-0001")
        with pytest.raises(JournalError, match="quantum-leap"):
            journal.replay_job("k-0001")


class TestLauncherJournaling:
    def test_launch_journals_dispatch_completion_and_values(self, tmp_path, monkeypatch):
        # The service writes every record from the launcher's events; a
        # worker killed on its first shard adds a retry record.
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-shard:0")
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()

        async def drive():
            service = SweepService(n_workers=2, shard_points=2, journal_dir=str(tmp_path))
            try:
                job_id = await service.submit(rng_scenario(), rng=SEED)
                return job_id, await service.fetch(job_id)
            finally:
                await service.close()

        job_id, report = asyncio.run(drive())
        journal = JobJournal(tmp_path)
        job = journal.replay_job(job_id)
        assert sorted(job.values) == list(range(6))
        assert [job.values[i] for i in range(6)] == serial.values
        assert report.retries >= 1
        assert job.retries == report.retries
        assert job.state == "done"
        lines = journal.path_for(job_id).read_bytes().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds[0] == "submit" and kinds[-1] == "done"
        assert kinds.count("dispatch") >= 3  # every initial shard, at least

    def test_resume_skips_journaled_points_entirely(self):
        # Sentinel values prove the contract: resumed points are
        # *reloaded*, never recomputed — if the launcher re-executed
        # them, the sentinels would be overwritten by real values.
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()
        sentinels = {0: "sentinel-0", 3: "sentinel-3"}
        report = launch_sweep(
            rng_scenario(), rng=SEED, n_workers=2, shard_points=2,
            resume_values=sentinels,
        )
        assert report.resumed_points == 2
        values = report.result.values
        assert values[0] == "sentinel-0"
        assert values[3] == "sentinel-3"
        for index in (1, 2, 4, 5):
            assert values[index] == serial.values[index]
        # The plan covers only the recomputed points, each once.
        planned = sorted(i for d in report.result.plan for i in d.point_indices)
        assert planned == [1, 2, 4, 5]

    def test_full_resume_forks_no_workers(self):
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(
            rng_scenario(), rng=SEED, n_workers=2,
            resume_values=dict(enumerate(serial.values)),
        )
        assert report.resumed_points == 6
        assert report.result.values == serial.values
        assert report.failures == 0
        assert report.exit_codes == ()

    def test_resumed_launch_reports_the_same_cache_counters(self):
        fresh = launch_sweep(fig09_scenario(), rng=SEED, n_workers=2, shard_points=1)
        resumed = launch_sweep(
            fig09_scenario(), rng=SEED, n_workers=2, shard_points=1,
            resume_values={0: fresh.result.values[0]},
        )
        assert resumed.resumed_points == 1
        assert set(resumed.result.cache_stats) == set(fresh.result.cache_stats)

    def test_resume_rejects_out_of_grid_indices(self):
        with pytest.raises(ConfigurationError, match="outside the grid"):
            launch_sweep(rng_scenario(), rng=SEED, resume_values={99: "x"})


def _crash_journal_to_prefix(journal: JobJournal, job_id: str, keep_shard_done: int):
    """Rewrite a finished job's journal to what a crash would leave:
    the submit record, the first ``keep_shard_done`` completions, no
    terminal record, and a torn final line."""
    path = journal.path_for(job_id)
    lines = path.read_bytes().splitlines()
    kept, done_seen = [], 0
    for line in lines:
        record = json.loads(line)
        if record["kind"] in ("done", "failed", "cancelled"):
            continue
        if record["kind"] == "shard-done":
            if done_seen >= keep_shard_done:
                continue
            done_seen += 1
        kept.append(line)
    payload = b"\n".join(kept) + b"\n" + b'{"kind":"shard-d'  # torn append
    path.write_bytes(payload)
    return done_seen


class TestServiceRecovery:
    """The acceptance test: restart over the same journal + cache dirs."""

    def test_recovered_job_completes_without_recomputing(self, tmp_path):
        journal_dir = tmp_path / "jobs"
        cache_dir = tmp_path / "spill"
        cache_dir.mkdir()

        async def first_incarnation():
            service = SweepService(
                n_workers=2, shard_points=1,
                cache_dir=str(cache_dir), journal_dir=str(journal_dir),
            )
            try:
                job_id = await service.submit(fig09_scenario(), rng=SEED)
                report = await service.fetch(job_id)
                return job_id, report
            finally:
                await service.close()

        job_id, reference = asyncio.run(first_incarnation())
        journal = JobJournal(journal_dir)
        assert journal.replay_job(job_id).finished

        # Simulate the crash: the journal ends mid-job, two of the four
        # single-point shards durably complete, the rest never reported.
        kept = _crash_journal_to_prefix(journal, job_id, keep_shard_done=2)
        assert kept == 2
        assert not journal.replay_job(job_id).finished

        async def second_incarnation():
            service = SweepService(
                n_workers=2, shard_points=1,
                cache_dir=str(cache_dir), journal_dir=str(journal_dir),
            )
            try:
                resumed = await service.recover()
                assert resumed == [job_id]
                report = await service.fetch(job_id)
                return report, service.status(job_id)
            finally:
                await service.close()

        report, status = asyncio.run(second_incarnation())
        # Zero recomputed syntheses: journaled points reloaded, missing
        # ranges re-ran against the still-warm store.
        assert report.resumed_points == 2
        assert report.warm_syntheses == 0
        assert report.result.cache_stats["syntheses"] == 0
        assert status.state == "done"
        assert status.resumed_points == 2
        # Bit-identical to the uninterrupted first run.
        assert len(report.result.values) == len(reference.result.values)
        for ours, original in zip(report.result.values, reference.result.values):
            assert np.array_equal(ours, original)
        # The journal now records the second incarnation's completion.
        assert journal.replay_job(job_id).finished

    def test_finished_jobs_are_not_resumed(self, tmp_path):
        async def drive():
            service = SweepService(
                n_workers=1, journal_dir=str(tmp_path / "jobs"),
            )
            try:
                job_id = await service.submit(rng_scenario(), rng=SEED)
                await service.fetch(job_id)
            finally:
                await service.close()

            restarted = SweepService(
                n_workers=1, journal_dir=str(tmp_path / "jobs"),
            )
            try:
                return await restarted.recover()
            finally:
                await restarted.close()

        assert asyncio.run(drive()) == []

    def test_restarted_service_mints_fresh_job_ids(self, tmp_path):
        # A restarted counter must not collide with previous-incarnation
        # journal files, or two jobs' records interleave in one file.
        async def drive():
            first = SweepService(n_workers=1, journal_dir=str(tmp_path / "jobs"))
            try:
                a = await first.submit(rng_scenario(), rng=SEED)
                await first.fetch(a)
            finally:
                await first.close()

            second = SweepService(n_workers=1, journal_dir=str(tmp_path / "jobs"))
            try:
                b = await second.submit(rng_scenario(), rng=SEED)
                await second.fetch(b)
                return a, b
            finally:
                await second.close()

        a, b = asyncio.run(drive())
        assert a != b
        journal = JobJournal(tmp_path / "jobs")
        assert len(journal.job_ids()) == 2
        assert all(journal.replay_job(job).finished for job in journal.job_ids())

    def test_recover_without_journal_is_empty(self):
        async def drive():
            service = SweepService(n_workers=1)
            try:
                return await service.recover()
            finally:
                await service.close()

        assert asyncio.run(drive()) == []
