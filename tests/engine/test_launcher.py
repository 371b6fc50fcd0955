"""Distributed launcher: fan-out, crash retry, stragglers, bit-identity.

The acceptance bar for the launcher is the determinism contract under
chaos: a worker killed mid-shard (the ``REPRO_FAULTS`` knob), a
straggler past its deadline, or a duplicated speculative completion must
not change a single bit of the merged result relative to a
``backend="serial"`` run at the same seed — every point's stream is
pre-derived, so retried shards recompute identical bytes.
"""

import ast
import logging
import time
from pathlib import Path

import numpy as np
import pytest

from repro.channel.fading import BodyMotionFading
import repro
from repro.data.fdm import FdmFskModem
from repro.engine import Scenario, SweepRunner, SweepSpec, launch_sweep
from repro.engine import launcher
from repro.engine.faults import FAULTS_ENV_VAR
from repro.engine.launcher import Shard, default_shard_points
from repro.engine.runner import BACKEND_ENV_VAR
from repro.errors import ConfigurationError, LauncherError
from repro.experiments import fig09_mrc as fig09

SEED = 2017


def _draw(run):
    """Module-level measure (picklable) exposing the point's stream."""
    return (run.point["a"], run.point["b"], float(run.rng.random()))


def _slow_draw(run, slow_a, sleep_s):
    """Like ``_draw`` but one grid row stalls — a synthetic straggler."""
    if run.point["a"] == slow_a:
        time.sleep(sleep_s)
    return (run.point["a"], run.point["b"], float(run.rng.random()))


def _explode(run, bad_a):
    """Deterministic per-point failure: retries re-fail identically."""
    if run.point["a"] == bad_a:
        raise ValueError(f"measure refuses a={bad_a}")
    return run.point["a"]


def planned(result):
    """Grid indices the result's plan names, sorted, repeats kept."""
    return sorted(i for decision in result.plan for i in decision.point_indices)


def assert_same_values(ours, reference):
    assert len(ours.values) == len(reference.values)
    for got, want in zip(ours.values, reference.values):
        assert np.array_equal(got, want)


def rng_scenario(measure=_draw, **measure_params) -> Scenario:
    return Scenario(
        name="launch",
        sweep=SweepSpec.grid(a=(1, 2, 3), b=(10.0, 20.0)),
        measure=measure,
        measure_params=measure_params,
        cache_ambient=False,
    )


def fig09_scenario() -> Scenario:
    return fig09.build_scenario(
        FdmFskModem(symbol_rate=200),
        distances_ft=(2, 4),
        max_factor=2,
        n_bits=40,
    )


def live_fading_scenario() -> Scenario:
    """Fig. 9's grid with one live stateful fading model on every link."""
    scenario = fig09_scenario()
    scenario.base_chain = dict(
        scenario.base_chain, fading=BodyMotionFading("running", rng=7)
    )
    return scenario


class TestLaunchMatchesSerial:
    def test_rng_grid_bit_identical_to_serial(self):
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(rng_scenario(), rng=SEED, n_workers=2, shard_points=2)
        assert report.result.values == serial.values
        assert [p.index for p in report.result.points] == list(range(6))
        assert report.n_points == 6
        assert report.n_shards == 3
        assert report.failures == 0
        assert report.result.backend.startswith("launcher[")
        assert planned(report.result) == list(range(6))

    def test_single_worker_single_shard(self):
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(rng_scenario(), rng=SEED, n_workers=1, shard_points=6)
        assert report.result.values == serial.values
        assert report.n_shards == 1

    def test_fig09_grid_bit_identical_to_serial(self):
        serial = SweepRunner(fig09_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(fig09_scenario(), rng=SEED, n_workers=2, shard_points=1)
        assert len(report.result.values) == len(serial.values)
        for ours, reference in zip(report.result.values, serial.values):
            assert np.array_equal(ours, reference)
        # The parent pre-derived + re-ran prepare, so merged data matches.
        assert np.array_equal(report.result.data["bits"], serial.data["bits"])

    @pytest.mark.parametrize(
        "shard_points, decisions",
        [
            (1, {("serial", "single-point")}),
            (3, {("batched", "short-rows"), ("serial", "single-point")}),
            (4, {("batched", "short-rows")}),
        ],
    )
    def test_batched_shards_bit_identical_to_serial(self, shard_points, decisions):
        # Each shard is planned under the parent's setting (auto): the
        # short-row multi-point fig09 shards stack, a one-point shard has
        # nothing to stack.
        serial = SweepRunner(fig09_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(
            fig09_scenario(), rng=SEED, n_workers=2, shard_points=shard_points
        )
        assert_same_values(report.result, serial)
        assert planned(report.result) == list(range(4))
        assert {(d.backend, d.reason) for d in report.result.plan} == decisions

    def test_progress_events_cover_the_grid(self):
        events = []
        launch_sweep(
            rng_scenario(), rng=SEED, n_workers=2, shard_points=2,
            progress=events.append,
        )
        kinds = {event["kind"] for event in events}
        assert "dispatch" in kinds and "shard-done" in kinds
        done = [e for e in events if e["kind"] == "shard-done"]
        assert max(e["points_done"] for e in done) == 6
        assert all(e["points_total"] == 6 for e in events)


class TestInjectedFailure:
    """The CI ``distributed`` leg in miniature: kill a worker mid-grid."""

    def test_killed_worker_does_not_change_a_bit(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-shard:1")
        serial = SweepRunner(fig09_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(fig09_scenario(), rng=SEED, n_workers=2, shard_points=1)
        assert report.failures >= 1
        assert report.retries >= 1
        for ours, reference in zip(report.result.values, serial.values):
            assert np.array_equal(ours, reference)

    def test_killed_batched_shard_is_resliced_bit_identical(self, monkeypatch):
        # The whole grid is one batched shard; its worker dies, and the
        # two re-sliced halves run batched on the survivors.
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-shard:0")
        serial = SweepRunner(fig09_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(fig09_scenario(), rng=SEED, n_workers=2, shard_points=4)
        assert report.failures >= 1
        assert_same_values(report.result, serial)
        assert planned(report.result) == list(range(4))
        assert {d.backend for d in report.result.plan} == {"batched"}

    def test_killed_worker_on_rng_grid(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-shard:0")
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(rng_scenario(), rng=SEED, n_workers=2, shard_points=3)
        assert report.failures >= 1
        assert report.result.values == serial.values

    def test_retry_logs_a_warning(self, monkeypatch, caplog):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-shard:0")
        with caplog.at_level(logging.WARNING, logger="repro.engine.launcher"):
            report = launch_sweep(rng_scenario(), rng=SEED, n_workers=2, shard_points=3)
        retries = [r for r in caplog.records if "re-queueing" in r.getMessage()]
        assert len(retries) == report.retries == 1
        assert retries[0].name == "repro.engine.launcher"
        assert retries[0].levelno == logging.WARNING
        message = retries[0].getMessage()
        assert "[0:3)" in message
        assert "retry 1 of 2" in message
        assert "worker died (exit code 87)" in message

    def test_degradation_logs_the_salvaged_points(self, monkeypatch, caplog):
        # Point 1 kills every worker that holds it, so its range runs out
        # of retries and the parent finishes it in-process.
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-point:1")
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()
        with caplog.at_level(logging.WARNING, logger="repro.engine.launcher"):
            report = launch_sweep(
                rng_scenario(), rng=SEED, n_workers=2, shard_points=1, max_retries=1
            )
        assert report.degraded
        assert report.result.values == serial.values
        assert planned(report.result) == list(range(6))
        salvaged = [r for r in caplog.records if "in-process" in r.getMessage()]
        assert len(salvaged) == 1
        assert salvaged[0].levelno == logging.WARNING
        assert "ran points [1]" in salvaged[0].getMessage()
        assert report.degraded_points == 1

    def test_malformed_fault_knob_fails_fast(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "drop-table")
        with pytest.raises(ConfigurationError, match=FAULTS_ENV_VAR):
            launch_sweep(rng_scenario(), rng=SEED)


class TestStragglers:
    def test_speculation_rescues_a_stalled_shard(self):
        # Row a=1 sleeps well past the deadline; speculation re-queues it
        # while the original keeps running. Whichever copy lands first
        # wins — both computed the same pre-derived stream.
        scenario = rng_scenario(measure=_slow_draw, slow_a=1, sleep_s=0.4)
        serial = SweepRunner(
            rng_scenario(measure=_slow_draw, slow_a=1, sleep_s=0.0),
            rng=SEED,
            backend="serial",
        ).run()
        report = launch_sweep(
            scenario, rng=SEED, n_workers=2, shard_points=2, shard_deadline_s=0.05
        )
        assert report.stragglers >= 1
        assert report.result.values == serial.values
        assert planned(report.result) == list(range(6))

    def test_partly_duplicated_shard_plans_only_its_fresh_points(self):
        # Shard [3:6) stalls on its row a=3 (points 4 and 5). Speculation
        # re-queues [3:4) and [4:6); the idle worker covers point 3 at
        # once, so when the original lands, only its stalled row is
        # fresh, and its plan must be trimmed to that row.
        scenario = rng_scenario(measure=_slow_draw, slow_a=3, sleep_s=0.4)
        report = launch_sweep(
            scenario, rng=SEED, n_workers=2, shard_points=3, shard_deadline_s=0.05
        )
        assert report.stragglers >= 1
        assert planned(report.result) == list(range(6))


class TestFailureModes:
    def test_deterministic_measure_error_exhausts_retries(self):
        scenario = rng_scenario(measure=_explode, bad_a=2)
        with pytest.raises(LauncherError, match="gave up after"):
            launch_sweep(scenario, rng=SEED, n_workers=2, max_retries=1)

    def test_launcher_error_carries_structured_provenance(self):
        # One worker serializes completion order: the first shard (a=1)
        # lands before the second (a=2) fails, so the partial result is
        # deterministic salvage, not a race.
        scenario = rng_scenario(measure=_explode, bad_a=2)
        with pytest.raises(LauncherError) as excinfo:
            launch_sweep(
                scenario, rng=SEED, n_workers=1, shard_points=2, max_retries=0
            )
        error = excinfo.value
        assert error.scenario == "launch"
        assert error.shard_id >= 0
        assert error.point_range == (2, 4)  # the a=2 row, grid order
        assert error.attempts == 1
        assert error.exit_codes == ()  # the worker erred, it didn't die
        partial = error.partial_result
        assert partial is not None
        assert [p.index for p in partial.points] == [0, 1]
        assert partial.values == [1, 1]  # _explode returns point["a"]

    def test_unpicklable_scenario_rejected_up_front(self):
        closure = Scenario(
            name="closure",
            sweep=SweepSpec.grid(a=(1, 2)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        with pytest.raises(ConfigurationError, match="shipped"):
            launch_sweep(closure, rng=SEED)

    def test_malformed_backend_fails_before_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("the launcher forked")

        monkeypatch.setattr(launcher, "_mp_context", no_fork)
        for backend in ("thread", "batched"):
            monkeypatch.setenv(BACKEND_ENV_VAR, backend)
            with pytest.raises(
                ConfigurationError,
                match=rf"{BACKEND_ENV_VAR}.*\('serial', 'auto'\)",
            ):
                launch_sweep(rng_scenario(), rng=SEED, n_workers=2)

    def test_live_fading_model_refused_before_fork(self, monkeypatch):
        # Each worker would draw from its own unpickled copy of the
        # model, so the merged grid would silently differ from serial.
        def no_fork():
            raise AssertionError("the launcher forked")

        monkeypatch.setattr(launcher, "_mp_context", no_fork)
        with pytest.raises(ConfigurationError, match="BodyMotionFading.*MotionFadingSpec"):
            launch_sweep(live_fading_scenario(), rng=SEED, n_workers=2, shard_points=1)

    def test_bad_parameters_rejected(self, monkeypatch):
        # Every check runs before any synthesis or fork.
        def no_fork():
            raise AssertionError("the launcher forked")

        monkeypatch.setattr(launcher, "_mp_context", no_fork)
        for kwargs in (
            dict(n_workers=0),
            dict(max_retries=-1),
            dict(shard_deadline_s=0.0),
            dict(shard_points=0),
            dict(n_workers=2.5),
            dict(n_workers=True),
            dict(n_workers=None),
            dict(shard_points=1.5),
            dict(max_retries=1.0),
            dict(max_retries=False),
        ):
            (name,) = kwargs
            with pytest.raises(ConfigurationError, match=name):
                launch_sweep(fig09_scenario(), rng=SEED, **kwargs)


class TestSharding:
    def test_default_shard_points_targets_four_per_worker(self):
        assert default_shard_points(n_points=64, n_workers=2) == 8
        assert default_shard_points(n_points=3, n_workers=8) == 1

    def test_shard_geometry(self):
        shard = Shard(shard_id=0, start=2, stop=5)
        assert shard.n_points == 3
        assert shard.attempt == 0


class TestSharedStore:
    def test_warm_rerun_performs_zero_syntheses(self, tmp_path):
        cold = launch_sweep(
            fig09_scenario(), rng=SEED, n_workers=2, shard_points=1,
            cache_dir=str(tmp_path),
        )
        assert cold.warm_syntheses > 0
        assert cold.result.cache_stats["syntheses"] == 0  # workers only load
        assert cold.store_dir == str(tmp_path)

        warm = launch_sweep(
            fig09_scenario(), rng=SEED, n_workers=2, shard_points=1,
            cache_dir=str(tmp_path),
        )
        assert warm.warm_syntheses == 0
        assert warm.result.cache_stats["syntheses"] == 0
        assert warm.result.cache_stats["disk_hits"] > 0
        for ours, reference in zip(warm.result.values, cold.result.values):
            assert np.array_equal(ours, reference)


class TestLaunchSettings:
    def test_validation_rejects_nonsense(self):
        # The retry budget is two plain launch settings now; each one
        # out of range fails at the call, before any worker starts.
        for kwargs in (
            dict(max_retries=-1),
            dict(max_retries=-2),
            dict(job_deadline_s=0.0),
            dict(job_deadline_s=-1.0),
        ):
            with pytest.raises(ConfigurationError):
                launch_sweep(rng_scenario(), rng=SEED, **kwargs)


class TestDegradation:
    def test_job_deadline_salvages_in_process(self):
        # A stalling row would blow any tight wall-clock budget; the
        # deadline fires and the parent finishes the grid serially —
        # complete, bit-identical, flagged degraded.
        serial = SweepRunner(
            rng_scenario(measure=_slow_draw, slow_a=1, sleep_s=0.0),
            rng=SEED, backend="serial",
        ).run()
        report = launch_sweep(
            rng_scenario(measure=_slow_draw, slow_a=1, sleep_s=0.8),
            rng=SEED, n_workers=2, shard_points=2,
            job_deadline_s=0.2,
        )
        assert report.degraded
        assert report.degraded_points >= 1
        assert report.result.values == serial.values

    def test_clean_run_is_not_degraded(self):
        report = launch_sweep(rng_scenario(), rng=SEED, n_workers=2)
        assert not report.degraded
        assert report.degraded_points == 0
        assert report.resumed_points == 0


class TestDistributedDriver:
    def test_driver_matches_fig09_run(self):
        kwargs = dict(
            distances_ft=(2, 4), mrc_factors=(1, 2), n_bits=40, rng=SEED
        )
        from repro.experiments import distributed

        reference = fig09.run(**kwargs)
        ours = distributed.run(n_workers=2, **kwargs)
        telemetry = ours.pop("launcher")
        assert ours == reference
        assert telemetry["n_workers"] == 2
        assert telemetry["wall_s"] > 0


def _process_pool_imports(path: Path):
    """Names in ``path`` that import ``multiprocessing`` or a process pool."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [
            name for name in names
            if name.split(".")[0] == "multiprocessing" or name == "ProcessPoolExecutor"
        ]
    return found


class TestOneFanOut:
    def test_only_the_launcher_starts_worker_processes(self):
        # The launcher is the package's one multi-process fan-out: its
        # retries and store warm-up would both have to be repeated by any
        # second one.
        root = Path(repro.__file__).parent
        launcher_path = root / "engine" / "launcher.py"
        assert _process_pool_imports(launcher_path)  # the scan sees imports
        offenders = {
            str(path.relative_to(root)): names
            for path in sorted(root.rglob("*.py"))
            if path != launcher_path and (names := _process_pool_imports(path))
        }
        assert offenders == {}
