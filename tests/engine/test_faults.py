"""Unified fault registry: strict grammar + the chaos bit-identity matrix.

Two contracts. The grammar one: ``REPRO_FAULTS`` parses strictly like
every ``REPRO_*`` knob — a malformed directive raises
:class:`~repro.errors.ConfigurationError` naming the variable. The chaos one (the CI ``chaos``
leg in miniature): **every registered fault class**, injected into the
fig09 grid, leaves the merged result bit-identical to a
``backend="serial"`` run at the same seed — crashes, stragglers, lost
results, torn cache writes and init failures cost retries and wall
clock, never bits.
"""

import numpy as np
import pytest

from repro.data.fdm import FdmFskModem
from repro.engine import Scenario, SweepRunner, SweepSpec, launch_sweep
from repro.engine.faults import (
    FAULT_KINDS,
    FAULTS_ENV_VAR,
    Fault,
    active_plan,
    parse_faults,
)
from repro.engine.launcher import Shard
from repro.errors import ConfigurationError
from repro.experiments import fig09_mrc as fig09

SEED = 2017


def fig09_scenario() -> Scenario:
    return fig09.build_scenario(
        FdmFskModem(symbol_rate=200),
        distances_ft=(2, 4),
        max_factor=2,
        n_bits=40,
    )


def _draw(run):
    return (run.point["a"], run.point["b"], float(run.rng.random()))


def rng_scenario() -> Scenario:
    return Scenario(
        name="chaos",
        sweep=SweepSpec.grid(a=(1, 2, 3), b=(10.0, 20.0)),
        measure=_draw,
        cache_ambient=False,
    )


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)


class TestGrammar:
    def test_empty_spec_is_a_falsy_plan(self):
        assert not parse_faults("")
        assert not active_plan()

    def test_full_grammar_round_trip(self):
        plan = parse_faults(
            "kill-shard:2, delay-shard:0:1.5 ,corrupt-cache:1,drop-result:3,"
            "kill-point:7,init-fail:0"
        )
        assert len(plan.faults) == 6
        assert plan.faults[0] == Fault(kind="kill-shard", target=2)
        assert plan.faults[1] == Fault(kind="delay-shard", target=0, delay_s=1.5)
        assert plan.faults[4] == Fault(kind="kill-point", target=7)

    @pytest.mark.parametrize(
        "bad",
        [
            "drop-table:1",          # unknown class
            "kill-shard",            # missing target
            "kill-shard:",           # empty target
            "kill-shard:-1",         # negative target
            "kill-shard:x",          # non-integer target
            "delay-shard:1",         # delay grammar needs seconds
            "delay-shard:1:zero",    # non-numeric delay
            "delay-shard:1:0",       # zero delay is a typo, not a fault
            "delay-shard:1:2:3",     # too many fields
        ],
    )
    def test_malformed_directive_fails_fast(self, bad):
        with pytest.raises(ConfigurationError, match=FAULTS_ENV_VAR):
            parse_faults(bad)

    def test_error_names_the_registered_classes(self):
        with pytest.raises(ConfigurationError, match="kill-shard"):
            parse_faults("meteor-strike:1")

    def test_active_plan_reads_env_strictly(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-shard:1,drop-result:2")
        plan = active_plan()
        assert {f.kind for f in plan.faults} == {"kill-shard", "drop-result"}
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-shard:1,bogus")
        with pytest.raises(ConfigurationError, match=FAULTS_ENV_VAR):
            active_plan()


class TestPlanQueries:
    def test_kill_shard_fires_on_first_attempt_only(self):
        plan = parse_faults("kill-shard:1")
        assert plan.kill(Shard(shard_id=1, start=2, stop=4))
        assert not plan.kill(Shard(shard_id=1, start=2, stop=4, attempt=1))
        assert not plan.kill(Shard(shard_id=0, start=0, stop=2))

    def test_kill_point_fires_on_every_attempt(self):
        plan = parse_faults("kill-point:3")
        assert plan.kill(Shard(shard_id=9, start=2, stop=4, attempt=5))
        assert not plan.kill(Shard(shard_id=9, start=4, stop=6, attempt=5))

    def test_delay_drop_init_and_corrupt_targets(self):
        plan = parse_faults("delay-shard:2:0.25,drop-result:1,init-fail:0,corrupt-cache:4")
        assert plan.delay_s(Shard(shard_id=2, start=0, stop=1)) == 0.25
        assert plan.delay_s(Shard(shard_id=2, start=0, stop=1, attempt=1)) == 0.0
        assert plan.drop_result(Shard(shard_id=1, start=0, stop=1))
        assert plan.init_fail(0) and not plan.init_fail(1)
        assert plan.corrupt_save(4) and not plan.corrupt_save(3)


@pytest.fixture(scope="module")
def fig09_serial():
    return SweepRunner(fig09_scenario(), rng=SEED, backend="serial").run()


class TestChaosMatrix:
    """Every fault class on the fig09 grid: same bits as serial, always.

    The fig09 grid at ``shard_points=1`` is four single-point shards
    (grid order: (2ft, rep1), (2ft, rep2), (4ft, rep1), (4ft, rep2)),
    so shard ids and point indices coincide — each directive below has a
    deterministic, known victim.
    """

    @pytest.mark.parametrize(
        "spec, kwargs",
        [
            # A crashed worker: reaped, shard re-sliced and retried.
            ("kill-shard:1", {}),
            # A persistently dying range: retries exhaust, the parent
            # salvages the point in-process (degradation, not data loss).
            ("kill-point:2", {"max_retries": 1}),
            # A forced straggler: deadline speculation re-queues it.
            ("delay-shard:0:0.6", {"shard_deadline_s": 0.05}),
            # A result lost in transit: the worker looks busy forever, so
            # only speculation can recover the range.
            ("drop-result:1", {"shard_deadline_s": 0.2}),
            # A torn cache write that survived the atomic rename: readers
            # evict it and resynthesize. Ordinal 1 is the first *composite*
            # the warm-up spills (ordinal 0 is its mpx ingredient, which
            # workers never reload — composites hit directly).
            ("corrupt-cache:1", {}),
            # A worker broken at spawn: reaped before its first task,
            # replaced with a fresh id.
            ("init-fail:0", {}),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_fault_class_does_not_change_a_bit(
        self, monkeypatch, fig09_serial, spec, kwargs
    ):
        monkeypatch.setenv(FAULTS_ENV_VAR, spec)
        report = launch_sweep(
            fig09_scenario(), rng=SEED, n_workers=2, shard_points=1, **kwargs
        )
        assert len(report.result.values) == len(fig09_serial.values)
        for ours, reference in zip(report.result.values, fig09_serial.values):
            assert np.array_equal(ours, reference)

    def test_kill_shard_costs_a_failure(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-shard:1")
        report = launch_sweep(fig09_scenario(), rng=SEED, n_workers=2, shard_points=1)
        assert report.failures >= 1
        assert report.retries >= 1
        assert 87 in report.exit_codes  # the chaos kill's distinguishable code
        assert not report.degraded

    def test_kill_point_degrades_but_completes(self, monkeypatch, fig09_serial):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-point:2")
        report = launch_sweep(
            fig09_scenario(),
            rng=SEED,
            n_workers=2,
            shard_points=1,
            max_retries=1,
        )
        assert report.degraded
        assert report.degraded_points >= 1
        assert len(report.result.values) == len(fig09_serial.values)
        for ours, reference in zip(report.result.values, fig09_serial.values):
            assert np.array_equal(ours, reference)

    def test_corrupt_cache_is_reaped_and_counted(self, monkeypatch, fig09_serial):
        monkeypatch.setenv(FAULTS_ENV_VAR, "corrupt-cache:1")
        report = launch_sweep(fig09_scenario(), rng=SEED, n_workers=2, shard_points=1)
        # The torn entry read as a miss somewhere (parent warm-up or a
        # worker), was reaped and resynthesized — and the bits survived.
        assert report.result.cache_stats["corrupt_evictions"] >= 1
        for ours, reference in zip(report.result.values, fig09_serial.values):
            assert np.array_equal(ours, reference)

    def test_drop_result_recovers_via_speculation(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "drop-result:1")
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(
            rng_scenario(), rng=SEED, n_workers=2, shard_points=1,
            shard_deadline_s=0.1,
        )
        assert report.stragglers >= 1  # the silent worker got speculated
        assert report.result.values == serial.values

    def test_combined_faults_still_bit_identical(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kill-shard:1,init-fail:0")
        serial = SweepRunner(rng_scenario(), rng=SEED, backend="serial").run()
        report = launch_sweep(rng_scenario(), rng=SEED, n_workers=2, shard_points=1)
        assert report.failures >= 2
        assert report.result.values == serial.values

    def test_matrix_covers_every_registered_class(self):
        # A new fault class must be added to the chaos matrix above, or
        # this trips: the registry and the matrix move together.
        covered = {
            "kill-shard", "kill-point", "delay-shard",
            "drop-result", "corrupt-cache", "init-fail",
        }
        assert covered == set(FAULT_KINDS)
